"""Exception types shared across the package: each is a LivesightError and
keeps its builtin parent, so `except ValueError` callers still catch it."""


class LivesightError(Exception):
    """The base of every named livesight error."""


class DimensionError(LivesightError, ValueError):
    """Operand shapes do not conform."""


class ConfigurationError(LivesightError, ValueError):
    """A model or run configuration is internally inconsistent."""


class WindowError(LivesightError, ValueError):
    """A time window is too short or empty."""


class SequenceError(LivesightError, ValueError):
    """An event sequence is empty or too short."""


class DatasetError(LivesightError, ValueError):
    """A dataset is empty or unusable after filtering."""


class VocabularyError(LivesightError, IndexError):
    """A categorical index falls outside its vocabulary."""

    def __init__(self, message, row=None):
        self.row = row
        super().__init__(message)


class LabelError(LivesightError, ValueError):
    """A supervision label is outside its admissible set."""


class StateError(LivesightError, RuntimeError):
    """Mutable training state is missing or inconsistent."""


class TrainingError(LivesightError, FloatingPointError):
    """Training left a model's loss or parameters non-finite."""


class OracleError(LivesightError, RuntimeError):
    """The independent gradient oracle cannot run (e.g. non-deterministic closure)."""


class ContractError(LivesightError, RuntimeError):
    """A cross-module usage contract was violated (e.g. unfrozen upstream model)."""


class UndefinedMetricError(LivesightError, ValueError):
    """A metric is undefined on the given inputs (e.g. single-class AUC)."""


class ParseError(LivesightError, ValueError):
    """A serialized file is malformed; the message names the file."""
