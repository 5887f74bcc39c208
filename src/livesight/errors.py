"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Operand shapes do not conform."""


class ConfigurationError(ValueError):
    """A model or run configuration is internally inconsistent."""


class WindowError(ValueError):
    """A time window is too short or empty."""


class SequenceError(ValueError):
    """An event sequence is empty or too short."""


class DatasetError(ValueError):
    """A dataset is empty or unusable after filtering."""


class VocabularyError(IndexError):
    """A categorical index falls outside its vocabulary."""

    def __init__(self, message, row=None):
        self.row = row
        super().__init__(message)


class LabelError(ValueError):
    """A supervision label is outside its admissible set."""


class StateError(RuntimeError):
    """Mutable training state is missing or inconsistent."""


class OracleError(RuntimeError):
    """The independent gradient oracle cannot run (e.g. non-deterministic closure)."""


class ContractError(RuntimeError):
    """A cross-module usage contract was violated (e.g. unfrozen upstream model)."""


class UndefinedMetricError(ValueError):
    """A metric is undefined on the given inputs (e.g. single-class AUC)."""


class ParseError(ValueError):
    """A serialized file is malformed."""

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix = f"{path}:"
            if line is not None:
                prefix += f"{line}:"
            prefix += " "
        super().__init__(prefix + message)
