"""Foresight-augmented ranking for live-stream rooms.

Two forecasters look ahead from the current time bucket — one predicts the
next few values of the room's statistic panel, the other the next product
category — and their outputs (plus internal encodings) are frozen and fed
as extra features into a multi-task CTR/CVR ranker.
"""

from .config import ExperimentConfig, ProdConfig, RankConfig, SimConfig, StatConfig
from .errors import (
    ConfigurationError,
    ContractError,
    DatasetError,
    DimensionError,
    LabelError,
    OracleError,
    ParseError,
    SequenceError,
    StateError,
    UndefinedMetricError,
    VocabularyError,
    WindowError,
)
from .gradcheck import grad_check
from .metrics import auc, gauc, hit_rate, mse, uauc
from .optim import ParamStore, adam_step
from .prodfore import CategoryHierarchy, ProductModel
from .ranker import RankingModel, rank_loss, train_ranker
from .simgen import SampleTable, StatPanel, World, gen_interactions, gen_stream, gen_world
from .statfore import StatisticModel, revin_denormalize, revin_normalize
from .tensor import Tensor

__all__ = [
    "CategoryHierarchy",
    "ConfigurationError",
    "ContractError",
    "DatasetError",
    "DimensionError",
    "ExperimentConfig",
    "LabelError",
    "OracleError",
    "ParamStore",
    "ParseError",
    "ProdConfig",
    "ProductModel",
    "RankConfig",
    "RankingModel",
    "SampleTable",
    "SequenceError",
    "SimConfig",
    "StatConfig",
    "StatPanel",
    "StateError",
    "StatisticModel",
    "Tensor",
    "UndefinedMetricError",
    "VocabularyError",
    "WindowError",
    "World",
    "adam_step",
    "auc",
    "gauc",
    "gen_interactions",
    "gen_stream",
    "gen_world",
    "grad_check",
    "hit_rate",
    "mse",
    "rank_loss",
    "revin_denormalize",
    "revin_normalize",
    "train_ranker",
    "uauc",
]
