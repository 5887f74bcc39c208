"""Experiment configuration: one nested dataclass tree, JSON round trip, hashing.

Every report file embeds `config_hash(cfg)` in its header so two runs can be
compared by eye before being compared byte for byte.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field

from .errors import ConfigurationError

SERVICES = {
    "shopping": ("ctr", "cvr"),
    "talent": ("ctr", "evtr", "lvtr", "cmtr", "gtr"),
}

VARIANTS = ("base", "+stat", "+prod", "+both")

# the earliest bucket an exposure sample can sit in; the statistic window
# ending at a sample's bucket must not start before the stream does
SAMPLE_BUCKET_FLOOR = 32


def _check_at_least(cfg, **floors):
    for name, floor in floors.items():
        if getattr(cfg, name) < floor:
            raise ConfigurationError(
                f"{type(cfg).__name__}.{name} must be >= {floor}, got {getattr(cfg, name)}"
            )


def _check_training(cfg):
    # numpy's generators take no negative seed
    _check_at_least(cfg, epochs=1, batch=1, seed=0)
    if not (math.isfinite(cfg.lr) and cfg.lr > 0):
        raise ConfigurationError(f"{type(cfg).__name__}.lr must be finite and > 0, got {cfg.lr}")


def _check_transformer(cfg):
    _check_at_least(cfg, d_model=1, n_blocks=0, d_ff=1)
    if cfg.heads < 1 or cfg.d_model % cfg.heads:
        raise ConfigurationError(
            f"{type(cfg).__name__}.heads must be >= 1 and divide d_model {cfg.d_model}, "
            f"got {cfg.heads}"
        )


@dataclass
class SimConfig:
    streams: int = 60
    users: int = 200
    buckets: int = 96
    n_c1: int = 5
    n_c2: int = 20
    n_c3: int = 100
    n_products: int = 2000
    n_samples: int = 6000
    service: str = "shopping"
    # phase chain: rows steady / highlight / grab over [steady, highlight, grab]
    phase_matrix: tuple = (
        (0.85, 0.10, 0.05),
        (0.35, 0.60, 0.05),
        (0.55, 0.05, 0.40),
    )
    # category kernel per product switch
    stay_level2: float = 0.6
    move_level1: float = 0.3
    jump: float = 0.1
    repeat_within_stay: float = 0.2
    event_gap_min: int = 4
    event_gap_max: int = 8
    dirichlet_alpha: float = 0.3
    click_affinity_coeff: float = 2.0
    click_highlight_coeff: float = 1.5
    click_bias: float = -2.5
    future_affinity_coeff: float = 2.5
    future_grab_coeff: float = 2.5
    future_bias: float = -3.2

    def __post_init__(self):
        for name in ("streams", "n_samples", "n_c1", "n_c2", "n_c3", "n_products"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.buckets < 48:
            raise ConfigurationError(f"buckets must be >= 48, got {self.buckets}")
        if self.users < 50:
            raise ConfigurationError(f"users must be >= 50, got {self.users}")
        if self.service not in SERVICES:
            raise ConfigurationError(f"unknown service {self.service!r}")
        if self.event_gap_min < 1 or self.event_gap_max < self.event_gap_min:
            raise ConfigurationError(
                "event_gap_min must be >= 1 and event_gap_max >= event_gap_min, got "
                f"event_gap_min={self.event_gap_min}, event_gap_max={self.event_gap_max}"
            )
        # numpy's Dirichlet sampler needs alpha > 0; the repeat chance and the
        # category kernel are probabilities (a NaN fails `0 <= p <= 1`)
        if not (math.isfinite(self.dirichlet_alpha) and self.dirichlet_alpha > 0):
            raise ConfigurationError(
                f"dirichlet_alpha must be finite and > 0, got {self.dirichlet_alpha}"
            )
        for name in ("repeat_within_stay", "stay_level2", "move_level1", "jump"):
            if not 0 <= getattr(self, name) <= 1:
                raise ConfigurationError(f"{name} must be in [0, 1], got {getattr(self, name)}")
        for name in ("click_affinity_coeff", "click_highlight_coeff", "click_bias",
                     "future_affinity_coeff", "future_grab_coeff", "future_bias"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite, got {getattr(self, name)}")
        total = self.stay_level2 + self.move_level1 + self.jump
        if abs(total - 1.0) > 1e-9:
            raise ConfigurationError(f"category kernel probabilities sum to {total}, not 1")
        # the phase sampler bisects each row's cumulative sum and checks nothing itself
        rows = self.phase_matrix
        if len(rows) != 3 or any(len(row) != 3 or not all(v >= 0 for v in row) for row in rows):
            raise ConfigurationError(
                f"phase_matrix must be 3 rows of 3 non-negative probabilities, got {rows}"
            )
        for row in rows:
            if abs(sum(row) - 1.0) > 1e-9:
                raise ConfigurationError(f"phase matrix row {row} does not sum to 1")


@dataclass
class StatConfig:
    context: int = 32
    horizon_train: int = 5
    horizon_infer: int = 3
    d_model: int = 32
    n_blocks: int = 2
    heads: int = 4
    d_ff: int = 64
    epochs: int = 6
    batch: int = 64
    lr: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        _check_at_least(self, context=2, horizon_train=1, horizon_infer=1)
        if self.horizon_infer > self.horizon_train:
            raise ConfigurationError(
                f"inference horizon {self.horizon_infer} exceeds trained horizon "
                f"{self.horizon_train}"
            )
        _check_transformer(self)
        _check_training(self)


@dataclass
class ProdConfig:
    d_model: int = 32
    n_blocks: int = 2
    heads: int = 4
    d_ff: int = 64
    max_context: int = 64
    # fresh-room HitRate stops rising by epoch 10 (tests/fresh_rooms.py)
    epochs: int = 10
    batch: int = 128
    lr: float = 6e-3
    seed: int = 0

    def __post_init__(self):
        # events[-max_context:] must keep a real suffix with a successor
        _check_at_least(self, max_context=2)
        _check_transformer(self)
        _check_training(self)


@dataclass
class RankConfig:
    emb_width: int = 16
    hidden: int = 64
    k_enc: int = 8
    epochs: int = 24
    batch: int = 128
    lr: float = 1e-3
    eval_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        _check_at_least(self, hidden=1, emb_width=1, k_enc=0)
        _check_training(self)
        if not 0 < self.eval_fraction < 1:
            raise ConfigurationError(
                f"RankConfig.eval_fraction must be in (0, 1), got {self.eval_fraction}"
            )


@dataclass
class ExperimentConfig:
    seed: int = 7
    out_dir: str = "runs/default"
    variant: str = "+both"
    sim: SimConfig = field(default_factory=SimConfig)
    stat: StatConfig = field(default_factory=StatConfig)
    prod: ProdConfig = field(default_factory=ProdConfig)
    rank: RankConfig = field(default_factory=RankConfig)

    def __post_init__(self):
        _check_at_least(self, seed=0)
        for name in ("stat", "prod"):  # `pipeline.model_configs` trains both at `seed`
            if getattr(self, name).seed:
                raise ConfigurationError(f"{name}.seed must be 0, got {getattr(self, name).seed}: "
                                         "the forecasters train at `seed`, which --seed sets")
        if self.variant not in VARIANTS:
            raise ConfigurationError(f"unknown variant {self.variant!r}")
        if self.sim.n_c3 < 2:
            # a one-class softmax: the product forecaster would fail after
            # the statistic forecaster's checkpoint was written
            raise ConfigurationError(
                f"sim.n_c3 must be >= 2 for the product forecaster, got {self.sim.n_c3}"
            )
        if self.stat.context > SAMPLE_BUCKET_FLOOR + 1:
            raise ConfigurationError(
                f"stat.context {self.stat.context} is longer than the {SAMPLE_BUCKET_FLOOR + 1} "
                f"buckets before the first exposure sample (bucket {SAMPLE_BUCKET_FLOOR})"
            )
        if self.stat.context + self.stat.horizon_train > self.sim.buckets:
            raise ConfigurationError(
                f"stat.context + stat.horizon_train = {self.stat.context} + "
                f"{self.stat.horizon_train} exceeds sim.buckets {self.sim.buckets}"
            )

    @property
    def tasks(self):
        return SERVICES[self.sim.service]


def to_dict(cfg):
    return dataclasses.asdict(cfg)


def _conforms(value, default):
    """Whether a JSON value can stand for `default`: the same type (an int may
    stand for a float), and for a tuple as many items, each conforming."""
    if isinstance(default, tuple):
        return (isinstance(value, (list, tuple)) and len(value) == len(default)
                and all(map(_conforms, value, default)))
    if isinstance(value, bool) or isinstance(default, bool):
        return type(value) is type(default)
    return isinstance(value, type(default)) or (type(default) is float and type(value) is int)


def _build(cls, data, section=""):
    """`cls` from a JSON object; an unknown key or a value of the wrong type
    raises ConfigurationError naming `section.key`."""
    if not isinstance(data, dict):
        raise ConfigurationError(f"config {section or 'file'} must be a JSON object, got {data!r}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(data) - set(fields)
    if unknown:
        raise ConfigurationError(f"unknown {cls.__name__} keys {sorted(unknown)}")
    for name, value in data.items():
        default = fields[name].default
        if default is not dataclasses.MISSING and not _conforms(value, default):
            key = f"{section}.{name}" if section else name
            raise ConfigurationError(
                f"{key} must be of type {type(default).__name__}, got {value!r}"
            )
    if "phase_matrix" in data:
        data = {**data, "phase_matrix": tuple(tuple(row) for row in data["phase_matrix"])}
    return cls(**data)


SECTIONS = {"sim": SimConfig, "stat": StatConfig, "prod": ProdConfig, "rank": RankConfig}


def from_dict(data):
    if isinstance(data, dict):
        data = {k: _build(SECTIONS[k], v, k) if k in SECTIONS else v for k, v in data.items()}
    return _build(ExperimentConfig, data)


def load_config(path):
    with open(path) as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigurationError(f"{path} is not a JSON config: {exc}") from exc
    return from_dict(data)


def config_hash(cfg):
    """12 hex digits of the SHA-256 of `cfg`'s canonical JSON. An
    `ExperimentConfig` is hashed without `out_dir`: where a run writes is not
    part of the experiment, so one experiment gets one hash in any directory."""
    if isinstance(cfg, ExperimentConfig):
        cfg = {k: v for k, v in to_dict(cfg).items() if k != "out_dir"}
    elif dataclasses.is_dataclass(cfg):
        cfg = to_dict(cfg)
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]
