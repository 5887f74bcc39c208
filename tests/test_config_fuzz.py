"""Seeded config fuzz: any config the CLI accepts either runs end to end or
fails with a named error before any forecaster checkpoint or foresight bank
is written.

The cases are tiny configs at one epoch: every integer field at its floor and
just below it, the float fields with a range at its edges and past them (the
category kernel's three probabilities together), and seeded random configs
with both services and long streams (more events than `prod.max_context`).
numpy draws them; no `hypothesis`.
"""

import copy
import math

import numpy as np
import pytest

from livesight import pipeline
from livesight.config import SERVICES, VARIANTS, from_dict
from livesight.errors import LivesightError

BASE = {
    "sim": {"streams": 5, "users": 50, "buckets": 48, "n_c1": 1, "n_c2": 2, "n_c3": 4,
            "n_products": 8, "n_samples": 300, "event_gap_min": 1, "event_gap_max": 4},
    "stat": {"context": 8, "horizon_train": 2, "horizon_infer": 1, "d_model": 4, "n_blocks": 1,
             "heads": 1, "d_ff": 4, "epochs": 1, "batch": 32},
    "prod": {"d_model": 4, "n_blocks": 1, "heads": 1, "d_ff": 4, "max_context": 8, "epochs": 1,
             "batch": 32},
    "rank": {"emb_width": 2, "hidden": 4, "k_enc": 1, "epochs": 1, "batch": 32},
}

# (section, field, floor): the smallest value each integer field accepts;
# `streams` is accepted from 1, and a run needs an eval room (5 streams)
FLOORS = (
    [("", "seed", 0)]
    + [("sim", name, 1) for name in ("streams", "n_c1", "n_c2", "n_products", "n_samples",
                                     "event_gap_min", "event_gap_max")]
    + [("sim", "n_c3", 2), ("sim", "users", 50), ("sim", "buckets", 48)]
    + [("stat", "context", 2), ("stat", "horizon_train", 1), ("stat", "horizon_infer", 1),
       ("prod", "max_context", 2)]
    + [(section, name, floor) for section in ("stat", "prod")
       for name, floor in (("d_model", 1), ("n_blocks", 0), ("heads", 1), ("d_ff", 1))]
    + [("rank", "emb_width", 1), ("rank", "hidden", 1), ("rank", "k_enc", 0)]
    + [(section, name, floor) for section in ("stat", "prod", "rank")
       for name, floor in (("epochs", 1), ("batch", 1), ("seed", 0))]
)
# the category kernel's three probabilities, set together since they sum to 1
KERNEL = ("stay_level2", "move_level1", "jump")
# (section, field or fields, accepted at the edge, refused past it)
EDGES = [
    ("sim", "dirichlet_alpha", [0.05], [0, -1, math.inf, math.nan]),
    ("sim", "repeat_within_stay", [0.0, 1.0], [-0.5, 1.5, math.inf, math.nan]),
    *((section, "lr", [1e-9], [0, -1, math.inf, math.nan]) for section in ("stat", "prod", "rank")),
    ("sim", KERNEL, [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)],
     [(math.nan, 0.3, 0.1), (0.6, math.nan, 0.1), (0.6, 0.3, math.nan), (math.inf, 0.3, 0.1),
      (1.2, -0.3, 0.1), (0.6, 0.5, -0.1), (-0.2, 0.3, 0.9)]),
    *(("sim", name, [0.0], [math.inf, -math.inf, math.nan])
      for name in ("click_affinity_coeff", "click_highlight_coeff", "click_bias",
                   "future_affinity_coeff", "future_grab_coeff", "future_bias")),
]
N_RANDOM = 60


def random_config(rng):
    """A tiny config at one epoch; long streams (150 to 240 buckets) with
    probability 0.35. The forecasters train at the experiment seed, so their
    sections draw no seed of their own."""

    def pick(lo, hi):
        return int(rng.integers(lo, hi + 1))

    n_c1 = pick(1, 3)
    n_c2 = n_c1 * pick(1, 2)
    n_c3 = n_c2 * pick(1, 3)
    gap = pick(1, 4)
    long_streams = rng.random() < 0.35
    horizon = pick(1, 4)
    stat_heads, prod_heads = pick(1, 3), pick(1, 3)
    return {
        "seed": pick(0, 999),
        "variant": str(rng.choice(VARIANTS)),
        "sim": {"streams": pick(5, 8), "users": pick(50, 70),
                "buckets": pick(150, 240) if long_streams else pick(48, 96),
                "n_c1": n_c1, "n_c2": n_c2, "n_c3": n_c3, "n_products": n_c3 * pick(1, 4),
                "n_samples": pick(150, 400), "service": str(rng.choice(list(SERVICES))),
                "event_gap_min": gap, "event_gap_max": gap + pick(0, 4)},
        "stat": {"context": pick(2, 33), "horizon_train": horizon,
                 "horizon_infer": pick(1, horizon), "d_model": stat_heads * pick(1, 3),
                 "n_blocks": pick(0, 2), "heads": stat_heads, "d_ff": pick(1, 8),
                 "epochs": 1, "batch": pick(8, 64)},
        "prod": {"d_model": prod_heads * pick(1, 3), "n_blocks": pick(0, 2),
                 "heads": prod_heads, "d_ff": pick(1, 8), "max_context": pick(2, 12),
                 "epochs": 1, "batch": pick(8, 64)},
        "rank": {"emb_width": pick(1, 4), "hidden": pick(1, 8), "k_enc": pick(0, 3),
                 "epochs": 1, "batch": pick(8, 64), "seed": pick(0, 99)},
    }


def floor_case(section, name, value):
    """BASE with `name` set to `value`, or each of a tuple of names to its value."""
    data = copy.deepcopy(BASE)
    names, values = (name, value) if isinstance(name, tuple) else ((name,), (value,))
    (data[section] if section else data).update(zip(names, values))
    return data


CASES = [
    pytest.param(floor_case(section, name, floor + shift), "refused" if shift else None,
                 id=f"{'below' if shift else 'at'}-{section + '.' if section else ''}{name}")
    for section, name, floor in FLOORS
    for shift in (0, -1)
] + [
    pytest.param(floor_case(section, name, value), expect,
                 id=f"{where}-{section}.{'kernel' if name == KERNEL else name}={value}")
    for section, name, edge, beyond in EDGES
    for expect, where, values in (("ran", "edge", edge), ("refused", "past", beyond))
    for value in values
] + [
    pytest.param(random_config(np.random.default_rng(seed)), None, id=f"random-{seed}")
    for seed in range(N_RANDOM)
]


def run_or_refuse(data, root):
    """'ran' or 'refused' for a run into `root`/run; a refusal must be named
    and leave no checkpoint and no foresight bank."""
    try:
        paths = pipeline.run_pipeline(from_dict({**data, "out_dir": str(root / "run")}))
    except LivesightError:
        assert not list(root.rglob("*.ckpt")) and not list(root.rglob("*.bank"))
        return "refused"
    service = data["sim"].get("service", "shopping")
    variants = len(VARIANTS) if service == "shopping" else 2  # talent: base and +stat
    rows = variants * len(SERVICES[service])
    assert len(paths["rank_report"].read_text().splitlines()) == 2 + rows
    assert len(paths["forecast_report"].read_text().splitlines()) == 2 + 6
    return "ran"


@pytest.mark.parametrize("data, expect", CASES)
def test_a_config_runs_or_is_refused_by_name(data, expect, tmp_path):
    # a value past an edge or below a floor is refused; one at an edge runs
    outcome = run_or_refuse(data, tmp_path)
    if expect:
        assert outcome == expect


def test_the_fuzz_runs_most_configs_end_to_end(tmp_path):
    # the contract would hold if every config were refused; most must run
    outcomes = [run_or_refuse(random_config(np.random.default_rng(seed)), tmp_path / str(seed))
                for seed in range(N_RANDOM, N_RANDOM + 10)]
    assert outcomes.count("ran") >= 7


def test_a_zero_width_bank_round_trips(tmp_path, monkeypatch):
    # at rank.k_enc = 0 the product encodings have no column
    cfg = from_dict({**floor_case("rank", "k_enc", 0), "out_dir": str(tmp_path)})
    built = pipeline.prepare(cfg, out_dir=tmp_path, reuse=True)
    monkeypatch.setattr(pipeline, "build_foresight_bank", None)  # the bank must be loaded
    loaded = pipeline.prepare(cfg, out_dir=tmp_path, reuse=True)
    assert loaded.bank.prod_enc.shape == (len(loaded.bank.prod_key), 0)
    for name in pipeline.BANK_COLUMNS:
        assert np.array_equal(getattr(loaded.bank, name), getattr(built.bank, name))
