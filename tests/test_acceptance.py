"""Ten end-to-end acceptance checks, one test (and one pass/fail line) each.

The heavyweight fixtures are session-scoped and shared: `forecasting_runs`
backs the forecast-quality orderings (4, 5, 7) and `ranking_medians` the
ranking-lift check (6). Every run is seeded, so results are reproducible
down to the reported digits.
"""

import dataclasses
import time

import numpy as np
import pytest

from livesight import checkpoint, pipeline, prodfore, ranker, statfore
from livesight import tensor as T
from livesight.config import (
    SERVICES,
    ExperimentConfig,
    ProdConfig,
    RankConfig,
    SimConfig,
    StatConfig,
)
from livesight.gradcheck import grad_check
from livesight.metrics import auc
from livesight.prodfore import CategoryHierarchy, ProductModel
from livesight.ranker import RankingModel, rank_loss
from livesight.simgen import (
    CHANNEL_NAMES,
    HIGHLIGHT,
    STEADY,
    gen_stream,
    gen_world,
    probe_future_vs_past,
)
from livesight.statfore import StatisticModel, revin_denormalize, revin_normalize
from livesight.tensor import Tensor

SEEDS = (101, 202, 303)

TINY_EXPERIMENT = ExperimentConfig(
    seed=5,
    sim=SimConfig(streams=10, users=50, n_samples=300),
    stat=StatConfig(epochs=2),
    prod=ProdConfig(epochs=2),
    rank=RankConfig(epochs=2),
)


def _paired_probe_auc(x, y, seed=0, epochs=300, lr=0.5):
    # convex probe with a fixed split/order: comparisons across feature sets
    # differ only through the features, not through training randomness
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(x))
    cut = len(x) // 2
    tr, ev = order[:cut], order[cut:]
    mean, std = x[tr].mean(axis=0), x[tr].std(axis=0) + 1e-9
    xs = (x - mean) / std
    w = np.zeros(x.shape[1])
    b = 0.0
    for _ in range(epochs):
        p = 1.0 / (1.0 + np.exp(-(xs[tr] @ w + b)))
        g = p - y[tr]
        w -= lr * (xs[tr].T @ g) / len(tr)
        b -= lr * g.mean()
    return auc(xs[ev] @ w + b, y[ev])


@pytest.fixture(scope="session")
def forecasting_runs():
    """Per-seed forecast evaluations on held-out rooms (150-stream worlds)."""
    runs = []
    for seed in SEEDS:
        cfg = ExperimentConfig(seed=seed, sim=SimConfig(streams=150, n_samples=20000))
        art = pipeline.prepare(cfg)
        eval_panels = art.world.panels[art.eval_rooms]
        eval_seqs = [art.world.events[i] for i in art.eval_rooms]
        t0 = time.monotonic()
        stat_eval = statfore.evaluate_statistic(art.stat_model, eval_panels)
        stat_wall = art.timings["train_stat"] + (time.monotonic() - t0)
        prod_eval = prodfore.evaluate_hitrate(art.prod_model, eval_seqs)
        per_step = statfore.mse_per_step(art.stat_model, eval_panels)

        c = art.stat_model.config
        n = len(CHANNEL_NAMES)
        feats = art.bank.stat_steps[art.rows].reshape(len(art.rows), -1)
        samples = art.world.samples
        y = samples.labels[:, samples.tasks.index("ctr")].astype(float)
        probe = []
        for h in range(1, c.horizon_train + 1):
            idx = np.asarray([ch * c.horizon_train + (h - 1) for ch in range(n)])
            probe.append(_paired_probe_auc(feats[:, idx], y))
        runs.append(
            {
                "stat": stat_eval,
                "prod": prod_eval,
                "per_step": per_step,
                "probe": np.asarray(probe),
                "stat_wall": stat_wall,
            }
        )
        del art
    return runs


@pytest.fixture(scope="session")
def ranking_medians():
    """Median eval AUC per (variant, task) over three 80k-sample worlds."""
    variants = ("base", "+stat", "+prod", "+both")
    aucs = {v: {"ctr": [], "cvr": []} for v in variants}
    for seed in SEEDS:
        cfg = ExperimentConfig(
            seed=seed, sim=SimConfig(streams=100, users=200, n_samples=80000)
        )
        art = pipeline.prepare(cfg)
        for variant in variants:
            report, _ = pipeline.train_variant(art, variant)
            for task in ("ctr", "cvr"):
                aucs[variant][task].append(report[task]["AUC"])
        del art
    return {
        v: {t: float(np.median(vals)) for t, vals in by_task.items()}
        for v, by_task in aucs.items()
    }


def test_criterion_1_normalization_round_trip_identity():
    rng = np.random.default_rng(0)
    worst = 0.0
    for i in range(100):
        w = int(rng.integers(16, 64))
        panel = rng.poisson(rng.uniform(2, 40), size=(8, w)).astype(np.float64)
        if i % 7 == 0:
            panel[i % 8] = panel[i % 8, 0]  # constant channel rides the scale floor
        if i == 50:
            panel[:] = 13.0  # fully constant panel
        normed, mu, delta = revin_normalize(panel)
        worst = max(worst, float(np.abs(revin_denormalize(normed, mu, delta) - panel).max()))
    print(f"criterion 1: round-trip max abs error {worst:.2e} < 1e-9")
    assert worst < 1e-9


def test_criterion_2_gradients_match_central_differences():
    errs = {}

    cfg = StatConfig(context=8, d_model=8, n_blocks=1, heads=2, d_ff=16, seed=0)
    stat_model = StatisticModel(cfg)
    rng = np.random.default_rng(3)
    x = rng.poisson(12.0, (2, 3, 8)).astype(np.float64)
    y = rng.poisson(12.0, (2, 3, 5)).astype(np.float64)
    normed, mu, delta = revin_normalize(x)

    def stat_loss():
        pred_norm, _ = stat_model.forward(Tensor(normed))
        pred = pred_norm * Tensor(delta) + Tensor(mu)
        diff = pred + T.mul(Tensor(y), -1.0)
        return T.tmean(T.mul(diff, diff))

    errs["statistic"] = grad_check(stat_loss, stat_model.store, eps=1e-5, max_coords=96)

    h = CategoryHierarchy.balanced(n_c1=2, n_c2=4, n_c3=8, n_products=16)
    prod_model = ProductModel(
        ProdConfig(d_model=8, n_blocks=1, heads=2, d_ff=16, max_context=16, seed=2), h
    )
    events = np.array(
        [[p, *h.parents_of_product(p)] for p in (0, 7, 12, 7)], dtype=np.int64
    )[None]
    labels = events[0, 1:, 3]

    def prod_loss():
        logits, _ = prod_model.forward_positions(events)
        return T.softmax_cross_entropy(T.take(logits, (0, slice(0, 3))), labels)

    errs["product"] = grad_check(prod_loss, prod_model.store, eps=1e-5, max_coords=96)

    # user_id, aff_bucket, author_id, room_category, item_c3, cross_match, click_bucket
    vocab = (10, 5, 6, 5, 12, 2, 4)
    rank_model = RankingModel(
        RankConfig(emb_width=4, hidden=8, seed=1),
        vocab,
        ("ctr", "cvr"),
        "+both",
        stat_width=6,
        n_c3=12,
        d_mix=4,
        prod_enc_width=8,
    )
    rng = np.random.default_rng(4)
    fields = rng.integers(0, 2, size=(4, 7))
    stat = rng.normal(size=(4, 6))
    dist = rng.dirichlet(np.ones(12), size=4)
    enc = rng.normal(size=(4, 8))
    targets = (rng.random((4, 2)) < 0.5).astype(float)

    def ranker_loss():
        feats = rank_model.features(fields, stat=stat, dist=dist, prod_enc=enc)
        return rank_loss(rank_model.forward(*feats), targets)

    errs["ranker"] = grad_check(ranker_loss, rank_model.store, eps=1e-5, max_coords=128)

    line = ", ".join(f"{k} {v:.1e}" for k, v in errs.items())
    print(f"criterion 2: max relative gradient error {line}, all < 1e-4")
    assert all(v < 1e-4 for v in errs.values())


def test_criterion_3_auc_equals_all_pairs_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(4, 201))
        scores = rng.integers(0, 8, size=n).astype(float)  # coarse grid forces ties
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] ^= 1
        pos, neg = scores[labels == 1], scores[labels == 0]
        wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
        assert auc(scores, labels) == wins / (len(pos) * len(neg))
    print("criterion 3: rank-based AUC equals brute force exactly on 100 tied sets")


def test_criterion_4_model_mse_beats_naive_forecasts(forecasting_runs):
    med = {
        k: float(np.median([r["stat"][k] for r in forecasting_runs]))
        for k in ("model", "mean", "latest")
    }
    wall = sum(r["stat_wall"] for r in forecasting_runs)
    print(
        f"criterion 4: median MSE model {med['model']:.1f} < mean {med['mean']:.1f} "
        f"and < latest {med['latest']:.1f} (train+eval wall {wall:.0f}s < 180s)"
    )
    assert med["model"] < med["mean"]
    assert med["model"] < med["latest"]
    assert wall < 180.0


def test_criterion_5_hitrate_beats_naive_categories(forecasting_runs):
    med = {
        k: float(np.median([r["prod"][k] for r in forecasting_runs]))
        for k in ("model", "latest", "most-frequent")
    }
    print(
        f"criterion 5: median HitRate model {med['model']:.3f} > latest {med['latest']:.3f} "
        f"> most-frequent {med['most-frequent']:.3f}"
    )
    assert med["model"] > med["latest"] > med["most-frequent"]


def test_criterion_6_joint_foresight_lifts_both_tasks(ranking_medians):
    med = ranking_medians
    for task in ("ctr", "cvr"):
        base = med["base"][task]
        both = med["+both"][task]
        singles = max(med["+stat"][task], med["+prod"][task])
        print(
            f"criterion 6 [{task}]: +both {both:.4f} > base {base:.4f} "
            f"(margin {both - base:+.4f} >= 0.002) and >= best single {singles:.4f}"
        )
        assert both > base + 0.002
        assert both >= singles


def test_criterion_7_far_steps_forecast_worse_and_help_less(forecasting_runs):
    pooled = np.mean([r["per_step"] for r in forecasting_runs], axis=0)
    probe = np.median([r["probe"] for r in forecasting_runs], axis=0)
    gains = probe - 0.5  # over a constant-score ranker
    print(
        f"criterion 7: per-step MSE {np.round(pooled, 1).tolist()} non-decreasing; "
        f"per-step probe AUC gain {np.round(gains, 4).tolist()} non-increasing"
    )
    assert np.all(np.diff(pooled) >= 0)
    assert np.all(np.diff(gains) <= 0)


def test_criterion_8_foresight_models_frozen_during_ranking(tmp_path):
    art = pipeline.prepare(TINY_EXPERIMENT)
    checkpoint.save_checkpoint(tmp_path / "stat_before.ckpt", art.stat_model.store)
    checkpoint.save_checkpoint(tmp_path / "prod_before.ckpt", art.prod_model.store)

    cfg = dataclasses.replace(TINY_EXPERIMENT.rank, seed=TINY_EXPERIMENT.seed)
    model, _, _ = ranker.train_ranker(
        art.world.samples,
        "+both",
        cfg,
        bank=art.bank,
        rows=art.rows,
    )

    checkpoint.save_checkpoint(tmp_path / "stat_after.ckpt", art.stat_model.store)
    checkpoint.save_checkpoint(tmp_path / "prod_after.ckpt", art.prod_model.store)
    stat_same = checkpoint.file_digest(tmp_path / "stat_before.ckpt") == checkpoint.file_digest(
        tmp_path / "stat_after.ckpt"
    )
    prod_same = checkpoint.file_digest(tmp_path / "prod_before.ckpt") == checkpoint.file_digest(
        tmp_path / "prod_after.ckpt"
    )

    fresh = RankingModel(
        cfg,
        art.world.samples.vocab,
        SERVICES["shopping"],
        "+both",
        stat_width=art.bank.stat.shape[1],
        n_c3=art.bank.dist.shape[1],
        d_mix=art.bank.d_mix,
        prod_enc_width=art.bank.prod_enc.shape[1],
    )
    mix_moved = not np.array_equal(model.store["c3_mix"].data, fresh.store["c3_mix"].data)
    print(
        f"criterion 8: statistic ckpt identical={stat_same}, product ckpt identical={prod_same}, "
        f"category-mix and ranker weights updated={mix_moved}"
    )
    assert stat_same and prod_same and mix_moved


def test_criterion_9_generator_soundness():
    hierarchy = CategoryHierarchy.balanced(5, 20, 100, 2000)
    author_rng = np.random.default_rng(1)
    enter = CHANNEL_NAMES.index("audience_enter")
    hi, st = [], []
    from livesight.simgen import _make_author

    cfg = SimConfig(buckets=96)
    for i in range(10):
        phases, counts, _, _ = gen_stream(*_make_author(author_rng, cfg), hierarchy, cfg, [31, i])
        hi.extend(counts[enter, phases == HIGHLIGHT])
        st.extend(counts[enter, phases == STEADY])
    lift_ok = np.mean(hi) > np.mean(st)

    cfg = SimConfig(buckets=7000)
    _, _, long_events, _ = gen_stream(*_make_author(author_rng, cfg), hierarchy, cfg, seed=32)
    c2 = long_events[:, 2]
    share = float(np.mean(c2[1:] == c2[:-1]))

    world = gen_world(SimConfig(), seed=11)
    probe = probe_future_vs_past(world, seed=0)
    print(
        f"criterion 9: highlight enter mean {np.mean(hi):.1f} > steady {np.mean(st):.1f}; "
        f"level-2 persistence {share:.3f} in 0.6±0.05 over {len(c2) - 1} events; "
        f"probe future {probe['future']:.3f} > past {probe['past']:.3f}"
    )
    assert lift_ok
    assert len(c2) > 1000 and abs(share - 0.6) < 0.05
    assert probe["future"] > probe["past"]


def test_criterion_10_pipeline_reruns_byte_identical(tmp_path):
    cfg = dataclasses.replace(TINY_EXPERIMENT, out_dir=str(tmp_path / "run"))
    first = {name: p.read_bytes() for name, p in pipeline.run_pipeline(cfg).items()}
    second = {name: p.read_bytes() for name, p in pipeline.run_pipeline(cfg).items()}
    same = {name: first[name] == second[name] for name in first}
    print(f"criterion 10: byte-identical reports {same}")
    assert all(same.values())
