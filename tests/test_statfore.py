"""Count forecasting: normalization round trips, the channel-token model, baselines."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from livesight import optim
from livesight import tensor as T
from livesight.config import StatConfig
from livesight.errors import ConfigurationError, DimensionError, WindowError
from livesight.optim import Adam, train_epochs
from livesight.pipeline import _stat_block
from livesight.statfore import (
    StatisticModel,
    baseline_forecast,
    collect_windows,
    evaluate_statistic,
    forecast_batch,
    mse_per_step,
    revin_denormalize,
    revin_normalize,
    train_statistic,
)
from livesight.tensor import Tensor

TINY = StatConfig(context=8, horizon_train=5, horizon_infer=3, d_model=8,
                  n_blocks=1, heads=2, d_ff=16, epochs=50, batch=16, lr=3e-3, seed=0)


def random_panel(seed, n=4, t=40):
    """An (n, t) panel of Poisson counts."""
    return np.random.default_rng(seed).poisson(10.0, size=(n, t)).astype(float)


def test_revin_symmetric_triple():
    normed, mu, delta = revin_normalize([[2.0, 4.0, 6.0]])
    assert np.allclose(normed, [[-1.2247, 0.0, 1.2247]], atol=1e-3)
    assert mu[0, 0] == 4.0
    assert abs(delta[0, 0] - 1.63299) < 1e-4


def test_revin_constant_channel_floored():
    normed, mu, delta = revin_normalize([[7.0, 7.0, 7.0, 7.0]])
    assert np.array_equal(normed, [[0.0, 0.0, 0.0, 0.0]])
    assert delta[0, 0] == 1e-6  # scale floor keeps the transform invertible


def test_revin_denormalize_hand_values():
    out = revin_denormalize([[1.0, -1.0]], np.array([[10.0]]), np.array([[2.0]]))
    assert np.array_equal(out, [[12.0, 8.0]])


def test_revin_round_trip_property():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        panel = rng.poisson(20.0, size=(8, 16)).astype(float)
        panel[seed % 8] = 13.0  # always one constant channel
        normed, mu, delta = revin_normalize(panel)
        assert np.allclose(revin_denormalize(normed, mu, delta), panel, atol=1e-9)


def test_revin_normalizes_batches_along_the_last_axis():
    rng = np.random.default_rng(9)
    windows = rng.poisson(10.0, size=(3, 4, 8)).astype(float)
    normed, mu, delta = revin_normalize(windows)
    assert mu.shape == delta.shape == (3, 4, 1)
    for b in range(3):
        one = revin_normalize(windows[b])
        assert np.array_equal(normed[b], one[0]) and np.array_equal(mu[b], one[1])


def test_revin_rejects_short_windows():
    with pytest.raises(WindowError):
        revin_normalize([[1.0], [2.0]])
    with pytest.raises(DimensionError):
        revin_normalize([1.0, 2.0])


def test_forward_shapes_and_window_check():
    model = StatisticModel(TINY)
    windows = np.zeros((3, 4, 8))
    pred, enc = model.forward(windows)
    assert pred.shape == (3, 4, 5)
    assert enc.shape == (3, 4, 8)
    with pytest.raises(DimensionError):
        model.forward(np.zeros((3, 4, 9)))


def test_channel_permutation_equivariance():
    """Channels are tokens: reordering them reorders outputs, nothing else."""
    model = StatisticModel(TINY)
    rng = np.random.default_rng(1)
    w = rng.normal(size=(1, 4, 8))
    perm = np.array([2, 0, 3, 1])
    pred, enc = model.forward(w)
    pred_p, enc_p = model.forward(w[:, perm])
    assert np.allclose(pred_p.data, pred.data[:, perm], atol=1e-9)
    assert np.allclose(enc_p.data, enc.data[:, perm], atol=1e-9)


def test_memorizes_constant_panels():
    # constant channels survive the scale floor end to end: loss ~ 0 at once
    values = np.tile(np.array([[5.0], [9.0], [2.0]]), (1, 30))
    model = StatisticModel(TINY)
    history = train_statistic(model, [values])
    assert history[-1] < 1e-4


def test_training_reduces_loss_on_periodic_panels():
    t = np.arange(40)
    values = np.stack([10 + 5 * np.sin(2 * np.pi * t / 8), 20 + 10 * np.cos(2 * np.pi * t / 4)])
    panel = values - values.min() + 1
    model = StatisticModel(dataclasses.replace(TINY, epochs=30))
    history = train_statistic(model, [panel])
    assert history[-1] < 0.5 * history[0]


def test_forecast_uses_inference_horizon():
    model = StatisticModel(TINY)
    window = np.random.default_rng(2).poisson(10.0, size=(4, 8)).astype(float)
    pred, enc = forecast_batch(model, window[None], TINY.horizon_infer)
    assert pred.shape == (1, 4, 3)  # trained on 5, serves 3
    assert enc.shape == (1, 4, 8)
    assert np.all(np.isfinite(pred))


def test_forecast_batch_runs_a_training_batch_at_a_time_with_the_same_floats(monkeypatch):
    # attention spans one window's channel tokens, so chunking moves no float
    model = StatisticModel(TINY)
    windows = np.random.default_rng(3).poisson(10.0, size=(2 * TINY.batch + 3, 4, 8)).astype(float)
    normed, mu, delta = revin_normalize(windows)
    with model.store.frozen():
        pred, enc = model.forward(Tensor(normed))
    sizes = []
    forward = model.forward

    def spied(x):
        sizes.append(len(x.data))
        return forward(x)

    monkeypatch.setattr(model, "forward", spied)
    got_pred, got_enc = forecast_batch(model, windows, TINY.horizon_infer)
    assert sizes == [TINY.batch, TINY.batch, 3]
    assert np.array_equal(got_pred, pred.data[:, :, : TINY.horizon_infer] * delta + mu)
    assert np.array_equal(got_enc, enc.data)
    empty_pred, empty_enc = forecast_batch(model, windows[:0], TINY.horizon_infer)
    assert empty_pred.shape == (0, 4, 3) and empty_enc.shape == (0, 4, 8)


def test_forecast_batch_memory_grows_by_its_output_only():
    # at the default model shapes one window's intermediates are several times
    # its output, so a single pass over every window would break the bound
    cfg = dataclasses.replace(StatConfig(), batch=8)
    model = StatisticModel(cfg)
    rng = np.random.default_rng(4)
    windows = rng.poisson(10.0, size=(10 * cfg.batch, 8, cfg.context)).astype(float)

    def peak(n):
        forecast_batch(model, windows[:n], cfg.horizon_infer)  # warm up
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            forecast_batch(model, windows[:n], cfg.horizon_infer)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    extra_output = 9 * cfg.batch * 8 * (cfg.horizon_infer + cfg.d_model) * 8
    assert peak(10 * cfg.batch) - peak(cfg.batch) <= 3 * extra_output


def test_training_gathers_each_batch_instead_of_stacking_every_pair():
    cfg = dataclasses.replace(TINY, epochs=1, batch=256)
    panels = np.random.default_rng(3).poisson(10.0, size=(40, 4, 200)).astype(float)
    x, y = collect_windows(panels, cfg.context, cfg.horizon_train)
    stacked = x.nbytes + y.nbytes  # 7,520 pairs: 3.1 MB
    del x, y
    model = StatisticModel(cfg)
    tracemalloc.start()
    try:
        train_statistic(model, panels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < stacked / 2


def stacked_training(model, panels):
    """The trainer as it was: every (window, future) pair stacked up front."""
    c = model.config
    x, y = collect_windows(panels, c.context, c.horizon_train)
    rng = np.random.default_rng([c.seed, 0xDA])

    def batches():
        order = rng.permutation(len(x))
        return [(order[lo : lo + c.batch], 1.0) for lo in range(0, len(order), c.batch)]

    def loss_fn(idx):
        normed, mu, delta = revin_normalize(x[idx])
        pred_norm, _ = model.forward(Tensor(normed))
        pred = pred_norm * Tensor(delta) + Tensor(mu)
        diff = pred + T.mul(Tensor(y[idx]), -1.0)
        return T.tmean(T.mul(diff, diff))

    return list(train_epochs(model.store, loss_fn, batches, c.lr, c.epochs))


def test_gathered_batches_train_the_floats_of_stacked_pairs(monkeypatch):
    adams = []  # each run's optimizer, kept to compare its moments

    def kept(store):
        adams.append(Adam(store))
        return adams[-1]

    monkeypatch.setattr(optim, "Adam", kept)
    cfg = dataclasses.replace(TINY, epochs=2)
    panels = np.stack([random_panel(seed, t=30) for seed in range(3)])
    gathered, stacked = StatisticModel(cfg), StatisticModel(cfg)
    assert train_statistic(gathered, panels) == stacked_training(stacked, panels)
    assert np.array_equal(gathered.store.values, stacked.store.values)
    assert len(adams) == 2 and adams[0].step == adams[1].step > 0
    assert np.array_equal(adams[0].m, adams[1].m)
    assert np.array_equal(adams[0].v, adams[1].v)


def test_train_horizon_must_cover_inference():
    with pytest.raises(ValueError):
        StatConfig(horizon_train=3, horizon_infer=5)


def test_baseline_forecasts():
    window = np.array([[1.0, 2.0, 3.0]])
    assert np.array_equal(baseline_forecast(window, 2, "mean"), [[2.0, 2.0]])
    assert np.array_equal(baseline_forecast(window, 2, "latest"), [[3.0, 3.0]])
    with pytest.raises(ConfigurationError, match="unknown baseline 'oracle'"):
        baseline_forecast(window, 2, "oracle")
    # stacked windows: each one forecast as if alone
    stacked = np.stack([window, 2 * window])
    for method in ("mean", "latest"):
        out = baseline_forecast(stacked, 2, method)
        assert np.array_equal(out[1], baseline_forecast(2 * window, 2, method))


def test_build_stat_foresight_width_and_zero():
    vec = _stat_block(np.ones((1, 2, 5)), np.ones((1, 2, 4)), horizon=3)
    assert vec.shape == (1, 14)  # N*h + N*D = 6 + 8
    zero = _stat_block(np.zeros((1, 2, 5)), np.zeros((1, 2, 4)), horizon=3)
    assert not zero.any()


def test_collect_windows_stride_and_short_panel():
    panel = random_panel(3, n=2, t=20)
    x, y = collect_windows([panel], context=8, horizon=5)  # every start: a stride of 1
    assert x.shape == (8, 2, 8) and y.shape == (8, 2, 5)
    # an (R, N, T) array of panels gives the same pairs as a list of them
    both = np.stack([panel, random_panel(5, n=2, t=20)])
    xs, ys = collect_windows(both, context=8, horizon=5)
    assert np.array_equal(xs[:8], x) and np.array_equal(ys[:8], y) and len(xs) == 16
    with pytest.raises(WindowError, match="panel 1 has 10 buckets; needs at least 13"):
        collect_windows([panel, random_panel(4, n=2, t=10)], context=8, horizon=5)
    # the pairs of all panels are one view, so the panels must share one shape
    with pytest.raises(WindowError, match=r"panel 1 has shape \(2, 25\); panel 0 has \(2, 20\)"):
        collect_windows([panel, random_panel(4, n=2, t=25)], context=8, horizon=5)
    with pytest.raises(WindowError, match=r"panel 1 has shape \(3, 20\)"):
        train_statistic(StatisticModel(TINY), [panel, random_panel(4, n=3, t=20)])
    # no panel, no window: named, not numpy's error from stacking nothing
    with pytest.raises(WindowError, match="no panels"):
        collect_windows(np.empty((0, 2, 20)), context=8, horizon=5)
    with pytest.raises(WindowError, match="no panels"):
        evaluate_statistic(StatisticModel(TINY), np.empty((0, 4, 96)))


def test_evaluate_reports_model_and_baselines():
    model = StatisticModel(TINY)
    out = evaluate_statistic(model, [random_panel(5)])
    assert set(out) == {"model", "mean", "latest"}
    assert all(v >= 0 for v in out.values())


def test_mse_per_step_shape():
    model = StatisticModel(TINY)
    steps = mse_per_step(model, [random_panel(6)])
    assert steps.shape == (5,)
    assert np.all(steps >= 0)


def test_training_is_deterministic():
    values = random_panel(7)
    runs = []
    for _ in range(2):
        model = StatisticModel(dataclasses.replace(TINY, epochs=2))
        train_statistic(model, [values])
        runs.append(np.concatenate([p.data.ravel() for _, p in sorted(model.store.items())]))
    assert runs[0].tobytes() == runs[1].tobytes()
