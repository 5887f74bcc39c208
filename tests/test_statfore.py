"""Count forecasting: normalization round trips, the channel-token model, baselines."""

import dataclasses

import numpy as np
import pytest

from livesight.config import StatConfig
from livesight.errors import ConfigurationError, DimensionError, WindowError
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
