"""The statistic evaluation and ablation blocks as they were composed over
whole arrays, kept as references.

`collect_windows` stacks every (window, future) pair of the panels at once;
the whole-block functions evaluate a forecaster on that stack, and
`concatenated_stat_block` builds an ablation block from fancy-indexed parts.
The tests compare the batched, room-by-room and column-by-column code in
`src/` with them under `np.array_equal`.
"""

import numpy as np

from livesight.metrics import mse
from livesight.statfore import _pairs, baseline_forecast, forecast_batch


def collect_windows(panels, context, horizon):
    """Sliding (window, future) pairs from every panel of `panels` (see
    `_pairs`), stacked for batching: panel by panel, start by start."""
    pairs = _pairs(panels, context, horizon)
    n = pairs.shape[1]
    # reshape copies the transposed views: x and y are C-ordered arrays of their own
    x = pairs[..., :context].transpose(0, 2, 1, 3).reshape(-1, n, context)
    y = pairs[..., context:].transpose(0, 2, 1, 3).reshape(-1, n, horizon)
    return x, y


def whole_block_evaluation(model, panels):
    """`evaluate_statistic` over one stack of every held-out window."""
    c, h = model.config, model.config.horizon_infer
    x, y = collect_windows(panels, c.context, h)
    pred, _ = forecast_batch(model, x, h)
    out = {"model": mse(pred, y)}
    for method in ("mean", "latest"):
        out[method] = mse(baseline_forecast(x, h, method), y)
    return out


def whole_block_mse_per_step(model, panels):
    """`mse_per_step` over one stack of every held-out window."""
    c = model.config
    x, y = collect_windows(panels, c.context, c.horizon_train)
    pred, _ = forecast_batch(model, x, c.horizon_train)
    return np.mean((pred - y) ** 2, axis=(0, 1))


def concatenated_stat_block(steps, enc, horizon, channels=slice(None)):
    """`pipeline._stat_block` as the concatenation of its two parts."""
    parts = [steps[:, channels, :horizon].reshape(len(steps), -1)]
    if enc is not None:
        parts.append(enc[:, channels].reshape(len(steps), -1))
    return np.concatenate(parts, axis=1)
