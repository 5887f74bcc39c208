"""Per-room behavior-count forecasting.

A room's panel is N counting channels bucketed at 30 s. Each channel's recent
window is normalized by its own mean/scale (reversible instance
normalization), embedded as ONE token, and the transformer attends across
channels rather than across time. A linear head emits the next `horizon_train`
normalized steps per channel; predictions are denormalized before the loss, so
training optimizes error in the original count scale.
"""

from __future__ import annotations

import numpy as np

from . import layers
from . import tensor as T
from .config import StatConfig
from .errors import ConfigurationError, DimensionError, WindowError
from .metrics import mse
from .optim import ParamStore, train_epochs
from .tensor import Tensor

SCALE_FLOOR = 1e-6


def revin_normalize(window):
    """Return (normalized, mu, delta) with per-channel mean/scale.

    `window` is (..., N, W); each channel is normalized along the last axis.
    delta is the population std floored at 1e-6 so constant channels stay
    invertible.
    """
    window = np.asarray(window, dtype=np.float64)
    if window.ndim < 2:
        raise DimensionError(f"window must be (..., N, W), got {window.shape}")
    if window.shape[-1] < 2:
        raise WindowError(f"need at least 2 observations per channel, got {window.shape[-1]}")
    mu = window.mean(axis=-1, keepdims=True)
    delta = np.maximum(window.std(axis=-1, keepdims=True), SCALE_FLOOR)
    return (window - mu) / delta, mu, delta


def revin_denormalize(values, mu, delta):
    values = np.asarray(values, dtype=np.float64)
    return values * delta + mu


class StatisticModel:
    """Channel-as-token forecaster over count windows."""

    def __init__(self, config: StatConfig):
        self.config = config
        self.store = ParamStore()
        rng = np.random.default_rng([config.seed, 0xC0])
        c = config
        layers.init_dense(self.store, "proj", c.context, c.d_model, rng)
        layers.init_encoder(self.store, "enc", c.n_blocks, c.d_model, c.d_ff, rng)
        layers.init_dense(self.store, "head", c.d_model, c.horizon_train, rng)

    def forward(self, windows):
        """Normalized windows (B, N, W) -> (normalized predictions (B, N, h), encodings (B, N, D))."""
        windows = T.as_tensor(windows)
        if windows.shape[-1] != self.config.context:
            raise DimensionError(
                f"window length {windows.shape[-1]} != context {self.config.context}"
            )
        tokens = T.dense(windows, self.store["proj.w"], self.store["proj.b"])
        enc = layers.encoder(
            tokens, self.store, "enc", self.config.n_blocks, self.config.heads, causal=False
        )
        pred = T.dense(enc, self.store["head.w"], self.store["head.b"])
        return pred, enc


def _pairs(panels, context, horizon):
    """Every (window, future) pair of the (N, T) count panels of `panels` (an
    (R, N, T) array or a sequence of equally shaped (N, T) arrays) as one
    (R, N, T - context - horizon + 1, context + horizon) view: the pair at
    start s of panel r is `[r, :, s]`, its window the first `context` steps."""
    for i, panel in enumerate(panels):
        t_total = panel.shape[1]
        if t_total < context + horizon:
            raise WindowError(
                f"panel {i} has {t_total} buckets; needs at least {context + horizon}"
            )
        if panel.shape != panels[0].shape:
            raise WindowError(f"panel {i} has shape {panel.shape}; panel 0 has {panels[0].shape}")
    if not len(panels):
        raise WindowError("no panels to cut windows from")
    return np.lib.stride_tricks.sliding_window_view(np.asarray(panels), context + horizon, axis=-1)


def train_statistic(model, panels):
    """Minimize original-scale MSE over sliding windows; returns per-epoch loss.
    Each batch gathers its own pairs from one view of the panels."""
    c = model.config
    pairs = _pairs(panels, c.context, c.horizon_train)
    starts = pairs.shape[2]
    rng = np.random.default_rng([c.seed, 0xDA])

    def batches():
        order = rng.permutation(len(pairs) * starts)
        return [(order[lo : lo + c.batch], 1.0) for lo in range(0, len(order), c.batch)]

    def loss_fn(idx):
        room, start = np.divmod(idx, starts)
        batch = pairs[room, :, start]  # (B, N, context + horizon)
        normed, mu, delta = revin_normalize(batch[..., : c.context])
        pred_norm, _ = model.forward(Tensor(normed))
        pred = pred_norm * Tensor(delta) + Tensor(mu)
        diff = pred + T.mul(Tensor(batch[..., c.context :]), -1.0)
        return T.tmean(T.mul(diff, diff))

    return list(train_epochs("statistic forecaster", model.store, loss_fn, batches, c.lr, c.epochs))


def baseline_forecast(window, horizon, method):
    """Repeat either the window mean or the latest value, per channel.

    `window` is (..., N, W); the forecast is (..., N, horizon).
    """
    window = np.asarray(window, dtype=np.float64)
    if method == "mean":
        col = window.mean(axis=-1, keepdims=True)
    elif method == "latest":
        col = window[..., -1:]
    else:
        raise ConfigurationError(f"unknown baseline {method!r}")
    return np.repeat(col, horizon, axis=-1)


def _forecast(model, windows, horizon):
    """Denormalized forecasts (first `horizon` steps) and encodings of stacked
    windows (B, N, W), in one forward pass."""
    normed, mu, delta = revin_normalize(windows)
    pred_norm, enc = model.forward(Tensor(normed))
    return revin_denormalize(pred_norm.data[:, :, :horizon], mu, delta), enc.data


def forecast_batch(model, windows, horizon):
    """Denormalized forecasts (first `horizon` steps) and encodings for stacked
    windows (B, N, W). Windows run `config.batch` at a time and give the floats
    of one pass over all B, since attention spans one window's channels."""
    b = model.config.batch
    with model.store.frozen():
        # no windows still make one empty pass, for the (0, N, ·) shapes
        parts = [_forecast(model, windows[lo : lo + b], horizon)
                 for lo in range(0, max(len(windows), 1), b)]
    return tuple(np.concatenate(part) for part in zip(*parts))


def _held_out(model, panels, horizon, baselines=()):
    """{"model", "truth", *baselines}: the forecasts, the futures and the window
    baselines, each (n, N, horizon), of the n (window, future) pairs of `panels`
    (see `_pairs`), panel by panel and start by start. The pairs are gathered
    `config.batch` at a time, as `forecast_batch` runs them, so no array of
    every window exists."""
    c = model.config
    pairs = _pairs(panels, c.context, horizon)
    starts = pairs.shape[2]
    n = len(pairs) * starts
    out = {name: np.empty((n, pairs.shape[1], horizon)) for name in ("model", "truth", *baselines)}
    with model.store.frozen():
        for lo in range(0, n, c.batch):
            hi = min(lo + c.batch, n)
            room, start = np.divmod(np.arange(lo, hi), starts)
            batch = pairs[room, :, start]  # (B, N, context + horizon)
            window = batch[..., : c.context]
            out["model"][lo:hi] = _forecast(model, window, horizon)[0]
            out["truth"][lo:hi] = batch[..., c.context :]
            for method in baselines:
                out[method][lo:hi] = baseline_forecast(window, horizon, method)
    return out


def evaluate_statistic(model, panels):
    """Original-scale MSE of the model and both baselines on held-out panels."""
    out = _held_out(model, panels, model.config.horizon_infer, ("mean", "latest"))
    return {name: mse(out[name], out["truth"]) for name in ("model", "mean", "latest")}


def mse_per_step(model, panels):
    """Model MSE at each horizon step 1..horizon_train, for the steps ablation."""
    out = _held_out(model, panels, model.config.horizon_train)
    return np.mean((out["model"] - out["truth"]) ** 2, axis=(0, 1))
