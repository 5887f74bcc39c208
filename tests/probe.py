"""Oracle probe: does the future carry label signal the past cannot?

A logistic probe reads true per-sample features of the generated world, once
from the past alone and once with the future added; criterion 9 asks that the
future raise its AUC.
"""

import numpy as np

from livesight.metrics import auc
from livesight.simgen import GRAB, HIGHLIGHT, LOOKAHEAD, _sigmoid, _upcoming


def _probe_features(world):
    """(past-only features, past+future features, cvr or lvtr label) per sample."""
    samples, prefs = world.samples, world.user_prefs
    room, t, user = samples.room, samples.bucket, samples.fields[:, 0]
    events, rows = _upcoming(world, room, t)
    phases = world.phases[room[:, None], t[:, None] + np.arange(LOOKAHEAD + 1)]
    # samples sit at or past SAMPLE_BUCKET_FLOOR, so each window holds 8 buckets
    recent = world.panels[room[:, None], 1, t[:, None] + np.arange(-7, 1)]
    past = [prefs[user, events[rows, 1]], (phases[:, 0] == HIGHLIGHT).astype(np.float64),
            (phases[:, 0] == GRAB).astype(np.float64), np.add.reduce(recent, axis=1) / 8]
    future = past + [
        np.add.reduce(prefs[user[:, None], events[rows[:, None] + np.arange(1, 4), 1]], axis=1) / 3,
        (phases[:, 1:] == GRAB).any(axis=1).astype(np.float64),
        (phases[:, 1:] == HIGHLIGHT).any(axis=1).astype(np.float64),
    ]
    task = samples.tasks.index("cvr" if "cvr" in samples.tasks else "lvtr")
    return np.stack(past, axis=1), np.stack(future, axis=1), samples.labels[:, task]


def _logistic_auc(x, y, seed=0, epochs=400, lr=0.5):
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(x))
    cut = len(x) // 2
    tr, ev = order[:cut], order[cut:]
    mean, std = x[tr].mean(axis=0), x[tr].std(axis=0) + 1e-9
    xs = (x - mean) / std
    w = np.zeros(x.shape[1])
    b = 0.0
    for _ in range(epochs):
        p = _sigmoid(xs[tr] @ w + b)
        g = p - y[tr]
        w -= lr * (xs[tr].T @ g) / len(tr)
        b -= lr * g.mean()
    return auc(xs[ev] @ w + b, y[ev])


def probe_future_vs_past(world, seed=0):
    """AUC of a logistic probe on true past-only vs past+future features."""
    x_past, x_future, y = _probe_features(world)
    return {
        "past": _logistic_auc(x_past, y, seed=seed),
        "future": _logistic_auc(x_future, y, seed=seed),
    }
