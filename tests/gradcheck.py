"""Finite-difference oracle for analytic gradients.

Central differences around the current parameter values, compared coordinate
by coordinate against what backward() produced. The loss function must be a
pure function of the store's parameters — it is called repeatedly and must
return bit-identical values for identical parameters.
"""

from __future__ import annotations

import numpy as np

from livesight.errors import ConfigurationError, OracleError


def grad_check(loss_fn, store, eps=1e-5, max_coords=256, seed=0):
    """Return the worst relative error between analytic and numeric gradients.

    relative error = |a - n| / max(|a|, |n|, 1e-8), evaluated on every
    coordinate when the store is small, otherwise on a seeded sample of at
    least 64 coordinates.
    """
    if not (1e-6 <= eps <= 1e-4):
        raise ConfigurationError(f"eps {eps} outside [1e-6, 1e-4]")

    def evaluate():
        loss = loss_fn()
        val = np.asarray(loss.data, dtype=np.float64)
        if val.size != 1:
            raise OracleError(f"loss must be scalar, got shape {val.shape}")
        return loss, float(val.reshape(()))

    def value():
        # a loss value needs no graph: only the analytic pass records one
        with store.frozen():
            return evaluate()[1]

    f0, f1 = value(), value()
    if np.float64(f0).tobytes() != np.float64(f1).tobytes():
        raise OracleError(
            "loss function is not deterministic: two evaluations at the same "
            f"parameters gave {f0!r} and {f1!r}"
        )

    store.zero_grad()
    loss, _ = evaluate()
    loss.backward()
    analytic = {}
    for name, p in store.items():
        if p.grad is None:
            raise OracleError(f"parameter {name!r} received no gradient")
        analytic[name] = p.grad.copy()

    names = store.names()
    sizes = [store[n].data.size for n in names]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    total = int(offsets[-1])
    budget = max(64, max_coords)
    if total <= budget:
        chosen = np.arange(total)
    else:
        rng = np.random.default_rng(seed)
        chosen = np.sort(rng.choice(total, size=budget, replace=False))

    worst = 0.0
    for flat in chosen:
        k = int(np.searchsorted(offsets, flat, side="right") - 1)
        name = names[k]
        idx = int(flat - offsets[k])
        data = store[name].data
        orig = data.flat[idx]
        data.flat[idx] = orig + eps
        f_plus = value()
        data.flat[idx] = orig - eps
        f_minus = value()
        data.flat[idx] = orig
        numeric = (f_plus - f_minus) / (2.0 * eps)
        a = analytic[name].flat[idx]
        rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
        worst = max(worst, rel)
    return worst
