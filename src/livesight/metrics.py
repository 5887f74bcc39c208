"""Ranking and forecasting metrics: AUC, UAUC, GAUC, MSE, hit rate.

AUC uses the Mann-Whitney statistic with half credit for ties. A NaN or
infinite score comes from a diverged model, so the three AUCs refuse it
rather than rank it. The sort-based
implementation accumulates pair counts as exact integers, so it agrees with
all-pairs brute force to the last bit, not just to a tolerance.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, LabelError, UndefinedMetricError


def _validate_binary(labels):
    labels = np.asarray(labels)
    if labels.size and not np.isin(labels, (0, 1)).all():
        raise LabelError("labels must be 0 or 1")
    return labels.astype(np.int64)


def _finite_scores(scores):
    """`scores` as float64; UndefinedMetricError if one is NaN or infinite."""
    scores = np.asarray(scores, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(scores.ravel()))
    if len(bad):
        raise UndefinedMetricError(
            f"{len(bad)} of {scores.size} scores are not finite; the first is "
            f"{scores.ravel()[bad[0]]} at {bad[0]}"
        )
    return scores


def auc(scores, labels):
    """P(score of a positive > score of a negative) + 0.5 * P(tie)."""
    scores = _finite_scores(scores)
    labels = _validate_binary(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise DimensionError(
            f"scores shape {scores.shape} and labels shape {labels.shape} must be equal 1-D"
        )
    n = scores.size
    pos = int(labels.sum())
    neg = n - pos
    if pos == 0 or neg == 0:
        raise UndefinedMetricError("AUC needs at least one positive and one negative")
    order = np.argsort(scores, kind="stable")
    first = np.zeros(n, dtype=bool)
    first[0] = True
    units = _pair_units(scores[order], labels[order], first)[0]
    return int(units) / (2.0 * pos * neg)


def _pair_units(s, y, first):
    """Mann-Whitney pair units of each segment of score-sorted rows.

    `s` and `y` are scores and labels sorted by score within each segment,
    and `first` marks each segment's first row. Each positive earns 2 units
    per negative of its segment strictly below it and 1 unit per tied one.
    The counts stay int64, so the result is exact (a segment's units are at
    most 2 * pos * neg).
    """
    tie = np.flatnonzero(first | np.concatenate(([True], s[1:] != s[:-1])))
    pos_here = np.add.reduceat(y, tie)
    neg_here = np.diff(np.append(tie, len(s))) - pos_here
    neg_below = np.cumsum(neg_here) - neg_here
    seg = np.flatnonzero(first[tie])  # each segment's first tie group
    # restart the count of negatives below at each segment
    neg_below -= np.repeat(neg_below[seg], np.diff(np.append(seg, len(tie))))
    return np.add.reduceat(pos_here * (2 * neg_below + neg_here), seg)


def _per_user(user_ids, scores, labels, weights=None):
    """AUC and summed weight of each user having both classes, in ascending
    user id; UndefinedMetricError if no user has both."""
    user_ids = np.asarray(user_ids)
    scores = _finite_scores(scores)
    labels = _validate_binary(labels)
    if not (user_ids.shape == scores.shape == labels.shape) or scores.ndim != 1:
        raise DimensionError("user_ids, scores, labels must share one 1-D shape")
    if weights is None:
        weights = np.ones_like(scores)
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != scores.shape:
            raise DimensionError("weights must match scores shape")
        if (weights <= 0).any():
            raise LabelError("exposure weights must be positive")
    order = np.lexsort((scores, user_ids))  # by user, then score; stable
    u, y = user_ids[order], labels[order]
    first = np.ones(len(u), dtype=bool)
    first[1:] = u[1:] != u[:-1]
    start = np.flatnonzero(first)
    end = np.append(start, len(u))[1:]
    pos = np.add.reduceat(y, start)
    neg = (end - start) - pos
    both = (pos > 0) & (neg > 0)
    if not both.any():
        raise UndefinedMetricError("no user has both a positive and a negative")
    units = _pair_units(scores[order], y, first)
    aucs = units[both] / (2.0 * pos[both] * neg[both])
    # a stable sort by user alone keeps each user's weights in input order,
    # so each sum is the same float as the sum of that user's masked weights
    by_user = weights[np.argsort(user_ids, kind="stable")]
    sums = [float(by_user[a:b].sum()) for a, b in zip(start[both].tolist(), end[both].tolist())]
    return aucs, sums


def uauc(user_ids, scores, labels):
    """Unweighted mean of per-user AUC over users having both classes."""
    aucs, _ = _per_user(user_ids, scores, labels)
    return float(np.mean(aucs))


def gauc(user_ids, scores, labels, weights=None):
    """Per-user AUC weighted by each user's summed exposure weight."""
    aucs, sums = _per_user(user_ids, scores, labels, weights)
    return float(sum(a * w for a, w in zip(aucs.tolist(), sums)) / sum(sums))


def mse(pred, truth):
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise DimensionError(f"shape mismatch {pred.shape} vs {truth.shape}")
    return float(np.mean((pred - truth) ** 2))


def hit_rate(predictions, truths):
    """Fraction of positions where the predicted index equals the truth."""
    predictions = np.asarray(predictions)
    truths = np.asarray(truths)
    if predictions.shape != truths.shape or predictions.ndim != 1:
        raise DimensionError("predictions and truths must share one 1-D shape")
    if predictions.size == 0:
        raise UndefinedMetricError("hit rate of an empty prediction set")
    return float(np.mean(predictions == truths))
