"""AUC family and MSE against hand values and an all-pairs oracle."""

import numpy as np
import pytest

from livesight.errors import DimensionError, LabelError, UndefinedMetricError
from livesight.metrics import _per_user, auc, gauc, hit_rate, mse, uauc


def brute_force_auc(scores, labels):
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    wins = ties = total = 0
    for sp in scores[labels == 1]:
        for sn in scores[labels == 0]:
            total += 1
            if sp > sn:
                wins += 1
            elif sp == sn:
                ties += 1
    return (wins + 0.5 * ties) / total


def tie_walk_auc(scores, labels):
    """The tie-group walk `auc` ran before it became sort-and-cumsum code."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = scores.size
    pos = int(labels.sum())
    neg = n - pos
    order = np.argsort(scores, kind="stable")
    s = scores[order]
    y = labels[order]
    units = 0
    neg_below = 0
    i = 0
    while i < n:
        j = i + 1
        while j < n and s[j] == s[i]:
            j += 1
        p_here = int(y[i:j].sum())
        n_here = (j - i) - p_here
        units += p_here * (2 * neg_below + n_here)
        neg_below += n_here
        i = j
    return units / (2.0 * pos * neg)


def user_loop(user_ids, scores, labels, weights):
    """The per-user loop `_per_user` ran before: (AUC, weight sum) per eligible user."""
    user_ids, scores, labels = np.asarray(user_ids), np.asarray(scores), np.asarray(labels)
    eligible = []
    for uid in np.unique(user_ids):
        m = user_ids == uid
        ly = labels[m]
        if ly.min() == ly.max():
            continue
        eligible.append((tie_walk_auc(scores[m], ly), float(weights[m].sum())))
    return eligible


def random_ranking_data(seed):
    """Scores on a coarse grid (plentiful ties) or continuous, 1 to 12 users
    (some single-class), and non-integer weights."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 600))
    grid = int(rng.integers(2, 12))
    scores = rng.integers(0, grid, size=n) / (grid - 1) if seed % 3 else rng.normal(size=n)
    users = rng.integers(0, int(rng.integers(1, 13)), size=n)
    labels = (rng.random(n) < rng.uniform(0.05, 0.95)).astype(np.int64)
    labels[users == users[0]] = 1  # one single-class user in every draw
    if labels.min() == labels.max():
        labels[-1] = 1 - labels[-1]
    return users, scores, labels, rng.uniform(0.1, 3.0, size=n)


def test_sort_and_cumsum_auc_equals_the_tie_walk():
    for seed in range(200):
        users, scores, labels, weights = random_ranking_data(seed)
        assert auc(scores, labels) == tie_walk_auc(scores, labels), seed
        for ids in (users, np.zeros_like(users)):  # as drawn, then every row on one user
            old = user_loop(ids, scores, labels, weights)
            if not old:
                with pytest.raises(UndefinedMetricError):
                    _per_user(ids, scores, labels, weights)
                continue
            aucs, sums = _per_user(ids, scores, labels, weights)
            assert aucs.tolist() == [a for a, _ in old], seed
            assert sums == [w for _, w in old], seed
            assert uauc(ids, scores, labels) == float(np.mean([a for a, _ in old])), seed
            assert gauc(ids, scores, labels, weights) == (
                sum(a * w for a, w in old) / sum(w for _, w in old)), seed


def test_auc_hand_values():
    assert auc([0.9, 0.1], [1, 0]) == 1.0
    assert auc([0.5, 0.5], [1, 0]) == 0.5
    # pairs: (0.8,0.6) win, (0.8,0.2) win, (0.4,0.6) loss, (0.4,0.2) win
    assert auc([0.8, 0.6, 0.4, 0.2], [1, 0, 1, 0]) == 0.75


def test_auc_single_class_undefined():
    with pytest.raises(UndefinedMetricError):
        auc([0.1, 0.2], [1, 1])
    with pytest.raises(UndefinedMetricError):
        auc([0.1, 0.2], [0, 0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_score_is_refused_by_every_auc(bad):
    labels, users = [1, 0, 0, 1, 0], [0, 0, 0, 1, 1]
    # five NaN scores used to give an AUC of 0.3333
    with pytest.raises(UndefinedMetricError, match="5 of 5 scores are not finite"):
        auc([bad] * 5, labels)
    one = [0.9, 0.1, bad, 0.8, 0.2]
    with pytest.raises(UndefinedMetricError, match=f"1 of 5 scores are not finite; the first is {bad} at 2"):
        auc(one, labels)
    for metric in (uauc, gauc):
        with pytest.raises(UndefinedMetricError, match="1 of 5 scores are not finite"):
            metric(users, one, labels)


def test_auc_input_validation():
    with pytest.raises(LabelError):
        auc([0.1, 0.2], [1, 2])
    with pytest.raises(DimensionError):
        auc([[0.1, 0.2]], [[1, 0]])
    with pytest.raises(DimensionError):
        auc([0.1, 0.2, 0.3], [1, 0])


def test_auc_agrees_with_all_pairs_oracle():
    """Sort-based and O(n^2) answers must be equal, not merely close."""
    for trial in range(100):
        rng = np.random.default_rng(trial)
        n = int(rng.integers(2, 200))
        # coarse grid forces plenty of exact ties
        scores = rng.integers(0, 8, size=n) / 7.0
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        assert auc(scores, labels) == brute_force_auc(scores, labels)


def test_auc_monotone_invariance():
    rng = np.random.default_rng(7)
    scores = rng.normal(size=50)
    labels = rng.integers(0, 2, size=50)
    labels[0], labels[1] = 0, 1
    base = auc(scores, labels)
    assert auc(np.exp(scores), labels) == base
    assert auc(3.0 * scores + 11.0, labels) == base


def test_uauc_mean_of_per_user_auc():
    users = [1, 1, 2, 2]
    scores = [0.9, 0.1, 0.5, 0.5]
    labels = [1, 0, 1, 0]  # user 1 AUC 1.0, user 2 AUC 0.5
    assert uauc(users, scores, labels) == 0.75


def test_uauc_excludes_single_class_users():
    users = [1, 1, 2, 2]
    scores = [0.9, 0.1, 0.5, 0.5]
    labels = [1, 0, 1, 0]
    base = uauc(users, scores, labels)
    # user 3 has only positives: excluded, result unchanged
    assert uauc(users + [3, 3], scores + [0.7, 0.2], labels + [1, 1]) == base
    with pytest.raises(UndefinedMetricError):
        uauc([1, 1], [0.5, 0.6], [1, 1])


def test_gauc_exposure_weighting():
    users = [1, 1, 2, 2]
    scores = [0.9, 0.1, 0.5, 0.5]
    labels = [1, 0, 1, 0]
    weights = [2.0, 1.0, 0.5, 0.5]  # user sums: 3 and 1
    assert gauc(users, scores, labels, weights) == 0.875
    # scale invariance
    assert gauc(users, scores, labels, [w * 10 for w in weights]) == 0.875
    # uniform weights collapse to uauc
    assert abs(gauc(users, scores, labels) - uauc(users, scores, labels)) < 1e-12
    with pytest.raises(LabelError):
        gauc(users, scores, labels, [1.0, 1.0, 0.0, 1.0])
    with pytest.raises(DimensionError):
        gauc(users, scores, labels, [1.0])


def test_mse_hand_values():
    assert mse([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert mse([0.0, 0.0], [1.0, 1.0]) == 1.0
    assert mse([1.0, 3.0], [2.0, 5.0]) == 2.5
    with pytest.raises(DimensionError):
        mse(np.zeros(3), np.zeros(4))


def test_hit_rate():
    assert hit_rate([1, 2, 3, 4], [1, 0, 3, 0]) == 0.5
    with pytest.raises(UndefinedMetricError):
        hit_rate([], [])
    with pytest.raises(DimensionError):
        hit_rate([1, 2], [1, 2, 3])
