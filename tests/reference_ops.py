"""Functions that no run calls any more, kept as references for the tests.

`relu`, `sigmoid` and `concat` are the ops the ranker's trunk was composed
of before `tensor.trunk` fused them; `composed_trunk` is that composition.
The tests compare the fused nodes with them under `np.array_equal`.
`swapaxes` builds the unfused attention that `test_layers` checks the fused
nodes against. `forecast_product` forecasts one prefix in its own forward
pass, the reference for `prodfore.forecast_prefixes`' shared pass.
`parents_of_product` and `file_digest` read a hierarchy and a file.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from livesight import tensor as T
from livesight.prodfore import as_events, truncate_context


def concat(tensors, axis=-1):
    tensors = [T.as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad or t._parents:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t._accumulate(g[tuple(idx)])

    return T._node(data, tuple(tensors), backward)


def relu(a):
    a = T.as_tensor(a)
    data = np.maximum(a.data, 0.0)

    def backward(g):
        a._accumulate(g * (a.data > 0.0))

    return T._node(data, (a,), backward)


def sigmoid(a):
    a = T.as_tensor(a)
    x = a.data
    data = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                    np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))

    def backward(g):
        a._accumulate(g * data * (1.0 - data))

    return T._node(data, (a,), backward)


def composed_trunk(parts, w1, b1, w2, b2, heads):
    """The ranker's trunk and task heads from single ops: the reference for
    T.trunk."""
    h = relu(T.dense(concat(parts, axis=1), w1, b1))
    h = relu(T.dense(h, w2, b2))
    return sigmoid(concat([T.dense(h, w, b) for w, b in heads], axis=1))


def swapaxes(a, ax1, ax2):
    a = T.as_tensor(a)
    data = np.swapaxes(a.data, ax1, ax2)
    node = a.node

    def backward(g):
        node._accumulate(np.swapaxes(g, ax1, ax2))

    return T._node(data, (a,), backward)


@dataclass
class ProdForecast:
    distribution: np.ndarray  # (|C3|,) non-negative, sums to 1
    encoding: np.ndarray  # (L-1, D) per-position encodings


def forecast_product(model, events):
    """Forecast the next finest category after `events`, plus per-position encodings."""
    events = truncate_context(as_events(events), model.config.max_context)
    with model.store.frozen():
        logits, enc = model.forward_positions(events[None])
        probs = T.softmax(logits).data[0, -1]
    return ProdForecast(distribution=probs.copy(), encoding=enc.data[0, 1:].copy())


def parents_of_product(h, p):
    """(c1, c2, c3) of product `p` in the category hierarchy `h`."""
    c3 = int(h.p_to_c3[p])
    c2 = int(h.c3_to_c2[c3])
    return int(h.c2_to_c1[c2]), c2, c3


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()
