"""Single-purpose graph ops that no model calls any more, kept as references.

`relu`, `sigmoid` and `concat` are the ops the ranker's trunk was composed
of before `tensor.trunk` fused them; `composed_trunk` is that composition.
The tests compare the fused nodes with them under `np.array_equal`.
"""

import numpy as np

from livesight import tensor as T


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
