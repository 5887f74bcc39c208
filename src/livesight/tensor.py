"""Reverse-mode autodiff over float64 numpy arrays.

Small, deterministic op set: exactly what the forecasting and ranking
models need, nothing more. A `Tensor` holds a value and a graph `Node`; the
graph links nodes only. Every op stores on its output's node a closure that
routes the output gradient to its parents' nodes, saving the arrays that
backward reads and never a `Tensor`, so a forward value lives only as long
as the forward code or such a closure holds it. `Tensor.backward()` runs
the closures in reverse topological order.
"""

from __future__ import annotations

import ctypes
import math

import numpy as np

from .errors import DimensionError, LabelError, StateError, VocabularyError

# layer_norm's variance floor and BCE's probability clamp: no model sets either
LN_EPS = 1e-5
BCE_CLAMP = 1e-7

# glibc's mallopt parameters (malloc.h) and the values set for them. By
# default glibc serves large blocks with mmap and trims the heap top after a
# free, so each training step hands its freed graph back to the OS and the
# next step faults the same pages in again: a seed-7 `run` took 392k to 495k
# minor page faults and 1.0 to 1.3 s of system time (2 vCPUs, glibc 2.36).
# Trimming only above 1 GiB of free heap and serving blocks up to 32 MiB from
# the heap, it took 26k faults and 0.07 to 0.11 s. Of the mmap thresholds
# tried, 1 MiB left 47k faults and 4 MiB 28k; 8 to 32 MiB gave 26k, and no
# threshold moved a benchmark workload's peak RSS by more than 1.1 MB.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
TRIM_THRESHOLD = 1 << 30
MMAP_THRESHOLD = 32 << 20


def _keep_freed_heap():
    """Have glibc keep freed memory in the process; True if both settings
    took. A no-op returning False where the C library has no `mallopt`."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        return bool(mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)) and bool(
            mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
        )
    except (OSError, AttributeError, TypeError):
        return False


_keep_freed_heap()


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Node:
    """A vertex of the autodiff graph: the gradient that reached a value, the
    nodes of the op's live parents, and the closure that routes the gradient
    to them. A node holds no forward value; its closure saves the arrays its
    backward reads."""

    __slots__ = ("grad", "_parents", "_backward")

    def __init__(self):
        self.grad = None
        self._parents = ()
        self._backward = None

    def _accumulate(self, g):
        # Backward closures hand over arrays they never write to again, so a
        # float64 array is kept as it is. Several nodes may then hold the
        # same array (`add` gives one `g` to both parents), which is why a
        # second gradient rebinds `grad` instead of adding in place.
        if self.grad is None:
            if type(g) is np.ndarray and g.dtype == np.float64:
                self.grad = g
            else:
                self.grad = np.array(g, dtype=np.float64)
        else:
            self.grad = self.grad + g


def _spent(node):
    """True once backward() has run the node's closure."""
    return node._backward is None and bool(node._parents)


class Tensor:
    """A float64 array and the graph node that its gradient reaches.

    `grad`, `_parents` and `_backward` read and write the node's; a Tensor
    set as a parent is stored as its node.
    """

    __slots__ = ("data", "requires_grad", "node")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.node = Node()

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def grad(self):
        return self.node.grad

    @grad.setter
    def grad(self, value):
        self.node.grad = value

    @property
    def _backward(self):
        return self.node._backward

    @_backward.setter
    def _backward(self, closure):
        self.node._backward = closure

    @property
    def _parents(self):
        return self.node._parents

    @_parents.setter
    def _parents(self, parents):
        self.node._parents = tuple(p.node if isinstance(p, Tensor) else p for p in parents)

    def _accumulate(self, g):
        self.node._accumulate(g)

    def __repr__(self):
        if _spent(self.node):
            return f"Tensor(spent, requires_grad={self.requires_grad})"
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def backward(self):
        """Backpropagate from this scalar through the recorded graph.

        The pass walks nodes in reverse topological order and drops each
        closure as soon as it has run, which frees the arrays the closure
        saved. No node holds a forward value, so a Tensor the caller still
        holds keeps its `data`, and a spent node keeps `_parents` and `grad`.
        A graph backpropagates once: a second call through any of its nodes,
        or an op on a Tensor whose node is spent, raises `StateError`.
        """
        root = self.node
        topo = []
        seen = set()
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if id(node) in seen:
                continue
            if expanded:
                seen.add(id(node))
                topo.append(node)
            elif _spent(node):
                raise StateError("backward() already ran through this graph")
            else:
                stack.append((node, True))
                for p in node._parents:
                    if id(p) not in seen:
                        stack.append((p, False))
        if self.data.size != 1:
            raise DimensionError("backward() requires a scalar output")
        root._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                node._backward = None

    # -- operator sugar -------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)


def as_tensor(x):
    if not isinstance(x, Tensor):
        return Tensor(x)
    if _spent(x.node):
        raise StateError("backward() already ran through this graph")
    return x


def _grad_node(t):
    """`t`'s node if a gradient must reach it, else None."""
    node = t.node
    return node if t.requires_grad or node._parents else None


def _node(data, parents, backward):
    out = Tensor(data)
    live = tuple(n for n in map(_grad_node, parents) if n is not None)
    if live:
        out.node._parents = live
        out.node._backward = backward
        out.requires_grad = True
    return out


# -- arithmetic ----------------------------------------------------------


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    data = a.data + b.data
    na, nb = _grad_node(a), _grad_node(b)
    shape_a, shape_b = a.data.shape, b.data.shape

    def backward(g):
        if na is not None:
            na._accumulate(_unbroadcast(g, shape_a))
        if nb is not None:
            nb._accumulate(_unbroadcast(g, shape_b))

    return _node(data, (a, b), backward)


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    data = a.data * b.data
    na, nb = _grad_node(a), _grad_node(b)
    shape_a, shape_b = a.data.shape, b.data.shape
    # each gradient reads the other operand
    b_data = b.data if na is not None else None
    a_data = a.data if nb is not None else None

    def backward(g):
        if na is not None:
            na._accumulate(_unbroadcast(g * b_data, shape_a))
        if nb is not None:
            nb._accumulate(_unbroadcast(g * a_data, shape_b))

    return _node(data, (a, b), backward)


def matmul(a, b):
    """Matrix product with numpy stacking rules (operands must be >= 2-D)."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(
            f"matmul requires >=2-D operands, got {a.data.shape} @ {b.data.shape}"
        )
    if a.data.shape[-1] != b.data.shape[-2]:
        raise DimensionError(
            f"matmul inner dimensions differ: {a.data.shape} @ {b.data.shape}"
        )
    data = a.data @ b.data
    na, nb = _grad_node(a), _grad_node(b)
    shape_a, shape_b = a.data.shape, b.data.shape
    b_data = b.data if na is not None else None
    a_data = a.data if nb is not None else None

    def backward(g):
        if na is not None:
            ga = g @ np.swapaxes(b_data, -1, -2)
            na._accumulate(_unbroadcast(ga, shape_a))
        if nb is not None:
            gb = np.swapaxes(a_data, -1, -2) @ g
            nb._accumulate(_unbroadcast(gb, shape_b))

    return _node(data, (a, b), backward)


def dense(x, w, b):
    """y = x @ w + b as one node: `x` (..., F_in), `w` (F_in, F_out), `b` (F_out,).

    The leading axes of `x` are flattened to rows, so the forward is one GEMM
    and the weight gradient one (F_in, rows) @ (rows, F_out) product.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if w.ndim != 2:
        raise DimensionError(f"W must be 2-D, got shape {w.shape}")
    if x.shape[-1] != w.shape[0]:
        raise DimensionError(f"x last dimension {x.shape[-1]} does not match W rows {w.shape[0]}")
    if b.shape != (w.shape[1],):
        raise DimensionError(f"b shape {b.shape} does not match W columns {w.shape[1]}")
    x2 = x.data.reshape(-1, w.data.shape[0])
    out = x2 @ w.data
    out += b.data
    nx, nw, nb = map(_grad_node, (x, w, b))
    w_data, shape_x = w.data, x.data.shape

    def backward(g):
        g2 = g.reshape(-1, g.shape[-1])
        if nx is not None:
            nx._accumulate((g2 @ w_data.T).reshape(shape_x))
        if nw is not None:
            nw._accumulate(x2.T @ g2)
        if nb is not None:
            nb._accumulate(g2.sum(axis=0))

    return _node(out.reshape(x.data.shape[:-1] + out.shape[-1:]), (x, w, b), backward)


def feed_forward(h, x, w1, b1, w2, b2):
    """h + relu(x @ w1 + b1) @ w2 + b2 as one node: the feed-forward sublayer
    of a transformer block with its residual. `h` and `x` are (..., D), `w1`
    (D, F), `w2` (F, D)."""
    h, x, w1, b1, w2, b2 = (as_tensor(t) for t in (h, x, w1, b1, w2, b2))
    if h.data.shape != x.data.shape:
        raise DimensionError(f"feed_forward residual {h.data.shape} != input {x.data.shape}")
    x2 = x.data.reshape(-1, w1.data.shape[0])
    r = x2 @ w1.data
    r += b1.data
    np.maximum(r, 0.0, out=r)
    out = r @ w2.data
    out += b2.data
    out = out.reshape(h.data.shape)
    out += h.data
    nh, nx, nw1, nb1, nw2, nb2 = map(_grad_node, (h, x, w1, b1, w2, b2))
    w1_data, w2_data, shape_x = w1.data, w2.data, x.data.shape

    def backward(g):
        if nh is not None:
            nh._accumulate(g)
        g2 = g.reshape(-1, g.shape[-1])
        if nw2 is not None:
            nw2._accumulate(r.T @ g2)
        if nb2 is not None:
            nb2._accumulate(g2.sum(axis=0))
        gr = g2 @ w2_data.T
        gr *= r > 0.0
        if nw1 is not None:
            nw1._accumulate(x2.T @ gr)
        if nb1 is not None:
            nb1._accumulate(gr.sum(axis=0))
        if nx is not None:
            nx._accumulate((gr @ w1_data.T).reshape(shape_x))

    return _node(out, (h, x, w1, b1, w2, b2), backward)


def trunk(parts, w1, b1, w2, b2, heads):
    """sigmoid(relu(relu(x @ w1 + b1) @ w2 + b2) @ w + b) for each (w, b) of
    `heads`, as one (B, n_heads) node, where x joins the (B, ·) `parts`
    column-wise: the ranker's trunk and one-column task heads.

    A part that needs a gradient gets `ga1 @ w1[lo:hi].T` from its own row
    block of `w1`, so no input gradient is built for the constant columns.
    Each head stays its own one-column product, and the heads' input
    gradients add in task order, as the composed graph adds them.
    """
    parts = [as_tensor(t) for t in parts]
    w1, b1, w2, b2 = (as_tensor(t) for t in (w1, b1, w2, b2))
    heads = [(as_tensor(w), as_tensor(b)) for w, b in heads]
    x = np.concatenate([t.data for t in parts], axis=1)
    offsets = np.cumsum([0] + [t.data.shape[1] for t in parts])
    a1 = x @ w1.data
    a1 += b1.data
    np.maximum(a1, 0.0, out=a1)
    a2 = a1 @ w2.data
    a2 += b2.data
    np.maximum(a2, 0.0, out=a2)
    logits = []
    for w, b in heads:
        z = a2 @ w.data
        z += b.data
        logits.append(z)
    z = np.concatenate(logits, axis=1)
    data = np.where(z >= 0, 1.0 / (1.0 + np.exp(-np.abs(z))),
                    np.exp(-np.abs(z)) / (1.0 + np.exp(-np.abs(z))))
    part_nodes = [_grad_node(t) for t in parts]
    head_arrays = [(w.data, _grad_node(w), _grad_node(b)) for w, b in heads]
    nw1, nb1, nw2, nb2 = map(_grad_node, (w1, b1, w2, b2))
    w1_data, w2_data = w1.data, w2.data

    def backward(g):
        gz = g * data * (1.0 - data)
        for j, (w_data, nw, nb) in enumerate(head_arrays):
            gj = gz[:, j : j + 1]
            if nw is not None:
                nw._accumulate(a2.T @ gj)
            if nb is not None:
                nb._accumulate(gj.sum(axis=0))
            gh = gj @ w_data.T
            if j:
                ga2 += gh
            else:
                ga2 = gh
        ga2 *= a2 > 0.0
        if nw2 is not None:
            nw2._accumulate(a1.T @ ga2)
        if nb2 is not None:
            nb2._accumulate(ga2.sum(axis=0))
        ga1 = ga2 @ w2_data.T
        ga1 *= a1 > 0.0
        if nw1 is not None:
            nw1._accumulate(x.T @ ga1)
        if nb1 is not None:
            nb1._accumulate(ga1.sum(axis=0))
        for node, lo, hi in zip(part_nodes, offsets[:-1], offsets[1:]):
            if node is not None:
                node._accumulate(ga1 @ w1_data[lo:hi].T)

    params = (w1, b1, w2, b2, *(p for head in heads for p in head))
    return _node(data, (*parts, *params), backward)


# -- shape manipulation ----------------------------------------------------


def reshape(a, shape):
    a = as_tensor(a)
    data = a.data.reshape(shape)
    node, shape_a = a.node, a.data.shape

    def backward(g):
        node._accumulate(g.reshape(shape_a))

    return _node(data, (a,), backward)


def take(a, key):
    """Basic (slice/int) indexing; gradient scatters back into place."""
    a = as_tensor(a)
    data = a.data[key]
    node, shape_a = a.node, a.data.shape

    def backward(g):
        full = np.zeros(shape_a)
        full[key] = g
        node._accumulate(full)

    return _node(data, (a,), backward)


def tsum(a):
    a = as_tensor(a)
    data = a.data.sum()
    node, shape_a = a.node, a.data.shape

    def backward(g):
        node._accumulate(np.broadcast_to(g, shape_a).copy())

    return _node(data, (a,), backward)


def tmean(a):
    a = as_tensor(a)
    return mul(tsum(a), 1.0 / a.data.size)


# -- nonlinearities --------------------------------------------------------


# Longest last axis that `_row_max` and `_row_sum` reduce column by column.
# numpy reduces a short last axis row by row, at a fixed cost per row; at
# attention shapes (B*H*L rows of L) the column loops win up to about this
# length, and lose from 32 on.
SHORT_ROW = 24


def _short_rows(a):
    """The (n, rows) column view of `a`'s last axis if it is short and
    C-contiguous, else None."""
    n = a.shape[-1] if a.ndim else 0
    if 0 < n <= SHORT_ROW and a.flags.c_contiguous:
        return a.reshape(-1, n).T
    return None


def _row_max(a):
    """`a.max(axis=-1, keepdims=True)`: a max is exact in any order, so a
    short last axis is reduced by one `np.maximum` per column."""
    cols = _short_rows(a)
    if cols is None:
        return a.max(axis=-1, keepdims=True)
    out = cols[0].copy()
    for col in cols[1:]:
        np.maximum(out, col, out=out)
    return out.reshape(a.shape[:-1] + (1,))


def _row_sum(a):
    """`a.sum(axis=-1, keepdims=True)`, the same floats: a short last axis
    is added column by column in numpy's own order. numpy sums a row of
    n < 8 one value at a time; from 8 to 128 it keeps 8 partial sums
    r[j] += a[j + 8i], combines them ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) and
    adds the remaining values in order. Either sum then goes onto a +0.0
    start, which turns a -0.0 row sum into +0.0."""
    cols = _short_rows(a)
    if cols is None:
        return a.sum(axis=-1, keepdims=True)
    n = len(cols)
    if n < 8:
        out = np.zeros(cols.shape[1])
        for col in cols:
            out += col
    else:
        whole = n - n % 8
        r = cols[:8].copy()
        for i in range(8, whole, 8):
            r += cols[i : i + 8]
        r[0::2] += r[1::2]
        r[0::4] += r[2::4]
        out = r[0]
        out += r[4]
        for col in cols[whole:]:
            out += col
        out += 0.0
    return out.reshape(a.shape[:-1] + (1,))


def softmax(a):
    """Numerically stable softmax along the last axis (fused backward)."""
    a = as_tensor(a)
    data = a.data - _row_max(a.data)
    np.exp(data, out=data)
    data /= _row_sum(data)
    node = a.node

    def backward(g):
        ga = g * data
        dot = _row_sum(ga)
        np.subtract(g, dot, out=ga)
        ga *= data
        node._accumulate(ga)

    return _node(data, (a,), backward)


def layer_norm(a, gain, bias):
    """Normalize the last axis to zero mean / unit population variance, then affine.

    The variance is numpy's `var`: the squared deviations from the mean,
    summed and divided by d, so the deviations are computed once.
    """
    a, gain, bias = as_tensor(a), as_tensor(gain), as_tensor(bias)
    d = a.data.shape[-1] if a.data.ndim else 0
    if d == 0:
        raise DimensionError("layer_norm requires a non-empty last axis")
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise DimensionError(
            f"layer_norm gain/bias must have shape ({d},), got "
            f"{gain.data.shape} / {bias.data.shape}"
        )
    xhat = a.data - a.data.mean(axis=-1, keepdims=True)
    data = xhat * xhat
    var = data.sum(axis=-1, keepdims=True)
    var /= d
    var += LN_EPS
    inv = 1.0 / np.sqrt(var)
    xhat *= inv
    np.multiply(xhat, gain.data, out=data)
    data += bias.data
    na, ngain, nbias = _grad_node(a), _grad_node(gain), _grad_node(bias)
    gain_data = gain.data

    def backward(g):
        lead = tuple(range(g.ndim - 1))
        if ngain is not None:
            ngain._accumulate((g * xhat).sum(axis=lead))
        if nbias is not None:
            nbias._accumulate(g.sum(axis=lead))
        if na is not None:
            gx = g * gain_data
            term1 = gx.mean(axis=-1, keepdims=True)
            term2 = (gx * xhat).mean(axis=-1, keepdims=True)
            gx -= term1
            gx -= xhat * term2
            gx *= inv
            na._accumulate(gx)

    return _node(data, (a, gain, bias), backward)


def attention_scores(x, heads, mask, wq, bq, wk, bk):
    """Scaled dot-product scores (B, H, L, L) of multi-head attention, one node.

    `x` is (B, L, D) and `mask` None or an additive (L, L) array. Q and K come
    from one GEMM of the flattened tokens against the concatenated wq|wk.
    """
    x, wq, bq, wk, bk = (as_tensor(t) for t in (x, wq, bq, wk, bk))
    b, length, d = x.data.shape
    dh = d // heads
    scale = 1.0 / np.sqrt(dh)
    x2 = x.data.reshape(b * length, d)
    w_qk = np.concatenate([wq.data, wk.data], axis=1)
    qk = x2 @ w_qk
    qk += np.concatenate([bq.data, bk.data])
    q, k = qk.reshape(b, length, 2, heads, dh).transpose(2, 0, 3, 1, 4)  # (B, H, L, dh)
    scores = (q @ np.swapaxes(k, -1, -2)) * scale
    if mask is not None:
        scores += mask
    nx, shape_x = _grad_node(x), x.data.shape
    param_nodes = ((_grad_node(wq), _grad_node(bq)), (_grad_node(wk), _grad_node(bk)))

    def backward(g):
        g = g * scale
        # the Q and K gradients go straight into their (B, H, L, dh) views of
        # the (B, L, 2, H, dh) block; each matrix keeps a unit inner stride,
        # so BLAS computes it as it would into a fresh array
        g_qk = np.empty((b, length, 2, heads, dh))
        g_q, g_k = g_qk.transpose(2, 0, 3, 1, 4)
        np.matmul(g, k, out=g_q)
        np.matmul(np.swapaxes(g, -1, -2), q, out=g_k)
        g_qk = g_qk.reshape(b * length, 2 * d)
        g_w, g_b = x2.T @ g_qk, g_qk.sum(axis=0)
        for j, (nw, nb) in enumerate(param_nodes):
            if nw is not None:
                nw._accumulate(g_w[:, j * d : (j + 1) * d])
            if nb is not None:
                nb._accumulate(g_b[j * d : (j + 1) * d])
        if nx is not None:
            nx._accumulate((g_qk @ w_qk.T).reshape(shape_x))

    return _node(scores, (x, wq, bq, wk, bk), backward)


def attention_mix(weights, x, wv, bv, wo, bo):
    """Attention weights (B, H, L, L) applied to the value heads of `x`
    (B, L, D), then the output projection: (B, L, D), one node."""
    weights, x, wv, bv, wo, bo = (as_tensor(t) for t in (weights, x, wv, bv, wo, bo))
    b, heads, length, _ = weights.data.shape
    d = x.data.shape[-1]
    dh = d // heads
    x2 = x.data.reshape(b * length, d)
    v = x2 @ wv.data
    v += bv.data
    v = v.reshape(b, length, heads, dh).transpose(0, 2, 1, 3)  # (B, H, L, dh)
    mixed = (weights.data @ v).transpose(0, 2, 1, 3).reshape(b * length, d)
    out = mixed @ wo.data
    out += bo.data
    n_weights, nx, nwv, nbv, nwo, nbo = map(_grad_node, (weights, x, wv, bv, wo, bo))
    weights_data, wv_data, wo_data, shape_x = weights.data, wv.data, wo.data, x.data.shape

    def backward(g):
        g2 = g.reshape(b * length, d)
        if nwo is not None:
            nwo._accumulate(mixed.T @ g2)
        if nbo is not None:
            nbo._accumulate(g2.sum(axis=0))
        g_mixed = (g2 @ wo_data.T).reshape(b, length, heads, dh).transpose(0, 2, 1, 3)
        if n_weights is not None:
            n_weights._accumulate(g_mixed @ np.swapaxes(v, -1, -2))
        g_v = (np.swapaxes(weights_data, -1, -2) @ g_mixed).transpose(0, 2, 1, 3)
        g_v = g_v.reshape(b * length, d)
        if nwv is not None:
            nwv._accumulate(x2.T @ g_v)
        if nbv is not None:
            nbv._accumulate(g_v.sum(axis=0))
        if nx is not None:
            nx._accumulate((g_v @ wv_data.T).reshape(shape_x))

    return _node(out.reshape(b, length, d), (weights, x, wv, bv, wo, bo), backward)


# -- lookups and losses ----------------------------------------------------


def embedding(table, indices):
    """Gather rows of `table` by integer `indices`; gradient scatter-adds."""
    table = as_tensor(table)
    idx = np.asarray(indices)
    if not np.issubdtype(idx.dtype, np.integer):
        raise DimensionError("embedding indices must be integers")
    data = table.data[idx]
    node, shape = table.node, table.data.shape

    def backward(g):
        # one bincount over flat (row, column) bins adds the rows of g in
        # index order, as np.add.at would; `% rows` wraps negative indices
        # the way the gather above does
        rows, width = shape[0], math.prod(shape[1:])
        bins = (idx.reshape(-1, 1) % rows) * width + np.arange(width)
        gt = np.bincount(bins.ravel(), weights=g.reshape(-1), minlength=rows * width)
        node._accumulate(gt.reshape(shape))

    return _node(data, (table,), backward)


def softmax_cross_entropy(logits, labels, mask=None):
    """Mean negative log-likelihood of integer `labels` under softmax(`logits`).

    `logits` has shape (..., K); `labels` broadcasts over the leading axes.
    `mask` (same shape as labels, 0/1) selects which positions count; the
    loss is averaged over selected positions.
    """
    logits = as_tensor(logits)
    k = logits.data.shape[-1]
    if k < 2:
        raise DimensionError("softmax_cross_entropy requires at least 2 classes")
    labels = np.asarray(labels)
    if labels.shape != logits.data.shape[:-1]:
        raise DimensionError(
            f"labels shape {labels.shape} does not match logits {logits.data.shape}"
        )
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise VocabularyError(f"label outside [0, {k}): {labels.min()}..{labels.max()}")
    logp = logits.data - logits.data.max(axis=-1, keepdims=True)
    logp -= np.log(np.exp(logp).sum(axis=-1, keepdims=True))
    picked = np.take_along_axis(logp, labels[..., None], axis=-1)[..., 0]
    if mask is None:
        denom = max(labels.size, 1)
        loss = -picked.sum() / denom
    else:
        mask = np.asarray(mask, dtype=np.float64)
        denom = mask.sum()
        if denom <= 0:
            raise DimensionError("softmax_cross_entropy mask selects no positions")
        loss = -(picked * mask).sum() / denom
    node = logits.node

    def backward(g):
        grad = np.exp(logp, order="C")  # C order: `rows` below must be a view
        rows = grad.reshape(-1, k)
        rows[np.arange(len(rows)), labels.reshape(-1)] -= 1.0
        grad /= denom
        if mask is not None:
            grad *= mask[..., None]
        grad *= g
        node._accumulate(grad)

    return _node(np.float64(loss), (logits,), backward)


def binary_cross_entropy(probs, labels):
    """Multi-task BCE: sum over the last axis (tasks), mean over leading axes.

    Probabilities are clamped to [BCE_CLAMP, 1 - BCE_CLAMP] before the log.
    """
    probs = as_tensor(probs)
    y = np.asarray(labels, dtype=np.float64)
    if y.shape != probs.data.shape:
        raise DimensionError(
            f"labels shape {y.shape} does not match predictions {probs.data.shape}"
        )
    if not np.all((y == 0.0) | (y == 1.0)):
        raise LabelError("binary labels must be 0 or 1")
    p = np.clip(probs.data, BCE_CLAMP, 1.0 - BCE_CLAMP)
    n_rows = int(np.prod(probs.data.shape[:-1])) if probs.data.ndim > 1 else 1
    loss = -(y * np.log(p) + (1.0 - y) * np.log1p(-p)).sum() / n_rows
    node, q = probs.node, probs.data

    def backward(g):
        inside = (q > BCE_CLAMP) & (q < 1.0 - BCE_CLAMP)
        grad = np.where(inside, (p - y) / (p * (1.0 - p)), 0.0) / n_rows
        node._accumulate(g * grad)

    return _node(np.float64(loss), (probs,), backward)
