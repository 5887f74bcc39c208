"""Named parameter collections and the Adam update rule."""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .errors import StateError
from .tensor import Tensor


class ParamStore:
    """Insertion-ordered mapping of dotted names to trainable tensors.

    Also owns the Adam moment buffers and step counter so a model's full
    optimizer state travels with its parameters. Every parameter's data is a
    view into one flat float64 buffer, `values`, and the moments are views
    into two more (`moments_m`, `moments_v`: name -> array, empty until the
    first step), so `adam_step` updates them all with a few vector ops. A
    fourth flat buffer, reused across steps, receives a copy of every
    parameter's gradient; `drop_optimizer_state` frees all three. Code
    that restores state writes into the views (`load_arrays`, `load_moments`,
    `values[:] = ...`): rebinding a `p.data` would leave it out of the update.
    """

    def __init__(self):
        self._params = {}
        self.values = np.empty(0)
        self._m = self._v = None
        self._g = self._g_views = None
        self.moments_m = {}
        self.moments_v = {}
        self.step = 0

    def add(self, name, data):
        if name in self._params:
            raise StateError(f"duplicate parameter name {name!r}")
        if self._m is not None:
            raise StateError(f"cannot add parameter {name!r} after the first optimizer step")
        arr = np.asarray(data, dtype=np.float64)
        t = Tensor(arr, requires_grad=True)
        self._params[name] = t
        # one copy of the buffer per parameter: stores hold a few dozen
        self.values = np.concatenate([self.values, arr.ravel()])
        self._g = None
        for p, view in zip(self._params.values(), self._views(self.values).values()):
            p.data = view
        return t

    def _views(self, flat):
        """name -> the slice of `flat` that holds that parameter, in its shape."""
        views, lo = {}, 0
        for name, p in self._params.items():
            views[name] = flat[lo : lo + p.data.size].reshape(p.data.shape)
            lo += p.data.size
        return views

    def _moments(self):
        """The flat (m, v) buffers, zero-filled on first use."""
        if self._m is None:
            self._m, self._v = np.zeros_like(self.values), np.zeros_like(self.values)
            self.moments_m, self.moments_v = self._views(self._m), self._views(self._v)
        return self._m, self._v

    def _gradients(self):
        """Copy every parameter's `grad` into the flat gradient buffer, in
        `values` order, and return the buffer."""
        if self._g is None:
            self._g = np.empty_like(self.values)
            self._g_views = list(self._views(self._g).values())
        for (name, p), view in zip(self._params.items(), self._g_views):
            grad = p.grad
            if grad is None:
                raise StateError(f"parameter {name!r} has no gradient")
            if grad.shape != view.shape:
                raise StateError(
                    f"parameter {name!r} gradient shape {grad.shape} != {view.shape}"
                )
            view[...] = grad
        return self._g

    def __getitem__(self, name):
        try:
            return self._params[name]
        except KeyError:
            raise StateError(f"unknown parameter {name!r}") from None

    def __contains__(self, name):
        return name in self._params

    def __len__(self):
        return len(self._params)

    def names(self):
        return list(self._params)

    def items(self):
        return self._params.items()

    def zero_grad(self):
        for p in self._params.values():
            p.grad = None

    @contextmanager
    def frozen(self):
        """Run the block forward-only: no op records a backward closure.

        Clears every parameter's `requires_grad` and restores the saved flags
        on exit, also after an exception, so blocks nest. An op with no live
        parent keeps no graph (`tensor._node`), so its intermediates are freed
        as soon as it returns; the forward floats are the same.
        """
        params = list(self._params.values())
        saved = [p.requires_grad for p in params]
        for p in params:
            p.requires_grad = False
        try:
            yield self
        finally:
            for p, flag in zip(params, saved):
                p.requires_grad = flag

    def load_arrays(self, arrays):
        _write(self._views(self.values), arrays, "parameter")

    def drop_optimizer_state(self):
        """Keep the parameters only: free the Adam moments, the gradient
        buffer and every parameter's gradient, and reset `step` to 0. The
        store is then exactly an optimizer that never stepped, so a later save
        claims no step whose moments it no longer holds. A forecaster at rest
        (frozen, read by the ranker) holds nothing else."""
        self.zero_grad()
        self._m = self._v = self._g = self._g_views = None
        self.moments_m, self.moments_v = {}, {}
        self.step = 0

    def load_moments(self, moments_m, moments_v):
        """Write saved Adam moments into the moment buffers. None saved means
        the optimizer never stepped: the store drops its optimizer state."""
        if not moments_m and not moments_v:
            self.drop_optimizer_state()
            return
        self._moments()
        _write(self.moments_m, moments_m, "moment")
        _write(self.moments_v, moments_v, "moment")


def _write(views, arrays, kind):
    """Copy arrays[name] into each view, checking names and shapes."""
    for name, view in views.items():
        if name not in arrays:
            raise StateError(f"checkpoint missing {kind} {name!r}")
        arr = np.asarray(arrays[name], dtype=np.float64)
        if arr.shape != view.shape:
            raise StateError(f"{kind} {name!r} shape {arr.shape} != expected {view.shape}")
        view[...] = arr
    extra = set(arrays) - set(views)
    if extra:
        raise StateError(f"checkpoint has unknown {kind}s {sorted(extra)!r}")


def adam_step(store, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam update over every parameter in the store.

    Requires every parameter to have a populated gradient; a missing gradient
    means the graph was wired wrong, and silently skipping it would mask that.
    The update runs over the flat buffers, element by element the same
    arithmetic as a per-parameter loop. The gradient buffer is overwritten on
    the way, and one array the size of `values` is allocated per step.
    """
    g = store._gradients()
    store.step += 1
    t = store.step
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    m, v = store._moments()
    tmp = g * (1.0 - beta1)
    m *= beta1
    m += tmp
    g *= g
    g *= 1.0 - beta2
    v *= beta2
    v += g
    update = np.divide(m, bc1, out=tmp)
    update *= lr
    denom = np.divide(v, bc2, out=g)
    np.sqrt(denom, out=denom)
    denom += eps
    update /= denom
    store.values -= update


def train_step(store, loss_fn, lr):
    """One training step: build the loss with `loss_fn()`, backpropagate it
    into freshly zeroed gradients, take an Adam step; returns the loss value.

    The step's graph lives only in this frame, so it is freed before the
    caller builds the next one.
    """
    loss = loss_fn()
    store.zero_grad()
    loss.backward()
    adam_step(store, lr=lr)
    return float(loss.data)


def train_epochs(store, loss_fn, batches, lr, epochs):
    """The epoch loop of every trainer: each epoch takes one `train_step` on
    `loss_fn(batch)` per `(batch, weight)` pair of a fresh `batches()` list,
    then yields the weighted mean of the step losses. A caller that stops
    iterating stops training."""
    for _ in range(epochs):
        pairs = batches()
        losses = [train_step(store, lambda: loss_fn(batch), lr) for batch, _ in pairs]
        yield float(np.average(losses, weights=[weight for _, weight in pairs]))
