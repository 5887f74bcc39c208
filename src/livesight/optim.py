"""Named parameter collections, the Adam optimizer and the training loop."""

from __future__ import annotations

import weakref
from contextlib import contextmanager

import numpy as np

from .errors import StateError, TrainingError
from .tensor import Tensor


class ParamStore:
    """Insertion-ordered mapping of dotted names to trainable tensors.

    Every parameter's data is a view into one flat float64 buffer, `values`,
    so `adam_step` updates them all with a few vector ops. The store holds
    the parameters only: Adam's state belongs to an `Adam`, made for one
    training run. Code that restores state writes into the views
    (`load_arrays`, `values[:] = ...`): rebinding a `p.data` would leave it
    out of the update.
    """

    def __init__(self):
        self._params = {}
        self.values = np.empty(0)
        self._optimizer = None  # a weak reference to the Adam made for this store

    def add(self, name, data):
        if name in self._params:
            raise StateError(f"duplicate parameter name {name!r}")
        if self._optimizer is not None and self._optimizer() is not None:
            raise StateError(f"cannot add parameter {name!r} while an optimizer steps the store")
        arr = np.asarray(data, dtype=np.float64)
        t = Tensor(arr, requires_grad=True)
        self._params[name] = t
        # one copy of the buffer per parameter: stores hold a few dozen
        self.values = np.concatenate([self.values, arr.ravel()])
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
        """Copy arrays[name] into each parameter, checking names and shapes."""
        views = self._views(self.values)
        for name, view in views.items():
            if name not in arrays:
                raise StateError(f"checkpoint missing parameter {name!r}")
            arr = np.asarray(arrays[name], dtype=np.float64)
            if arr.shape != view.shape:
                raise StateError(f"parameter {name!r} shape {arr.shape} != expected {view.shape}")
            view[...] = arr
        extra = set(arrays) - set(views)
        if extra:
            raise StateError(f"checkpoint has unknown parameters {sorted(extra)!r}")


class Adam:
    """Adam's state for one training run of `store`: the flat moments `m` and
    `v`, a flat buffer `_g` reused for every step's gradients, and the step
    count. `train_epochs` makes one per run, so the state dies with the loop.
    While it lives, the store takes no new parameter.
    """

    def __init__(self, store):
        self.store = store
        self.step = 0
        self.m, self.v = np.zeros_like(store.values), np.zeros_like(store.values)
        self._g = np.empty_like(store.values)
        self._g_views = list(store._views(self._g).values())
        store._optimizer = weakref.ref(self)

    def gradients(self):
        """Copy every parameter's `grad` into the flat gradient buffer, in
        `values` order, and return the buffer."""
        for (name, p), view in zip(self.store.items(), self._g_views):
            grad = p.grad
            if grad is None:
                raise StateError(f"parameter {name!r} has no gradient")
            if grad.shape != view.shape:
                raise StateError(
                    f"parameter {name!r} gradient shape {grad.shape} != {view.shape}"
                )
            view[...] = grad
        return self._g


def adam_step(adam, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam update over every parameter of `adam`'s store.

    Requires every parameter to have a populated gradient; a missing gradient
    means the graph was wired wrong, and silently skipping it would mask that.
    The update runs over the flat buffers, element by element the same
    arithmetic as a per-parameter loop. The gradient buffer is overwritten on
    the way, and one array the size of `values` is allocated per step.
    """
    g = adam.gradients()
    adam.step += 1
    t = adam.step
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    m, v = adam.m, adam.v
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
    adam.store.values -= update


def train_step(adam, loss_fn, lr):
    """One training step: build the loss with `loss_fn()`, backpropagate it
    into freshly zeroed gradients, take an Adam step and clear the gradients
    it copied; returns the loss value.

    The step's graph lives only in this frame, so it is freed before the
    caller builds the next one.
    """
    loss = loss_fn()
    adam.store.zero_grad()
    loss.backward()
    adam_step(adam, lr=lr)
    adam.store.zero_grad()
    return float(loss.data)


def train_epochs(name, store, loss_fn, batches, lr, epochs):
    """The epoch loop of every trainer: each epoch takes one `train_step` on
    `loss_fn(batch)` per `(batch, weight)` pair of a fresh `batches()` list,
    then yields the weighted mean of the step losses. A caller that stops
    iterating stops training. The loop's `Adam` lives in its frame, so the
    optimizer state is freed once the loop is exhausted or dropped. An epoch
    whose loss or parameters are not finite raises TrainingError naming
    `name`, the model trained, and the epoch instead of being yielded."""
    adam = Adam(store)
    for epoch in range(1, epochs + 1):
        pairs = batches()
        losses = [train_step(adam, lambda: loss_fn(batch), lr) for batch, _ in pairs]
        loss = float(np.average(losses, weights=[weight for _, weight in pairs]))
        bad = np.count_nonzero(~np.isfinite(store.values))
        if bad or not np.isfinite(loss):
            raise TrainingError(f"the {name} diverged in epoch {epoch}: loss {loss}, "
                                f"{bad} of {store.values.size} parameters not finite")
        yield loss
