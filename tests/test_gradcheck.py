"""The finite-difference oracle itself: exact cases and failure detection."""

import numpy as np
import pytest

from livesight import tensor as T
from livesight.errors import OracleError
from livesight.optim import ParamStore
from livesight.tensor import Tensor

from gradcheck import grad_check


def linear_setup(seed=0):
    rng = np.random.default_rng(seed)
    store = ParamStore()
    store.add("w", rng.normal(size=(3, 1)))
    store.add("b", rng.normal(size=1))
    x = rng.normal(size=(8, 3))
    y = rng.normal(size=(8, 1))

    def loss():
        pred = Tensor(x) @ store["w"] + store["b"]
        return T.tmean((pred - Tensor(y)) * (pred - Tensor(y)))

    return loss, store


def test_linear_model_is_exact():
    # MSE of a linear model is quadratic: central differences are exact up to
    # float rounding, so the bar sits far below the usual 1e-4
    loss, store = linear_setup()
    assert grad_check(loss, store) < 1e-8


def test_eps_outside_trust_range_rejected():
    loss, store = linear_setup()
    with pytest.raises(ValueError):
        grad_check(loss, store, eps=1e-7)
    with pytest.raises(ValueError):
        grad_check(loss, store, eps=1e-3)


def test_nondeterministic_loss_rejected():
    store = ParamStore()
    store.add("w", np.ones(1))
    state = {"calls": 0}

    def loss():
        state["calls"] += 1
        return store["w"] * float(state["calls"])

    with pytest.raises(OracleError, match="not deterministic"):
        grad_check(loss, store)


def test_nonscalar_loss_rejected():
    store = ParamStore()
    store.add("w", np.ones(2))

    def loss():
        return store["w"] * 2.0

    with pytest.raises(OracleError, match="scalar"):
        grad_check(loss, store)


def test_unreached_parameter_rejected():
    store = ParamStore()
    store.add("used", np.ones(1))
    store.add("orphan", np.ones(1))

    def loss():
        return T.tsum(store["used"] * store["used"])

    with pytest.raises(OracleError, match="orphan"):
        grad_check(loss, store)


def test_detects_a_wrong_gradient():
    """A hand-built node with a lying backward must push the error to order 1."""
    store = ParamStore()
    store.add("w", np.array([1.5]))

    def loss():
        w = store["w"]
        out = Tensor(np.float64((w.data**2).sum()))
        out.requires_grad = True
        out._parents = (w,)
        out._backward = lambda g: w._accumulate(3.0 * w.data * g)  # truth is 2w
        return out

    assert grad_check(loss, store) > 0.3


def test_sampled_coordinates_cover_large_stores():
    rng = np.random.default_rng(1)
    store = ParamStore()
    store.add("w", rng.normal(size=(40, 20)))  # 800 coords > budget

    def loss():
        return T.tsum(store["w"] * store["w"])

    # quadratic, so FD is exact up to rounding against the ~800-sized value
    assert grad_check(loss, store, max_coords=64) < 1e-6
