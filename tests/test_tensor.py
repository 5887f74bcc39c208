"""Autodiff core: forward values and analytic-vs-numeric gradients."""

import ctypes
import inspect
import platform

import numpy as np
import pytest

from livesight import tensor as T
from livesight.errors import (
    ConfigurationError,
    DimensionError,
    LabelError,
    StateError,
    VocabularyError,
)
from livesight.tensor import Tensor
from reference_ops import concat, relu, sigmoid


def numeric_grad(f, x, eps=1e-6):
    """Central differences of a scalar-valued f at array x."""
    g = np.zeros_like(x)
    flat = x.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(x)
        flat[i] = orig - eps
        lo = f(x)
        flat[i] = orig
        g.ravel()[i] = (hi - lo) / (2 * eps)
    return g


def max_rel_err(a, n):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
    return float(np.max(np.abs(a - n) / denom))


def check_op(build, x0, tol=1e-6):
    """build(Tensor) -> scalar Tensor; compares backward against differences."""
    x = Tensor(x0.copy(), requires_grad=True)
    out = build(x)
    out.backward()
    numeric = numeric_grad(lambda arr: float(build(Tensor(arr)).data), x0.copy())
    assert max_rel_err(x.grad, numeric) < tol


def test_add_mul_values():
    a = Tensor([1.0, 2.0])
    b = Tensor([3.0, 4.0])
    assert np.array_equal((a + b).data, [4.0, 6.0])
    assert np.array_equal((a * b).data, [3.0, 8.0])
    assert np.array_equal((a - b).data, [-2.0, -2.0])
    assert np.array_equal((-a).data, [-1.0, -2.0])
    assert np.array_equal((2.0 + a).data, [3.0, 4.0])


def test_add_broadcast_gradient():
    # (2,3) + (3,) — the bias gradient must sum over the broadcast rows
    a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    b = Tensor(np.zeros(3), requires_grad=True)
    T.tsum(a + b).backward()
    assert np.array_equal(a.grad, np.ones((2, 3)))
    assert np.array_equal(b.grad, [2.0, 2.0, 2.0])


def test_mul_gradient_both_sides():
    a = Tensor([2.0, 3.0], requires_grad=True)
    b = Tensor([5.0, 7.0], requires_grad=True)
    T.tsum(a * b).backward()
    assert np.array_equal(a.grad, [5.0, 7.0])
    assert np.array_equal(b.grad, [2.0, 3.0])


def test_matmul_values_and_gradients():
    rng = np.random.default_rng(0)
    a0 = rng.normal(size=(3, 4))
    b0 = rng.normal(size=(4, 2))
    a = Tensor(a0, requires_grad=True)
    b = Tensor(b0, requires_grad=True)
    out = a @ b
    assert np.allclose(out.data, a0 @ b0)
    T.tsum(out).backward()
    na = numeric_grad(lambda arr: float((arr @ b0).sum()), a0.copy())
    nb = numeric_grad(lambda arr: float((a0 @ arr).sum()), b0.copy())
    assert max_rel_err(a.grad, na) < 1e-6
    assert max_rel_err(b.grad, nb) < 1e-6


def test_matmul_rejects_vectors_and_mismatch():
    with pytest.raises(DimensionError):
        Tensor([1.0, 2.0]) @ Tensor([[1.0], [2.0]])
    with pytest.raises(DimensionError):
        Tensor(np.ones((2, 3))) @ Tensor(np.ones((2, 3)))


def test_batched_matmul_gradient():
    rng = np.random.default_rng(1)
    other = Tensor(rng.normal(size=(2, 4, 3)))
    check_op(lambda x: T.tsum(x @ other), rng.normal(size=(2, 3, 4)))


def test_shape_ops_gradients():
    rng = np.random.default_rng(2)
    c = rng.normal(size=(2, 6))
    check_op(lambda x: T.tsum(T.reshape(x, (2, 6)) * Tensor(c)), rng.normal(size=(3, 4)))
    c2 = rng.normal(size=(4, 3))
    check_op(lambda x: T.tsum(T.swapaxes(x, 0, 1) * Tensor(c2)), rng.normal(size=(3, 4)))


def test_concat_values_and_gradients():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    b = Tensor(np.full((2, 3), 2.0), requires_grad=True)
    out = concat([a, b], axis=-1)
    assert out.shape == (2, 5)
    T.tsum(out * Tensor(np.arange(10.0).reshape(2, 5))).backward()
    assert np.array_equal(a.grad, [[0.0, 1.0], [5.0, 6.0]])
    assert np.array_equal(b.grad, [[2.0, 3.0, 4.0], [7.0, 8.0, 9.0]])


def test_getitem_scatters_gradient():
    x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    T.tsum(x[1:, :2]).backward()
    expected = np.zeros((3, 4))
    expected[1:, :2] = 1.0
    assert np.array_equal(x.grad, expected)


def test_sum_mean_gradients():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    T.tmean(x).backward()
    assert np.allclose(x.grad, np.full((2, 3), 1.0 / 6.0))
    x.zero_grad()
    T.tsum(T.tsum(x, axis=1) * Tensor([1.0, 10.0])).backward()
    assert np.array_equal(x.grad, [[1.0, 1.0, 1.0], [10.0, 10.0, 10.0]])


def test_relu_sigmoid_softmax():
    x = Tensor([-2.0, 0.0, 3.0], requires_grad=True)
    y = relu(x)
    assert np.array_equal(y.data, [0.0, 0.0, 3.0])
    T.tsum(y).backward()
    assert np.array_equal(x.grad, [0.0, 0.0, 1.0])

    s = sigmoid(Tensor([0.0, 500.0, -500.0]))
    assert np.allclose(s.data, [0.5, 1.0, 0.0])

    p = T.softmax(Tensor([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]))
    assert np.allclose(p.data.sum(axis=-1), 1.0)
    assert np.allclose(p.data[1], [1 / 3, 1 / 3, 1 / 3])


def test_nonlinearity_gradients():
    rng = np.random.default_rng(3)
    for seed in range(5):
        x0 = np.random.default_rng(seed).normal(size=(2, 5))
        c = rng.normal(size=(2, 5))
        check_op(lambda x: T.tsum(sigmoid(x) * Tensor(c)), x0.copy())
        check_op(lambda x: T.tsum(T.softmax(x) * Tensor(c)), x0.copy())
        # keep clear of the ReLU kink: FD straddles it
        x_off = x0 + np.sign(x0) * 0.1
        check_op(lambda x: T.tsum(relu(x) * Tensor(c)), x_off)


def test_embedding_gather_and_scatter_add():
    table = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    out = T.embedding(table, np.array([0, 0, 2]))
    assert np.array_equal(out.data, [[0.0, 1.0], [0.0, 1.0], [4.0, 5.0]])
    T.tsum(out).backward()
    # duplicate index 0 must accumulate, not overwrite
    assert np.array_equal(table.grad, [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(DimensionError):
        T.embedding(table, np.array([0.5]))


def test_embedding_scatter_equals_add_at_reference():
    # repeated indices in a 2-D index array: the rows must be added in index
    # order, the same floats as np.add.at
    rng = np.random.default_rng(3)
    table = Tensor(rng.normal(size=(6, 5)), requires_grad=True)
    idx = rng.integers(0, 6, size=(40, 3))
    idx[0, :] = 2
    probe = rng.normal(size=(40, 3, 5)) * 10.0 ** rng.integers(-8, 8, size=(40, 3, 1))
    T.tsum(T.embedding(table, idx) * Tensor(probe)).backward()
    expected = np.zeros((6, 5))
    np.add.at(expected, idx, probe)
    assert np.array_equal(table.grad, expected)


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(DimensionError):
        (x * 2.0).backward()


def test_a_spent_graph_cannot_backpropagate_again():
    # a second pass once compounded silently (w.grad 3.0, then 18.0); with
    # the closures dropped it would silently do nothing
    x, w, b = Tensor(np.ones((3, 1))), Tensor([[1.0]], requires_grad=True), Tensor([0.0])
    hidden = relu(T.dense(x, w, b))
    loss = T.tsum(hidden * 1.0)
    loss.backward()
    assert np.array_equal(w.grad, [[3.0]])
    with pytest.raises(StateError, match="already ran"):
        loss.backward()
    # a new loss over a spent part of the graph is refused as well
    with pytest.raises(StateError, match="already ran"):
        T.tsum(hidden * 2.0).backward()
    assert np.array_equal(w.grad, [[3.0]])
    leaf = Tensor(2.0, requires_grad=True)
    leaf.backward()
    leaf.backward()  # a leaf has no graph to spend
    assert leaf.grad == 2.0


def test_a_spent_node_says_so():
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    hidden = x * 3.0
    loss = T.tsum(hidden)
    assert repr(hidden) == "Tensor(shape=(2, 3), requires_grad=True)"
    loss.backward()
    assert repr(hidden) == "Tensor(spent, requires_grad=True)"
    # the held Tensor keeps its value; its node keeps the gradient
    assert np.array_equal(hidden.data, np.full((2, 3), 3.0))
    assert np.array_equal(hidden.grad, np.ones((2, 3)))
    assert float(loss.data) == 18.0 and np.array_equal(x.data, np.ones((2, 3)))
    for use in (lambda: hidden.backward(), lambda: T.reshape(hidden, (6,)),
                lambda: 1.0 + hidden, lambda: T.softmax(hidden)):
        with pytest.raises(StateError, match="already ran"):
            use()


def test_a_spent_tensor_keeps_its_value_shape_and_ndim():
    # these once read a dropped value and raised a bare AttributeError
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    hidden = x * 2.0
    T.tsum(hidden).backward()
    assert hidden.shape == (2, 3) and hidden.ndim == 2
    assert np.array_equal(hidden.data, 2.0 * np.arange(6.0).reshape(2, 3))
    with pytest.raises(StateError, match="already ran"):
        T.tsum(hidden * 2.0)


def _ops(rng):
    """op name -> a builder of its output from fresh live leaves."""

    def leaf(*shape, low=-1.0):
        return Tensor(rng.uniform(low, 1.0, size=shape), requires_grad=True)

    return {
        "add": lambda: T.add(leaf(2, 3), leaf(3)),
        "mul": lambda: T.mul(leaf(2, 3), leaf(3)),
        "matmul": lambda: T.matmul(leaf(2, 3), leaf(3, 4)),
        "dense": lambda: T.dense(leaf(2, 3), leaf(3, 4), leaf(4)),
        "feed_forward": lambda: T.feed_forward(leaf(2, 3), leaf(2, 3), leaf(3, 5), leaf(5),
                                               leaf(5, 3), leaf(3)),
        "trunk": lambda: T.trunk([leaf(2, 3), leaf(2, 2)], leaf(5, 4), leaf(4), leaf(4, 3),
                                 leaf(3), [(leaf(3, 1), leaf(1)), (leaf(3, 1), leaf(1))]),
        "reshape": lambda: T.reshape(leaf(2, 3), (6,)),
        "swapaxes": lambda: T.swapaxes(leaf(2, 3), 0, 1),
        "take": lambda: T.take(leaf(2, 3), (slice(0, 1),)),
        "tsum": lambda: T.tsum(leaf(2, 3), axis=0),
        "tmean": lambda: T.tmean(leaf(2, 3)),
        "softmax": lambda: T.softmax(leaf(2, 3)),
        "layer_norm": lambda: T.layer_norm(leaf(2, 3), leaf(3), leaf(3)),
        "attention_scores": lambda: T.attention_scores(leaf(1, 3, 4), 2, None, leaf(4, 4),
                                                       leaf(4), leaf(4, 4), leaf(4)),
        "attention_mix": lambda: T.attention_mix(leaf(1, 2, 3, 3), leaf(1, 3, 4), leaf(4, 4),
                                                 leaf(4), leaf(4, 4), leaf(4)),
        "embedding": lambda: T.embedding(leaf(5, 3), np.array([0, 2, 2])),
        "softmax_cross_entropy": lambda: T.softmax_cross_entropy(leaf(2, 3), np.array([0, 2])),
        "binary_cross_entropy": lambda: T.binary_cross_entropy(
            leaf(2, 2, low=0.1), np.array([[0.0, 1.0], [1.0, 1.0]])),
    }


def test_the_closure_check_covers_every_op():
    public = {name for name, fn in vars(T).items()
              if inspect.isfunction(fn) and fn.__module__ == T.__name__
              and not name.startswith("_")}
    assert public - {"as_tensor"} == set(_ops(np.random.default_rng(0)))


def _captured(fn):
    """Every object that `fn`'s closure cells hold, through tuples, lists and
    the closures of captured functions."""
    found, seen = [], set()
    stack = [cell.cell_contents for cell in fn.__closure__ or ()]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        found.append(obj)
        if isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif inspect.isfunction(obj):
            stack.extend(cell.cell_contents for cell in obj.__closure__ or ())
    return found


@pytest.mark.parametrize("op", sorted(_ops(np.random.default_rng(0))))
def test_no_backward_closure_holds_a_tensor(op):
    # a closure that captured a Tensor would keep its forward value alive
    # for as long as the graph lives
    out = _ops(np.random.default_rng(1))[op]()
    assert out._backward is not None
    held = _captured(out._backward)
    assert held and not [obj for obj in held if isinstance(obj, Tensor)]


def test_softmax_cross_entropy_examples():
    loss = T.softmax_cross_entropy(Tensor([[0.0, 0.0]]), np.array([0]))
    assert abs(float(loss.data) - np.log(2.0)) < 1e-12
    loss = T.softmax_cross_entropy(Tensor([[100.0, 0.0]]), np.array([0]))
    assert float(loss.data) < 1e-6
    with pytest.raises(IndexError):
        T.softmax_cross_entropy(Tensor([[0.0, 0.0]]), np.array([2]))
    with pytest.raises(DimensionError):
        T.softmax_cross_entropy(Tensor([[1.0]]), np.array([0]))


def test_softmax_cross_entropy_gradient():
    rng = np.random.default_rng(4)
    x0 = rng.normal(size=(1, 5))
    check_op(lambda x: T.softmax_cross_entropy(x, np.array([3])), x0, tol=1e-6)


def test_softmax_cross_entropy_mask():
    logits = Tensor(np.zeros((2, 2, 3)))
    labels = np.zeros((2, 2), dtype=np.int64)
    mask = np.array([[1, 0], [1, 1]])
    loss = T.softmax_cross_entropy(logits, labels, mask=mask)
    assert abs(float(loss.data) - np.log(3.0)) < 1e-12
    with pytest.raises(DimensionError):
        T.softmax_cross_entropy(logits, labels, mask=np.zeros((2, 2)))


def test_binary_cross_entropy():
    loss = T.binary_cross_entropy(Tensor([0.5]), [1.0])
    assert abs(float(loss.data) - np.log(2.0)) < 1e-12
    # multi-task: sum over tasks, mean over rows
    l2 = T.binary_cross_entropy(Tensor([[0.5, 0.5]]), [[1.0, 0.0]])
    assert abs(float(l2.data) - 2 * np.log(2.0)) < 1e-12
    # clamp keeps certain-but-wrong predictions finite
    l3 = T.binary_cross_entropy(Tensor([0.0]), [1.0])
    assert np.isfinite(float(l3.data))
    with pytest.raises(LabelError):
        T.binary_cross_entropy(Tensor([0.5]), [0.3])
    with pytest.raises(DimensionError):
        T.binary_cross_entropy(Tensor([0.5, 0.5]), [1.0])


def test_binary_cross_entropy_gradient():
    rng = np.random.default_rng(5)
    y = (rng.random((3, 2)) < 0.5).astype(float)
    x0 = rng.uniform(0.1, 0.9, size=(3, 2))
    check_op(lambda x: T.binary_cross_entropy(x, y), x0)


def test_layer_norm_values():
    out = T.layer_norm(Tensor([2.0, 4.0, 6.0]), Tensor(np.ones(3)), Tensor(np.zeros(3)))
    assert np.allclose(out.data, [-1.2247, 0.0, 1.2247], atol=1e-3)
    out = T.layer_norm(Tensor([5.0, 5.0, 5.0]), Tensor(np.ones(3)), Tensor([1.0, 2.0, 3.0]))
    assert np.allclose(out.data, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        T.layer_norm(Tensor([1.0, 2.0]), Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=0.0)
    with pytest.raises(DimensionError):
        T.layer_norm(Tensor([1.0, 2.0]), Tensor(np.ones(3)), Tensor(np.zeros(3)))


@pytest.mark.parametrize("label", [-1, 3])
def test_out_of_range_label_is_a_vocabulary_error(label):
    with pytest.raises(VocabularyError, match=r"label outside \[0, 3\)"):
        T.softmax_cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, label]))


@pytest.mark.parametrize("eps", [0.0, -1e-5])
def test_non_positive_layer_norm_eps_is_a_configuration_error(eps):
    with pytest.raises(ConfigurationError, match="eps must be positive"):
        T.layer_norm(Tensor([1.0, 2.0]), Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=eps)


def test_gradient_accumulates_across_uses():
    x = Tensor([3.0], requires_grad=True)
    y = x * x  # d/dx = 2x via the product rule's two paths
    T.tsum(y).backward()
    assert np.allclose(x.grad, [6.0])


def test_finite_check_trips_on_overflow():
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
        Tensor([1e308]) * Tensor([1e308])


class NoMallopt:
    """A C library without `mallopt`, as on macOS or Windows."""

    def __init__(self, name):
        pass


class Unloadable:
    """A CDLL that fails to open, as `CDLL(None)` does on Windows."""

    def __init__(self, name):
        raise TypeError("no default library")


@pytest.mark.parametrize("library", [NoMallopt, Unloadable])
def test_heap_policy_is_a_no_op_without_mallopt(monkeypatch, library):
    monkeypatch.setattr(ctypes, "CDLL", library)
    assert T._keep_freed_heap() is False


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy applies on glibc only")
def test_heap_policy_takes_on_glibc():
    assert T._keep_freed_heap() is True
