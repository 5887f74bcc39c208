"""The allocation-lean ops give exactly the floats of their composed formulas.

Each rewritten op is compared with `np.array_equal`, forward and backward,
against the straightforward formula it replaced, which stays here as the
reference.
"""

import contextlib

import numpy as np
import pytest

from livesight import prodfore, statfore
from livesight import tensor as T
from livesight.config import ProdConfig, RankConfig, StatConfig
from livesight.gradcheck import grad_check
from livesight.layers import MASK_VALUE
from livesight.optim import Adam, ParamStore, adam_step
from livesight.prodfore import CategoryHierarchy, ProductModel
from livesight.ranker import RankingModel, predict, rank_loss
from livesight.statfore import StatisticModel
from livesight.tensor import Tensor
from reference_ops import composed_trunk, relu

SHAPES = [(7,), (5, 10), (3, 4, 12)]


def leaves(rng, *shapes):
    return [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]


def backprop(out, g):
    """Run backward with `g` as the output's gradient (tsum of out * g hands
    exactly g to `out`)."""
    T.tsum(out * Tensor(g)).backward()


def assert_equal(actual, expected):
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)


def assert_same_floats(actual, expected):
    """Equal values, NaN where the other has NaN, and the same sign of zero."""
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected, equal_nan=True)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


# -- reference formulas ------------------------------------------------------


def ref_layer_norm(x, gain, bias, g, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    out = xhat * gain + bias
    lead = tuple(range(g.ndim - 1))
    g_gain = (g * xhat).sum(axis=lead) if g.ndim > 1 else g * xhat
    g_bias = g.sum(axis=lead) if g.ndim > 1 else np.array(g)
    gx = g * gain
    term1 = gx.mean(axis=-1, keepdims=True)
    term2 = (gx * xhat).mean(axis=-1, keepdims=True)
    return out, inv * (gx - term1 - xhat * term2), g_gain, g_bias


def ref_softmax(x, g, axis):
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)
    dot = (g * out).sum(axis=axis, keepdims=True)
    return out, out * (g - dot)


def ref_cross_entropy_grad(logits, labels, mask, g):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    probs = np.exp(shifted - logz)
    onehot = np.zeros_like(probs)
    np.put_along_axis(onehot, labels[..., None], 1.0, axis=-1)
    denom = max(labels.size, 1) if mask is None else mask.sum()
    grad = (probs - onehot) / denom
    if mask is not None:
        grad = grad * mask[..., None]
    return g * grad


def ref_adam(adam, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The flat update as it was: one concatenation of the gradients per step."""
    store = adam.store
    adam.step += 1
    t = adam.step
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    m, v = adam.m, adam.v
    g = np.concatenate([grads[name].ravel() for name in store.names()])
    m *= beta1
    m += (1.0 - beta1) * g
    g *= g
    g *= 1.0 - beta2
    v *= beta2
    v += g
    update = m / bc1
    update *= lr
    denom = v / bc2
    np.sqrt(denom, out=denom)
    denom += eps
    update /= denom
    store.values -= update


# -- layer_norm, softmax, cross-entropy --------------------------------------


@pytest.mark.parametrize("shape", SHAPES)
def test_layer_norm_equals_reference(shape):
    rng = np.random.default_rng(20)
    x, gain, bias = leaves(rng, shape, shape[-1:], shape[-1:])
    x.data[...] = 3.0 + 10.0 * x.data  # an offset mean, so centring matters
    g = rng.normal(size=shape)
    out = T.layer_norm(x, gain, bias)
    value = out.data  # backward drops an inner node's forward value
    backprop(out, g)
    ref_out, g_x, g_gain, g_bias = ref_layer_norm(x.data, gain.data, bias.data, g)
    assert_equal(value, ref_out)
    assert_equal(x.grad, g_x)
    assert_equal(gain.grad, g_gain)
    assert_equal(bias.grad, g_bias)


@pytest.mark.parametrize("axis", [-1, 0])
@pytest.mark.parametrize("shape", SHAPES)
def test_softmax_equals_reference(shape, axis):
    rng = np.random.default_rng(21)
    (x,) = leaves(rng, shape)
    x.data[...] *= 5.0
    g = rng.normal(size=shape)
    out = T.softmax(x, axis=axis)
    value = out.data
    backprop(out, g)
    ref_out, ref_grad = ref_softmax(x.data, g, axis)
    assert_equal(value, ref_out)
    assert_equal(x.grad, ref_grad)


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("shape", [(6, 5), (3, 4, 5)])
def test_cross_entropy_backward_equals_one_hot_reference(shape, masked):
    rng = np.random.default_rng(22)
    (logits,) = leaves(rng, shape)
    labels = rng.integers(0, shape[-1], size=shape[:-1])
    mask = (rng.random(shape[:-1]) < 0.6).astype(float) if masked else None
    if masked:
        mask.reshape(-1)[0] = 1.0
    loss = T.softmax_cross_entropy(logits, labels, mask)
    loss.backward()
    assert_equal(logits.grad, ref_cross_entropy_grad(logits.data, labels, mask, np.ones(())))
    # a non-unit upstream gradient scales the same floats
    (again,) = leaves(np.random.default_rng(22), shape)
    T.mul(T.softmax_cross_entropy(again, labels, mask), 0.3).backward()
    assert_equal(again.grad, ref_cross_entropy_grad(again.data, labels, mask, np.float64(0.3)))


def test_cross_entropy_backward_on_transposed_logits():
    # Fortran-ordered logits: the label positions must still be found in place
    rng = np.random.default_rng(23)
    data = rng.normal(size=(4, 3, 2)).transpose(2, 1, 0)
    logits = Tensor(data, requires_grad=True)
    labels = rng.integers(0, 4, size=(2, 3))
    T.softmax_cross_entropy(logits, labels).backward()
    assert_equal(logits.grad, ref_cross_entropy_grad(data, labels, None, np.ones(())))


# -- short rows reduced by columns -------------------------------------------


def short_rows(n):
    """(7, 5, n) rows spanning twelve decades, plus rows of MASK_VALUE, of
    signed zeros and of infinities."""
    rng = np.random.default_rng(29 + n)
    a = rng.normal(size=(7, 5, n)) * 10.0 ** rng.integers(-6, 6, size=(7, 5, n))
    a[0] = MASK_VALUE  # fully masked rows
    a[1, :, 1:] = MASK_VALUE  # causal-mask rows that keep their first column
    a[2] = -0.0
    a[3, :, ::2] = 0.0
    a[3, :, 1::2] = -0.0
    a[4, 0, -1] = np.inf
    a[4, 1, 0] = -np.inf
    a[4, 2] = -np.inf
    a[4, 3, :: max(1, n - 1)] = (np.inf, -np.inf)[: min(n, 2)]  # NaN sums for n > 1
    return a


def noncontiguous(a):
    """Views of `a` whose last axis is not one C-contiguous block."""
    return [a[..., ::-1], a[:, ::2], np.swapaxes(a, 0, 1), np.asfortranarray(a)]


@pytest.mark.parametrize("n", range(1, T.SHORT_ROW + 3))
def test_row_max_and_sum_equal_numpy(n):
    a = short_rows(n)
    for x in [a, a[3], a[4, 3]] + noncontiguous(a):
        with np.errstate(invalid="ignore"):  # inf - inf in the sums
            assert_same_floats(T._row_max(x), x.max(axis=-1, keepdims=True))
            assert_same_floats(T._row_sum(x), x.sum(axis=-1, keepdims=True))


@pytest.mark.parametrize("length", [1, 2, 5, 8, 11, 17, T.SHORT_ROW, T.SHORT_ROW + 1])
@pytest.mark.parametrize("masked", [False, True])
def test_softmax_of_attention_scores_equals_reference(length, masked):
    rng = np.random.default_rng(30)
    (x,) = leaves(rng, (3, 4, length, length))
    x.data[...] *= 4.0
    if masked:  # the causal mask of `multi_head_attention`
        x.data[...] += np.triu(np.full((length, length), MASK_VALUE), k=1)
    g = rng.normal(size=x.shape)
    out = T.softmax(x, axis=-1)
    value = out.data
    backprop(out, g)
    ref_out, ref_grad = ref_softmax(x.data, g, -1)
    assert_same_floats(value, ref_out)
    assert_same_floats(x.grad, ref_grad)


# -- the attention-score backward --------------------------------------------


def ref_attention_scores_grads(x, heads, wq, bq, wk, bk, g):
    """Gradients of x, wq, bq, wk, bk by the `np.stack` formula: the Q and K
    gradients stacked, then transposed and reshaped into token rows."""
    b, length, d = x.shape
    dh = d // heads
    x2 = x.reshape(b * length, d)
    w_qk = np.concatenate([wq, wk], axis=1)
    qk = x2 @ w_qk
    qk += np.concatenate([bq, bk])
    q, k = qk.reshape(b, length, 2, heads, dh).transpose(2, 0, 3, 1, 4)
    g = g * (1.0 / np.sqrt(dh))
    g_qk = np.stack([g @ k, np.swapaxes(g, -1, -2) @ q])
    g_qk = g_qk.transpose(1, 3, 0, 2, 4).reshape(b * length, 2 * d)
    g_w, g_b = x2.T @ g_qk, g_qk.sum(axis=0)
    return (g_qk @ w_qk.T).reshape(x.shape), g_w[:, :d], g_b[:d], g_w[:, d:], g_b[d:]


@pytest.mark.parametrize("b, length, d, heads", [(1, 1, 8, 4), (3, 5, 8, 2), (16, 11, 32, 4)])
def test_attention_scores_backward_equals_the_stacked_formula(b, length, d, heads):
    rng = np.random.default_rng(31)
    params = leaves(rng, (b, length, d), (d, d), (d,), (d, d), (d,))
    mask = np.triu(np.full((length, length), MASK_VALUE), k=1)
    g = rng.normal(size=(b, heads, length, length))
    x, wq, bq, wk, bk = params
    backprop(T.attention_scores(x, heads, mask, wq, bq, wk, bk), g)
    refs = ref_attention_scores_grads(x.data, heads, wq.data, bq.data, wk.data, bk.data, g)
    for p, ref in zip(params, refs):
        assert_equal(p.grad, ref)


# -- the feed-forward node ---------------------------------------------------


def composed_feed_forward(h, x, w1, b1, w2, b2):
    return h + T.dense(relu(T.dense(x, w1, b1)), w2, b2)


@pytest.mark.parametrize("shape", [(5, 6), (3, 4, 6)])
def test_feed_forward_equals_dense_relu_dense_add(shape):
    rng = np.random.default_rng(24)
    shapes = (shape, shape, (6, 9), (9,), (9, 6), (6,))
    fused, composed = leaves(rng, *shapes), leaves(np.random.default_rng(24), *shapes)
    g = rng.normal(size=shape)
    out_f = T.feed_forward(*fused)
    out_c = composed_feed_forward(*composed)
    values = out_f.data, out_c.data
    backprop(out_f, g)
    backprop(out_c, g)
    assert_equal(*values)
    for a, b in zip(fused, composed):
        assert_equal(a.grad, b.grad)


def test_feed_forward_gradient_oracle():
    store = ParamStore()
    rng = np.random.default_rng(25)
    for name, shape in (("h", (2, 3, 4)), ("x", (2, 3, 4)), ("w1", (4, 6)), ("b1", (6,)),
                        ("w2", (6, 4)), ("b2", (4,))):
        store.add(name, rng.normal(size=shape))
    probe = rng.normal(size=(2, 3, 4))
    args = [store[n] for n in ("h", "x", "w1", "b1", "w2", "b2")]

    def loss():
        return T.tsum(T.feed_forward(*args) * Tensor(probe))

    assert grad_check(loss, store) < 1e-5


# -- the ranker's trunk node -------------------------------------------------


def trunk_args(rng, b, n_tasks, hidden=10):
    """Trunk operands as the ranker builds them: an id-embedding-like leaf, a
    constant block, a `dist @ mix` node and another constant block, then the
    trunk and head weights. Returns (parts, weights, heads, every leaf that
    takes a gradient)."""
    ids, mix = leaves(rng, (b, 12), (6, 5))
    dist = Tensor(rng.dirichlet(np.ones(6), size=b))
    const, tail = Tensor(rng.normal(size=(b, 7)) * 3.0), Tensor(rng.normal(size=(b, 9)))
    parts = [ids, const, dist @ mix, tail]
    weights = leaves(rng, (33, hidden), (hidden,), (hidden, hidden), (hidden,))
    heads = [tuple(leaves(rng, (hidden, 1), (1,))) for _ in range(n_tasks)]
    return parts, weights, heads, [ids, mix, *weights, *(p for h in heads for p in h)]


@pytest.mark.parametrize("n_tasks", [2, 5])
@pytest.mark.parametrize("b", [1, 3, 128, 130])
def test_trunk_equals_the_composed_trunk(b, n_tasks):
    # five heads (the talent service) add their input gradients in an order
    # that shows in the floats; two heads add commutatively
    parts, weights, heads, fused = trunk_args(np.random.default_rng(27), b, n_tasks)
    parts_c, weights_c, heads_c, composed = trunk_args(np.random.default_rng(27), b, n_tasks)
    g = np.random.default_rng(28).normal(size=(b, n_tasks))
    out_f = T.trunk(parts, *weights, heads)
    out_c = composed_trunk(parts_c, *weights_c, heads_c)
    values = out_f.data, out_c.data
    backprop(out_f, g)
    backprop(out_c, g)
    assert_equal(*values)
    for a, c in zip(fused, composed):
        assert_equal(a.grad, c.grad)
    # the mixing node gets the same input gradient; the constant blocks none
    assert_equal(parts[2].grad, parts_c[2].grad)
    assert parts[1].grad is None and parts[3].grad is None


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_trunk_checks_its_first_layer(bad):
    # with a positive weight row, -inf gives a row of -inf preactivations that
    # the ReLU would turn into zeros: the check reads them before the ReLU
    parts, weights, heads, _ = trunk_args(np.random.default_rng(30), 3, 2)
    parts[1].data[1, 4] = bad
    np.abs(weights[0].data[12 + 4], out=weights[0].data[12 + 4])
    with pytest.raises(FloatingPointError, match="non-finite"):
        T.trunk(parts, *weights, heads)


# -- gradients shared between tensors ----------------------------------------


def test_self_sum_leaves_the_output_gradient_alone():
    rng = np.random.default_rng(26)
    (a,) = leaves(rng, (3, 4))
    x = T.mul(a, 1.0)  # an inner node: its grad comes from the add below
    y = x + x
    g = rng.normal(size=(3, 4))
    backprop(y, g)
    assert_equal(y.grad, g)
    assert_equal(x.grad, g + g)
    assert_equal(a.grad, g + g)


@pytest.mark.parametrize("add_first", [True, False])
def test_shared_add_gradient_survives_a_later_accumulation(add_first):
    rng = np.random.default_rng(27)
    a, b = leaves(rng, (3, 4), (3, 4))
    g, probe = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
    s = a + b  # hands one gradient array to both a and b
    terms = [T.tsum(s * Tensor(g)), T.tsum(a * Tensor(probe))]
    if not add_first:
        terms.reverse()
    (terms[0] + terms[1]).backward()
    assert_equal(s.grad, g)
    assert_equal(b.grad, g)
    assert_equal(a.grad, g + probe)


# -- Adam over the flat gradient buffer --------------------------------------


def test_adam_equals_the_concatenating_update():
    rng = np.random.default_rng(28)
    shapes = {"emb": (7, 3), "w": (3, 5), "b": (5,), "scalar": ()}
    store, ref = ParamStore(), ParamStore()
    for name, shape in shapes.items():
        init = rng.normal(size=shape)
        store.add(name, init)
        ref.add(name, init)
    adam, ref_state = Adam(store), Adam(ref)
    for step in range(6):
        if step in (2, 4):  # zero gradients, so only the moments move the values
            grads = {name: np.zeros(shape) for name, shape in shapes.items()}
        else:
            grads = {name: rng.normal(size=shape) * 10.0 ** rng.integers(-6, 6)
                     for name, shape in shapes.items()}
        for name, grad in grads.items():
            # a non-contiguous gradient is copied like a contiguous one
            store[name].grad = np.asfortranarray(grad) if grad.ndim == 2 else grad.copy()
        adam_step(adam, lr=1e-2)
        ref_adam(ref_state, grads, lr=1e-2)
        assert_equal(store.values, ref.values)
        assert_equal(adam.m, ref_state.m)
        assert_equal(adam.v, ref_state.v)
        for name, grad in grads.items():  # the step reads the gradients, never writes them
            assert_equal(store[name].grad, grad)


# -- forward-only passes -----------------------------------------------------

HIERARCHY = CategoryHierarchy.balanced(2, 4, 8, 16)


def tiny_stat():
    return StatisticModel(StatConfig(context=8, horizon_train=3, horizon_infer=2, d_model=8,
                                     heads=2, d_ff=16))


def tiny_prod():
    return ProductModel(ProdConfig(d_model=8, heads=2, d_ff=16, max_context=6), HIERARCHY)


def tiny_rank():
    return RankingModel(RankConfig(emb_width=4, hidden=8), (10, 5, 6, 5, 12, 2, 4),
                        ("ctr", "cvr"), "+both", stat_width=6, n_c3=8, d_mix=4,
                        prod_enc_width=8)


def events_of(rng, *shape):
    item = rng.integers(0, HIERARCHY.n_products, size=shape)
    c3 = HIERARCHY.p_to_c3[item]
    c2 = HIERARCHY.c3_to_c2[c3]
    return np.stack([item, HIERARCHY.c2_to_c1[c2], c2, c3], axis=-1)


def rank_inputs(model, rng, n=12):
    """`batch_input(idx)`: the ranker input of samples `idx` among `n` with
    fixed random ids and foresight."""
    ids = np.stack([rng.integers(0, size, n) for size in (10, 5, 6, 5, 12, 2, 4)], axis=1)
    fore = dict(stat=rng.normal(size=(n, 6)), dist=rng.dirichlet(np.ones(8), size=n),
                prod_enc=rng.normal(size=(n, 8)))
    return lambda idx: model.features(ids[idx], **{k: v[idx] for k, v in fore.items()})


def rank_forward(model, rng, n=12):
    batch_input = rank_inputs(model, rng, n)
    return lambda: model.forward(*batch_input(np.arange(n)))


def stat_pass(rng):
    model, x = tiny_stat(), Tensor(rng.normal(size=(5, 8, 8)))
    return model, lambda: model.forward(x)


def prod_pass(rng):
    model, events = tiny_prod(), events_of(rng, 3, 6)

    def forward():
        logits, enc = model.forward_positions(events)
        return T.softmax(logits, axis=-1), enc

    return model, forward


def rank_pass(rng):
    model = tiny_rank()
    forward = rank_forward(model, rng)
    return model, lambda: (forward(),)


@pytest.mark.parametrize("build", [stat_pass, prod_pass, rank_pass], ids=["stat", "prod", "rank"])
def test_frozen_forward_gives_the_recording_floats_and_no_graph(build):
    model, forward = build(np.random.default_rng(30))
    recorded = forward()
    with model.store.frozen():
        frozen = forward()
    for rec, out in zip(recorded, frozen):
        assert rec._parents and rec._backward is not None
        assert out._parents == () and out._backward is None and not out.requires_grad
        assert_equal(out.data, rec.data)
    assert all(p.requires_grad for _, p in model.store.items())


def spy_frozen(monkeypatch, model, name):
    """Record, at each call of `model.<name>`, whether any parameter could
    record a graph."""
    calls, inner = [], getattr(model, name)

    def spied(*args):
        calls.append(any(p.requires_grad for _, p in model.store.items()))
        return inner(*args)

    monkeypatch.setattr(model, name, spied)
    return calls


def test_inference_passes_run_frozen_with_the_same_floats(monkeypatch):
    rng = np.random.default_rng(31)
    stat, prod, rank = tiny_stat(), tiny_prod(), tiny_rank()
    windows = rng.poisson(4.0, size=(5, 8, 8)).astype(float)
    normed, mu, delta = statfore.revin_normalize(windows)
    pred, enc = stat.forward(Tensor(normed))
    events = events_of(rng, 10)
    logits, prod_enc = prod.forward_positions(events[None, :6])
    late = np.stack([events[end - 5 : end + 1] for end in (7, 9)])
    late_logits, _ = prod.forward_positions(late)
    batch_input = rank_inputs(rank, rng)
    probs = rank.forward(*batch_input(np.arange(12)))

    stat_calls = spy_frozen(monkeypatch, stat, "forward")
    prod_calls = spy_frozen(monkeypatch, prod, "forward_positions")
    rank_calls = spy_frozen(monkeypatch, rank, "forward")
    got_pred, got_enc = statfore.forecast_batch(stat, windows, 2)
    assert_equal(got_pred, pred.data[:, :, :2] * delta + mu)
    assert_equal(got_enc, enc.data)
    dist, _ = prodfore.forecast_prefixes(prod, events, np.array([2, 5, 7, 9]), k_enc=2)
    assert_equal(dist[:2], T.softmax(logits, axis=-1).data[0, [2, 5]])
    assert_equal(dist[2:], T.softmax(late_logits, axis=-1).data[:, -1])
    one = prodfore.forecast_product(prod, events[:6])
    assert_equal(one.distribution, T.softmax(logits, axis=-1).data[0, -1])
    assert_equal(one.encoding, prod_enc.data[0, 1:])
    assert_equal(predict(rank, batch_input, np.arange(12), 12), probs.data)
    assert stat_calls == [False] and prod_calls == [False] * 3 and rank_calls == [False]
    assert all(p.requires_grad for _, p in prod.store.items())


def test_grad_check_worst_error_is_unchanged_by_frozen_evaluations():
    rng = np.random.default_rng(32)
    model = tiny_rank()
    forward = rank_forward(model, rng, n=4)
    y = (rng.random((4, 2)) < 0.5).astype(float)
    recorded = []

    def loss():
        out = rank_loss(forward(), y)
        recorded.append(bool(out._parents))
        return out

    worst = grad_check(loss, model.store, max_coords=64)
    # only the analytic pass recorded a graph
    assert recorded.count(True) == 1 and len(recorded) == 2 + 1 + 2 * 64
    model.store.frozen = contextlib.nullcontext  # every evaluation records, as before
    assert np.float64(grad_check(loss, model.store, max_coords=64)).tobytes() == \
        np.float64(worst).tobytes()
    assert all(recorded[2 + 1 + 2 * 64 :])
