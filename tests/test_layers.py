"""Dense, attention, and transformer blocks against hand values and oracles."""

import numpy as np
import pytest

from livesight import tensor as T
from livesight.errors import ConfigurationError, DimensionError, VocabularyError
from livesight.layers import (
    MASK_VALUE,
    encoder,
    init_attention,
    init_encoder,
    lookup,
    multi_head_attention,
    xavier_uniform,
)
from livesight.optim import ParamStore
from livesight.tensor import Tensor
from gradcheck import grad_check
from reference_ops import concat, swapaxes


def test_dense_identity():
    out = T.dense([[1.0, 2.0]], [[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
    assert np.array_equal(out.data, [[1.0, 2.0]])


def test_dense_hand_expansion():
    out = T.dense([[1.0, 1.0]], [[2.0], [3.0]], [1.0])
    assert np.array_equal(out.data, [[6.0]])


def test_dense_shape_errors_name_operand():
    with pytest.raises(DimensionError, match="W rows"):
        T.dense(np.ones((2, 3)), np.ones((4, 2)), np.zeros(2))
    with pytest.raises(DimensionError, match="b shape"):
        T.dense(np.ones((2, 3)), np.ones((3, 2)), np.zeros(3))
    with pytest.raises(DimensionError, match="2-D"):
        T.dense(np.ones((2, 3)), np.ones(3), np.zeros(1))


def test_dense_gradient_oracle():
    store = ParamStore()
    rng = np.random.default_rng(0)
    store.add("x", rng.normal(size=(3, 4)))
    store.add("w", rng.normal(size=(4, 2)))
    store.add("b", rng.normal(size=2))
    probe = rng.normal(size=(3, 2))

    def loss():
        return T.tsum(T.dense(store["x"], store["w"], store["b"]) * Tensor(probe))

    assert grad_check(loss, store) < 1e-6


def test_dense_gradient_oracle_on_3d_inputs():
    store = ParamStore()
    rng = np.random.default_rng(11)
    store.add("x", rng.normal(size=(2, 3, 4)))
    store.add("w", rng.normal(size=(4, 5)))
    store.add("b", rng.normal(size=5))
    probe = rng.normal(size=(2, 3, 5))

    def loss():
        return T.tsum(T.dense(store["x"], store["w"], store["b"]) * Tensor(probe))

    assert grad_check(loss, store) < 1e-6


def composed_dense(x, w, b):
    """dense as two graph nodes, matmul then add: the reference for T.dense."""
    return x @ w + b


def composed_attention(tokens, heads, causal, params):
    """Attention from small graph ops: the reference for the fused T.attention."""
    b, length, d = tokens.shape
    dh = d // heads

    def split(x):  # (B, L, D) -> (B, H, L, dh)
        return swapaxes(T.reshape(x, (b, length, heads, dh)), 1, 2)

    q = split(composed_dense(tokens, params["wq"], params["bq"]))
    k = split(composed_dense(tokens, params["wk"], params["bk"]))
    v = split(composed_dense(tokens, params["wv"], params["bv"]))
    scores = T.mul(q @ swapaxes(k, -1, -2), 1.0 / np.sqrt(dh))
    if causal:
        scores = scores + Tensor(np.triu(np.full((length, length), MASK_VALUE), k=1))
    mixed = swapaxes(T.softmax(scores) @ v, 1, 2)  # (B, L, H, dh)
    return composed_dense(T.reshape(mixed, (b, length, d)), params["wo"], params["bo"])


def outputs_and_gradients(build, store, probe):
    store.zero_grad()
    out = build()
    value = out.data  # backward drops an inner node's forward value
    T.tsum(out * Tensor(probe)).backward()
    return value, {name: p.grad for name, p in store.items()}


def assert_fused_matches_composed(fused, composed, store, probe):
    out_f, grads_f = outputs_and_gradients(fused, store, probe)
    out_c, grads_c = outputs_and_gradients(composed, store, probe)
    assert np.allclose(out_f, out_c, rtol=0, atol=1e-12)
    for name in store.names():
        assert np.allclose(grads_f[name], grads_c[name], rtol=0, atol=1e-12), name


@pytest.mark.parametrize("shape", [(5, 6), (3, 4, 6)])
def test_fused_dense_matches_composed_ops(shape):
    store = ParamStore()
    rng = np.random.default_rng(12)
    x, w, b = (store.add(n, rng.normal(size=s)) for n, s in (("x", shape), ("w", (6, 7)), ("b", 7)))
    probe = rng.normal(size=shape[:-1] + (7,))
    assert_fused_matches_composed(
        lambda: T.dense(x, w, b), lambda: composed_dense(x, w, b), store, probe
    )


@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("causal", [True, False])
@pytest.mark.parametrize("shape", [(1, 5, 8), (3, 5, 8)])
def test_fused_attention_matches_composed_ops(shape, causal, heads):
    store, params, rng = _attention_setup(13)
    for name in params:  # non-zero biases, so their gradients are exercised
        params[name].data[...] += 0.1 * rng.normal(size=params[name].shape)
    x = store.add("x", rng.normal(size=shape))
    probe = rng.normal(size=shape)
    assert_fused_matches_composed(
        lambda: multi_head_attention(x, heads, causal, params),
        lambda: composed_attention(x, heads, causal, params),
        store,
        probe,
    )


def test_attention_is_three_graph_nodes():
    store, params, rng = _attention_setup(14)
    x = store.add("x", rng.normal(size=(2, 3, 8)))
    out = multi_head_attention(x, heads=2, causal=True, params=params)
    weights = out._parents[0]
    (scores,) = weights._parents
    # the graph links the parents' nodes
    mix_inputs = (x, params["wv"], params["bv"], params["wo"], params["bo"])
    score_inputs = (x, params["wq"], params["bq"], params["wk"], params["bk"])
    assert out._parents[1:] == tuple(t.node for t in mix_inputs)
    assert scores._parents == tuple(t.node for t in score_inputs)


def test_layer_norm_gradient_oracle():
    store = ParamStore()
    rng = np.random.default_rng(1)
    store.add("x", rng.normal(size=(2, 8)))
    store.add("gain", np.ones(8) + 0.1 * rng.normal(size=8))
    store.add("bias", 0.1 * rng.normal(size=8))
    probe = rng.normal(size=(2, 8))

    def loss():
        return T.tsum(T.layer_norm(store["x"], store["gain"], store["bias"]) * Tensor(probe))

    assert grad_check(loss, store) < 1e-5


def _attention_setup(seed, d_model=8):
    store = ParamStore()
    rng = np.random.default_rng(seed)
    params = init_attention(store, "attn", d_model, rng)
    return store, params, rng


def test_attention_single_token_is_value_projection():
    store, params, rng = _attention_setup(2)
    tokens = Tensor(rng.normal(size=(1, 1, 8)))
    out = multi_head_attention(tokens, heads=2, causal=False, params=params)
    expected = T.dense(
        T.dense(tokens, params["wv"], params["bv"]), params["wo"], params["bo"]
    )
    assert np.allclose(out.data, expected.data, atol=1e-12)


def test_attention_identical_tokens_identical_rows():
    store, params, rng = _attention_setup(3)
    row = rng.normal(size=8)
    tokens = Tensor(np.tile(row, (1, 4, 1)))
    out = multi_head_attention(tokens, heads=4, causal=False, params=params).data[0]
    for i in range(1, 4):
        assert np.array_equal(out[i], out[0])


def test_causal_mask_exact_invariance():
    """Perturbing a later token may not change earlier outputs by even one bit."""
    store, params, rng = _attention_setup(4)
    base = rng.normal(size=(1, 3, 8))
    bumped = base.copy()
    bumped[0, 2] += rng.normal(size=8)
    out_a = multi_head_attention(Tensor(base), heads=2, causal=True, params=params).data[0]
    out_b = multi_head_attention(Tensor(bumped), heads=2, causal=True, params=params).data[0]
    assert out_a[0].tobytes() == out_b[0].tobytes()
    assert out_a[1].tobytes() == out_b[1].tobytes()
    assert not np.array_equal(out_a[2], out_b[2])
    # without the mask the perturbation leaks everywhere
    full = multi_head_attention(Tensor(bumped), heads=2, causal=False, params=params).data[0]
    assert not np.array_equal(full[0], out_a[0])


def test_causal_invariance_survives_full_encoder():
    store = ParamStore()
    rng = np.random.default_rng(5)
    init_encoder(store, "enc", n_blocks=2, d_model=8, d_ff=16, rng=rng)
    base = rng.normal(size=(1, 4, 8))
    bumped = base.copy()
    bumped[0, 3] += 1.0
    out_a = encoder(Tensor(base), store, "enc", n_blocks=2, heads=2, causal=True).data
    out_b = encoder(Tensor(bumped), store, "enc", n_blocks=2, heads=2, causal=True).data
    assert out_a[0, :3].tobytes() == out_b[0, :3].tobytes()


def test_attention_head_divisibility():
    store, params, _ = _attention_setup(6)
    with pytest.raises(ConfigurationError):
        multi_head_attention(Tensor(np.ones((1, 2, 8))), heads=3, causal=False, params=params)


def test_attention_batched_matches_loop():
    store, params, rng = _attention_setup(7)
    batch = rng.normal(size=(3, 5, 8))
    out = multi_head_attention(Tensor(batch), heads=2, causal=True, params=params).data
    for i in range(3):
        single = multi_head_attention(Tensor(batch[i : i + 1]), heads=2, causal=True,
                                      params=params)
        assert np.allclose(out[i], single.data[0], atol=1e-12)


def test_attention_gradient_oracle():
    store, params, rng = _attention_setup(8)
    x = store.add("x", rng.normal(size=(1, 3, 8)))
    probe = rng.normal(size=(1, 3, 8))

    def loss():
        out = multi_head_attention(store["x"], heads=2, causal=True, params=params)
        return T.tsum(out * Tensor(probe))

    assert grad_check(loss, store, max_coords=128) < 1e-4


def test_encoder_shape_and_determinism():
    store = ParamStore()
    rng = np.random.default_rng(9)
    init_encoder(store, "enc", n_blocks=2, d_model=8, d_ff=16, rng=rng)
    x = rng.normal(size=(2, 6, 8))
    a = encoder(Tensor(x), store, "enc", n_blocks=2, heads=2, causal=False).data
    b = encoder(Tensor(x), store, "enc", n_blocks=2, heads=2, causal=False).data
    assert a.shape == (2, 6, 8)
    assert a.tobytes() == b.tobytes()


def test_lookup_rejects_out_of_range():
    table = Tensor(np.zeros((9, 3)))
    out = lookup(table, np.array([[0, 3], [4, 0]]), (5, 4), ("user ids", "buckets"))
    assert out.shape == (2, 6)
    with pytest.raises(VocabularyError, match="user ids 5 outside its vocabulary of size 5"):
        lookup(table, np.array([[5, 0]]), (5, 4), ("user ids", "buckets"))
    # 4 would be row 9 of the table; the check is per column, not per table
    with pytest.raises(VocabularyError, match="buckets 4 outside"):
        lookup(table, np.array([[0, 0], [1, 4]]), (5, 4), ("user ids", "buckets"))
    with pytest.raises(VocabularyError, match="buckets -1 outside"):
        lookup(table, np.array([[0, -1]]), (5, 4), ("user ids", "buckets"))
    with pytest.raises(DimensionError):
        lookup(table, np.array([[0, 0, 0]]), (5, 4), ("user ids", "buckets"))
    with pytest.raises(DimensionError):
        lookup(table, np.array([[0, 0]]), (5, 3), ("user ids", "buckets"))


@pytest.mark.parametrize("shape", [(40,), (6, 7)])
def test_one_table_lookup_equals_per_field_tables(shape):
    # the reference: one table and one gather per field, joined by concat
    rng = np.random.default_rng(11)
    sizes, width = (7, 3, 1, 5), 4
    tables = [Tensor(rng.normal(size=(n, width)), requires_grad=True) for n in sizes]
    ids = np.stack([rng.integers(0, n, size=shape) for n in sizes], axis=-1)
    ids[0] = 0  # repeated rows must add in the same order
    scale = 10.0 ** rng.integers(-8, 8, size=shape + (1,))
    probe = rng.normal(size=shape + (len(sizes) * width,)) * scale
    ref = concat([T.embedding(t, ids[..., k]) for k, t in enumerate(tables)], axis=-1)
    ref_value = ref.data
    T.tsum(ref * Tensor(probe)).backward()

    table = Tensor(np.concatenate([t.data for t in tables]), requires_grad=True)
    out = lookup(table, ids, sizes, ("a", "b", "c", "d"))
    value = out.data
    T.tsum(out * Tensor(probe)).backward()
    assert value.shape == ref_value.shape
    assert np.array_equal(value, ref_value)
    assert np.array_equal(table.grad, np.concatenate([t.grad for t in tables]))


def test_xavier_bounds():
    rng = np.random.default_rng(10)
    w = xavier_uniform(rng, 30, 70)
    limit = np.sqrt(6.0 / 100)
    assert w.shape == (30, 70)
    assert np.abs(w).max() <= limit
