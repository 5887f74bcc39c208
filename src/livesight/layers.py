"""Building blocks for the three models: dense layers, attention, transformer blocks.

All parameters live in a ParamStore under dotted names so checkpoints and
the gradient oracle can enumerate them.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ConfigurationError, DimensionError, VocabularyError

# Additive attention mask value. Large enough that exp() underflows to an
# exact 0.0 weight, small enough to stay finite.
MASK_VALUE = -1e30


def xavier_uniform(rng, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def embedding_init(rng, rows, dim, scale=0.02):
    return rng.normal(0.0, scale, size=(rows, dim))


def check_ids(ids, sizes, names):
    """Raise VocabularyError, naming the column and carrying the flat row, at
    the first id of `ids` (..., F) outside [0, sizes[k]) in its column k."""
    ids = np.asarray(ids).reshape(-1, len(sizes))
    bad = np.argwhere((ids < 0) | (ids >= np.asarray(sizes)))
    if len(bad):
        row, k = bad[0]
        msg = f"{names[k]} {ids[row, k]} outside its vocabulary of size {sizes[k]}"
        raise VocabularyError(msg, row=int(row))


def lookup(table, ids, sizes, names):
    """Embeddings (..., F*E) of ids (..., F) in one gather: column k reads the
    k-th block of sizes[k] rows of `table`. Each id is checked against its own
    column's size, since a bad one would read another column's rows."""
    ids = np.asarray(ids)
    if ids.shape[-1] != len(sizes) or table.shape[0] != sum(sizes):
        raise DimensionError(f"ids {ids.shape} and table {table.shape} do not fit sizes {sizes}")
    check_ids(ids, sizes, names)
    rows = T.embedding(table, ids.astype(np.int64) + np.cumsum((0, *sizes[:-1])))
    return T.reshape(rows, ids.shape[:-1] + (len(sizes) * table.shape[1],))


def init_dense(store, prefix, fan_in, fan_out, rng):
    w = store.add(f"{prefix}.w", xavier_uniform(rng, fan_in, fan_out))
    b = store.add(f"{prefix}.b", np.zeros(fan_out))
    return w, b


def init_layer_norm(store, prefix, dim):
    gain = store.add(f"{prefix}.gain", np.ones(dim))
    bias = store.add(f"{prefix}.bias", np.zeros(dim))
    return gain, bias


def init_attention(store, prefix, d_model, rng):
    params = {}
    for name in ("wq", "wk", "wv", "wo"):
        params[name] = store.add(f"{prefix}.{name}", xavier_uniform(rng, d_model, d_model))
        params["b" + name[1]] = store.add(f"{prefix}.b{name[1]}", np.zeros(d_model))
    return params


def multi_head_attention(tokens, heads, causal, params):
    """Scaled dot-product attention with per-head and output projections.

    `tokens` is (B, L, D). With `causal` set, position t attends
    only to positions <= t; otherwise attention is full (used across channel
    tokens in the statistic model). The graph holds three nodes: the scores
    (Q and K from one GEMM), the softmax, and the mixing of the value heads
    with the output projection.
    """
    tokens = T.as_tensor(tokens)
    if tokens.ndim != 3:
        raise DimensionError(f"attention expects 3-D tokens, got {tokens.shape}")
    _, length, d = tokens.shape
    if heads < 1 or d % heads != 0:
        raise ConfigurationError(f"model width {d} not divisible by {heads} heads")
    mask = np.triu(np.full((length, length), MASK_VALUE), k=1) if causal else None
    scores = T.attention_scores(
        tokens, heads, mask, params["wq"], params["bq"], params["wk"], params["bk"]
    )
    return T.attention_mix(
        T.softmax(scores), tokens, params["wv"], params["bv"], params["wo"], params["bo"]
    )


def init_transformer_block(store, prefix, d_model, d_ff, rng):
    init_layer_norm(store, f"{prefix}.ln1", d_model)
    init_attention(store, f"{prefix}.attn", d_model, rng)
    init_layer_norm(store, f"{prefix}.ln2", d_model)
    init_dense(store, f"{prefix}.ff1", d_model, d_ff, rng)
    init_dense(store, f"{prefix}.ff2", d_ff, d_model, rng)


def transformer_block(x, store, prefix, heads, causal):
    """Pre-layer-norm block with residual connections; the feed-forward
    sublayer and its residual are one node."""
    attn_params = {
        key: store[f"{prefix}.attn.{key}"]
        for key in ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")
    }
    h = x + multi_head_attention(
        T.layer_norm(x, store[f"{prefix}.ln1.gain"], store[f"{prefix}.ln1.bias"]),
        heads,
        causal,
        attn_params,
    )
    ff_in = T.layer_norm(h, store[f"{prefix}.ln2.gain"], store[f"{prefix}.ln2.bias"])
    return T.feed_forward(
        h,
        ff_in,
        store[f"{prefix}.ff1.w"],
        store[f"{prefix}.ff1.b"],
        store[f"{prefix}.ff2.w"],
        store[f"{prefix}.ff2.b"],
    )


def init_encoder(store, prefix, n_blocks, d_model, d_ff, rng):
    for i in range(n_blocks):
        init_transformer_block(store, f"{prefix}.blocks.{i}", d_model, d_ff, rng)
    init_layer_norm(store, f"{prefix}.ln_out", d_model)


def encoder(x, store, prefix, n_blocks, heads, causal):
    for i in range(n_blocks):
        x = transformer_block(x, store, f"{prefix}.blocks.{i}", heads, causal)
    return T.layer_norm(x, store[f"{prefix}.ln_out.gain"], store[f"{prefix}.ln_out.bias"])
