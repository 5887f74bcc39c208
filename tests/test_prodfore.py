"""Product-event model: hierarchy, causal forecasting, baselines, prefix forecasts."""

import dataclasses
import itertools

import numpy as np
import pytest

from livesight import optim, prodfore
from livesight import tensor as T
from livesight.config import ProdConfig, SimConfig
from livesight.errors import SequenceError
from livesight.metrics import hit_rate
from livesight.prodfore import (
    CategoryHierarchy,
    ProductModel,
    as_events,
    baseline_category,
    evaluate_hitrate,
    forecast_prefixes,
    train_product,
    truncate_context,
)
from livesight.simgen import gen_world

from gradcheck import grad_check
from reference_ops import forecast_product, parents_of_product

TINY = ProdConfig(d_model=8, n_blocks=1, heads=2, d_ff=16, max_context=16,
                  epochs=100, batch=8, lr=6e-3, seed=0)


def small_hierarchy():
    return CategoryHierarchy.balanced(n_c1=2, n_c2=4, n_c3=8, n_products=16)


def event_for(h, p):
    c1, c2, c3 = parents_of_product(h, p)
    return [p, c1, c2, c3]


def seq_for(h, products):
    return np.array([event_for(h, p) for p in products], dtype=np.int64)


def test_hierarchy_parent_consistency():
    h = small_hierarchy()
    assert (h.n_c1, h.n_c2, h.n_c3, h.n_products) == (2, 4, 8, 16)
    for p in range(h.n_products):
        c1, c2, c3 = parents_of_product(h, p)
        assert h.c2_to_c1[h.c3_to_c2[c3]] == c1
        assert c3 in h.c3_children_of_c2(c2)
        assert c3 in h.c3_children_of_c1(c1)


def test_as_events_validation():
    with pytest.raises(SequenceError):
        as_events(np.zeros((0, 4), dtype=np.int64))
    with pytest.raises(SequenceError):
        as_events(np.zeros((3, 3), dtype=np.int64))


def test_embed_sequence_shapes_and_sharing():
    h = small_hierarchy()
    model = ProductModel(TINY, h)
    one = model.embed_sequence(seq_for(h, [4]))
    assert one.shape == (1, 4 * TINY.d_model)
    two = model.embed_sequence(seq_for(h, [4, 4]))
    assert np.array_equal(two.data[0], two.data[1])


def test_embedding_gradient_hits_only_used_rows():
    h = small_hierarchy()
    model = ProductModel(TINY, h)
    events = seq_for(h, [3, 3, 9])
    model.store.zero_grad()
    T.tsum(model.embed_sequence(events)).backward()
    g = model.store["emb.events"].grad[: h.n_products]  # the item rows come first
    used = {3, 9}
    for p in range(h.n_products):
        if p in used:
            assert np.abs(g[p]).sum() > 0
        else:
            assert not g[p].any()


def test_forward_shapes_and_context_cap():
    h = small_hierarchy()
    model = ProductModel(TINY, h)
    fc = forecast_product(model, seq_for(h, [1, 2, 3]))
    assert fc.distribution.shape == (h.n_c3,)
    assert fc.encoding.shape == (2, TINY.d_model)  # per-position encodings drop position 0
    too_long = seq_for(h, [i % h.n_products for i in range(17)])
    with pytest.raises(SequenceError):
        model.forward_positions(too_long[None])
    # the public forecast path truncates instead of failing
    fc = forecast_product(model, too_long)
    assert fc.encoding.shape == (15, TINY.d_model)


def test_appending_event_preserves_earlier_encodings():
    h = small_hierarchy()
    model = ProductModel(TINY, h)
    short = seq_for(h, [1, 5, 7])
    longer = seq_for(h, [1, 5, 7, 2])
    _, enc_a = model.forward_positions(short[None])
    _, enc_b = model.forward_positions(longer[None])
    assert enc_a.data[0].tobytes() == enc_b.data[0, :3].tobytes()
    fc_a = forecast_product(model, short)
    fc_b = forecast_product(model, longer)
    assert not np.array_equal(fc_a.distribution, fc_b.distribution)


def test_truncate_keeps_most_recent():
    events = np.arange(40).reshape(10, 4)
    out = truncate_context(events, 4)
    assert np.array_equal(out, events[-4:])
    assert truncate_context(events, 12) is events


def test_gradient_oracle_tiny_model():
    # seed frozen on a healthy loss: at coordinates whose true gradient is
    # exactly zero, one ulp of finite-difference noise already reads as 1e-3
    h = small_hierarchy()
    model = ProductModel(ProdConfig(d_model=8, n_blocks=1, heads=2, d_ff=16,
                                    max_context=16, seed=2), h)
    events = seq_for(h, [0, 7, 12, 7])[None]
    labels = events[0, 1:, 3]

    def loss():
        logits, _ = model.forward_positions(events)
        return T.softmax_cross_entropy(T.take(logits, (0, slice(0, 3))), labels)

    assert grad_check(loss, model.store, max_coords=96) < 1e-4


def test_memorizes_alternating_sequence():
    h = small_hierarchy()
    model = ProductModel(TINY, h)
    # A and B under different level-3 nodes, strictly alternating
    a, b = 0, 11
    assert parents_of_product(h, a)[2] != parents_of_product(h, b)[2]
    seq = seq_for(h, [a, b] * 6)
    history = train_product(model, [seq])
    assert history[-1] < 0.05
    assert history[29] < history[0]
    # after an A the model must put its mass on B's finest category
    fc = forecast_product(model, seq_for(h, [b, a]))
    assert int(fc.distribution.argmax()) == parents_of_product(h, b)[2]


def test_forecast_distribution_properties():
    h = small_hierarchy()
    model = ProductModel(TINY, h)
    events = seq_for(h, [2, 4, 6])
    fc1 = forecast_product(model, events)
    fc2 = forecast_product(model, events)
    assert abs(fc1.distribution.sum() - 1.0) < 1e-9
    assert (fc1.distribution >= 0).all()
    assert fc1.distribution.tobytes() == fc2.distribution.tobytes()
    probs, enc = forecast_prefixes(model, events, np.arange(len(events)), k_enc=0)
    assert probs.shape == (3, h.n_c3)
    assert np.allclose(probs[-1], fc1.distribution)


def test_short_sequences_are_skipped_not_fatal():
    h = small_hierarchy()
    two = dataclasses.replace(TINY, epochs=2)
    history = train_product(ProductModel(two, h), [seq_for(h, [1]), seq_for(h, [0, 11] * 4)])
    assert len(history) == 2
    with pytest.raises(SequenceError):
        train_product(ProductModel(dataclasses.replace(TINY, epochs=1), h), [seq_for(h, [1])])


def test_baseline_categories():
    h = small_hierarchy()

    def with_c3(values):
        rows = []
        for v in values:
            rows.append([0, 0, 0, v])
        return np.asarray(rows, dtype=np.int64)

    assert baseline_category(with_c3([3, 3, 7]), "most-frequent") == 3
    assert baseline_category(with_c3([3, 3, 7]), "latest") == 7
    # one of each: the smaller index wins
    assert baseline_category(with_c3([9, 5]), "most-frequent") == 5
    with pytest.raises(ValueError):
        baseline_category(with_c3([1]), "oracle")


def test_hitrate_values():
    assert hit_rate([1, 2, 3], [1, 9, 3]) == pytest.approx(2 / 3)
    assert hit_rate([4, 4], [4, 4]) == 1.0


def test_evaluate_hitrate_reports_all_methods():
    h = small_hierarchy()
    model = ProductModel(TINY, h)
    out = evaluate_hitrate(model, [seq_for(h, [0, 11, 0, 11]), seq_for(h, [3, 3, 3])])
    assert set(out) == {"model", "latest", "most-frequent"}
    assert all(0.0 <= v <= 1.0 for v in out.values())


def test_prefix_forecasts_match_single_prefix_reference():
    h = small_hierarchy()
    model = ProductModel(TINY, h)  # max_context 16
    events = seq_for(h, [(5 * i) % h.n_products for i in range(40)])
    ends = np.array([0, 1, 3, 15, 16, 17, 39])  # inside and beyond the context
    k_enc = 3
    dist, enc = forecast_prefixes(model, events, ends, k_enc)
    assert dist.shape == (len(ends), h.n_c3)
    assert enc.shape == (len(ends), k_enc * TINY.d_model)
    for i, end in enumerate(ends):
        fc = forecast_product(model, events[: end + 1])
        tail = fc.encoding[-k_enc:].ravel()
        assert np.allclose(dist[i], fc.distribution, rtol=0, atol=1e-12)
        assert np.allclose(enc[i, : len(tail)], tail, rtol=0, atol=1e-12)
        assert not enc[i, len(tail) :].any()  # short prefixes zero-fill the tail


def test_training_is_deterministic():
    h = small_hierarchy()
    seqs = [seq_for(h, [0, 11, 4, 15, 0, 11]), seq_for(h, [2, 13, 2, 13])]
    outs = []
    for _ in range(2):
        model = ProductModel(dataclasses.replace(TINY, epochs=3), h)
        train_product(model, seqs)
        outs.append(np.concatenate([p.data.ravel() for _, p in sorted(model.store.items())]))
    assert outs[0].tobytes() == outs[1].tobytes()


def test_epochs_form_a_prefix(monkeypatch):
    # each epoch draws its batch order from one generator, so a k-epoch run is
    # exactly the first k epochs of a longer one: stopping at the knee trains
    # the model that a longer run holds at epoch k
    world = gen_world(SimConfig(streams=10, users=50, n_samples=300), 5)
    seqs = [world.events[i] for i in range(10) if i % 5 != 4]
    k = 2

    steps, step = [], optim.adam_step  # the Adam steps of each run, counted

    def run(epochs):  # batch 16: an epoch takes several batches in a shuffled order
        model = ProductModel(ProdConfig(epochs=epochs, batch=16), world.hierarchy)
        steps.append(0)
        return model, train_product(model, seqs)

    def counted(adam, **kwargs):
        steps[-1] += 1
        step(adam, **kwargs)

    monkeypatch.setattr(optim, "adam_step", counted)
    short, short_losses = run(k)
    _, long_losses = run(k + 2)
    assert long_losses[:k] == short_losses and len(long_losses) == k + 2

    def stop_after_k(*args):
        yield from itertools.islice(optim.train_epochs(*args), k)

    monkeypatch.setattr(prodfore, "train_epochs", stop_after_k)
    stopped, stopped_losses = run(k + 2)
    assert stopped_losses == short_losses
    assert np.array_equal(stopped.store.values, short.store.values)
    assert steps[2] == steps[0] > 0 and steps[1] > steps[0]
