"""ParamStore bookkeeping, the Adam optimizer and the training step."""

import weakref

import numpy as np
import pytest

from livesight import optim, prodfore, ranker, statfore
from livesight import tensor as T
from livesight.config import ProdConfig, RankConfig, SimConfig, StatConfig
from livesight.errors import StateError, TrainingError
from livesight.optim import Adam, ParamStore, adam_step
from livesight.simgen import gen_world


def make_store(value=1.0):
    store = ParamStore()
    store.add("w", np.array([value]))
    return store


def test_store_rejects_duplicates_and_unknowns():
    store = make_store()
    with pytest.raises(StateError):
        store.add("w", np.zeros(1))
    with pytest.raises(StateError):
        store["nope"]
    assert "w" in store and "nope" not in store
    assert store.names() == ["w"]
    assert store.values.size == 1


def test_zero_gradient_leaves_parameters_unchanged():
    store = make_store(3.0)
    adam = Adam(store)
    store["w"].grad = np.zeros(1)
    adam_step(adam)
    assert np.array_equal(store["w"].data, [3.0])
    assert np.array_equal(adam.m, [0.0])
    assert adam.step == 1


def test_first_step_magnitude_is_lr():
    # bias correction makes m_hat = v_hat = 1 on the first unit-gradient step
    store = make_store(0.0)
    store["w"].grad = np.ones(1)
    adam_step(Adam(store), lr=1e-3)
    assert abs(store["w"].data[0] + 1e-3) < 1e-9


def test_successive_identical_calls_accumulate_state():
    store = make_store(0.0)
    adam = Adam(store)
    store["w"].grad = np.ones(1)
    adam_step(adam, lr=1e-3)
    after_one = store["w"].data.copy()
    m_one = adam.m.copy()
    store["w"].grad = np.ones(1)
    adam_step(adam, lr=1e-3)
    assert not np.array_equal(store["w"].data, after_one)
    assert not np.array_equal(adam.m, m_one)
    assert adam.step == 2
    # momentum keeps moving the parameter even after the gradient vanishes
    store["w"].grad = np.zeros(1)
    before = store["w"].data.copy()
    adam_step(adam, lr=1e-3)
    assert not np.array_equal(store["w"].data, before)


def test_missing_gradient_is_an_error():
    store = ParamStore()
    store.add("a", np.zeros(2))
    store.add("b", np.zeros(2))
    adam = Adam(store)
    store["a"].grad = np.ones(2)
    with pytest.raises(StateError, match="'b'"):
        adam_step(adam)
    assert adam.step == 0 and np.array_equal(store.values, np.zeros(4))


def test_gradient_of_another_shape_is_an_error():
    # a (3,) gradient would broadcast into the (2, 3) slot of the flat buffer
    store = ParamStore()
    store.add("w", np.zeros((2, 3)))
    adam = Adam(store)
    store["w"].grad = np.ones(3)
    with pytest.raises(StateError, match="'w' gradient shape"):
        adam_step(adam)
    assert adam.step == 0 and not adam.m.any() and not adam.v.any()
    assert np.array_equal(store.values, np.zeros(6))


def test_gradients_are_copied_into_one_reused_buffer():
    store = make_store(0.0)
    adam = Adam(store)
    buffer = adam._g
    for _ in range(2):
        store["w"].grad = np.ones(1)
        adam_step(adam)
        assert adam._g is buffer and buffer.size == store.values.size


def test_adam_matches_reference_implementation():
    """Three steps on a 2-vector against a literal transcription of the update."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=2)
    store = ParamStore()
    store.add("x", x.copy())
    adam = Adam(store)

    ref = x.copy()
    m = np.zeros(2)
    v = np.zeros(2)
    lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
    for t in range(1, 4):
        g = 2.0 * ref  # d/dx of sum(x^2), evaluated where the reference sits
        store["x"].grad = 2.0 * store["x"].data
        adam_step(adam, lr=lr, beta1=b1, beta2=b2, eps=eps)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        ref = ref - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        assert np.allclose(store["x"].data, ref, atol=1e-15)


# -- the epoch loop ------------------------------------------------------------


def square_loss(store, scale):
    return T.tsum(T.mul(T.mul(store["w"], store["w"]), scale))


def count_steps(monkeypatch):
    """A list that `optim.adam_step` appends its Adam to at each call."""
    stepped, step = [], optim.adam_step

    def counted(adam, **kwargs):
        stepped.append(adam)
        step(adam, **kwargs)

    monkeypatch.setattr(optim, "adam_step", counted)
    return stepped


def test_train_epochs_yields_the_weighted_mean_of_its_step_losses(monkeypatch):
    store = make_store(2.0)
    drawn, losses = [], []
    stepped = count_steps(monkeypatch)

    def batches():
        drawn.append(len(stepped))  # the steps taken when an epoch draws its batches
        return [(1.0, 1.0), (3.0, 3.0)]

    def loss_fn(scale):
        loss = square_loss(store, scale)
        losses.append(float(loss.data))
        return loss

    history = list(optim.train_epochs("model", store, loss_fn, batches, lr=0.1, epochs=3))
    assert drawn == [0, 2, 4] and len(stepped) == 6 and len(history) == 3
    assert stepped[-1].step == 6 and all(adam is stepped[0] for adam in stepped)
    for k, value in enumerate(history):
        first, second = losses[2 * k : 2 * k + 2]
        assert type(value) is float
        assert value == pytest.approx((first + 3.0 * second) / 4.0, rel=1e-15)
        assert value != pytest.approx((first + second) / 2.0)


def test_breaking_out_of_train_epochs_stops_training(monkeypatch):
    store = make_store(2.0)
    stepped = count_steps(monkeypatch)
    epochs = optim.train_epochs("model", store, lambda scale: square_loss(store, scale),
                                lambda: [(1.0, 1.0)] * 3, lr=0.1, epochs=10)
    for k, _ in enumerate(epochs, 1):
        if k == 4:
            break
    assert len(stepped) == 4 * 3 and stepped[-1].step == 4 * 3


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_an_epoch_that_leaves_a_parameter_non_finite_is_refused(monkeypatch, bad):
    store, step = make_store(2.0), optim.adam_step

    def spoiling(adam, **kwargs):  # the last step of epoch 2 leaves `bad` behind
        step(adam, **kwargs)
        if adam.step == 4:
            store.values[0] = bad

    monkeypatch.setattr(optim, "adam_step", spoiling)
    history = []
    with pytest.raises(TrainingError, match=r"^the model diverged in epoch 2: .* 1 of 1 parameters"):
        for loss in optim.train_epochs("model", store, lambda scale: square_loss(store, scale),
                                       lambda: [(1.0, 1.0)] * 2, lr=0.1, epochs=3):
            history.append(loss)
    assert len(history) == 1 and np.isfinite(history[0])


def test_an_epoch_with_a_non_finite_loss_is_refused():
    store = make_store(2.0)
    with pytest.raises(TrainingError, match=r"^the model diverged in epoch 1: loss inf, 0 of 1 "):
        list(optim.train_epochs("model", store, lambda _: T.add(square_loss(store, 1.0), np.inf),
                                lambda: [(1.0, 1.0)], lr=0.1, epochs=2))


def test_the_optimizer_and_the_gradients_die_with_the_epoch_loop(monkeypatch):
    stepped = count_steps(monkeypatch)
    store = make_store(2.0)

    def epochs(n):
        return optim.train_epochs("model", store, lambda scale: square_loss(store, scale),
                                  lambda: [(1.0, 1.0)] * 2, lr=0.1, epochs=n)

    history = list(epochs(3))  # exhausted
    adam = weakref.ref(stepped[-1])
    assert len(history) == 3 and len(stepped) == 6
    stepped.clear()
    assert adam() is None and store["w"].grad is None
    loop = epochs(10)  # abandoned after two epochs, as the ranker's early stop does
    next(loop), next(loop)
    adam = weakref.ref(stepped[-1])
    stepped.clear()
    assert adam() is not None and store["w"].grad is None
    del loop
    assert adam() is None
    # the store takes a parameter again once its optimizer is gone
    store.add("b", np.zeros(1))


def test_load_arrays_validates_names_and_shapes():
    store = ParamStore()
    store.add("w", np.zeros((2, 2)))
    with pytest.raises(StateError, match="missing"):
        store.load_arrays({})
    with pytest.raises(StateError, match="shape"):
        store.load_arrays({"w": np.zeros(3)})
    with pytest.raises(StateError, match="unknown"):
        store.load_arrays({"w": np.zeros((2, 2)), "extra": np.zeros(1)})
    store.load_arrays({"w": np.ones((2, 2))})
    assert np.array_equal(store["w"].data, np.ones((2, 2)))


def reference_adam(params, grads, state, t, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
    """The per-parameter Adam loop, kept as the reference for the flat update."""
    bc1, bc2 = 1.0 - beta1**t, 1.0 - beta2**t
    for name, g in grads.items():
        m, v = state.get(name, (np.zeros_like(g), np.zeros_like(g)))
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * (g * g)
        state[name] = (m, v)
        params[name] = params[name] - lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


def test_flat_adam_equals_per_parameter_loop():
    rng = np.random.default_rng(4)
    shapes = {"emb": (7, 3), "w": (3, 5), "b": (5,), "scalar": ()}
    store = ParamStore()
    ref = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    for name, arr in ref.items():
        store.add(name, arr)
    adam = Adam(store)
    state = {}
    for t in range(1, 6):
        grads = {name: rng.normal(size=shape) * 10.0 ** rng.integers(-6, 6) for name, shape in shapes.items()}
        for name, g in grads.items():
            store[name].grad = g
        adam_step(adam, lr=1e-2)
        reference_adam(ref, grads, state, t, lr=1e-2)
        for name in shapes:
            assert np.array_equal(store[name].data, ref[name])
        # the flat moments hold each parameter's, in store order
        assert np.array_equal(adam.m, np.concatenate([state[n][0].ravel() for n in shapes]))
        assert np.array_equal(adam.v, np.concatenate([state[n][1].ravel() for n in shapes]))


def shares_buffer(store):
    return all(np.shares_memory(p.data, store.values) for _, p in store.items())


def test_parameters_are_views_of_one_buffer():
    store = ParamStore()
    store.add("a", np.ones((2, 3)))
    b = store.add("b", np.arange(4.0))
    assert shares_buffer(store) and store.values.size == 10
    assert np.array_equal(b.data, np.arange(4.0))
    adam = Adam(store)
    with pytest.raises(StateError, match="'c' while an optimizer steps the store"):
        store.add("c", np.zeros(1))
    for _, p in store.items():
        p.grad = np.ones_like(p.data)
    adam_step(adam)
    assert shares_buffer(store) and adam.m.size == adam.v.size == store.values.size
    with pytest.raises(StateError, match="'c' while an optimizer steps the store"):
        store.add("c", np.zeros(1))


def test_load_arrays_writes_into_the_buffer():
    store = make_store(0.0)
    store.load_arrays({"w": np.array([5.0])})
    assert shares_buffer(store)
    store["w"].grad = np.ones(1)
    adam_step(Adam(store), lr=1e-3)
    # the update reaches the tensor the model reads
    assert abs(store["w"].data[0] - (5.0 - 1e-3)) < 1e-9


def test_frozen_clears_the_flags_and_restores_them_when_nested():
    store = make_store()
    store.add("b", np.zeros(2))
    store["b"].requires_grad = False  # a flag already off stays off
    with store.frozen() as inner:
        assert inner is store
        with store.frozen():
            assert not any(p.requires_grad for _, p in store.items())
        assert not any(p.requires_grad for _, p in store.items())
    assert [p.requires_grad for _, p in store.items()] == [True, False]


def test_frozen_restores_the_flags_after_an_exception():
    store = make_store()
    with pytest.raises(KeyError), store.frozen():
        assert not store["w"].requires_grad
        raise KeyError("boom")
    assert store["w"].requires_grad


# -- step-scoped graphs --------------------------------------------------------

TINY_WORLD = SimConfig(streams=10, users=50, n_samples=300)


@pytest.fixture(scope="module")
def world():
    return gen_world(TINY_WORLD, seed=4)


def train_stat(world):
    model = statfore.StatisticModel(StatConfig(context=8, horizon_train=3, horizon_infer=2,
                                               d_model=8, heads=2, d_ff=16, epochs=1, batch=16))
    statfore.train_statistic(model, world.panels[:2])
    return model


def train_prod(world):
    model = prodfore.ProductModel(ProdConfig(d_model=8, heads=2, d_ff=16, max_context=8,
                                             epochs=1, batch=16), world.hierarchy)
    prodfore.train_product(model, world.events)
    return model


def train_rank(world):
    config = RankConfig(emb_width=4, hidden=8, epochs=1, batch=32)
    return ranker.train_ranker(world.samples, "base", config)[0]


TRAINERS = [train_stat, train_prod, train_rank]
TRAINER_IDS = ["stat", "prod", "rank"]


@pytest.mark.parametrize("train", TRAINERS, ids=TRAINER_IDS)
def test_a_step_graph_is_gone_before_the_next_forward(monkeypatch, world, train):
    # every array an op made in step k is dead when the next op runs after
    # step k's backward: step k+1's first op, so before its adam_step too
    made, ended, leaks, checked = [], [], [], []
    node, backward = T._node, T.Tensor.backward

    def spy_node(data, parents, closure):
        if ended:
            leaks.extend(ref for ref in ended.pop() if ref() is not None)
            checked.append(True)
        out = node(data, parents, closure)
        made.append(weakref.ref(out.data))
        return out

    def spy_backward(loss):
        backward(loss)
        ended.append(list(made))
        made.clear()

    monkeypatch.setattr(T, "_node", spy_node)
    monkeypatch.setattr(T.Tensor, "backward", spy_backward)
    stepped = count_steps(monkeypatch)
    train(world)
    assert len(checked) >= len(stepped) - 1 > 1
    assert leaks == []


def backward_keeping_closures(root):
    """`Tensor.backward` as it ran before closures were dropped: every node's
    closure in reverse topological order, none released."""
    topo, seen = [], set()

    def visit(node):
        if id(node) not in seen:
            seen.add(id(node))
            for p in node._parents:
                visit(p)
            topo.append(node)

    visit(root.node)
    root.node._accumulate(np.ones_like(root.data))
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def graph_nodes(root):
    """Every node reachable from the Tensor `root`, in a fixed order."""
    order, seen, stack = [], {id(root.node)}, [root.node]
    while stack:
        node = stack.pop()
        order.append(node)
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return order


def prod_loss(model, events):
    logits, _ = model.forward_positions(events[None, :-1])
    return T.softmax_cross_entropy(T.reshape(logits, (-1, model.hierarchy.n_c3)),
                                   events[1:, 3])


def small_prod(world):
    return prodfore.ProductModel(ProdConfig(d_model=8, heads=2, d_ff=16, max_context=8),
                                 world.hierarchy)


def spy_outputs(monkeypatch, module, name):
    """Weak references to the forward value of every `module.<name>` output."""
    refs, op = [], getattr(module, name)

    def spied(*args, **kwargs):
        out = op(*args, **kwargs)
        refs.append(weakref.ref(out.data))
        return out

    monkeypatch.setattr(module, name, spied)
    return refs


def test_backward_drops_each_closure_and_forward_value_and_keeps_every_gradient(world):
    model = small_prod(world)
    events = world.events[0][:8]
    loss = prod_loss(model, events)
    loss.backward()
    nodes = graph_nodes(loss)
    inner = [n for n in nodes if n._parents]
    # a node holds no forward value, and each closure (with the arrays it
    # saved) is gone
    assert len(inner) > 20 and all(n._backward is None for n in inner)
    assert not any(hasattr(n, "data") for n in nodes)
    assert loss.data is not None and loss.data.shape == ()

    model.store.zero_grad()
    ref = prod_loss(model, events)
    backward_keeping_closures(ref)
    ref_nodes = graph_nodes(ref)
    assert len(ref_nodes) == len(nodes)
    for a, b in zip(nodes, ref_nodes):
        assert (a.grad is None) == (b.grad is None)
        if a.grad is not None:
            assert np.array_equal(a.grad, b.grad)
    assert sum(n.grad is not None for n in nodes) > len(inner)


def test_backward_frees_every_inner_forward_value(monkeypatch, world):
    # the loss still holds the whole graph through `_parents`, yet no op
    # output's array but the loss's own outlives the pass
    values = spy_outputs(monkeypatch, T, "_node")
    loss = prod_loss(small_prod(world), world.events[0][:8])
    inner = values[:-1]
    assert len(inner) > 20 and values[-1]() is loss.data
    loss.backward()
    assert [ref for ref in inner if ref() is not None] == []
    assert len(graph_nodes(loss)) > len(inner) and loss.data is not None


def test_forward_values_no_closure_reads_die_before_backward(monkeypatch, world):
    # the graph links nodes, so an op output lives only while the forward
    # code or a closure that reads it holds it: the raw attention scores and
    # the dense outputs (input projection, head logits) are gone once the
    # loss is built, and the softmax weights, which two closures read, live
    # until backward has run those closures
    scores = spy_outputs(monkeypatch, T, "attention_scores")
    dense = spy_outputs(monkeypatch, T, "dense")
    weights = spy_outputs(monkeypatch, T, "softmax")
    loss = prod_loss(small_prod(world), world.events[0][:8])
    assert len(scores) == len(dense) == len(weights) == 2

    def alive(refs):
        return sum(ref() is not None for ref in refs)

    assert (alive(scores), alive(dense), alive(weights)) == (0, 0, 2)
    loss.backward()
    assert (alive(scores), alive(dense), alive(weights)) == (0, 0, 0)


def reference_step(kept):
    """The step loop of the trainers before `train_step`: the loss (and so its
    graph) stays referenced, and backward keeps every closure."""

    def step(adam, loss_fn, lr):
        loss = loss_fn()
        adam.store.zero_grad()
        backward_keeping_closures(loss)
        adam_step(adam, lr=lr)
        adam.store.zero_grad()
        kept.append(loss)
        return float(loss.data)

    return step


@pytest.mark.parametrize("train", TRAINERS, ids=TRAINER_IDS)
def test_train_step_gives_the_floats_of_the_graph_keeping_loop(monkeypatch, world, train):
    values = train(world).store.values
    kept = []
    monkeypatch.setattr(optim, "train_step", reference_step(kept))
    ref = train(world).store.values
    assert len(kept) > 2
    assert np.array_equal(values, ref)
