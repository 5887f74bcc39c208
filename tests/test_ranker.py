"""Multi-task ranker: input assembly, heads, loss, and the frozen-foresight contract."""

import dataclasses
import tracemalloc
import weakref

import numpy as np
import pytest

from livesight import optim, ranker, simgen
from livesight import tensor as T
from livesight.config import SERVICES, RankConfig, SimConfig
from livesight.errors import (
    ConfigurationError,
    ContractError,
    DatasetError,
    DimensionError,
    LabelError,
    VocabularyError,
)
from livesight.optim import Adam, adam_step
from livesight.ranker import (
    NORM_CHUNK,
    ForesightBank,
    RankingModel,
    check_held_out,
    predict,
    rank_loss,
    split_samples,
    train_ranker,
)
from livesight.simgen import SampleTable
from livesight.tensor import Tensor

from gradcheck import grad_check

# vocabulary sizes of user_id, aff_bucket, author_id, room_category, item_c3,
# cross_match and click_bucket, in FIELD_NAMES order
VOCAB = (10, 5, 6, 5, 12, 2, 4)
TASKS = ("ctr", "cvr")
CFG = RankConfig(emb_width=16, hidden=64, epochs=8, batch=16, lr=1e-2, seed=0)
BASE_WIDTH = 16 * 7


def sample(seed=0):
    """One random exposure: its seven field ids and its (ctr, cvr) labels."""
    rng = np.random.default_rng(seed)
    rng.integers(0, 50)  # the bucket, which the ranker does not read
    ids = np.array([rng.integers(0, size) for size in VOCAB])
    return ids, [int(rng.random() < 0.3), int(rng.random() < 0.2)]


def model_for(variant):
    return RankingModel(CFG, VOCAB, TASKS, variant, stat_width=20, n_c3=12, d_mix=8,
                        prod_enc_width=24)


def fields_of(seed=0):
    return sample(seed)[0][None]


def fields(n):
    return np.stack([sample(i)[0] for i in range(n)])


def full_foresight():
    rng = np.random.default_rng(42)
    return {"stat": rng.normal(size=(1, 20)), "dist": rng.dirichlet(np.ones(12), size=1),
            "prod_enc": rng.normal(size=(1, 24))}


def bank_of(stat, dist, prod_enc, prod_row=None):
    """A bank whose key k reads product row prod_row[k], by default row k."""
    p = len(dist)
    prod_row = np.arange(p) if prod_row is None else prod_row
    k = len(prod_row)
    return ForesightBank(room=np.arange(k),
                         bucket=np.zeros(k, dtype=np.int64), stat_steps=np.zeros((k, 4, 5)),
                         stat_enc=np.zeros((k, 4, 2)), stat=stat, prod_row=prod_row,
                         prod_key=np.stack([np.arange(p), np.zeros(p, dtype=np.int64)], axis=1),
                         dist=dist, prod_enc=prod_enc, d_mix=8)


def shapes(parts):
    return [p.shape for p in parts]


def test_input_width_additivity():
    fore = full_foresight()
    base = model_for("base").features(fields_of(), **fore)
    stat = model_for("+stat").features(fields_of(), **fore)
    prod = model_for("+prod").features(fields_of(), **fore)
    both = model_for("+both").features(fields_of(), **fore)
    assert shapes(base) == [(1, BASE_WIDTH)]
    assert shapes(stat) == [(1, BASE_WIDTH), (1, 20)]
    assert shapes(prod) == [(1, BASE_WIDTH), (1, 8), (1, 24)]
    # +both adds exactly the parts the single variants added, in input order
    assert shapes(both) == shapes(base) + [(1, 20), (1, 8), (1, 24)]
    assert sum(w for _, w in shapes(both)) == model_for("+both").input_width


def test_base_prefix_is_shared_across_variants():
    zeroed = {"stat": np.zeros((1, 20)), "dist": np.zeros((1, 12)), "prod_enc": np.zeros((1, 24))}
    base = model_for("base").features(fields_of(1))
    stat = model_for("+stat").features(fields_of(1), **zeroed)
    assert shapes(stat)[0] == shapes(base)[0] == (1, BASE_WIDTH)
    assert np.array_equal(stat[0].data, base[0].data)
    assert not any(p.data.any() for p in stat[1:])


def test_missing_foresight_part_rejected():
    with pytest.raises(ConfigurationError):
        model_for("+stat").features(fields_of())
    with pytest.raises(ConfigurationError):
        model_for("+prod").features(fields_of(), stat=np.zeros((1, 20)))
    with pytest.raises(ConfigurationError):
        RankingModel(CFG, VOCAB, TASKS, "+stat")  # no stat width configured
    with pytest.raises(ConfigurationError):
        RankingModel(CFG, VOCAB, TASKS, "sideways")


def test_id_fields_share_one_table_and_one_gather(monkeypatch):
    model = model_for("base")
    assert [name for name, _ in model.store.items() if name.startswith("emb.")] == ["emb.fields"]
    assert model.store["emb.fields"].shape == (sum(VOCAB), CFG.emb_width)
    gathers = []
    embedding = T.embedding
    monkeypatch.setattr(T, "embedding", lambda *a: gathers.append(a) or embedding(*a))
    ids = fields(3)
    assert shapes(model.features(ids)) == [(3, BASE_WIDTH)]
    assert len(gathers) == 1
    # an id past its own field's rows would read the next field's: rejected
    ids[1, 0] = VOCAB[0]
    with pytest.raises(VocabularyError, match="user_id 10 outside its vocabulary of size 10"):
        model.features(ids)


def test_foresight_must_be_detached():
    fore = full_foresight()
    with pytest.raises(ContractError, match="frozen"):
        bank_of(Tensor(np.zeros((1, 20))), fore["dist"], fore["prod_enc"])
    assert len(bank_of(**fore)) == 1


def test_c3_mix_is_the_only_trainable_foresight_path():
    model = RankingModel(CFG, VOCAB, TASKS, "+prod", n_c3=12, d_mix=6, prod_enc_width=16)
    mix = model.store["c3_mix"].data
    enc = np.random.default_rng(0).normal(size=(1, 16))
    onehot = np.zeros((1, 12))
    onehot[0, 7] = 1.0
    x = model.features(fields_of(), dist=onehot, prod_enc=enc)
    assert shapes(x) == [(1, BASE_WIDTH), (1, 6), (1, 16)]
    assert np.allclose(x[1].data[0], mix[7], atol=1e-12)
    # unfitted normalizer, damped by 1/width: the encodings enter as constants
    assert np.array_equal(x[2].data[0], enc[0] / 16)

    uniform = np.full((1, 12), 1.0 / 12)
    x_u = model.features(fields_of(), dist=uniform, prod_enc=enc)
    assert np.allclose(x_u[1].data[0], mix.mean(axis=0), atol=1e-12)

    # the foresight columns reach the mixing table and no other parameter
    model.store.zero_grad()
    (T.tsum(x_u[1]) + T.tsum(x_u[2])).backward()
    for name, p in model.store.items():
        moved = p.grad is not None and np.abs(p.grad).sum() > 0
        assert moved == (name == "c3_mix"), name

    with pytest.raises(DimensionError):
        model.features(fields_of(), dist=np.zeros((1, 9)), prod_enc=enc)


def test_forward_probabilities_in_open_interval():
    model = model_for("+both")
    probs = model.forward(*model.features(fields_of(2), **full_foresight()))
    assert probs.shape == (1, len(TASKS))
    assert np.all((0.0 < probs.data) & (probs.data < 1.0))


def test_all_zero_parameters_give_half():
    model = model_for("base")
    for _, p in model.store.items():
        p.data = np.zeros_like(p.data)
    probs = model.forward(*model.features(fields_of(3)))
    assert np.all(probs.data == 0.5)


def test_width_mismatch_rejected():
    model = model_for("base")
    with pytest.raises(DimensionError):
        model.forward(np.zeros((1, model.input_width + 1)))


def test_gradient_oracle_tiny_ranker():
    cfg = RankConfig(emb_width=4, hidden=8, epochs=1, batch=4, lr=1e-3, seed=1)
    model = RankingModel(cfg, VOCAB, TASKS, "+both", stat_width=6, n_c3=12,
                         d_mix=4, prod_enc_width=8)
    rng = np.random.default_rng(4)
    stat = rng.normal(size=(4, 6))
    dist = rng.dirichlet(np.ones(12), size=4)
    enc = rng.normal(size=(4, 8))
    y = (rng.random((4, 2)) < 0.5).astype(float)

    def loss():
        x = model.features(fields(4), stat=stat, dist=dist, prod_enc=enc)
        return rank_loss(model.forward(*x), y)

    assert grad_check(loss, model.store, max_coords=128) < 1e-4


def test_gradient_oracle_five_task_ranker():
    # the talent service's five heads add their input gradients in task order
    cfg = RankConfig(emb_width=4, hidden=8, epochs=1, batch=4, lr=1e-3, seed=2)
    tasks = SERVICES["talent"]
    model = RankingModel(cfg, VOCAB, tasks, "+both", stat_width=6, n_c3=12,
                         d_mix=4, prod_enc_width=8)
    rng = np.random.default_rng(5)
    stat = rng.normal(size=(4, 6))
    dist = rng.dirichlet(np.ones(12), size=4)
    enc = rng.normal(size=(4, 8))
    y = (rng.random((4, len(tasks))) < 0.5).astype(float)

    def loss():
        x = model.features(fields(4), stat=stat, dist=dist, prod_enc=enc)
        return rank_loss(model.forward(*x), y)

    assert len(tasks) == 5
    assert grad_check(loss, model.store, max_coords=128) < 1e-4


@pytest.mark.parametrize("key, bad", [("hidden", 0), ("emb_width", 0), ("k_enc", -1)])
def test_rank_sizes_below_their_floor_are_named(key, bad):
    message = f"RankConfig.{key} must be >= {bad + 1}, got {bad}"
    with pytest.raises(ConfigurationError, match=message):
        RankConfig(**{key: bad})
    assert getattr(RankConfig(**{key: bad + 1}), key) == bad + 1


def test_rank_loss_hand_values():
    assert abs(float(rank_loss(Tensor([[0.5]]), [[1.0]]).data) - np.log(2.0)) < 1e-12
    assert float(rank_loss(Tensor([[1.0]]), [[1.0]]).data) < 1e-6
    # two tasks: exactly the sum of the single-task losses
    la = float(rank_loss(Tensor([[0.3]]), [[1.0]]).data)
    lb = float(rank_loss(Tensor([[0.8]]), [[0.0]]).data)
    lab = float(rank_loss(Tensor([[0.3, 0.8]]), [[1.0, 0.0]]).data)
    assert abs(lab - (la + lb)) < 1e-12
    with pytest.raises(LabelError):
        rank_loss(Tensor([[0.5]]), [[0.4]])


def dataset(n=400, seed=5):
    """A SampleTable of n samples, each on its own bank row."""
    rng = np.random.default_rng(seed)
    stat = rng.normal(size=(n, 20))
    ids, labels = map(np.array, zip(*(sample(1000 + i) for i in range(n))))
    for i in range(n):
        # make ctr depend on the stat part so foresight has signal to find
        labels[i, 0] = int(rng.random() < 1.0 / (1.0 + np.exp(-2.0 * stat[i, :4].mean())))
    samples = SampleTable(room=np.arange(n), bucket=np.zeros(n, dtype=np.int64), fields=ids,
                          labels=labels, weight=np.ones(n), tasks=TASKS, vocab=VOCAB)
    bank = bank_of(stat, rng.dirichlet(np.ones(12), size=n), rng.normal(size=(n, 24)))
    return samples, bank, np.arange(n)


def test_training_reduces_loss_and_reports_metrics():
    samples, bank, rows = dataset()
    model, report, history = train_ranker(samples, "+stat", CFG, bank=bank, rows=rows)
    assert model.stat_width == 20
    assert history[-1] < history[0]
    for task in TASKS:
        assert set(report[task]) == {"AUC", "UAUC", "GAUC"}
        assert 0.0 <= report[task]["AUC"] <= 1.0


def test_base_variant_needs_no_bank():
    samples, _, _ = dataset(200)
    model, report, _ = train_ranker(samples, "base", CFG)
    assert model.input_width == BASE_WIDTH
    assert "ctr" in report


def test_variant_without_bank_rejected():
    samples, bank, rows = dataset(50)
    with pytest.raises(ConfigurationError, match="bank"):
        train_ranker(samples, "+stat", CFG)
    with pytest.raises(ConfigurationError, match="rows"):
        train_ranker(samples, "+stat", CFG, bank=bank)
    with pytest.raises(ContractError, match="ForesightBank"):
        train_ranker(samples, "+stat", CFG, bank=object(), rows=rows)


def test_live_tensor_in_bank_rejected():
    _, bank, _ = dataset(50)
    # a trainable object must not slip in when a column is swapped either
    with pytest.raises(ContractError, match="detached"):
        dataclasses.replace(bank, stat=Tensor(np.zeros((50, 20))))


def test_bank_columns_must_share_rows():
    _, bank, _ = dataset(50)
    with pytest.raises(ContractError, match="49 rows"):
        dataclasses.replace(bank, dist=bank.dist[:49])
    assert len(bank) == 50


def shared_bank(k=40, p=7, seed=11):
    """A bank of k keys reading p < k product rows, in no particular order."""
    rng = np.random.default_rng(seed)
    prod_row = rng.permutation(np.arange(k) % p)
    return bank_of(rng.normal(size=(k, 20)), rng.dirichlet(np.ones(12), size=p),
                   rng.normal(size=(p, 24)), prod_row)


@pytest.mark.parametrize("name", ["stat", "stat_steps", "prod_row"])
def test_a_key_column_must_have_a_row_per_key(name):
    bank = shared_bank()
    with pytest.raises(ContractError, match=f"'{name}' has 39 rows, not 40"):
        dataclasses.replace(bank, **{name: getattr(bank, name)[:39]})


@pytest.mark.parametrize("name", ["dist", "prod_enc"])
def test_the_product_columns_must_share_their_rows(name):
    bank = shared_bank()
    with pytest.raises(ContractError, match=f"'{name}' has 6 rows, not 7"):
        dataclasses.replace(bank, **{name: getattr(bank, name)[:6]})


@pytest.mark.parametrize("bad", [-1, 7, 2.0])
def test_a_product_row_must_exist(bad):
    bank = shared_bank()
    prod_row = bank.prod_row.astype(type(bad))
    prod_row[3] = bad
    with pytest.raises(ContractError, match=r"prod_row must hold integer rows in \[0, 7\)"):
        dataclasses.replace(bank, prod_row=prod_row)
    assert len(dataclasses.replace(bank, prod_row=np.full(40, 6))) == 40


def test_shared_product_rows_train_like_one_product_row_per_key():
    # the ranker reads key k's product blocks at prod_row[k]: a bank that
    # stores them once per key gives every float the same
    bank = shared_bank(k=120, p=13)
    samples = dataset(120)[0]
    copied = dataclasses.replace(bank, prod_row=np.arange(120),
                                 prod_key=np.zeros((120, 2), dtype=np.int64),
                                 dist=bank.dist[bank.prod_row],
                                 prod_enc=bank.prod_enc[bank.prod_row])
    rows = np.random.default_rng(2).integers(0, 120, size=120)
    (m1, r1, h1), (m2, r2, h2) = (train_ranker(samples, "+both", CFG, bank=b, rows=rows)
                                  for b in (bank, copied))
    assert r1 == r2 and h1 == h2
    assert np.array_equal(m1.store.values, m2.store.values)


def test_training_is_deterministic():
    samples, bank, rows = dataset(120)
    reports = []
    for _ in range(2):
        _, report, _ = train_ranker(samples, "+both", CFG, bank=bank, rows=rows)
        reports.append(report)
    assert reports[0] == reports[1]


@pytest.mark.parametrize("stat_width,enc_width", [(20, 24), (1, 0)])
def test_normalizers_equal_numpy_moments_of_the_gathered_block(stat_width, enc_width):
    # a lone column (numpy sums it pairwise) and the zero-width product
    # encodings of a baseline-substituted bank are covered too; the product
    # encodings are gathered through each key's product row
    rng = np.random.default_rng(7)
    k, p = 40, 9
    bank = bank_of(rng.normal(size=(k, stat_width)) * 50, rng.dirichlet(np.ones(12), size=p),
                   rng.normal(size=(p, enc_width)) + 3, rng.integers(0, p, size=k))
    model = RankingModel(CFG, VOCAB, TASKS, "+both", stat_width=stat_width, n_c3=12, d_mix=8,
                         prod_enc_width=enc_width)
    for n in (2 * NORM_CHUNK + 7, 1):  # several gather chunks, and a one-sample split
        rows = rng.integers(0, k, size=n)
        model.fit_normalizers(bank, rows)
        for (mean, std), block in ((model.stat_norm, bank.stat[rows]),
                                   (model.enc_norm, bank.prod_enc[bank.prod_row[rows]])):
            assert np.array_equal(mean, block.mean(axis=0))
            assert np.array_equal(std, np.maximum(block.std(axis=0), 1e-6))


def test_training_holds_no_whole_sample_foresight_block():
    world = simgen.gen_world(SimConfig(), seed=0)
    samples, n_c3 = world.samples, world.config.n_c3
    rng = np.random.default_rng(3)
    k, wide = 40, 1000
    bank = bank_of(rng.normal(size=(k, wide)), rng.dirichlet(np.ones(n_c3), size=k),
                   rng.normal(size=(k, wide)))
    rows = rng.integers(0, k, size=len(samples))
    block_bytes = len(samples) * (wide + n_c3 + wide) * 8
    tracemalloc.start()
    try:
        train_ranker(samples, "+both", RankConfig(epochs=1), bank=bank, rows=rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # every forward, the validation and held-out ones too, reads one batch
    assert peak < block_bytes


@pytest.mark.parametrize("n", [1, 2, 129, 300, 1025])
def test_batched_scoring_equals_one_whole_forward(n):
    # 1025 and 129 leave a one-row tail, which joins the chunk before it
    rng = np.random.default_rng(n)
    k = 30
    bank = bank_of(rng.normal(size=(k, 20)), rng.dirichlet(np.ones(12), size=k),
                   rng.normal(size=(k, 24)))
    rows = rng.integers(0, k, size=n)
    ids = fields(n)
    model = RankingModel(RankConfig(batch=128), VOCAB, TASKS, "+both", stat_width=20,
                         n_c3=12, d_mix=8, prod_enc_width=24)
    model.fit_normalizers(bank, rows)

    def batch_input(idx):
        prod = bank.prod_row[rows[idx]]
        return model.features(ids[idx], stat=bank.stat[rows[idx]],
                              dist=bank.dist[prod], prod_enc=bank.prod_enc[prod])

    idx = rng.permutation(n)
    whole = model.forward(*batch_input(idx)).data
    # at any batch: the heads' matrix-vector kernel blocks rows by four, and a
    # chunk that started off a multiple of four could get other last bits
    moved = [batch for batch in [*range(1, 13), 128]
             if not np.array_equal(predict(model, batch_input, idx, batch), whole)]
    assert moved == []


def test_restored_best_state_stays_in_the_flat_buffer():
    samples, bank, rows = dataset(120)
    model, _, _ = train_ranker(samples, "+both", CFG, bank=bank, rows=rows)
    assert all(np.shares_memory(p.data, model.store.values) for _, p in model.store.items())
    prod = bank.prod_row[:5]
    x = model.features(samples.fields[:5],
                       stat=bank.stat[:5], dist=bank.dist[prod], prod_enc=bank.prod_enc[prod])
    before = model.forward(*x).data.copy()
    for _, p in model.store.items():
        p.grad = np.ones_like(p.data)
    adam_step(Adam(model.store), lr=1e-2)
    assert not np.array_equal(model.forward(*x).data, before)


def scripted_validation(monkeypatch, val_losses):
    """Make `train_ranker`'s validation loss read `val_losses` in turn. The
    validation loss is the only one taken of a numpy array (`predict`'s
    output); training losses of tensors pass through."""
    losses = iter(val_losses)

    def loss(predictions, labels):
        if isinstance(predictions, np.ndarray):
            return Tensor(np.float64(next(losses)))
        return rank_loss(predictions, labels)

    monkeypatch.setattr(ranker, "rank_loss", loss)


def test_training_stops_three_epochs_after_the_best_and_restores_it(monkeypatch):
    samples, bank, rows = dataset(120)
    scripted_validation(monkeypatch, [5.0, 4.0, 6.0, 6.0, 6.0])
    model, _, history = train_ranker(samples, "+both", CFG, bank=bank, rows=rows)
    assert len(history) == 5 < CFG.epochs
    scripted_validation(monkeypatch, [5.0, 4.0])
    at_two, _, _ = train_ranker(samples, "+both", dataclasses.replace(CFG, epochs=2),
                                bank=bank, rows=rows)
    assert np.array_equal(model.store.values, at_two.store.values)


def test_an_early_stopped_ranker_keeps_no_optimizer_state(monkeypatch):
    # the epoch loop is abandoned at the early stop: its Adam dies with it,
    # and the last step cleared the gradients it copied
    samples, bank, rows = dataset(120)
    scripted_validation(monkeypatch, [5.0, 4.0, 6.0, 6.0, 6.0])
    made, make = [], optim.Adam

    def spy(store):
        adam = make(store)
        made.append(weakref.ref(adam))
        return adam

    monkeypatch.setattr(optim, "Adam", spy)
    model, _, history = train_ranker(samples, "+both", CFG, bank=bank, rows=rows)
    assert len(history) == 5 < CFG.epochs and len(made) == 1
    assert made[0]() is None
    assert all(p.grad is None for _, p in model.store.items())


def test_split_samples_partitions_every_sample():
    ev, tr, va, fit = split_samples(101, CFG)
    assert len(ev) == int(101 * CFG.eval_fraction)
    assert sorted(np.concatenate([ev, tr]).tolist()) == list(range(101))
    assert np.array_equal(np.concatenate([va, fit]), tr)
    assert len(va) == int(len(tr) * 0.1)


def relabelled(samples, labels):
    return dataclasses.replace(samples, labels=labels)


def test_check_held_out_names_a_task_with_one_held_out_class():
    samples, _, _ = dataset(200)
    labels = samples.labels.copy()
    ev = split_samples(len(samples), CFG)[0]
    labels[ev, 1] = 0
    with pytest.raises(DatasetError, match="'cvr'.*only negative"):
        check_held_out(relabelled(samples, labels), CFG)


def test_check_held_out_names_a_task_without_a_user_of_both_classes():
    samples, _, _ = dataset(200)
    labels = samples.labels.copy()
    ev = split_samples(len(samples), CFG)[0]
    users = samples.fields[ev, 0]
    # each held-out user keeps one class: positive for even user ids only
    labels[ev, 0] = users % 2 == 0
    with pytest.raises(DatasetError, match="'ctr'.*no user with both"):
        check_held_out(relabelled(samples, labels), CFG)
