"""Pipeline plumbing: room splits, foresight bank bookkeeping, checkpoint
reuse, CSV formatting, and the ablations' column selections."""

import dataclasses
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import livesight
from livesight import checkpoint, metrics, pipeline, prodfore, statfore
from livesight.config import (
    ExperimentConfig,
    ProdConfig,
    RankConfig,
    SimConfig,
    StatConfig,
    from_dict,
    to_dict,
)
from livesight.errors import ConfigurationError, DatasetError, StateError
from livesight.pipeline import split_rooms, write_csv

TINY = ExperimentConfig(
    seed=5,
    sim=SimConfig(streams=10, users=50, n_samples=300),
    stat=StatConfig(epochs=2),
    prod=ProdConfig(epochs=2),
    rank=RankConfig(epochs=2),
)


@pytest.fixture(scope="module")
def art():
    return pipeline.prepare(TINY)


def test_split_rooms_holds_out_every_fifth():
    train, ev = split_rooms(10)
    assert ev.tolist() == [4, 9]
    assert sorted(train.tolist() + ev.tolist()) == list(range(10))


def test_split_rooms_disjoint_at_odd_sizes():
    train, ev = split_rooms(7)
    assert set(train) & set(ev) == set()
    assert len(train) + len(ev) == 7


def test_write_csv_formats_and_headers(tmp_path):
    path = write_csv(tmp_path / "r.csv", TINY, ["a", "b"], [["x", 0.123456789], ["y", 2]])
    text = path.read_text()
    assert text.startswith("# config_hash=")
    assert "seed=5" in text.splitlines()[0]
    assert "x,0.123457" in text  # floats fixed at 6 places
    assert "y,2" in text


def test_bank_covers_every_sample(art):
    bank, c = art.bank, art.stat_model.config
    samples = art.world.samples
    keys = set(zip(samples.room.tolist(), samples.bucket.tolist()))
    assert set(zip(bank.room.tolist(), bank.bucket.tolist())) == keys
    assert len(bank) == len(keys)
    n, d = art.world.panels.shape[1], c.d_model
    assert bank.stat_steps.shape == (len(bank), n, c.horizon_train)
    assert bank.stat_enc.shape == (len(bank), n, d)
    assert bank.stat.shape == (len(bank), n * c.horizon_infer + n * d)
    assert bank.prod_row.shape == (len(bank),)
    p = len(bank.prod_key)
    assert bank.dist.shape == (p, art.world.hierarchy.n_c3)
    assert np.allclose(bank.dist.sum(axis=1), 1.0, atol=1e-9)
    assert bank.prod_enc.shape == (p, TINY.rank.k_enc * bank.d_mix)


def on_show_oracle(world, rooms, buckets):
    """Each key's event on show, one room's bisection at a time (no `on_show`)."""
    return np.asarray([np.searchsorted(world.event_buckets[r], t, side="right") - 1
                       for r, t in zip(rooms, buckets)])


def test_one_product_row_per_room_and_event_on_show(art):
    bank = art.bank
    pairs = np.stack([bank.room, on_show_oracle(art.world, bank.room, bank.bucket)], axis=1)
    assert len(bank.prod_key) == len({tuple(pair) for pair in pairs.tolist()}) < len(bank)
    assert np.array_equal(bank.prod_key[bank.prod_row], pairs)


def assert_each_key_reads_its_own_prefix(art):
    """Each key's product row is the forecast from its own prefix, never from
    later events: `forecast_product` of its room's events up to the one on show."""
    bank, model, k_enc = art.bank, art.prod_model, art.cfg.rank.k_enc
    cur = on_show_oracle(art.world, bank.room, bank.bucket)
    for k, (r, e) in enumerate(zip(bank.room, cur)):
        fc = prodfore.forecast_product(model, art.world.events[r][: e + 1])
        tail = fc.encoding[-k_enc:].ravel()
        row = bank.prod_row[k]
        assert np.allclose(bank.dist[row], fc.distribution, rtol=0, atol=1e-12)
        assert np.allclose(bank.prod_enc[row, : len(tail)], tail, rtol=0, atol=1e-12)
        assert not bank.prod_enc[row, len(tail) :].any()


def test_each_key_reads_the_product_forecast_of_its_own_prefix(art):
    assert_each_key_reads_its_own_prefix(art)


def test_bank_rows_point_at_sample_keys(art):
    samples = art.world.samples
    assert art.rows.shape == (len(samples),) and art.rows.dtype == np.int32
    keys = samples.room.astype(np.int64) * TINY.sim.buckets + samples.bucket
    assert np.array_equal(art.rows, np.unique(keys, return_inverse=True)[1])
    assert np.array_equal(art.bank.room[art.rows], samples.room)
    assert np.array_equal(art.bank.bucket[art.rows], samples.bucket)


def test_bank_entries_are_plain_arrays(art):
    for name in ("room", "bucket", "stat_steps", "stat_enc", "stat", "prod_row", "prod_key",
                 "dist", "prod_enc"):
        assert isinstance(getattr(art.bank, name), np.ndarray)


@pytest.fixture(scope="module")
def long_art():
    """A world whose streams run past the product context (64 events)."""
    cfg = dataclasses.replace(
        TINY,
        sim=dataclasses.replace(TINY.sim, buckets=600),
        stat=StatConfig(epochs=1),
        prod=ProdConfig(epochs=1),
    )
    return pipeline.prepare(cfg)


def test_long_streams_forecast_each_prefix_without_lookahead(long_art):
    limit = long_art.prod_model.config.max_context
    assert max(len(events) for events in long_art.world.events) > limit
    assert_each_key_reads_its_own_prefix(long_art)


def future_rewritten(world, r, t, rng):
    """`world` with room r's data after bucket t replaced by other valid data of
    the same shapes: every later count raised, and every event at a later
    bucket swapped for another product."""
    panels = world.panels.copy()
    panels[r, :, t + 1 :] += rng.integers(1, 5, size=panels[r, :, t + 1 :].shape)
    h, events = world.hierarchy, list(world.events)
    later = world.event_buckets[r] > t
    p = (events[r][later, 0] + rng.integers(1, h.n_products, size=later.sum())) % h.n_products
    c3 = h.p_to_c3[p]
    c2 = h.c3_to_c2[c3]
    events[r] = events[r].copy()
    events[r][later] = np.stack([p, h.c2_to_c1[c2], c2, c3], axis=1)
    return dataclasses.replace(world, panels=panels, events=events)


@pytest.mark.parametrize("which", ["art", "long_art"])
def test_no_bank_row_reads_past_its_bucket(which, request):
    # exact: the causal mask gives later positions a weight of exactly 0.0,
    # and with the shapes unchanged every float is computed the same way
    art = request.getfixturevalue(which)
    bank, world = art.bank, art.world
    cur = on_show_oracle(world, bank.room, bank.bucket)
    rng = np.random.default_rng(0)
    rows = [*rng.choice(len(bank), size=11, replace=False), int(cur.argmax())]
    if which == "long_art":  # one prefix longer than the product context
        assert cur[rows[-1]] + 1 > art.prod_model.config.max_context
    for k in rows:
        rewritten = future_rewritten(world, bank.room[k], bank.bucket[k], rng)
        again, _ = pipeline.build_foresight_bank(rewritten, art.stat_model, art.prod_model,
                                                 k_enc=art.cfg.rank.k_enc)
        for name in ("stat_steps", "stat"):
            assert np.array_equal(getattr(again, name)[k], getattr(bank, name)[k]), (k, name)
        for name in ("dist", "prod_enc"):
            assert np.array_equal(getattr(again, name)[again.prod_row[k]],
                                  getattr(bank, name)[bank.prod_row[k]]), (k, name)


def test_hitrate_scores_every_position_of_long_streams(long_art):
    model = long_art.prod_model
    seqs = [long_art.world.events[i] for i in long_art.eval_rooms]
    assert max(len(seq) for seq in seqs) > model.config.max_context + 1
    # brute force: one forecast per prefix, at every position with a successor
    preds = {"model": [], "latest": [], "most-frequent": []}
    truths = []
    for seq in seqs:
        for k in range(1, len(seq)):
            preds["model"].append(int(prodfore.forecast_product(model, seq[:k]).distribution.argmax()))
            for method in ("latest", "most-frequent"):
                preds[method].append(prodfore.baseline_category(seq[:k], method))
            truths.append(int(seq[k, 3]))
    assert len(truths) == sum(len(seq) - 1 for seq in seqs)
    assert prodfore.evaluate_hitrate(model, seqs) == {
        name: metrics.hit_rate(vals, truths) for name, vals in preds.items()
    }


def test_stat_context_must_fit_before_the_first_sample():
    with pytest.raises(ConfigurationError, match="context 34.*bucket 32"):
        from_dict({"stat": {"context": 34}})
    # the longest window that fits: the first sample's bucket ends it at index 0
    cfg = dataclasses.replace(
        TINY, stat=StatConfig(context=33, epochs=1), prod=ProdConfig(epochs=1)
    )
    art = pipeline.prepare(cfg)
    assert art.bank.bucket.min() == 32


@pytest.mark.parametrize("section", ["stat", "prod"])
def test_a_forecaster_seed_in_a_config_file_is_refused(section):
    # both forecasters train at the experiment seed (`model_configs`): a
    # section's own seed changed nothing but the config hash
    message = f"^{section}.seed must be 0, got 5: the forecasters train at `seed`, which --seed sets$"
    with pytest.raises(ConfigurationError, match=message):
        from_dict({"seed": 7, section: {"seed": 5}})
    assert getattr(from_dict({"seed": 7, section: {"seed": 0}}), section).seed == 0


def training_case(section, name, bad, good, message, tag=""):
    return pytest.param(section, name, bad, good, message, id=f"{name}{tag}-{section}")


@pytest.mark.parametrize(
    "section,name,bad,good,message",
    [
        training_case(section, name, 0, 1, f"{name} must be >= 1, got 0")
        for section in ("prod", "rank", "stat")
        for name in ("batch", "epochs")
    ]
    + [
        training_case(section, "lr", bad, 1e-3, f"lr must be > 0, got {bad}", f"={bad}")
        for section in ("prod", "rank", "stat")
        for bad in (0, -1)
    ]
    + [
        training_case("rank", "eval_fraction", bad, 0.5,
                      f"eval_fraction must be in \\(0, 1\\), got {bad}", f"={bad}")
        for bad in (0, 1, -0.2, 1.5)
    ]
    + [
        training_case(section, "heads", bad, 2,
                      f"heads must be >= 1 and divide d_model 32, got {bad}", f"={bad}")
        for section in ("prod", "stat")
        for bad in (0, 3)
    ]
    + [
        # forecaster sizes: each used to end in a bare numpy or Python
        # exception, or in NaN in forecast_report.csv
        training_case("stat", "horizon_infer", bad, 1, f"horizon_infer must be >= 1, got {bad}",
                      f"={bad}")
        for bad in (0, -1)
    ]
    + [
        training_case("stat", "horizon_train", 0, 3, "horizon_train must be >= 1, got 0", "=0"),
        training_case("prod", "max_context", 0, 2, "max_context must be >= 2, got 0", "=0"),
        training_case("prod", "max_context", 1, 2, "max_context must be >= 2, got 1", "=1"),
    ]
    + [
        training_case(section, "d_model", 0, 8, "d_model must be >= 1, got 0", "=0")
        for section in ("prod", "stat")
    ]
    + [
        # the statistic windows must fit in a stream
        training_case("stat", "horizon_train", 65, 64,
                      "stat.context \\+ stat.horizon_train = 32 \\+ 65 exceeds sim.buckets 96",
                      "=65"),
        # a JSON value of the wrong type; an int may stand for a float
        training_case("rank", "epochs", "3", 3, "rank.epochs must be of type int, got '3'", "='3'"),
        training_case("sim", "streams", 10.5, 10, "sim.streams must be of type int, got 10.5",
                      "=10.5"),
        training_case("rank", "lr", True, 1, "rank.lr must be of type float, got True", "=True"),
    ],
)
def test_training_needs_an_epoch_and_a_batch(section, name, bad, good, message):
    with pytest.raises(ConfigurationError, match=message):
        from_dict({section: {name: bad}})
    assert getattr(getattr(from_dict({section: {name: good}}), section), name) == good


def test_checkpoint_reuse_restores_same_models(art, tmp_path):
    first = pipeline.prepare(TINY, out_dir=tmp_path, reuse=True)
    again = pipeline.prepare(TINY, out_dir=tmp_path, reuse=True)
    for name, p in first.stat_model.store.items():
        assert p.data.tobytes() == again.stat_model.store[name].data.tobytes()
    for name, p in first.prod_model.store.items():
        assert p.data.tobytes() == again.prod_model.store[name].data.tobytes()


def at_rest(store):
    """Parameters only: no array but `values`, no gradient and no live optimizer."""
    arrays = [name for name, value in vars(store).items() if isinstance(value, np.ndarray)]
    optimizer = store._optimizer and store._optimizer()  # None, or a dead weak reference
    return (arrays == ["values"] and optimizer is None
            and all(p.grad is None for _, p in store.items()))


def test_prepared_and_loaded_forecasters_hold_parameters_only(tmp_path):
    trained = pipeline.prepare(TINY, out_dir=tmp_path, reuse=True)
    files = {p.name: p.read_bytes() for p in tmp_path.glob("*.ckpt")}
    reused = pipeline.prepare(TINY, out_dir=tmp_path, reuse=True)
    assert "train_prod" in trained.timings and "train_prod" not in reused.timings
    data = pipeline.training_digest(trained.world, trained.train_rooms)
    for kind in pipeline.FORECASTERS:
        (path,) = tmp_path.glob(f"{kind}fore-*.ckpt")
        loaded = pipeline.load_forecaster(path, kind, trained.world.hierarchy, data)
        for prepared in (trained, reused):
            assert at_rest(getattr(prepared, f"{kind}_model").store)
        assert at_rest(loaded.store)
        # the checkpoint holds the parameters only
        arrays, manifest = checkpoint.read_checkpoint(path)
        assert "step" not in manifest and "moments" not in manifest
        with checkpoint.open_archive(path) as (_, zf):
            names = zf.namelist()
        assert names == ["manifest.json", *(f"param/{name}" for name in sorted(arrays))]
    # and neither the reuse nor the loads rewrote a byte of it
    assert {p.name: p.read_bytes() for p in tmp_path.glob("*.ckpt")} == files


def test_a_forecaster_at_rest_forecasts_the_same_floats(art, tmp_path):
    # a forecaster read back from its checkpoint forecasts the floats of the
    # one that just trained
    world, c = art.world, art.stat_model.config
    data = pipeline.training_digest(world, art.train_rooms)
    loaded = {}
    for kind, model in (("stat", art.stat_model), ("prod", art.prod_model)):
        path = tmp_path / f"{kind}.ckpt"
        key = pipeline.forecaster_key(model.config, data)
        pipeline.save_forecaster(path, model, key)
        loaded[kind] = pipeline.load_forecaster(path, kind, world.hierarchy, data, key=key)
    windows = pipeline._windows(world.panels, art.bank.room, art.bank.bucket, c.context)
    for trained, read in zip(statfore.forecast_batch(art.stat_model, windows, c.horizon_train),
                             statfore.forecast_batch(loaded["stat"], windows, c.horizon_train)):
        assert np.array_equal(trained, read)
    for r in (0, 1):
        ends = np.arange(len(world.events[r]))
        for trained, read in zip(
            prodfore.forecast_prefixes(art.prod_model, world.events[r], ends, TINY.rank.k_enc),
            prodfore.forecast_prefixes(loaded["prod"], world.events[r], ends, TINY.rank.k_enc),
        ):
            assert np.array_equal(trained, read)


def test_checkpoint_cache_is_keyed_by_the_training_data(tmp_path):
    first = pipeline.prepare(TINY, out_dir=tmp_path, reuse=True)
    other = dataclasses.replace(TINY, sim=dataclasses.replace(TINY.sim, streams=15))
    second = pipeline.prepare(other, out_dir=tmp_path, reuse=True)
    # same model configs and seed, another world: new forecasters, not the first pair
    assert len(list(tmp_path.glob("statfore-*.ckpt"))) == 2
    assert len(list(tmp_path.glob("prodfore-*.ckpt"))) == 2
    fresh = [
        pipeline.train_forecaster(c, second.world, second.train_rooms)[0]
        for c in pipeline.model_configs(other).values()
    ]
    for old, new, trained in zip((first.stat_model, first.prod_model),
                                 (second.stat_model, second.prod_model), fresh):
        w_old, w_new, w_trained = (m.store["head.w"].data for m in (old, new, trained))
        assert w_new.tobytes() == w_trained.tobytes() != w_old.tobytes()


def test_only_a_missing_checkpoint_is_retrained(tmp_path):
    pipeline.prepare(TINY, out_dir=tmp_path, reuse=True)
    (prod_ckpt,) = tmp_path.glob("prodfore-*.ckpt")
    blob = prod_ckpt.read_bytes()
    prod_ckpt.unlink()
    again = pipeline.prepare(TINY, out_dir=tmp_path, reuse=True)
    assert "train_stat" not in again.timings and "train_prod" in again.timings
    assert prod_ckpt.read_bytes() == blob


def test_a_checkpoint_trained_by_other_code_is_retrained(tmp_path, monkeypatch):
    def run(name):
        out = tmp_path / name
        pipeline.run_pipeline(dataclasses.replace(TINY, out_dir=str(out)))
        return out

    def prod_head(out):
        return {p.name: checkpoint.read_checkpoint(p)[0]["head.w"].tobytes()
                for p in out.glob("prodfore-*.ckpt")}

    old = prod_head(run("r1"))

    class Changed(prodfore.ProductModel):  # stands in for an edit to prodfore.py's init
        def __init__(self, config, hierarchy):
            super().__init__(config, hierarchy)
            self.store["head.w"].data[...] *= -1

    monkeypatch.setattr(pipeline, "ProductModel", Changed)
    monkeypatch.setattr(pipeline, "TRAINER_SHA256", "0" * 64)
    warm, cold = run("r1"), run("r2")
    for report in ("rank_report.csv", "forecast_report.csv"):
        assert (warm / report).read_bytes() == (cold / report).read_bytes()
    # the old checkpoints stay; the changed code trained and saved its own
    new = prod_head(cold)
    assert prod_head(warm) == {**old, **new} and len(old) == len(new) == 1
    assert len(list(warm.glob("statfore-*.ckpt"))) == 2
    assert set(new.values()).isdisjoint(old.values())
    # the bank is keyed by its forecasters: the old one stays beside the new
    assert len(list(warm.glob("foresight-*.bank"))) == 2


def counted_builds(monkeypatch):
    """A list that gets one entry per `build_foresight_bank` call from now on."""
    calls, build = [], pipeline.build_foresight_bank

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(pipeline, "build_foresight_bank", counted)
    return calls


def test_run_and_the_ablations_build_the_bank_once(tmp_path, monkeypatch):
    calls = counted_builds(monkeypatch)
    shared = dataclasses.replace(TINY, out_dir=str(tmp_path / "shared"))
    paths = list(pipeline.run_pipeline(shared).values())
    paths += [pipeline.run_ablation(shared, which) for which in pipeline.ABLATIONS]
    assert len(calls) == 1
    assert len(list((tmp_path / "shared").glob("foresight-*.bank"))) == 1
    # each study in a fresh directory builds its own bank: the same bytes
    fresh = pipeline.run_pipeline(dataclasses.replace(TINY, out_dir=str(tmp_path / "run")))
    fresh = list(fresh.values()) + [
        pipeline.run_ablation(dataclasses.replace(TINY, out_dir=str(tmp_path / which)), which)
        for which in pipeline.ABLATIONS
    ]
    assert len(calls) == 6
    for mine, theirs in zip(paths, fresh):
        assert mine.name == theirs.name and mine.read_bytes() == theirs.read_bytes()


def test_a_loaded_bank_equals_the_built_one(tmp_path, monkeypatch):
    built = pipeline.prepare(TINY, out_dir=tmp_path, reuse=True)
    calls = counted_builds(monkeypatch)
    loaded = pipeline.prepare(TINY, out_dir=tmp_path, reuse=True)
    assert calls == []
    assert np.array_equal(loaded.rows, built.rows)
    for f in dataclasses.fields(built.bank):
        mine, theirs = getattr(loaded.bank, f.name), getattr(built.bank, f.name)
        if f.name == "d_mix":
            assert mine == theirs
            continue
        assert np.array_equal(mine, theirs) and mine.dtype == theirs.dtype, f.name
        # foresight stays frozen: no column of either bank takes a write
        assert not mine.flags.writeable and not theirs.flags.writeable, f.name
    for bank in (built.bank, loaded.bank):
        assert np.shares_memory(bank.stat_enc, bank.stat)


@pytest.mark.parametrize("change", ["k_enc", "world seed", "samples", "held-out panels",
                                    "forecaster config", "code"])
def test_a_bank_for_other_inputs_is_saved_beside_the_old_one(change, tmp_path, monkeypatch):
    pipeline.prepare(TINY, out_dir=tmp_path, reuse=True)
    (old,) = tmp_path.glob("*.bank")
    blob = old.read_bytes()
    cfg = TINY
    if change == "k_enc":
        cfg = dataclasses.replace(TINY, rank=dataclasses.replace(TINY.rank, k_enc=1))
    elif change == "world seed":
        cfg = dataclasses.replace(TINY, seed=6)
    elif change == "samples":  # the same rooms, so the same forecasters
        cfg = dataclasses.replace(TINY, sim=dataclasses.replace(TINY.sim, n_samples=250))
    elif change == "held-out panels":  # no forecaster trains on them; same keys and rows
        gen_world = pipeline.simgen.gen_world

        def busier(*args):
            world = gen_world(*args)
            world.panels[pipeline.split_rooms(len(world.panels))[1]] += 1.0
            return world

        monkeypatch.setattr(pipeline.simgen, "gen_world", busier)
    elif change == "forecaster config":
        cfg = dataclasses.replace(TINY, stat=dataclasses.replace(TINY.stat, epochs=1))
    else:  # stands in for an edit to pipeline.py, simgen.py or ranker.py
        monkeypatch.setattr(pipeline, "BANK_SHA256", "0" * 64)
    calls = counted_builds(monkeypatch)
    art = pipeline.prepare(cfg, out_dir=tmp_path, reuse=True)
    if change in ("samples", "held-out panels"):
        assert "train_stat" not in art.timings and "train_prod" not in art.timings
    assert len(calls) == 1
    assert len(list(tmp_path.glob("*.bank"))) == 2 and old.read_bytes() == blob
    again = pipeline.prepare(cfg, out_dir=tmp_path, reuse=True)
    assert len(calls) == 1 and np.array_equal(again.bank.prod_enc, art.bank.prod_enc)


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """A prepared TINY run in its own directory: (artifacts, bank path, bank key)."""
    out = tmp_path_factory.mktemp("saved")
    art = pipeline.prepare(TINY, out_dir=out, reuse=True)
    (path,) = out.glob("*.bank")
    return art, path, path.stem.removeprefix("foresight-")


def write_columns(path, key, d_mix, columns):
    """A bank file as `save_bank` writes it, over any columns."""
    arrays = {name: [a.dtype.str, list(a.shape)] for name, a in columns.items()}
    checkpoint.write_archive(path, {"config_hash": key, "d_mix": d_mix, "arrays": arrays},
                             list(columns.items()))


# each damage, and what the error names after the file
DAMAGES = {
    "truncated": "File is not a zip file",
    "other key": "config_hash '000000000000' is not the key",
    "other d_mix": r"d_mix (\d+) is not (?!\1)\d+",
    "missing column": r"column prod_enc is None, not \['<f8', \[\d+, \d+\]\]",
    "narrower stat": r"column stat is \['<f8', \[(\d+), (\d+)\]\], not \['<f8', \[\1, (?!\2)",
    "float32 dist": r"column dist is \['<f4', \[(\d+), (\d+)\]\], not \['<f8', \[\1, \2\]\]",
    "one product row more": r"column dist is \['<f8', \[(\d+), \d+\]\], not \['<f8', \[(?!\1)",
    "one key row fewer": r"column stat_steps is \['<f8', \[(\d+), 8, \d\]\], not \['<f8', \[(?!\1)",
    "short member": "cannot reshape array",
}


def damaged_bank(damage, art, good, key, path):
    """Write the bank file `good` (of `art`, saved under `key`) to `path` with `damage`."""
    columns = {name: getattr(art.bank, name) for name in pipeline.BANK_COLUMNS}
    d_mix = art.bank.d_mix
    if damage == "truncated":
        path.write_bytes(good.read_bytes()[: good.stat().st_size // 2])
        return
    if damage == "short member":  # the manifest declares the right shapes
        write_columns(path, key, d_mix, {**columns, "dist": columns["dist"][:-1]})
        with checkpoint.open_archive(path) as (manifest, zf):
            members = [(name, zf.read(name)) for name in zf.namelist()[1:]]
        manifest["arrays"]["dist"][1][0] += 1
        checkpoint.write_archive(path, manifest, members)
        return
    if damage == "other key":
        key = "0" * 12
    elif damage == "other d_mix":
        d_mix += 1
    elif damage == "missing column":
        del columns["prod_enc"]
    elif damage == "narrower stat":
        columns["stat"] = columns["stat"][:, 1:]
    elif damage == "float32 dist":
        columns["dist"] = columns["dist"].astype(np.float32)
    elif damage == "one product row more":
        columns["dist"] = np.concatenate([columns["dist"], columns["dist"][:1]])
        columns["prod_enc"] = np.concatenate([columns["prod_enc"], columns["prod_enc"][:1]])
    else:
        columns["stat_steps"], columns["stat"] = columns["stat_steps"][1:], columns["stat"][1:]
    write_columns(path, key, d_mix, columns)


@pytest.mark.parametrize("damage", DAMAGES)
def test_a_damaged_bank_is_named(damage, saved, tmp_path):
    art, good, key = saved
    path = tmp_path / good.name
    damaged_bank(damage, art, good, key, path)
    with pytest.raises(StateError, match=f"^{re.escape(str(path))} is not a readable "
                                         f"foresight bank: {DAMAGES[damage]}"):
        pipeline.load_bank(path, key, art.world, art.stat_model, art.prod_model, TINY.rank.k_enc)


def test_saving_a_bank_copies_no_column(saved, tmp_path):
    art, good, key = saved
    size = sum(getattr(art.bank, name).nbytes for name in pipeline.BANK_COLUMNS)
    tracemalloc.start()
    try:
        pipeline.save_bank(tmp_path / good.name, art.bank, key)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / good.name).read_bytes() == good.read_bytes()
    assert size > 500_000 and peak < size / 20


def unpinned_env():
    """This environment without the BLAS thread variables, for a fresh
    interpreter that imports this livesight."""
    env = {k: v for k, v in os.environ.items() if k not in livesight.BLAS_THREAD_VARS}
    env["PYTHONPATH"] = str(Path(livesight.__file__).resolve().parents[1])
    return env


def test_a_checkpoint_trained_with_other_blas_threads_is_retrained(tmp_path):
    # numpy is already loaded here, so each run is a fresh interpreter that
    # imports livesight first, as the CLI does
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps({k: to_dict(TINY)[k] for k in ("sim", "stat", "prod", "rank")}))
    out = tmp_path / "out"
    env = unpinned_env()

    def run(**threads):
        subprocess.run([sys.executable, "-m", "livesight.cli", "run", "--config", str(config),
                        "--seed", str(TINY.seed), "--out", str(out)],
                       env={**env, **threads}, capture_output=True, check=True)
        return {p.name: p.read_bytes() for p in out.glob("*.ckpt")}

    first = run()
    second = run(OPENBLAS_NUM_THREADS="2")
    # two threads may sum a GEMM in another order: both forecasters are
    # retrained under new names, and the one-thread checkpoints stay as they were
    assert len(first) == 2 and len(second) == 4
    assert {name: second[name] for name in first} == first
    assert len(list(out.glob("prodfore-*.ckpt"))) == 2


def test_numpy_imported_before_livesight_keys_its_own_checkpoints():
    # the pin does not reach a numpy that is already loaded: with the thread
    # variables unset, it runs numpy's own thread count, not one thread
    code = ("import {first}; from livesight import pipeline; "
            "print(pipeline.forecaster_key(pipeline.StatConfig(), 'data'))")
    pinned, unpinned = (
        subprocess.run([sys.executable, "-c", code.format(first=first)], env=unpinned_env(),
                       capture_output=True, text=True, check=True).stdout
        for first in ("livesight", "numpy")
    )
    assert pinned != unpinned


def test_a_wrongly_typed_checkpoint_config_is_named(art, tmp_path):
    # it used to reach StatConfig's checks as a bare TypeError
    path = tmp_path / "stat.ckpt"
    config = {**to_dict(art.stat_model.config), "heads": "4"}
    checkpoint.save_checkpoint(path, art.stat_model.store, extra={"config": config})
    with pytest.raises(ConfigurationError, match="stat.heads must be of type int, got '4'"):
        pipeline.load_forecaster(path, "stat", art.world.hierarchy, data="")


def test_forecast_reports_have_three_methods_each(art):
    stat_eval, prod_eval = pipeline.forecast_reports(art)
    assert set(stat_eval) == {"model", "mean", "latest"}
    assert set(prod_eval) == {"model", "latest", "most-frequent"}


def test_masked_stat_bank_slices_forecast_steps(art):
    c = art.stat_model.config
    stat = pipeline._stat_block(art.bank.stat_steps, None, 2, [0, 3])
    assert stat.shape == (len(art.bank), 4)
    src = art.bank.stat_steps.reshape(len(art.bank), -1)
    expect = src[:, [0, 1, 3 * c.horizon_train, 3 * c.horizon_train + 1]]
    assert np.array_equal(stat, expect)


def test_group_masked_bank_keeps_forecasts_and_encodings(art):
    c = art.stat_model.config
    n = art.world.panels.shape[1]
    stat = pipeline._stat_block(art.bank.stat_steps, art.bank.stat_enc, c.horizon_infer, [1])
    assert stat.shape == (len(art.bank), c.horizon_infer + c.d_model)
    src = art.bank.stat
    enc_lo = n * c.horizon_infer + c.d_model
    expect = np.concatenate(
        [src[:, c.horizon_infer : 2 * c.horizon_infer], src[:, enc_lo : enc_lo + c.d_model]],
        axis=1,
    )
    assert np.array_equal(stat, expect)


def test_substituted_stat_bank_matches_baseline(art):
    c = art.stat_model.config
    bank = pipeline._stat_baseline_bank(art, "latest")
    for k in (0, len(bank) - 1):
        t = bank.bucket[k]
        window = art.world.panels[bank.room[k], :, t - c.context + 1 : t + 1]
        expect = statfore.baseline_forecast(window, c.horizon_infer, "latest").ravel()
        assert np.array_equal(bank.stat[k], expect)
    model = pipeline._stat_baseline_bank(art, "model")
    n = art.world.panels.shape[1]
    idx = [ch * c.horizon_train + k for ch in range(n) for k in range(c.horizon_infer)]
    assert np.array_equal(model.stat, art.bank.stat_steps.reshape(len(bank), -1)[:, idx])


def test_substituted_prod_bank_onehot_drops_encodings(art):
    bank = pipeline._prod_baseline_bank(art, "latest")
    assert bank.prod_enc.shape == (len(bank.prod_key), 0)
    assert np.all(bank.dist.sum(axis=1) == 1.0) and np.all((bank.dist == 1.0).sum(axis=1) == 1)
    r = bank.room[0]
    cur = int(np.searchsorted(art.world.event_buckets[r], bank.bucket[0], side="right")) - 1
    assert bank.dist[bank.prod_row[0], art.world.events[r][cur, 3]] == 1.0
    assert pipeline._prod_baseline_bank(art, "model").dist is art.bank.dist


def test_ablation_rejects_unknown_study():
    with pytest.raises(ConfigurationError, match="unknown ablation"):
        pipeline.run_ablation(TINY, "volume")


def test_ablation_rejects_talent_service():
    cfg = dataclasses.replace(TINY, sim=dataclasses.replace(TINY.sim, service="talent"))
    with pytest.raises(ConfigurationError, match="shopping"):
        pipeline.run_ablation(cfg, "channels")


def test_pipeline_reruns_byte_identical(tmp_path):
    cfg = dataclasses.replace(TINY, out_dir=str(tmp_path / "run"))
    paths = pipeline.run_pipeline(cfg)
    blobs = {name: p.read_bytes() for name, p in paths.items()}
    paths2 = pipeline.run_pipeline(cfg)
    for name, p in paths2.items():
        assert p.read_bytes() == blobs[name]


def test_reports_are_byte_identical_across_output_directories(tmp_path):
    # the header's config hash once covered out_dir: one body, two headers
    first = pipeline.run_pipeline(dataclasses.replace(TINY, out_dir=str(tmp_path / "a" / "r")))
    second = pipeline.run_pipeline(dataclasses.replace(TINY, out_dir=str(tmp_path / "b" / "r")))
    for name in ("rank_report", "forecast_report"):
        assert first[name] != second[name]
        assert first[name].read_bytes() == second[name].read_bytes()


def test_a_world_without_an_eval_room_fails_before_any_training(tmp_path):
    # split_rooms holds out every fifth room: four rooms hold out none, and
    # the run used to die in the forecast reports after training everything
    out = tmp_path / "run"
    cfg = dataclasses.replace(TINY, seed=3, sim=dataclasses.replace(TINY.sim, streams=4),
                              out_dir=str(out))
    with pytest.raises(ConfigurationError, match="sim.streams = 4 .* sim.streams >= 5"):
        pipeline.run_pipeline(cfg)
    assert not list(tmp_path.rglob("*.ckpt"))
    assert not out.exists()  # a rejected run leaves no empty output directory


def test_unscorable_held_out_split_fails_before_any_training(tmp_path, monkeypatch):
    # at this size no held-out user of seed 3 has both cvr labels; the run
    # used to fail only in the first ranker's UAUC, after both forecasters
    def no_training(*args, **kwargs):
        raise AssertionError("a forecaster started training")

    monkeypatch.setattr(pipeline, "train_forecaster", no_training)
    cfg = dataclasses.replace(
        TINY, seed=3, sim=SimConfig(streams=4, users=50, n_samples=200), out_dir=str(tmp_path)
    )
    with pytest.raises(DatasetError, match="'cvr'.*no user with both"):
        pipeline.run_pipeline(cfg)
    assert not list(tmp_path.glob("*.ckpt"))
