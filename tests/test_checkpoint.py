"""Checkpoint files: bit-exact round trips and deterministic bytes."""

import copy
import json
import re
import warnings
import zipfile

import numpy as np
import pytest

from livesight import pipeline, simgen
from livesight import tensor as T
from livesight.checkpoint import (
    load_checkpoint,
    open_archive,
    read_checkpoint,
    save_checkpoint,
    write_archive,
)
from livesight.config import SimConfig, StatConfig
from livesight.errors import LivesightError, StateError
from livesight.optim import Adam, ParamStore, adam_step

from reference_ops import file_digest


def read_manifest(path):
    with open_archive(path) as (manifest, _):
        return manifest


def trained_store(seed=0):
    """A store that has actually taken optimizer steps."""
    rng = np.random.default_rng(seed)
    store = ParamStore()
    store.add("enc.w", rng.normal(size=(4, 3)))
    store.add("enc.b", rng.normal(size=3))
    adam = Adam(store)
    for _ in range(3):
        step_once(adam)
    return store


def step_once(adam, lr=1e-2):
    store = adam.store
    loss = T.tsum(store["enc.w"] @ T.reshape(store["enc.b"], (3, 1)))
    store.zero_grad()
    loss.backward()
    adam_step(adam, lr=lr)


def clone_shapes(store):
    fresh = ParamStore()
    for name, p in store.items():
        fresh.add(name, np.zeros_like(p.data))
    return fresh


def test_round_trip_bit_exact(tmp_path):
    store = trained_store()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, store, config_hash="abc123")
    fresh = clone_shapes(store)
    manifest = load_checkpoint(path, fresh, config_hash="abc123")
    assert manifest["config_hash"] == "abc123"
    for name, p in store.items():
        assert fresh[name].data.tobytes() == p.data.tobytes()


def test_a_checkpoint_holds_its_manifest_and_parameters_only(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, trained_store(7), config_hash="h")
    with open_archive(path) as (manifest, zf):
        assert zf.namelist() == ["manifest.json", "param/enc.b", "param/enc.w"]
    assert sorted(manifest) == ["config_hash", "extra", "format", "params"]
    assert manifest["format"] == 2


def test_saving_twice_is_byte_identical(tmp_path):
    store = trained_store(1)
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(a, store, config_hash="h")
    save_checkpoint(b, store, config_hash="h")
    assert a.read_bytes() == b.read_bytes()
    assert file_digest(a) == file_digest(b)


def test_training_changes_the_file(tmp_path):
    store = trained_store(2)
    a = tmp_path / "a.ckpt"
    save_checkpoint(a, store, config_hash="h")
    step_once(Adam(store), lr=1e-3)
    b = tmp_path / "b.ckpt"
    save_checkpoint(b, store, config_hash="h")
    assert file_digest(a) != file_digest(b)


def test_config_hash_mismatch(tmp_path):
    store = trained_store(3)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, store, config_hash="expected")
    with pytest.raises(StateError, match="hash"):
        load_checkpoint(path, clone_shapes(store), config_hash="other")
    # omitting the expectation skips the comparison
    load_checkpoint(path, clone_shapes(store))


def test_parameter_set_must_match(tmp_path):
    store = trained_store(4)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, store, config_hash="h")
    toosmall = ParamStore()
    toosmall.add("enc.w", np.zeros((4, 3)))
    with pytest.raises(StateError, match="unknown"):
        load_checkpoint(path, toosmall)
    wrong_shape = ParamStore()
    wrong_shape.add("enc.w", np.zeros((4, 3)))
    wrong_shape.add("enc.b", np.zeros(7))
    with pytest.raises(StateError, match="shape"):
        load_checkpoint(path, wrong_shape)


def test_a_parameter_missing_from_the_manifest_names_the_file(tmp_path):
    # a manifest that lists one parameter fewer than the store holds
    store = trained_store(6)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, store, config_hash="h")
    with open_archive(path) as (manifest, zf):
        members = [(name, zf.read(name)) for name in zf.namelist()[1:]]
    write_archive(path, {**manifest, "params": {"enc.w": [4, 3]}}, members)
    with pytest.raises(StateError) as info:
        load_checkpoint(path, clone_shapes(store))
    assert str(info.value) == f"{path}: checkpoint missing parameter 'enc.b'"


def test_extra_metadata_survives(tmp_path):
    store = trained_store(5)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, store, config_hash="h", extra={"widths": {"stat": 280}})
    _, manifest = read_checkpoint(path)
    assert manifest["extra"] == {"widths": {"stat": 280}}
    assert manifest["params"]["enc.w"] == [4, 3]


def test_unsupported_format_rejected(tmp_path):
    path = tmp_path / "bad.ckpt"
    with zipfile.ZipFile(path, "w") as zf:
        zf.writestr("manifest.json", json.dumps({"format": 99}))
    with pytest.raises(StateError, match="format"):
        read_checkpoint(path)


def as_format_1(path):
    """Rewrite the checkpoint `path` in format 1, which also held the Adam
    step and a moment pair (`m/`, `v/`) per parameter."""
    with open_archive(path) as (manifest, zf):
        members = [(name, zf.read(name)) for name in zf.namelist()[1:]]
    names = sorted(manifest["params"])
    moments = [(f"{part}/{name}", bytes(len(dict(members)[f"param/{name}"])))
               for name in names for part in ("m", "v")]
    write_archive(path, {**manifest, "format": 1, "step": 3, "moments": names},
                  members + moments)


def test_a_format_1_checkpoint_is_refused_by_name(tmp_path):
    path = tmp_path / "old.ckpt"
    save_checkpoint(path, trained_store(7), config_hash="h")
    as_format_1(path)
    message = re.escape(f"{path} is not a readable checkpoint: format 1 ")
    with pytest.raises(StateError, match=message):
        read_checkpoint(path)
    with pytest.raises(StateError, match=message):
        load_checkpoint(path, clone_shapes(trained_store(7)))


def test_a_manifest_that_is_not_an_object_is_named(tmp_path):
    path = tmp_path / "list.ckpt"
    write_archive(path, [1], [])
    for read in (read_manifest, read_checkpoint):
        with pytest.raises(StateError, match=re.escape(f"{path} has no checkpoint manifest")):
            read(path)


def test_a_write_that_fails_part_way_leaves_the_old_file(tmp_path):
    # the second member is no buffer, so the write raises after the manifest
    # and the first member are in the file; the old archive must survive whole
    # and nothing else may be left in the directory
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, trained_store(3), config_hash="old")
    before = path.read_bytes()
    with pytest.raises(TypeError):
        write_archive(path, {"config_hash": "new"}, [("a", np.zeros(4096)), ("b", [1, 2, 3])])
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]
    with pytest.raises(TypeError):
        write_archive(tmp_path / "new.ckpt", {}, [("b", [1, 2, 3])])
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]
    # a whole write replaces the file, and leaves no other
    write_archive(path, {"config_hash": "new"}, [("a", b"x")])
    assert read_manifest(path) == {"config_hash": "new"}
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


# damage: (field, bit mask). The method and flags are those of the first
# central-directory entry, the manifest's; the offset is the end record's.
HEADER_FLIPS = {
    "unsupported method": ("method", 0x02),  # stored -> 2, which zipfile cannot read
    "deflate method": ("method", 0x08),  # stored -> deflated: stored bytes do not inflate
    "encrypted flag": ("flags", 0x01),
    "directory offset": ("directory offset", 0x80),  # entries start before the file
}


def damaged_checkpoint(tmp_path, damage):
    """A checkpoint file damaged one way, and whether its manifest still reads."""
    store = trained_store(8)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, store, config_hash="h")
    data = path.read_bytes()
    if damage == "truncated":
        path.write_bytes(data[: len(data) // 2])
        return path, False
    if damage == "flipped":  # one byte inside a parameter blob: its CRC-32 fails
        at = data.find(store["enc.w"].data.tobytes()) + 5
        assert at > 5
        path.write_bytes(data[:at] + bytes([data[at] ^ 0xFF]) + data[at + 1 :])
        return path, True
    if damage == "not a zip":
        path.write_text('{"seed": 7}\n')
        return path, False
    if damage in HEADER_FLIPS:  # one bit of a header, which no CRC-32 covers
        field, mask = HEADER_FLIPS[damage]
        at = data.find(b"PK\x05\x06" if field == "directory offset" else b"PK\x01\x02")
        at += {"method": 10, "flags": 8, "directory offset": 17}[field]
        path.write_bytes(data[:at] + bytes([data[at] ^ mask]) + data[at + 1 :])
        return path, False
    manifest = {"format": 2, "config_hash": "h", "extra": {}, "params": {"enc.w": [4, 3]}}
    with zipfile.ZipFile(path, "w") as zf:
        if damage == "wrong shape":
            manifest["params"]["enc.w"] = [5, 3]
            zf.writestr("param/enc.w", store["enc.w"].data.tobytes())
        zf.writestr("manifest.json", json.dumps(manifest))
    return path, True


@pytest.mark.parametrize("damage", ["truncated", "flipped", "not a zip", "missing member",
                                    "wrong shape", *HEADER_FLIPS])
def test_unreadable_checkpoint_raises_state_error(tmp_path, damage):
    path, manifest_reads = damaged_checkpoint(tmp_path, damage)
    named = re.escape(f"{path} is not a readable checkpoint")
    with pytest.raises(StateError, match=named):
        read_checkpoint(path)
    with pytest.raises(StateError, match=named):
        load_checkpoint(path, clone_shapes(trained_store(8)))
    if manifest_reads:
        assert read_manifest(path)["config_hash"] == "h"
    else:
        with pytest.raises(StateError, match=named):
            read_manifest(path)


def test_flipped_or_truncated_bytes_fail_named_or_read_the_same(tmp_path):
    # seeded single-bit flips and truncations: each raises StateError naming
    # the file, or (a flip in a field the reader ignores) reads the same state
    path, damaged = tmp_path / "model.ckpt", tmp_path / "damaged.ckpt"
    save_checkpoint(path, trained_store(9), config_hash="h")
    data = path.read_bytes()
    *want, want_manifest = read_checkpoint(path)
    rng = np.random.default_rng(0)
    for case in range(300):
        bad = bytearray(data)
        if case % 3 == 2:
            del bad[int(rng.integers(len(data))) :]
        else:
            bad[int(rng.integers(len(data)))] ^= 1 << int(rng.integers(8))
        damaged.write_bytes(bytes(bad))
        try:
            *got, manifest = read_checkpoint(damaged)
        except StateError as exc:
            assert str(damaged) in str(exc), exc
            continue
        assert manifest == want_manifest
        for arrays, expected in zip(got, want):
            assert arrays.keys() == expected.keys()
            assert all(arrays[name].tobytes() == expected[name].tobytes() for name in arrays)


# the manifest fuzz: each top-level field, and each entry of an object field,
# deleted or swapped for each of these values
SWAPS = [None, [], {}, "x", -1, 1.5, [1], [[1]], ["x"]]


def mutated_manifests(manifest):
    """(site, manifest with that site deleted or swapped) for every site."""
    sites = [(key,) for key in manifest]
    sites += [(key, sub) for key, value in manifest.items() if isinstance(value, dict)
              for sub in value]
    for site in sites:
        for new in ["deleted", *SWAPS]:
            mutated = copy.deepcopy(manifest)
            *parents, last = site
            entries = mutated[parents[0]] if parents else mutated
            if new == "deleted":
                del entries[last]
            else:
                entries[last] = new
            yield (site, new), mutated


def bare_exceptions(path, read):
    """Rewrite the archive `path` with each mutated manifest and call `read`:
    each must load or raise a LivesightError naming `path`. Returns the
    mutations that raised anything else, and how many ran."""
    with open_archive(path) as (manifest, zf):
        members = [(name, zf.read(name)) for name in zf.namelist()[1:]]
    bare, runs = [], 0
    for mutation, mutated in mutated_manifests(manifest):
        write_archive(path, mutated, members)
        runs += 1
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "dataset .* manifest hash", UserWarning)
                read()
        except LivesightError as exc:
            assert str(path) in str(exc), (mutation, exc)
        except Exception as exc:  # a bare exception: what the fuzz looks for
            bare.append((mutation, repr(exc)))
    return bare, runs


@pytest.fixture(scope="module")
def tiny_world():
    return simgen.gen_world(SimConfig(streams=10, users=50, n_samples=300), 3)


def test_a_mutated_dataset_manifest_loads_or_is_named(tiny_world, tmp_path):
    ds = tmp_path / "ds"
    simgen.export_dataset(tiny_world, ds)
    bare, runs = bare_exceptions(ds / "world.zip", lambda: simgen.import_dataset(ds))
    assert runs > 300 and bare == []


def test_a_mutated_checkpoint_manifest_loads_or_is_named(tiny_world, tmp_path):
    world = tiny_world
    train_rooms, _ = pipeline.split_rooms(len(world.panels))
    data = pipeline.training_digest(world, train_rooms)
    cfg = StatConfig(epochs=1)
    model, _ = pipeline.train_forecaster(cfg, world, train_rooms)
    path = tmp_path / "stat.ckpt"
    pipeline.save_forecaster(path, model, pipeline.forecaster_key(cfg, data))
    bare, runs = bare_exceptions(
        path, lambda: pipeline.load_forecaster(path, "stat", world.hierarchy, data))
    assert runs > 300 and bare == []


def test_a_forecaster_config_that_disagrees_with_its_parameters_is_named(tiny_world, tmp_path):
    # as `prepare` reuses a checkpoint: the key matches, the shapes do not
    world = tiny_world
    train_rooms, _ = pipeline.split_rooms(len(world.panels))
    data = pipeline.training_digest(world, train_rooms)
    cfg = StatConfig(epochs=1)
    model, _ = pipeline.train_forecaster(cfg, world, train_rooms)
    path = tmp_path / "stat.ckpt"
    key = pipeline.forecaster_key(cfg, data)
    pipeline.save_forecaster(path, model, key)
    with open_archive(path) as (manifest, zf):
        members = [(name, zf.read(name)) for name in zf.namelist()[1:]]
    manifest["extra"]["config"]["d_model"] = 16
    write_archive(path, manifest, members)
    with pytest.raises(StateError) as info:
        pipeline.load_forecaster(path, "stat", world.hierarchy, data, key=key)
    assert str(info.value) == f"{path}: parameter 'proj.w' shape (32, 32) != expected (32, 16)"


def test_a_format_1_forecaster_checkpoint_is_refused_by_name(tiny_world, tmp_path):
    world = tiny_world
    train_rooms, _ = pipeline.split_rooms(len(world.panels))
    data = pipeline.training_digest(world, train_rooms)
    cfg = StatConfig(epochs=1)
    model, _ = pipeline.train_forecaster(cfg, world, train_rooms)
    path = tmp_path / "stat.ckpt"
    pipeline.save_forecaster(path, model, pipeline.forecaster_key(cfg, data))
    as_format_1(path)
    with pytest.raises(StateError) as info:
        pipeline.load_forecaster(path, "stat", world.hierarchy, data)
    assert str(info.value) == (f"{path} is not a readable checkpoint: format 1 is not "
                               "the supported checkpoint format 2")
