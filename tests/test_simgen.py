"""Generator checks: determinism, phase-conditional rates, category persistence,
label base rates, dataset round trips, and the future-vs-past signal probe."""

import dataclasses
import json
import re
import warnings
import zipfile

import numpy as np
import pytest

from livesight.checkpoint import write_archive
from livesight.config import SAMPLE_BUCKET_FLOOR, SERVICES, SimConfig
from livesight.errors import (
    ConfigurationError,
    DatasetError,
    LabelError,
    ParseError,
    VocabularyError,
)
from livesight.prodfore import CategoryHierarchy
from livesight.simgen import (
    CHANNELS,
    CHANNEL_NAMES,
    CLICK_BUCKETS,
    FIELD_NAMES,
    GRAB,
    HIGHLIGHT,
    LOOKAHEAD,
    STEADY,
    SampleTable,
    _sample_phases,
    _sigmoid,
    _task_coeffs,
    export_dataset,
    field_sizes,
    gen_interactions,
    gen_stream,
    gen_world,
    import_dataset,
    label_logits,
    on_show,
    probe_future_vs_past,
)

SMALL = SimConfig(streams=10, users=50, n_samples=600)
BASE_RATES = np.array([c[2] for c in CHANNELS])


def stream(hierarchy, buckets, seed, home_c1=1):
    """One room at the channels' base rates: (phases, counts, events, event_buckets)."""
    return gen_stream(home_c1, BASE_RATES, hierarchy, SimConfig(buckets=buckets), seed)


@pytest.fixture(scope="module")
def hierarchy():
    return CategoryHierarchy.balanced(5, 20, 100, 2000)


@pytest.fixture(scope="module")
def default_world():
    # full default config, shared by the rate-band and probe tests
    return gen_world(SimConfig(), seed=11)


# ---------------------------------------------------------------------------
# single-stream generation


def test_stream_determinism(hierarchy):
    a = stream(hierarchy, 96, seed=4)
    b = stream(hierarchy, 96, seed=4)
    for x, y in zip(a, b):
        assert x.tobytes() == y.tobytes()


def test_stream_too_short():
    # a stream is cfg.buckets long, so the config is where a short one stops
    with pytest.raises(ConfigurationError, match="buckets must be >= 48, got 47"):
        SimConfig(buckets=47)


def test_style_probabilities_must_sum_to_one():
    with pytest.raises(ConfigurationError, match="sum to"):
        SimConfig(stay_level2=0.6, move_level1=0.3, jump=0.2)


def test_highlight_lifts_audience_enter(hierarchy):
    # rate ratio 4 in highlight; pooling 10 streams is plenty of buckets
    enter = CHANNEL_NAMES.index("audience_enter")
    hi, st = [], []
    for i in range(10):
        phases, counts, _, _ = stream(hierarchy, 96, seed=[9, i])
        hi.extend(counts[enter, phases == HIGHLIGHT])
        st.extend(counts[enter, phases == STEADY])
    assert np.mean(hi) > np.mean(st)


def test_grab_lifts_product_clicks(hierarchy):
    clicks = CHANNEL_NAMES.index("product_clicks")
    hi, st = [], []
    for i in range(10):
        phases, counts, _, _ = stream(hierarchy, 96, seed=[10, i])
        hi.extend(counts[clicks, phases == GRAB])
        st.extend(counts[clicks, phases == STEADY])
    assert np.mean(hi) > np.mean(st)


def test_level2_persistence_near_configured(hierarchy):
    # one long stream gives >1000 consecutive pairs
    _, _, events, _ = stream(hierarchy, 7000, seed=21)
    c2 = events[:, 2]
    assert len(c2) > 1000
    share = np.mean(c2[1:] == c2[:-1])
    assert abs(share - 0.6) < 0.05


def test_event_gaps_within_configured_range(hierarchy):
    _, _, _, event_buckets = stream(hierarchy, 400, seed=3)
    gaps = np.diff(event_buckets)
    assert gaps.min() >= 4 and gaps.max() <= 8
    assert event_buckets[0] == 0


def looped_phases(rng, matrix, t_total):
    """The reference phase path: one `rng.choice` per bucket."""
    phases = np.zeros(t_total, dtype=np.int64)
    state = STEADY
    for t in range(t_total):
        phases[t] = state
        state = int(rng.choice(3, p=np.asarray(matrix[state])))
    return phases


@pytest.mark.parametrize("matrix", [
    SimConfig().phase_matrix,
    ((1 / 3, 1 / 3, 1 / 3),) * 3,
    ((0.1, 0.2, 0.7), (0.0, 1.0, 0.0), (0.3, 0.0, 0.7)),
    ((0.7, 0.2, 0.1), (0.2, 0.7, 0.1), (0.999, 0.0005, 0.0005)),
], ids=["default", "uniform", "zeros", "skewed"])
def test_phase_path_equals_the_choice_loop(matrix):
    # the same path and the same RNG state after it, so every later draw of
    # the stream is unchanged too
    for t_total in (48, 96, 101):
        for seed in range(25):
            ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
            expected = looped_phases(ref, matrix, t_total)
            got = _sample_phases(rng, matrix, t_total)
            assert np.array_equal(got, expected) and got.dtype == expected.dtype
            assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("row", [(-0.1, 1.05, 0.05), (float("nan"), 0.5, 0.5), (0.5, 0.5)])
def test_phase_matrix_rows_are_checked(row):
    matrix = (row,) + SimConfig().phase_matrix[1:]
    with pytest.raises(ConfigurationError, match="phase_matrix"):
        SimConfig(phase_matrix=matrix)


@pytest.mark.parametrize("lo, hi", [(0, 0), (8, 4)], ids=["zero-gap", "min-above-max"])
def test_event_gap_settings_are_checked(lo, hi):
    # a zero gap never advances the stream; min above max is an empty range
    with pytest.raises(ConfigurationError, match=f"event_gap_min={lo}, event_gap_max={hi}"):
        SimConfig(event_gap_min=lo, event_gap_max=hi)
    assert SimConfig(event_gap_min=1, event_gap_max=1).event_gap_max == 1


@pytest.mark.parametrize("key, value", [
    ("streams", -2), ("streams", 0), ("n_samples", -1), ("n_samples", 0),
    ("n_c1", 0), ("n_c2", 0), ("n_c3", 0), ("n_products", 0),
])
def test_sizes_below_one_are_rejected(key, value):
    # each would otherwise end in a bare numpy error inside gen_world
    with pytest.raises(ConfigurationError, match=f"^{key} must be >= 1, got {value}$"):
        SimConfig(**{key: value})


def test_events_consistent_with_hierarchy(hierarchy):
    _, _, events, _ = stream(hierarchy, 200, seed=6, home_c1=3)
    p, c1, c2, c3 = events.T
    assert np.array_equal(hierarchy.p_to_c3[p], c3)
    assert np.array_equal(hierarchy.c3_to_c2[c3], c2)
    assert np.array_equal(hierarchy.c2_to_c1[c2], c1)


# ---------------------------------------------------------------------------
# interaction sampling


def label_rates(samples):
    return dict(zip(samples.tasks, samples.labels.mean(axis=0)))


def test_label_rates_within_band(default_world):
    rates = label_rates(default_world.samples)
    assert set(rates) == {"ctr", "cvr"}
    for task, rate in rates.items():
        assert 0.03 <= rate <= 0.15, (task, rate)


def test_talent_service_emits_five_tasks():
    cfg = SimConfig(streams=10, users=50, n_samples=500, service="talent")
    world = gen_world(cfg, seed=3)
    rates = label_rates(world.samples)
    assert set(rates) == {"ctr", "evtr", "lvtr", "cmtr", "gtr"}
    for task, rate in rates.items():
        assert 0.0 < rate < 1.0, (task, rate)


def test_sample_fields_are_coherent(default_world):
    w = default_world
    s = w.samples
    assert isinstance(s, SampleTable) and s.tasks == SERVICES["shopping"]
    col = {name: s.fields[:500, k] for k, name in enumerate(FIELD_NAMES)}
    assert np.all(s.bucket[:500] >= 32)
    assert np.array_equal(col["cross_match"], col["aff_bucket"] == col["room_category"])
    assert np.array_equal(col["aff_bucket"], w.user_prefs[col["user_id"]].argmax(axis=1))
    assert np.all((0 <= col["item_c3"]) & (col["item_c3"] < w.config.n_c3))
    assert np.all(s.weight[:500] == 1.0)
    # room r's author is author r
    assert np.array_equal(col["author_id"], s.room[:500])
    assert np.array_equal(col["room_category"], w.home_c1[s.room[:500]])


def test_empty_streams_rejected(default_world):
    w = default_world
    empty = dataclasses.replace(w, panels=w.panels[:0], phases=w.phases[:0],
                                home_c1=w.home_c1[:0], base_rates=w.base_rates[:0],
                                events=[], event_buckets=[])
    with pytest.raises(DatasetError):
        gen_interactions(empty, seed=0)


def looped_interactions(world, seed, bucket_lo=SAMPLE_BUCKET_FLOOR, lookahead=5):
    """The per-sample loop `gen_interactions` ran before its labels became array code."""
    cfg = world.config
    rng = np.random.default_rng(seed)
    prefs = world.user_prefs
    coeffs = _task_coeffs(cfg)
    drawn = []
    for _ in range(cfg.n_samples):
        r = int(rng.integers(len(world.panels)))
        u = int(rng.integers(cfg.users))
        events, event_buckets, phases = world.events[r], world.event_buckets[r], world.phases[r]
        t_total = phases.shape[0]
        hi = min(t_total - lookahead - 1, int(event_buckets[-3]) - 1)
        if hi < bucket_lo:
            continue
        t = int(rng.integers(bucket_lo, hi + 1))
        cur = int(np.searchsorted(event_buckets, t, side="right")) - 1
        nxt = events[cur + 1 : cur + 4]
        uniform = 1.0 / cfg.n_c1
        aff_next = prefs[u, nxt[0, 1]] - uniform
        aff_future = float(prefs[u, nxt[:, 1]].mean()) - uniform
        grab_soon = bool((phases[t + 1 : t + 1 + lookahead] == GRAB).any())
        click_logit = (
            cfg.click_affinity_coeff * aff_next
            + cfg.click_highlight_coeff * float(phases[t] == HIGHLIGHT)
            + cfg.click_bias
        )
        labels = [int(rng.random() < _sigmoid(click_logit))]
        for a2, b2, c2 in coeffs.values():
            logit = a2 * aff_future + b2 * float(grab_soon) + c2
            labels.append(int(rng.random() < _sigmoid(logit)))
        drawn.append((r, t, u, int(events[cur, 3]), *labels))
    cols = np.asarray(drawn, dtype=np.int64)
    room, bucket, user, item = cols[:, :4].T
    home = world.home_c1[room]
    aff = world.user_aff_bucket[user]
    fields = np.stack(
        [user, aff, room, home, item, (aff == home).astype(np.int64),
         world.user_click_bucket[user]],
        axis=1,
    )
    return SampleTable(room=room, bucket=bucket, fields=fields, labels=cols[:, 4:],
                       weight=np.ones(len(cols)), tasks=("ctr", *coeffs),
                       vocab=field_sizes(cfg))


def short_streams(world):
    """The world with every other room's events cut to four, too few to sample."""
    return dataclasses.replace(
        world,
        events=[e[:4] if r % 2 else e for r, e in enumerate(world.events)],
        event_buckets=[b[:4] if r % 2 else b for r, b in enumerate(world.event_buckets)],
    )


@pytest.mark.parametrize(
    "cfg,seed,cut",
    [
        pytest.param(SimConfig(), 7, False, id="shopping"),
        pytest.param(SimConfig(service="talent"), 7, False, id="talent"),
        pytest.param(dataclasses.replace(SMALL, buckets=600), 5, False, id="buckets-600"),
        pytest.param(SMALL, 4, True, id="short-streams"),
    ],
)
def test_array_labels_equal_the_per_sample_loop(cfg, seed, cut):
    world = gen_world(cfg, seed)
    if cut:
        world = short_streams(world)
    got = gen_interactions(world, seed=[seed, 0xC2])
    want = looped_interactions(world, seed=[seed, 0xC2])
    for name in ("room", "bucket", "fields", "labels", "weight"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert (got.tasks, got.vocab) == (want.tasks, want.vocab)
    if cut:  # the cut streams were drawn, and skipped
        assert 0 < len(got) < cfg.n_samples
        assert not np.any(got.room % 2)


def test_on_show_is_the_latest_event_at_or_before_the_bucket():
    world = gen_world(SMALL, seed=9)
    last = len(world.panels) - 1
    # room 3 loses its first event, so its first buckets show no product yet
    world.events[3], world.event_buckets[3] = world.events[3][1:], world.event_buckets[3][1:]
    cases = []  # (room, bucket, index of the event on show)
    for r in (0, 3, last):
        b = world.event_buckets[r]
        cases += [(r, t, k) for k, t in [(1, b[1]), (0, b[1] - 1), (len(b) - 1, b[-1]),
                                         (len(b) - 2, b[-1] - 1), (len(b) - 1, SMALL.buckets - 1),
                                         (0, b[0]), (-1, b[0] - 1)] if t >= 0]
    room, bucket, want = map(np.array, zip(*cases))
    assert on_show(world, room, bucket).tolist() == want.tolist()
    # and at every (room, bucket) of the world, a per-room search's index
    room, bucket = np.divmod(np.arange(SMALL.streams * SMALL.buckets), SMALL.buckets)
    looped = [int(np.searchsorted(world.event_buckets[r], t, side="right")) - 1
              for r, t in zip(room, bucket)]
    assert on_show(world, room, bucket).tolist() == looped


def looped_logits(world, r, u, t):
    """One sample's label logits in SERVICES order, from the per-sample formula."""
    cfg = world.config
    events, phases, prefs = world.events[r], world.phases[r], world.user_prefs
    cur = int(np.searchsorted(world.event_buckets[r], t, side="right")) - 1
    c1 = events[cur + 1 : cur + 4, 1]
    uniform = 1.0 / cfg.n_c1
    click = (cfg.click_affinity_coeff * (prefs[u, c1[0]] - uniform)
             + cfg.click_highlight_coeff * float(phases[t] == HIGHLIGHT) + cfg.click_bias)
    future = float(prefs[u, c1].mean()) - uniform
    grab = float((phases[t + 1 : t + 6] == GRAB).any())
    coeffs = _task_coeffs(cfg)
    return [click] + [coeffs[task][0] * future + coeffs[task][1] * grab + coeffs[task][2]
                      for task in SERVICES[cfg.service][1:]]


@pytest.mark.parametrize("service", ["shopping", "talent"])
def test_label_logits_have_one_column_per_task_in_service_order(service):
    world = gen_world(dataclasses.replace(SMALL, service=service), seed=9)
    s = world.samples
    got = label_logits(world, s.room, s.fields[:, 0], s.bucket)
    assert got.shape == (len(s), len(SERVICES[service]))
    assert got.shape[1] == (2 if service == "shopping" else 5)
    want = [looped_logits(world, r, u, t) for r, u, t in zip(s.room, s.fields[:, 0], s.bucket)]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_label_logits_reject_a_sample_without_its_future():
    # every odd room, the last one too, is cut to four events
    world = short_streams(gen_world(SMALL, seed=4))

    def logits(r, t):
        return label_logits(world, np.array([r]), np.array([0]), np.array([t]))

    for r in (1, SMALL.streams - 1):
        b = world.event_buckets[r]
        assert logits(r, b[0]).shape == (1, 2)  # three later events
        # two later events: a gather over every room's events would read the next room's
        with pytest.raises(DatasetError, match=f"sample 0 \\(room {r}, bucket {b[1]}\\) needs"):
            logits(r, b[1])
    # a 40-bucket phase path leaves room 0's bucket 35 four later buckets
    world.phases = world.phases[:, :40]
    assert logits(0, 34).shape == (1, 2)
    with pytest.raises(DatasetError, match=f"{LOOKAHEAD} later buckets"):
        logits(0, 35)


def test_streams_with_under_three_events_are_never_sampled():
    # 24-bucket gaps leave two product events in a 48-bucket stream
    cfg = SimConfig(streams=4, users=50, n_samples=50, buckets=48, event_gap_min=24,
                    event_gap_max=24)
    with pytest.raises(DatasetError, match="streams too short"):
        gen_world(cfg, seed=0)


def dataset_bytes(path):
    return (path / "world.zip").read_bytes()


def test_world_determinism(tmp_path):
    export_dataset(gen_world(SMALL, seed=5), tmp_path / "a")
    export_dataset(gen_world(SMALL, seed=5), tmp_path / "b")
    assert dataset_bytes(tmp_path / "a") == dataset_bytes(tmp_path / "b")
    export_dataset(gen_world(SMALL, seed=6), tmp_path / "c")
    assert dataset_bytes(tmp_path / "a") != dataset_bytes(tmp_path / "c")


# ---------------------------------------------------------------------------
# export / import


def same(a, b):
    return np.array_equal(a, b) and np.asarray(a).dtype == np.asarray(b).dtype


def assert_same_world(back, world):
    """Every array and setting of `world` is in `back`, with its dtype."""
    assert (back.config, back.seed) == (world.config, world.seed)
    for name in ("c2_to_c1", "c3_to_c2", "p_to_c3"):
        assert same(getattr(back.hierarchy, name), getattr(world.hierarchy, name)), name
    for name in ("events", "event_buckets"):
        got, want = getattr(back, name), getattr(world, name)
        assert len(got) == len(want) == len(world.panels), name
        for r, (a, b) in enumerate(zip(got, want)):
            assert same(a, b), (r, name)
    for name in ("panels", "phases", "home_c1", "base_rates",
                 "user_prefs", "user_aff_bucket", "user_click_bucket"):
        assert same(getattr(back, name), getattr(world, name)), name
    for name in ("room", "bucket", "fields", "labels", "weight"):
        assert same(getattr(back.samples, name), getattr(world.samples, name)), name
    assert (back.samples.tasks, back.samples.vocab) == (world.samples.tasks, world.samples.vocab)


def test_round_trip_preserves_world(tmp_path):
    # a non-default repeat_within_stay, which the imported config must carry
    worlds = [(dataclasses.replace(SMALL, repeat_within_stay=0.35), 8),
              (dataclasses.replace(SMALL, service="talent", buckets=600), 5),
              (dataclasses.replace(SMALL, n_samples=300), 3)]  # the tiny CLI world
    for k, (cfg, seed) in enumerate(worlds):
        world = gen_world(cfg, seed=seed)
        manifest = export_dataset(world, tmp_path / f"ds{k}")
        assert manifest["counts"]["streams"] == 10
        assert manifest["counts"]["samples"] == len(world.samples)
        back = import_dataset(tmp_path / f"ds{k}")
        assert_same_world(back, world)
        assert back.config.repeat_within_stay == cfg.repeat_within_stay
        # export -> import -> export writes the same bytes
        export_dataset(back, tmp_path / f"again{k}")
        assert dataset_bytes(tmp_path / f"again{k}") == dataset_bytes(tmp_path / f"ds{k}")


def test_sample_tables_hold_their_natural_widths(tmp_path):
    # generated, imported and loop-built tables narrow to the same widths and
    # values, while world.zip keeps every column as <i8
    world = gen_world(SMALL, seed=9)
    manifest = export_dataset(world, tmp_path / "ds")
    back = import_dataset(tmp_path / "ds")
    looped = looped_interactions(world, seed=[9, 0xC2])
    widths = {"room": np.int32, "bucket": np.int32, "fields": np.int32, "labels": np.int8}
    for name, width in widths.items():
        for table in (world.samples, back.samples, looped):
            assert getattr(table, name).dtype == width, name
        assert np.array_equal(getattr(back.samples, name), getattr(world.samples, name)), name
        assert np.array_equal(getattr(looped, name), getattr(world.samples, name)), name
        assert manifest["arrays"][f"sample_{name}"][0] == "<i8"


def test_a_value_too_wide_for_its_column_is_refused_not_wrapped():
    samples = gen_world(SMALL, seed=9).samples
    labels = samples.labels.astype(np.int64)
    labels[3, 1] = 257  # int8 would wrap it to 1
    with pytest.raises(LabelError, match="sample 3's cvr label 257 is not 0 or 1"):
        dataclasses.replace(samples, labels=labels)
    for name in ("room", "bucket"):
        wide = getattr(samples, name).astype(np.int64)
        wide[5] += 2**32  # int32 would wrap it back to itself
        with pytest.raises(DatasetError, match=f"sample column '{name}' holds {wide[5]}, "
                                               "which int32 cannot"):
            dataclasses.replace(samples, **{name: wide})


def test_same_seed_same_dataset_hash(tmp_path):
    m1 = export_dataset(gen_world(SMALL, seed=12), tmp_path / "a")
    m2 = export_dataset(gen_world(SMALL, seed=12), tmp_path / "b")
    assert m1["data_sha256"] == m2["data_sha256"]
    m3 = export_dataset(gen_world(SMALL, seed=13), tmp_path / "c")
    assert m3["data_sha256"] != m1["data_sha256"]


def rewrite(ds, edit):
    """Write ds/world.zip back with `edit` applied to its {name: array} dict, in
    member order. The manifest declares each array's new dtype and shape, and
    keeps the old hash."""
    with zipfile.ZipFile(ds / "world.zip") as zf:
        manifest = json.loads(zf.read("manifest.json"))
        arrays = {}
        for name in zf.namelist()[1:]:
            dtype, shape = manifest["arrays"][name]
            arrays[name] = np.frombuffer(zf.read(name), dtype=dtype).reshape(shape).copy()
    edit(arrays)
    manifest["arrays"] = {name: [a.dtype.str, list(a.shape)] for name, a in arrays.items()}
    write_archive(ds / "world.zip", manifest, [(name, a.tobytes()) for name, a in arrays.items()])


def damaged_dataset(tmp_path, edit):
    """The directory of a SMALL seed-9 dataset with `edit` applied to its
    arrays, and the pattern its ParseError starts with."""
    ds = tmp_path / "ds"
    export_dataset(gen_world(SMALL, seed=9), ds)
    rewrite(ds, edit)
    return ds, re.escape(f"{ds / 'world.zip'}: ")


def test_edited_files_trigger_integrity_warning(tmp_path):
    ds, _ = damaged_dataset(tmp_path, lambda a: a["sample_weight"].__setitem__(0, 2.0))
    with pytest.warns(UserWarning, match="manifest hash"):
        world = import_dataset(ds)
    assert len(world.panels) == 10 and world.samples.weight[0] == 2.0


def test_truncated_file_names_the_line(tmp_path):
    # a dataset has no lines any more: a cut archive names the file, and so
    # does one whose manifest is not an object
    export_dataset(gen_world(SMALL, seed=9), tmp_path / "ds")
    path = tmp_path / "ds" / "world.zip"
    path.write_bytes(path.read_bytes()[:-40])  # into the central directory
    with pytest.raises(ParseError, match=re.escape(f"{path} is not a readable dataset")):
        import_dataset(tmp_path / "ds")
    write_archive(path, [1], [])
    with pytest.raises(ParseError, match=re.escape(f"{path} has no dataset manifest")):
        import_dataset(tmp_path / "ds")


def test_damaged_zip_header_raises_parse_error(tmp_path):
    # stored -> method 2 in the manifest's central-directory entry: zipfile
    # raises NotImplementedError, which no CRC-32 check precedes
    export_dataset(gen_world(SMALL, seed=9), tmp_path / "ds")
    path = tmp_path / "ds" / "world.zip"
    data = bytearray(path.read_bytes())
    data[data.find(b"PK\x01\x02") + 10] ^= 0x02
    path.write_bytes(bytes(data))
    with pytest.raises(ParseError, match=re.escape(f"{path} is not a readable dataset: That "
                                                   "compression method is not supported")):
        import_dataset(tmp_path / "ds")


@pytest.mark.parametrize("samples", [600.0, "600", -1, None])
def test_manifest_counts_must_be_whole_numbers(tmp_path, samples):
    # a float count once reached numpy's reshape as a bare TypeError
    ds = tmp_path / "ds"
    manifest = export_dataset(gen_world(SMALL, seed=9), ds)
    with zipfile.ZipFile(ds / "world.zip") as zf:
        members = [(name, zf.read(name)) for name in zf.namelist()[1:]]
    manifest["counts"]["samples"] = samples
    write_archive(ds / "world.zip", manifest, members)
    with pytest.raises(ParseError, match="lack a whole number of events or samples"):
        import_dataset(ds)


def without(name):
    return lambda arrays: arrays.pop(name)


def without_likes(arrays):
    arrays["panels"] = np.delete(arrays["panels"], CHANNEL_NAMES.index("likes"), axis=1)


def without_cvr(arrays):
    arrays["sample_labels"] = arrays["sample_labels"][:, :1]


def declared(name, dtype, shape):
    """The pattern of a wrong-dtype-or-shape error, ending in the expected layout."""
    return re.escape(f"array {name} is [") + ".*" + re.escape(f", not ['{dtype}', {shape}]")


@pytest.mark.parametrize(
    "edit,message",
    [
        pytest.param(without("sample_bucket"), "no array sample_bucket", id="bucket-bucket"),
        pytest.param(without_cvr, declared("sample_labels", "<i8", "[600, 2]"),
                     id="cvr-labels.cvr"),
        pytest.param(without("panels"), "no array panels", id="panels-t0_bucket"),
        pytest.param(without_likes, declared("panels", "<i8", "[10, 8, 96]"),
                     id="panels-channels.likes"),
        pytest.param(without("events"), "no array events", id="products-events"),
        pytest.param(without("user_click_bucket"), "no array user_click_bucket",
                     id="users-click_bucket"),
        pytest.param(without("user_aff_bucket"), "no array user_aff_bucket", id="users-user_id"),
        pytest.param(without("home_c1"), "no array home_c1", id="latent-home_c1"),
    ],
)
def test_sample_row_without_a_key_names_the_line(tmp_path, edit, message):
    # a missing array, or a sample label column or panel channel too few
    ds, at = damaged_dataset(tmp_path, edit)
    with pytest.warns(UserWarning), pytest.raises(ParseError, match=at + message):
        import_dataset(ds)


def room_3_without_events(arrays):
    offsets = arrays["event_offsets"]
    offsets[3] = offsets[4]  # room 2 takes room 3's events


def room_3_without_latents(arrays):
    for name in ("phases", "home_c1", "base_rates"):
        arrays[name] = np.delete(arrays[name], 3, axis=0)


@pytest.mark.parametrize("name", ["products.jsonl", "latent.jsonl"])
def test_room_without_a_row_names_its_panel_line(tmp_path, name):
    # a room without events, or without its latent row
    edit, message = {
        "products.jsonl": (room_3_without_events,
                           re.escape("event_offsets[4] = ") + r"\d+ does not increase"),
        "latent.jsonl": (room_3_without_latents, declared("phases", "<i8", "[10, 96]")),
    }[name]
    ds, at = damaged_dataset(tmp_path, edit)
    with pytest.warns(UserWarning), pytest.raises(ParseError, match=at + message):
        import_dataset(ds)


@pytest.mark.parametrize("field,bad", [("user_id", SMALL.users), ("click_bucket", -1),
                                       ("item_c3", SMALL.n_c3),
                                       ("user_id", 2**32 + 3)])  # int32 would wrap it to 3
def test_sample_id_outside_its_vocabulary_names_the_line(tmp_path, field, bad):
    def edit(arrays):
        arrays["sample_fields"][4, FIELD_NAMES.index(field)] = bad

    ds, at = damaged_dataset(tmp_path, edit)
    with pytest.warns(UserWarning), pytest.raises(
        ParseError, match=at + re.escape(f"sample_fields[4]: {field} {bad} outside its vocabulary")
    ):
        import_dataset(ds)


@pytest.mark.parametrize("bad", [2, 257, -1])
def test_sample_label_outside_0_1_names_the_line(tmp_path, bad):
    # 257 would wrap to 1 in the table's int8 labels
    ds, at = damaged_dataset(tmp_path, set_value("sample_labels", (4, 1), bad))
    with pytest.warns(UserWarning), pytest.raises(
        ParseError, match=at + re.escape(f"sample_labels[4, 1] = {bad} outside [0, 2)")
    ):
        import_dataset(ds)


@pytest.mark.parametrize(
    "bad,expect",
    [
        pytest.param(SMALL.buckets + 40, "outside \\[32, 96\\)", id="past-the-stream"),
        pytest.param(500, "outside", id="past-every-stream"),
        pytest.param(SAMPLE_BUCKET_FLOOR - 1, "outside", id="below-the-floor"),
    ],
)
def test_sample_bucket_outside_its_stream_names_the_line(tmp_path, bad, expect):
    # a bucket past its stream would alias another room's foresight-bank key
    ds, at = damaged_dataset(tmp_path, lambda arrays: arrays["sample_bucket"].__setitem__(4, bad))
    with pytest.warns(UserWarning), pytest.raises(
        ParseError, match=at + re.escape(f"sample_bucket[4] = {bad} ") + expect
    ):
        import_dataset(ds)


# room 2 of the SMALL seed-9 dataset: its first event is events[ROOM_2], and the
# defects below sit at that row plus one
ROOM_2 = 32


def set_value(name, index, value):
    return lambda arrays: arrays[name].__setitem__(index, value)


def cut(name, index):
    def edit(arrays):
        arrays[name] = arrays[name][index]
    return edit


def swap_event_buckets(arrays):
    b = arrays["event_buckets"]
    b[ROOM_2 + 2], b[ROOM_2 + 3] = b[ROOM_2 + 3], b[ROOM_2 + 2]


def wrong_category(arrays):
    arrays["events"][ROOM_2 + 1, 3] = (arrays["events"][ROOM_2 + 1, 3] + 1) % SMALL.n_c3


def float_panels(arrays):
    # JSON Lines once truncated 2.7 to the count 2; a typed array cannot hold it as a count
    arrays["panels"] = arrays["panels"].astype("<f8")
    arrays["panels"][2, CHANNEL_NAMES.index("likes"), 0] = 2.7


def room_0_starts_after_a_sample(arrays):
    # room 0 holds a sample at bucket 32, sample_bucket[374]; its events move to
    # buckets 33 on, so none is on show at that sample
    end = arrays["event_offsets"][1]
    arrays["event_buckets"][:end] = 33 + np.arange(end)


def offsets_short_of_the_events(arrays):
    arrays["event_offsets"][-1] -= 1


RATES = "is not a finite, non-negative rate"


@pytest.mark.parametrize(
    "edit,message",
    [
        pytest.param(cut("panels", np.s_[:, :, :-1]), declared("panels", "<i8", "[10, 8, 96]"),
                     id="short-channel"),
        pytest.param(cut("events", np.s_[:, :3]), declared("events", "<i8", "[163, 4]"),
                     id="three-value-event"),
        pytest.param(swap_event_buckets, re.escape(f"event_buckets[{ROOM_2 + 3}] = ")
                     + r"\d+ does not increase within its room", id="swapped-event-buckets"),
        pytest.param(set_value("events", (ROOM_2 + 1, 0), 99999),
                     re.escape(f"events[{ROOM_2 + 1}, 0] = 99999 outside [0, {SMALL.n_products})"),
                     id="unknown-product"),
        pytest.param(wrong_category, re.escape(f"events[{ROOM_2 + 1}, 3] = ") + r"\d+ disagrees "
                     "with its product's place in the hierarchy", id="wrong-category"),
        pytest.param(set_value("panels", (2, CHANNEL_NAMES.index("orders"), 5), -1),
                     re.escape("panels[2, 3, 5] = -1 is a negative count"), id="negative-count"),
        pytest.param(cut("phases", np.s_[:, :11]), declared("phases", "<i8", "[10, 96]"),
                     id="short-phases"),
        pytest.param(set_value("phases", (2, 5), 7), re.escape("phases[2, 5] = 7 outside [0, 3)"),
                     id="unknown-phase"),
        pytest.param(cut("base_rates", np.s_[:, :-1]), declared("base_rates", "<f8", "[10, 8]"),
                     id="short-base-rates"),
        pytest.param(set_value("base_rates", (2, 1), -0.5),
                     re.escape(f"base_rates[2, 1] = -0.5 {RATES}"), id="negative-base-rate"),
        pytest.param(set_value("base_rates", (2, 0), np.nan),
                     re.escape(f"base_rates[2, 0] = nan {RATES}"), id="nan-base-rate"),
        pytest.param(set_value("home_c1", 2, SMALL.n_c1),
                     re.escape(f"home_c1[2] = {SMALL.n_c1} outside [0, {SMALL.n_c1})"),
                     id="home-c1-outside"),
        pytest.param(float_panels, re.escape("array panels is ['<f8', [10, 8, 96]]"),
                     id="float-panels"),
        pytest.param(offsets_short_of_the_events,
                     "event_offsets run from 0 to 162, so they do not tile the 163 events",
                     id="offsets-short-of-the-events"),
        pytest.param(set_value("event_buckets", ROOM_2 + 1, SMALL.buckets),
                     re.escape(f"event_buckets[{ROOM_2 + 1}] = 96 outside [0, 96)"),
                     id="event-bucket-past-the-stream"),
        pytest.param(cut("c3_to_c2", np.s_[:-1]), declared("c3_to_c2", "<i8", "[100]"),
                     id="short-hierarchy"),
        pytest.param(set_value("p_to_c3", 7, SMALL.n_c3),
                     re.escape(f"p_to_c3[7] = {SMALL.n_c3} outside [0, {SMALL.n_c3})"),
                     id="product-parent-outside"),
        pytest.param(set_value("sample_room", 4, SMALL.streams),
                     re.escape(f"sample_room[4] = 10 outside [0, {SMALL.streams})"),
                     id="sample-room-outside"),
        pytest.param(room_0_starts_after_a_sample,
                     re.escape("sample_bucket[374] = 32 comes before its room's first event"),
                     id="sample-before-its-rooms-first-event"),
    ],
)
def test_malformed_room_row_names_the_line(tmp_path, edit, message):
    # each of these, in its JSON Lines form, once imported silently or ended
    # in a bare numpy error
    ds, at = damaged_dataset(tmp_path, edit)
    with pytest.warns(UserWarning), pytest.raises(ParseError, match=at + message):
        import_dataset(ds)


def users_cut(arrays):
    for name in ("user_prefs", "user_aff_bucket", "user_click_bucket"):
        arrays[name] = arrays[name][:-1]


@pytest.mark.parametrize(
    "edit,message",
    [
        pytest.param(lambda arrays: arrays.update(user_prefs=arrays["user_prefs"].T.copy()),
                     re.escape(f"array user_prefs is ['<f8', [{SMALL.n_c1}, {SMALL.users}]]"),
                     id="reversed"),
        pytest.param(users_cut, declared("user_prefs", "<f8", f"[{SMALL.users}, {SMALL.n_c1}]"),
                     id="last-row-missing"),
    ],
)
def test_user_rows_must_be_every_user_in_id_order(tmp_path, edit, message):
    # a user's row index is its id, so the arrays must hold every user: one
    # short, or with its axes reversed, would put preferences on no user or
    # on the wrong one
    ds, at = damaged_dataset(tmp_path, edit)
    with pytest.warns(UserWarning), pytest.raises(ParseError, match=at + message):
        import_dataset(ds)


def test_flipped_or_truncated_dataset_fails_named_or_loads_the_same(tmp_path):
    # seeded single-bit flips and truncations of world.zip: each raises
    # ParseError naming the file, warns that the hash does not match, or (a
    # flip in a field the reader ignores) loads the same world
    world = gen_world(SMALL, seed=9)
    export_dataset(world, tmp_path / "ds")
    data = dataset_bytes(tmp_path / "ds")
    path = tmp_path / "damaged" / "world.zip"
    path.parent.mkdir()
    rng = np.random.default_rng(0)
    for case in range(400):
        bad = bytearray(data)
        if case % 4 == 3:
            del bad[int(rng.integers(len(data))) :]
        else:
            bad[int(rng.integers(len(data)))] ^= 1 << int(rng.integers(8))
        path.write_bytes(bytes(bad))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                back = import_dataset(path.parent)
            except ParseError as exc:
                assert str(path) in str(exc), exc
                continue
        if not any("manifest hash" in str(w.message) for w in caught):
            assert_same_world(back, world)


def test_sample_table_owns_its_vocabulary():
    samples = gen_world(SMALL, seed=9).samples
    assert samples.vocab == field_sizes(SMALL)
    assert dict(zip(FIELD_NAMES, samples.vocab))["click_bucket"] == CLICK_BUCKETS
    fields = samples.fields.copy()
    fields[7, FIELD_NAMES.index("author_id")] = SMALL.streams
    with pytest.raises(VocabularyError, match="author_id 10 outside its vocabulary of size 10"):
        dataclasses.replace(samples, fields=fields)


# ---------------------------------------------------------------------------
# the labels really do depend on the future


def test_future_features_beat_past_features(default_world):
    scores = probe_future_vs_past(default_world, seed=0)
    assert scores["future"] > scores["past"]
    assert scores["past"] > 0.5  # past is informative too, just less so
