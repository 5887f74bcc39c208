"""Generator checks: determinism, phase-conditional rates, category persistence,
label base rates, dataset round trips, and the future-vs-past signal probe."""

import dataclasses
import json
import re

import numpy as np
import pytest

from livesight.config import SAMPLE_BUCKET_FLOOR, SERVICES, SimConfig
from livesight.errors import ConfigurationError, DatasetError, ParseError, VocabularyError
from livesight.prodfore import CategoryHierarchy
from livesight.simgen import (
    CHANNELS,
    CHANNEL_NAMES,
    CLICK_BUCKETS,
    FIELD_NAMES,
    FILES,
    GRAB,
    HIGHLIGHT,
    STEADY,
    AuthorStyle,
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
    probe_future_vs_past,
)

SMALL = SimConfig(streams=10, users=50, n_samples=600)


def make_author(author_id=0, home_c1=1, **kw):
    base = dict(
        stay_level2=0.6,
        move_level1=0.3,
        jump=0.1,
        base_rates=np.array([c[2] for c in CHANNELS]),
    )
    base.update(kw)
    return AuthorStyle(author_id=author_id, home_c1=home_c1, **base)


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
    a = gen_stream(make_author(), hierarchy, 96, seed=4)
    b = gen_stream(make_author(), hierarchy, 96, seed=4)
    assert a.panel.values.tobytes() == b.panel.values.tobytes()
    assert a.events.tobytes() == b.events.tobytes()
    assert a.event_buckets.tobytes() == b.event_buckets.tobytes()
    assert a.phases.tobytes() == b.phases.tobytes()


def test_stream_too_short(hierarchy):
    with pytest.raises(ConfigurationError):
        gen_stream(make_author(), hierarchy, 47, seed=0)


def test_style_probabilities_must_sum_to_one():
    with pytest.raises(ConfigurationError):
        make_author(stay_level2=0.6, move_level1=0.3, jump=0.2)


def test_highlight_lifts_audience_enter(hierarchy):
    # rate ratio 4 in highlight; pooling 10 streams is plenty of buckets
    enter = CHANNEL_NAMES.index("audience_enter")
    hi, st = [], []
    for i in range(10):
        s = gen_stream(make_author(author_id=i), hierarchy, 96, seed=[9, i])
        hi.extend(s.panel.values[enter, s.phases == HIGHLIGHT])
        st.extend(s.panel.values[enter, s.phases == STEADY])
    assert np.mean(hi) > np.mean(st)


def test_grab_lifts_product_clicks(hierarchy):
    clicks = CHANNEL_NAMES.index("product_clicks")
    hi, st = [], []
    for i in range(10):
        s = gen_stream(make_author(author_id=i), hierarchy, 96, seed=[10, i])
        hi.extend(s.panel.values[clicks, s.phases == GRAB])
        st.extend(s.panel.values[clicks, s.phases == STEADY])
    assert np.mean(hi) > np.mean(st)


def test_level2_persistence_near_configured(hierarchy):
    # one long stream gives >1000 consecutive pairs
    s = gen_stream(make_author(), hierarchy, 7000, seed=21)
    c2 = s.events[:, 2]
    assert len(c2) > 1000
    share = np.mean(c2[1:] == c2[:-1])
    assert abs(share - 0.6) < 0.05


def test_event_gaps_within_configured_range(hierarchy):
    s = gen_stream(make_author(), hierarchy, 400, seed=3)
    gaps = np.diff(s.event_buckets)
    assert gaps.min() >= 4 and gaps.max() <= 8
    assert s.event_buckets[0] == 0


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


def test_events_consistent_with_hierarchy(hierarchy):
    s = gen_stream(make_author(home_c1=3), hierarchy, 200, seed=6)
    p, c1, c2, c3 = s.events.T
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
    authors = [w.streams[r].author for r in s.room[:500]]
    assert col["author_id"].tolist() == [a.author_id for a in authors]
    assert col["room_category"].tolist() == [a.home_c1 for a in authors]


def test_empty_streams_rejected(default_world):
    with pytest.raises(DatasetError):
        gen_interactions([], default_world, seed=0)


def looped_interactions(streams, world, seed, bucket_lo=SAMPLE_BUCKET_FLOOR, lookahead=5):
    """The per-sample loop `gen_interactions` ran before its labels became array code."""
    cfg = world.config
    rng = np.random.default_rng(seed)
    prefs = world.user_prefs
    coeffs = _task_coeffs(cfg)
    drawn = []
    for _ in range(cfg.n_samples):
        r = int(rng.integers(len(streams)))
        u = int(rng.integers(cfg.users))
        st = streams[r]
        t_total = st.phases.shape[0]
        hi = min(t_total - lookahead - 1, int(st.event_buckets[-3]) - 1)
        if hi < bucket_lo:
            continue
        t = int(rng.integers(bucket_lo, hi + 1))
        cur = int(np.searchsorted(st.event_buckets, t, side="right")) - 1
        nxt = st.events[cur + 1 : cur + 4]
        uniform = 1.0 / cfg.n_c1
        aff_next = prefs[u, nxt[0, 1]] - uniform
        aff_future = float(prefs[u, nxt[:, 1]].mean()) - uniform
        grab_soon = bool((st.phases[t + 1 : t + 1 + lookahead] == GRAB).any())
        click_logit = (
            cfg.click_affinity_coeff * aff_next
            + cfg.click_highlight_coeff * float(st.phases[t] == HIGHLIGHT)
            + cfg.click_bias
        )
        labels = [int(rng.random() < _sigmoid(click_logit))]
        for a2, b2, c2 in coeffs.values():
            logit = a2 * aff_future + b2 * float(grab_soon) + c2
            labels.append(int(rng.random() < _sigmoid(logit)))
        drawn.append((r, t, u, int(st.events[cur, 3]), *labels))
    cols = np.asarray(drawn, dtype=np.int64)
    room, bucket, user, item = cols[:, :4].T
    author = np.asarray([st.author.author_id for st in streams], dtype=np.int64)[room]
    home = np.asarray([st.author.home_c1 for st in streams], dtype=np.int64)[room]
    aff = world.user_aff_bucket[user]
    fields = np.stack(
        [user, aff, author, home, item, (aff == home).astype(np.int64),
         world.user_click_bucket[user]],
        axis=1,
    )
    return SampleTable(room=room, bucket=bucket, fields=fields, labels=cols[:, 4:],
                       weight=np.ones(len(cols)), tasks=("ctr", *coeffs),
                       vocab=field_sizes(cfg))


def short_streams(world):
    """The world's streams with every other one cut to four events, too few to sample."""
    return [dataclasses.replace(st, events=st.events[:4], event_buckets=st.event_buckets[:4])
            if i % 2 else st for i, st in enumerate(world.streams)]


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
    streams = short_streams(world) if cut else world.streams
    got = gen_interactions(streams, world, seed=[seed, 0xC2])
    want = looped_interactions(streams, world, seed=[seed, 0xC2])
    for name in ("room", "bucket", "fields", "labels", "weight"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert (got.tasks, got.vocab) == (want.tasks, want.vocab)
    if cut:  # the cut streams were drawn, and skipped
        assert 0 < len(got) < cfg.n_samples
        assert not np.any(got.room % 2)


def test_streams_with_under_three_events_are_never_sampled():
    # 24-bucket gaps leave two product events in a 48-bucket stream
    cfg = SimConfig(streams=4, users=50, n_samples=50, buckets=48, event_gap_min=24,
                    event_gap_max=24)
    with pytest.raises(DatasetError, match="streams too short"):
        gen_world(cfg, seed=0)


def dataset_bytes(path):
    return {name: (path / name).read_bytes() for name in (*FILES, "hierarchy.json", "manifest.json")}


def test_world_determinism(tmp_path):
    export_dataset(gen_world(SMALL, seed=5), tmp_path / "a")
    export_dataset(gen_world(SMALL, seed=5), tmp_path / "b")
    assert dataset_bytes(tmp_path / "a") == dataset_bytes(tmp_path / "b")
    export_dataset(gen_world(SMALL, seed=6), tmp_path / "c")
    assert dataset_bytes(tmp_path / "a") != dataset_bytes(tmp_path / "c")


# ---------------------------------------------------------------------------
# export / import


def test_round_trip_preserves_world(tmp_path):
    world = gen_world(SMALL, seed=8)
    manifest = export_dataset(world, tmp_path / "ds")
    assert manifest["counts"]["streams"] == 10
    assert manifest["counts"]["samples"] == len(world.samples)
    back = import_dataset(tmp_path / "ds")
    # export -> import -> export writes the same bytes
    export_dataset(back, tmp_path / "again")
    assert dataset_bytes(tmp_path / "again") == dataset_bytes(tmp_path / "ds")
    assert back.config.n_c3 == world.config.n_c3
    for name in ("room", "bucket", "fields", "labels", "weight"):
        assert np.array_equal(getattr(back.samples, name), getattr(world.samples, name)), name
    assert back.samples.tasks == world.samples.tasks


def test_same_seed_same_dataset_hash(tmp_path):
    m1 = export_dataset(gen_world(SMALL, seed=12), tmp_path / "a")
    m2 = export_dataset(gen_world(SMALL, seed=12), tmp_path / "b")
    assert m1["data_sha256"] == m2["data_sha256"]
    m3 = export_dataset(gen_world(SMALL, seed=13), tmp_path / "c")
    assert m3["data_sha256"] != m1["data_sha256"]


def test_edited_files_trigger_integrity_warning(tmp_path):
    export_dataset(gen_world(SMALL, seed=9), tmp_path / "ds")
    with open(tmp_path / "ds" / "users.jsonl", "a") as fh:
        fh.write("\n")  # blank line still parses but changes the digest
    with pytest.warns(UserWarning, match="manifest hash"):
        world = import_dataset(tmp_path / "ds")
    assert len(world.streams) == 10


def test_truncated_file_names_the_line(tmp_path):
    export_dataset(gen_world(SMALL, seed=9), tmp_path / "ds")
    path = tmp_path / "ds" / "panels.jsonl"
    text = path.read_text().rstrip("\n")
    path.write_text(text[:-40])  # chop the tail of the last record
    # truncation also breaks the digest, so the integrity warning fires first
    with pytest.warns(UserWarning), pytest.raises(ParseError, match="panels.jsonl:10") as err:
        import_dataset(tmp_path / "ds")
    assert err.value.line == 10


def rewrite_row(path, index, edit):
    lines = path.read_text().splitlines()
    row = json.loads(lines[index])
    edit(row)
    lines[index] = json.dumps(row)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "name,drop,missing",
    [
        pytest.param("samples.jsonl", "bucket", "bucket", id="bucket-bucket"),
        pytest.param("samples.jsonl", "cvr", "labels.cvr", id="cvr-labels.cvr"),
        pytest.param("panels.jsonl", "t0_bucket", "t0_bucket", id="panels-t0_bucket"),
        pytest.param("panels.jsonl", "likes", "channels.likes", id="panels-channels.likes"),
        pytest.param("products.jsonl", "events", "events", id="products-events"),
        pytest.param("users.jsonl", "click_bucket", "click_bucket", id="users-click_bucket"),
        pytest.param("users.jsonl", "user_id", "user_id", id="users-user_id"),
        pytest.param("latent.jsonl", "home_c1", "home_c1", id="latent-home_c1"),
    ],
)
def test_sample_row_without_a_key_names_the_line(tmp_path, name, drop, missing):
    export_dataset(gen_world(SMALL, seed=9), tmp_path / "ds")

    def edit(row):
        for record in (row, row.get("labels", {}), row.get("channels", {})):
            record.pop(drop, None)

    rewrite_row(tmp_path / "ds" / name, 2, edit)
    with pytest.warns(UserWarning), pytest.raises(ParseError, match=f"{name}:3: .*{missing}") as err:
        import_dataset(tmp_path / "ds")
    assert err.value.line == 3


@pytest.mark.parametrize("name", ["products.jsonl", "latent.jsonl"])
def test_room_without_a_row_names_its_panel_line(tmp_path, name):
    export_dataset(gen_world(SMALL, seed=9), tmp_path / "ds")
    path = tmp_path / "ds" / name
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:3] + lines[4:]) + "\n")
    with pytest.warns(UserWarning), pytest.raises(
        ParseError, match=f"panels.jsonl:4: room 'room0003' has no row in {name}"
    ):
        import_dataset(tmp_path / "ds")


@pytest.mark.parametrize("field,bad", [("user_id", SMALL.users), ("click_bucket", -1),
                                       ("item_c3", SMALL.n_c3)])
def test_sample_id_outside_its_vocabulary_names_the_line(tmp_path, field, bad):
    export_dataset(gen_world(SMALL, seed=9), tmp_path / "ds")
    rewrite_row(tmp_path / "ds" / "samples.jsonl", 4, lambda row: row.update({field: bad}))
    with pytest.warns(UserWarning), pytest.raises(
        ParseError, match=f"samples.jsonl:5: sample {field} {bad} outside its vocabulary"
    ) as err:
        import_dataset(tmp_path / "ds")
    assert err.value.line == 5


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
    export_dataset(gen_world(SMALL, seed=9), tmp_path / "ds")
    rewrite_row(tmp_path / "ds" / "samples.jsonl", 4, lambda row: row.update({"bucket": bad}))
    with pytest.warns(UserWarning), pytest.raises(
        ParseError, match=f"samples.jsonl:5: sample bucket {bad} {expect}"
    ) as err:
        import_dataset(tmp_path / "ds")
    assert err.value.line == 5


def shorten_likes(row):
    row["channels"]["likes"].pop()


def short_event(row):
    row["events"][3].pop()


def swap_event_buckets(row):
    b = row["event_buckets"]
    b[2], b[3] = b[3], b[2]


def unknown_product(row):
    row["events"][1][0] = 99999


def wrong_category(row):
    row["events"][1][3] = (row["events"][1][3] + 1) % SMALL.n_c3


def negative_count(row):
    row["channels"]["orders"][5] = -1


def cut_phases(row):
    row["phases"] = row["phases"][:11]


def unknown_phase(row):
    row["phases"][5] = 7


def short_base_rates(row):
    row["base_rates"].pop()


def negative_base_rate(row):
    row["base_rates"][1] = -0.5


def nan_base_rate(row):
    row["base_rates"][0] = float("nan")


def home_past_the_vocabulary(row):
    row["home_c1"] = SMALL.n_c1


PHASES = re.escape(f"phases must hold {SMALL.buckets} values in {{0, 1, 2}}")
RATES = f"base_rates must hold {len(CHANNEL_NAMES)} finite, non-negative rates"


@pytest.mark.parametrize(
    "name,edit,message",
    [
        pytest.param("panels.jsonl", shorten_likes,
                     f"channel likes must hold {SMALL.buckets} non-negative counts",
                     id="short-channel"),
        pytest.param("products.jsonl", short_event, "events is not a rectangular integer array",
                     id="three-value-event"),
        pytest.param("products.jsonl", swap_event_buckets,
                     f"event_buckets must be .* strictly increasing buckets in \\[0, {SMALL.buckets}\\)",
                     id="swapped-event-buckets"),
        pytest.param("products.jsonl", unknown_product,
                     f"event 1: product 99999 outside \\[0, {SMALL.n_products}\\)",
                     id="unknown-product"),
        pytest.param("products.jsonl", wrong_category, "event 1 .* disagrees with the hierarchy",
                     id="wrong-category"),
        pytest.param("panels.jsonl", negative_count,
                     f"channel orders must hold {SMALL.buckets} non-negative counts",
                     id="negative-count"),
        pytest.param("latent.jsonl", cut_phases, PHASES, id="short-phases"),
        pytest.param("latent.jsonl", unknown_phase, PHASES, id="unknown-phase"),
        pytest.param("latent.jsonl", short_base_rates, RATES, id="short-base-rates"),
        pytest.param("latent.jsonl", negative_base_rate, RATES, id="negative-base-rate"),
        pytest.param("latent.jsonl", nan_base_rate, RATES, id="nan-base-rate"),
        pytest.param("latent.jsonl", home_past_the_vocabulary,
                     f"home_c1 {SMALL.n_c1} outside \\[0, {SMALL.n_c1}\\)", id="home-c1-outside"),
    ],
)
def test_malformed_room_row_names_the_line(tmp_path, name, edit, message):
    # each of these once imported silently or ended in a bare numpy error
    export_dataset(gen_world(SMALL, seed=9), tmp_path / "ds")
    rewrite_row(tmp_path / "ds" / name, 2, edit)
    with pytest.warns(UserWarning), pytest.raises(ParseError, match=f"{name}:3: {message}") as err:
        import_dataset(tmp_path / "ds")
    assert err.value.line == 3


@pytest.mark.parametrize(
    "edit,message",
    [
        pytest.param(lambda rows: rows[::-1],
                     f"users.jsonl:1: user_id {SMALL.users - 1} out of order: expected 0",
                     id="reversed"),
        pytest.param(lambda rows: rows[:-1],
                     f"users.jsonl: {SMALL.users - 1} user rows, but the config has "
                     f"{SMALL.users} users", id="last-row-missing"),
    ],
)
def test_user_rows_must_be_every_user_in_id_order(tmp_path, edit, message):
    # rows are matched to users by user_id: reordered or missing rows would
    # put preferences on the wrong user, or on none
    export_dataset(gen_world(SMALL, seed=9), tmp_path / "ds")
    path = tmp_path / "ds" / "users.jsonl"
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.warns(UserWarning), pytest.raises(ParseError, match=message):
        import_dataset(tmp_path / "ds")


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
