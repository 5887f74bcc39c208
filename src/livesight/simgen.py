"""Synthetic live-streaming world.

Each stream is an author with a home category neighborhood and a hidden
per-bucket phase (steady / highlight / grab) driving Poisson behavior counts.
A world holds room r, whose author is author r, as row r of each room array.
Product switches walk the category tree with configurable persistence, and
interaction labels deliberately depend on what happens NEXT (upcoming
categories, an imminent grab phase), so features that see the future carry
signal that past-only features cannot.
"""

from __future__ import annotations

import bisect
import hashlib
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import checkpoint
from .config import SAMPLE_BUCKET_FLOOR, SERVICES, SimConfig, from_dict, to_dict
from .errors import DatasetError, DimensionError, LabelError, ParseError, VocabularyError
from .layers import check_ids
from .metrics import auc
from .prodfore import CategoryHierarchy

PHASES = ("steady", "highlight", "grab")
STEADY, HIGHLIGHT, GRAB = 0, 1, 2

# name, group, base rate, multiplier in highlight, multiplier in grab
CHANNELS = (
    ("exposure", "out-room", 40.0, 1.5, 1.0),
    ("audience_enter", "out-room", 10.0, 4.0, 1.2),
    ("gmv", "convert", 30.0, 1.0, 4.0),
    ("orders", "convert", 2.0, 1.0, 4.0),
    ("gift_value", "convert", 3.0, 2.0, 4.0),
    ("comments", "interaction", 6.0, 2.5, 1.0),
    ("likes", "interaction", 20.0, 3.0, 1.0),
    ("product_clicks", "in-room", 5.0, 1.2, 5.0),
)

CHANNEL_NAMES = tuple(c[0] for c in CHANNELS)
CHANNEL_GROUPS = tuple(c[1] for c in CHANNELS)

# multipliers[phase, channel]
PHASE_MULTIPLIERS = np.array(
    [[1.0] * len(CHANNELS), [c[3] for c in CHANNELS], [c[4] for c in CHANNELS]]
)


# the ranker's id fields, in the column order of SampleTable.fields
FIELD_NAMES = (
    "user_id",
    "aff_bucket",
    "author_id",
    "room_category",
    "item_c3",
    "cross_match",
    "click_bucket",
)

# users fall into this many click-propensity buckets
CLICK_BUCKETS = 4

# the widths a SampleTable holds its integer columns at: ids, rooms and
# buckets fit int32, and labels are 0/1 (world.zip stores them all as <i8)
WIDTHS = {"room": np.int32, "bucket": np.int32, "fields": np.int32, "labels": np.int8}


def field_sizes(sim):
    """Each id field's vocabulary size in a world built from `sim`, in FIELD_NAMES order."""
    return (sim.users, sim.n_c1, sim.streams, sim.n_c1, sim.n_c3, 2, CLICK_BUCKETS)


def _narrow(name, values, dtype):
    """`values` as `dtype` (the same array if it is already), or DatasetError
    if a value does not fit, which a cast would wrap."""
    if values.dtype != dtype and values.size:
        info = np.iinfo(dtype)
        lo, hi = values.min(), values.max()
        if lo < info.min or hi > info.max:
            raise DatasetError(f"sample column {name!r} holds {lo if lo < info.min else hi}, "
                               f"which {np.dtype(dtype)} cannot")
    return values.astype(dtype, copy=False)


@dataclass(frozen=True)
class SampleTable:
    """Labeled exposures as aligned columns, one row per sample, each integer
    column at its width in WIDTHS."""

    room: np.ndarray  # (S,) index into the world's rooms
    bucket: np.ndarray  # (S,) time bucket of the exposure
    fields: np.ndarray  # (S, len(FIELD_NAMES)) ids, in FIELD_NAMES order
    labels: np.ndarray  # (S, len(tasks)) 0/1 labels
    weight: np.ndarray  # (S,) sample weights
    tasks: tuple  # the label columns' task names, in the service's order
    vocab: tuple  # each field's vocabulary size, in FIELD_NAMES order

    def __post_init__(self):
        n = len(self.room)
        shapes = {"bucket": (n,), "fields": (n, len(FIELD_NAMES)),
                  "labels": (n, len(self.tasks)), "weight": (n,)}
        for name, shape in shapes.items():
            if getattr(self, name).shape != shape:
                raise DimensionError(
                    f"sample column {name!r} has shape {getattr(self, name).shape}, not {shape}"
                )
        check_ids(self.fields, self.vocab, FIELD_NAMES)
        bad = np.argwhere((self.labels != 0) & (self.labels != 1))
        if len(bad):
            row, k = bad[0]
            raise LabelError(f"sample {row}'s {self.tasks[k]} label {self.labels[row, k]} "
                             "is not 0 or 1")
        # narrowed only once checked: a value that does not fit raises, never wraps
        for name, dtype in WIDTHS.items():
            object.__setattr__(self, name, _narrow(name, getattr(self, name), dtype))

    def __len__(self):
        return len(self.room)


@dataclass
class World:
    config: SimConfig
    seed: int
    hierarchy: CategoryHierarchy
    panels: np.ndarray  # (R, N, T) float64 behavior counts
    phases: np.ndarray  # (R, T) int in {0, 1, 2}
    home_c1: np.ndarray  # (R,) each author's home level-1 category
    base_rates: np.ndarray  # (R, N) each author's per-channel Poisson base rates
    events: list  # per room, (L, 4) int: product, c1, c2, c3
    event_buckets: list  # per room, (L,) int, strictly increasing
    user_prefs: np.ndarray  # (U, n_c1) Dirichlet rows
    user_aff_bucket: np.ndarray
    user_click_bucket: np.ndarray
    samples: SampleTable = None


def _sample_phases(rng, matrix, t_total):
    """The hidden phase path, a Markov chain from STEADY over `matrix`'s rows.

    Each step takes one double, as `rng.choice(3, p=row)` does, and bisects
    the row's normalized cumulative sum the same way, so the path and the RNG
    state after it are choice's; the doubles are drawn in one call.
    """
    cdfs = []
    for row in matrix:
        cdf = np.cumsum(row, dtype=np.float64)
        cdfs.append((cdf / cdf[-1]).tolist())
    path, state = [], STEADY
    for u in rng.random(t_total).tolist():
        path.append(state)
        state = bisect.bisect_right(cdfs[state], u)
    return np.asarray(path, dtype=np.int64)


def _next_category(rng, c3, home_c1, hierarchy, cfg):
    u = rng.random()
    if u < cfg.stay_level2:
        # stay in the level-2 neighborhood: mostly step to the next sibling
        # (a learnable rule), sometimes re-feature the same product category
        if rng.random() < cfg.repeat_within_stay:
            return c3
        sibs = hierarchy.c3_children_of_c2(int(hierarchy.c3_to_c2[c3]))
        pos = int(np.searchsorted(sibs, c3))
        return int(sibs[(pos + 1) % len(sibs)])
    if u < cfg.stay_level2 + cfg.move_level1:
        # moving within the home level-1 must leave the current level-2,
        # or measured persistence would overshoot the configured 0.6
        home = hierarchy.c3_children_of_c1(home_c1)
        away = home[hierarchy.c3_to_c2[home] != hierarchy.c3_to_c2[c3]]
        pool = away if len(away) else home
        return int(pool[rng.integers(len(pool))])
    return int(rng.integers(hierarchy.n_c3))


def gen_stream(home_c1, base_rates, hierarchy, cfg, seed):
    """One room of `cfg.buckets` buckets, as (phases (T,), counts (N, T),
    events (L, 4), event_buckets (L,)): its phase path, Poisson count panel
    and product-switch walk."""
    rng = np.random.default_rng(seed)
    phases = _sample_phases(rng, cfg.phase_matrix, cfg.buckets)
    rates = base_rates[None, :] * PHASE_MULTIPLIERS[phases]  # (T, N)
    counts = rng.poisson(rates).T.astype(np.int64)  # (N, T)

    home = hierarchy.c3_children_of_c1(home_c1)
    c3 = int(home[rng.integers(len(home))])
    events, buckets = [], []
    bucket = 0
    while bucket < cfg.buckets:
        prods = np.flatnonzero(hierarchy.p_to_c3 == c3)
        p = int(prods[rng.integers(len(prods))])
        c2 = int(hierarchy.c3_to_c2[c3])
        events.append((p, int(hierarchy.c2_to_c1[c2]), c2, c3))
        buckets.append(bucket)
        bucket += int(rng.integers(cfg.event_gap_min, cfg.event_gap_max + 1))
        c3 = _next_category(rng, c3, home_c1, hierarchy, cfg)
    return phases, counts, np.asarray(events, dtype=np.int64), np.asarray(buckets, dtype=np.int64)


def _make_author(rng, cfg):
    """An author's (home level-1 category, per-channel base rates)."""
    home_c1 = int(rng.integers(cfg.n_c1))
    return home_c1, np.array([c[2] for c in CHANNELS]) * rng.uniform(0.7, 1.3, len(CHANNELS))


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=np.float64)))


def _task_coeffs(cfg):
    a, b, c = cfg.future_affinity_coeff, cfg.future_grab_coeff, cfg.future_bias
    per_task = {
        "cvr": (a, b, c),
        "lvtr": (a, 0.8 * b, c + 0.4),
        "evtr": (0.8 * a, 0.6 * b, c + 0.6),
        "cmtr": (0.6 * a, 0.5 * b, c + 0.7),
        "gtr": (0.7 * a, 1.2 * b, c + 0.2),
    }
    return {t: per_task[t] for t in SERVICES[cfg.service] if t != "ctr"}


# the labels read this many buckets past a sample's own
LOOKAHEAD = 5


def on_show(world, room, bucket):
    """Index, within `world.events[r]`, of each sample's latest product event
    at or before its bucket (the product on show), or -1 before the first:
    one search over the keys room * buckets + event bucket of every room."""
    span = world.config.buckets
    keys = [r * span + b for r, b in enumerate(world.event_buckets)]
    first = np.cumsum([0] + [len(k) for k in keys])[room]
    return np.searchsorted(np.concatenate(keys), room * span + bucket, side="right") - 1 - first


def _upcoming(world, room, bucket):
    """Every room's events concatenated, and the row in them of each sample's
    event on show; DatasetError where a gather would leave the sample's room."""
    cur, sizes = on_show(world, room, bucket), np.array([len(e) for e in world.events])
    short = (cur < 0) | (cur + 3 >= sizes[room]) | (bucket + LOOKAHEAD >= world.phases.shape[1])
    if short.any():
        i = int(np.argmax(short))
        raise DatasetError(f"sample {i} (room {room[i]}, bucket {bucket[i]}) needs an event on "
                           f"show, 3 later events and {LOOKAHEAD} later buckets")
    return np.concatenate(world.events), (np.cumsum(sizes) - sizes)[room] + cur


def label_logits(world, room, user, bucket):
    """The (S, n_tasks) label logits in the service's task order. Click reads
    the highlight flag now and the user's preference for the NEXT product's
    level-1 category, in excess of the uniform 1/|C1| (raw preferences would
    pin the click rate above 15%); the other tasks read that excess over the
    next 3 products and whether a grab phase starts within LOOKAHEAD buckets."""
    cfg, prefs, phases = world.config, world.user_prefs, world.phases
    events, rows = _upcoming(world, room, bucket)
    nxt_c1 = events[rows[:, None] + np.arange(1, 4), 1]
    uniform = 1.0 / cfg.n_c1
    # np.add.reduce / 3 is the float that a three-value .mean() gives
    aff_future = np.add.reduce(prefs[user[:, None], nxt_c1], axis=1) / 3 - uniform
    later = phases[room[:, None], bucket[:, None] + np.arange(1, LOOKAHEAD + 1)]
    grab_soon = (later == GRAB).any(axis=1).astype(np.float64)
    logits = [cfg.click_affinity_coeff * (prefs[user, nxt_c1[:, 0]] - uniform)
              + cfg.click_highlight_coeff * (phases[room, bucket] == HIGHLIGHT).astype(np.float64)
              + cfg.click_bias]
    logits += [a * aff_future + b * grab_soon + c for a, b, c in _task_coeffs(cfg).values()]
    return np.stack(logits, axis=1)


def gen_interactions(world, seed):
    """Exposures as a SampleTable whose `room` column indexes the world's
    rooms (a sample's author is its room), each label drawn from its
    `label_logits`, so that its ground truth peeks at the future."""
    rooms = len(world.panels)
    if not rooms:
        raise DatasetError("no streams to sample exposures from")
    cfg = world.config
    rng = np.random.default_rng(seed)
    tasks = SERVICES[cfg.service]
    # the last bucket a stream can be sampled at: future labels need 3
    # upcoming events and LOOKAHEAD more buckets
    last = [min(world.phases.shape[1] - LOOKAHEAD - 1, int(b[-3]) - 1)
            if len(b) >= 3 else SAMPLE_BUCKET_FLOOR - 1 for b in world.event_buckets]
    # only the RNG draws are made per exposure; everything else follows from
    # them as array ops, in the order the draws were made
    room = np.empty(cfg.n_samples, dtype=WIDTHS["room"])
    user = np.empty(cfg.n_samples, dtype=WIDTHS["fields"])
    bucket = np.empty(cfg.n_samples, dtype=WIDTHS["bucket"])
    draws = np.empty((cfg.n_samples, len(tasks)))  # one uniform per label
    kept = 0
    for _ in range(cfg.n_samples):
        r = int(rng.integers(rooms))
        u = int(rng.integers(cfg.users))
        if last[r] < SAMPLE_BUCKET_FLOOR:
            continue
        room[kept], user[kept] = r, u
        bucket[kept] = rng.integers(SAMPLE_BUCKET_FLOOR, last[r] + 1)
        draws[kept] = rng.random(draws.shape[1])
        kept += 1
    if not kept:
        raise DatasetError("no valid exposure buckets; streams too short")
    room, user, bucket, draws = room[:kept], user[:kept], bucket[:kept], draws[:kept]

    labels = draws < _sigmoid(label_logits(world, room, user, bucket))
    # the user- and room-derived ids are gathers, filled after the draws
    # column by column, so no wider copy of the table is built
    events, rows = _upcoming(world, room, bucket)
    fields = np.empty((kept, len(FIELD_NAMES)), dtype=WIDTHS["fields"])
    fields[:, 0], fields[:, 2] = user, room
    fields[:, 1], fields[:, 3] = world.user_aff_bucket[user], world.home_c1[room]
    fields[:, 4] = events[rows, 3]
    fields[:, 5] = fields[:, 1] == fields[:, 3]
    fields[:, 6] = world.user_click_bucket[user]
    return SampleTable(room=room, bucket=bucket, fields=fields,
                       labels=labels.view(WIDTHS["labels"]),  # 0/1 bytes, uncopied
                       weight=np.ones(kept), tasks=tasks, vocab=field_sizes(cfg))


def gen_world(config, seed):
    """Full synthetic dataset: streams, users, and labeled exposures."""
    hierarchy = CategoryHierarchy.balanced(
        config.n_c1, config.n_c2, config.n_c3, config.n_products
    )
    r, n, t = config.streams, len(CHANNELS), config.buckets
    home_c1, base_rates = np.empty(r, dtype=np.int64), np.empty((r, n))
    panels, phases = np.empty((r, n, t)), np.empty((r, t), dtype=np.int64)
    events, event_buckets = [None] * r, [None] * r
    author_rng = np.random.default_rng([seed, 0xA0])
    for i in range(r):
        home_c1[i], base_rates[i] = _make_author(author_rng, config)
        phases[i], panels[i], events[i], event_buckets[i] = gen_stream(
            int(home_c1[i]), base_rates[i], hierarchy, config, seed=[seed, 0x57, i]
        )
    user_rng = np.random.default_rng([seed, 0xB1])
    prefs = user_rng.dirichlet(np.full(config.n_c1, config.dirichlet_alpha), size=config.users)
    world = World(
        config=config, seed=seed, hierarchy=hierarchy, panels=panels, phases=phases,
        home_c1=home_c1, base_rates=base_rates, events=events, event_buckets=event_buckets,
        user_prefs=prefs, user_aff_bucket=prefs.argmax(axis=1).astype(np.int64),
        user_click_bucket=user_rng.integers(CLICK_BUCKETS, size=config.users),
    )
    world.samples = gen_interactions(world, seed=[seed, 0xC2])
    return world


# ---------------------------------------------------------------------------
# serialization


def _layout(cfg, counts):
    """{name: [dtype, shape]} of each array of a dataset, in member order; the
    shapes follow from the config and the manifest's event and sample counts."""
    rooms, users, samples, events = cfg.streams, cfg.users, counts["samples"], counts["events"]
    i8, f8 = "<i8", "<f8"
    return {
        "c2_to_c1": [i8, [cfg.n_c2]],
        "c3_to_c2": [i8, [cfg.n_c3]],
        "p_to_c3": [i8, [cfg.n_products]],
        "panels": [i8, [rooms, len(CHANNELS), cfg.buckets]],
        "phases": [i8, [rooms, cfg.buckets]],
        "home_c1": [i8, [rooms]],
        "base_rates": [f8, [rooms, len(CHANNELS)]],
        "events": [i8, [events, 4]],
        "event_buckets": [i8, [events]],
        "event_offsets": [i8, [rooms + 1]],  # room r's events are events[offsets[r]:offsets[r + 1]]
        "user_prefs": [f8, [users, cfg.n_c1]],
        "user_aff_bucket": [i8, [users]],
        "user_click_bucket": [i8, [users]],
        "sample_room": [i8, [samples]],
        "sample_bucket": [i8, [samples]],
        "sample_fields": [i8, [samples, len(FIELD_NAMES)]],
        "sample_labels": [i8, [samples, len(SERVICES[cfg.service])]],
        "sample_weight": [f8, [samples]],
    }


def _data_digest(blobs):
    h = hashlib.sha256()
    for blob in blobs:
        h.update(blob)
    return h.hexdigest()


def export_dataset(world, dir_path):
    """Write the world to `dir_path/world.zip`: one little-endian blob per
    array of `_layout` plus a manifest with the config and a content hash."""
    dir_path = Path(dir_path)
    dir_path.mkdir(parents=True, exist_ok=True)
    samples, h = world.samples, world.hierarchy
    arrays = {
        "c2_to_c1": h.c2_to_c1, "c3_to_c2": h.c3_to_c2, "p_to_c3": h.p_to_c3,
        **{name: getattr(world, name) for name in (
            "panels", "phases", "home_c1", "base_rates",
            "user_prefs", "user_aff_bucket", "user_click_bucket")},
        "events": np.concatenate(world.events),
        "event_buckets": np.concatenate(world.event_buckets),
        "event_offsets": np.cumsum([0] + [len(e) for e in world.events]),
        "sample_room": samples.room, "sample_bucket": samples.bucket,
        "sample_fields": samples.fields, "sample_labels": samples.labels,
        "sample_weight": samples.weight,
    }
    counts = {"streams": len(world.panels), "users": len(world.user_prefs),
              "samples": len(samples), "events": len(arrays["events"])}
    layout = _layout(world.config, counts)
    arrays = {name: np.ascontiguousarray(arrays[name], dtype=dtype)
              for name, (dtype, _) in layout.items()}
    members = list(arrays.items())  # hashed and written from the arrays, uncopied
    manifest = {
        "seed": world.seed,
        "config": to_dict(world.config),
        "counts": counts,
        "arrays": {name: [a.dtype.str, list(a.shape)] for name, a in arrays.items()},
        "data_sha256": _data_digest(blob for _, blob in members),
    }
    checkpoint.write_archive(dir_path / "world.zip", manifest, members)
    return manifest


def _reject(path, name, values, bad, rule):
    """Raise ParseError naming `name` and the first index where `bad` holds."""
    if bad.any():
        at = np.unravel_index(int(np.argmax(bad)), bad.shape)
        index = ", ".join(str(int(i)) for i in at)
        raise ParseError(f"{path}: {name}[{index}] = {values[at]} {rule}")


def _outside(path, name, values, lo, hi):
    _reject(path, name, values, (values < lo) | (values >= hi), f"outside [{lo}, {hi})")


def import_dataset(dir_path):
    """Inverse of export_dataset; warns (not fails) on a manifest hash
    mismatch. Raises ParseError naming the file for a manifest field of the
    wrong type, and also the array and the first bad index for a missing
    array, a wrong dtype or shape, or a value the world cannot hold."""
    path = Path(dir_path) / "world.zip"
    with checkpoint.open_archive(path, error=ParseError, what="dataset") as (manifest, zf):
        blobs = {name: zf.read(name) for name in zf.namelist() if name != "manifest.json"}
        if manifest.get("data_sha256") != _data_digest(blobs.values()):
            warnings.warn(
                f"dataset {path} does not match its manifest hash; "
                "it may have been edited after generation",
                stacklevel=2,
            )
        cfg = from_dict({"sim": manifest.get("config")}).sim
        counts = checkpoint.field(manifest, "counts", lambda c: isinstance(c, dict) and all(
            type(c.get(k)) is int and c[k] >= 0 for k in ("events", "samples")),
            "lack a whole number of events or samples")
        arrays = checkpoint.field(manifest, "arrays", lambda a: isinstance(a, dict),
                                  "is not an object")
        seed = checkpoint.field(manifest, "seed", lambda s: type(s) is int, "is not an integer")
        a = {}
        for name, (dtype, shape) in _layout(cfg, counts).items():
            declared, blob = arrays.get(name), blobs.get(name)
            if declared is None or blob is None:
                raise ParseError(f"{path}: no array {name}")
            size = np.dtype(dtype).itemsize * math.prod(shape)
            if declared != [dtype, shape] or len(blob) != size:
                raise ParseError(f"{path}: array {name} is {declared} in {len(blob)} bytes, "
                                 f"not [{dtype!r}, {shape}] in {size}")
            a[name] = checkpoint.decode(blob, dtype, shape)
        return _world(path, a, cfg, seed)


def _world(path, a, cfg, seed):
    """The World of a dataset's arrays `a`, after checking every value it holds."""
    _outside(path, "c2_to_c1", a["c2_to_c1"], 0, cfg.n_c1)
    _outside(path, "c3_to_c2", a["c3_to_c2"], 0, cfg.n_c2)
    _outside(path, "p_to_c3", a["p_to_c3"], 0, cfg.n_c3)
    h = CategoryHierarchy(a["c2_to_c1"], a["c3_to_c2"], a["p_to_c3"])
    panels, phases, rates = a["panels"], a["phases"], a["base_rates"]
    _reject(path, "panels", panels, panels < 0, "is a negative count")
    _outside(path, "phases", phases, 0, len(PHASES))
    _outside(path, "home_c1", a["home_c1"], 0, cfg.n_c1)
    _reject(path, "base_rates", rates, ~(np.isfinite(rates) & (rates >= 0)),
            "is not a finite, non-negative rate")

    events, event_buckets, offsets = a["events"], a["event_buckets"], a["event_offsets"]
    if offsets[0] != 0 or offsets[-1] != len(events):
        raise ParseError(f"{path}: event_offsets run from {offsets[0]} to {offsets[-1]}, so "
                         f"they do not tile the {len(events)} events")
    _reject(path, "event_offsets", offsets, np.diff(offsets, prepend=-1) <= 0,
            "does not increase: each room needs an event")
    _outside(path, "events", events[:, :1], 0, cfg.n_products)
    c3 = h.p_to_c3[events[:, 0]]
    c2 = h.c3_to_c2[c3]
    _reject(path, "events", events, events != np.stack([events[:, 0], h.c2_to_c1[c2], c2, c3], 1),
            "disagrees with its product's place in the hierarchy")
    # on_show bisects the rooms' event_buckets: unsorted, it could pick a later event
    _outside(path, "event_buckets", event_buckets, 0, cfg.buckets)
    falls = np.diff(event_buckets, prepend=-1) <= 0
    falls[offsets[:-1]] = False
    _reject(path, "event_buckets", event_buckets, falls, "does not increase within its room")

    # the foresight bank keys a sample by room * buckets + bucket, so a bucket
    # past its stream would read another room's foresight
    _outside(path, "sample_room", a["sample_room"], 0, cfg.streams)
    _outside(path, "sample_bucket", a["sample_bucket"], SAMPLE_BUCKET_FLOOR, cfg.buckets)
    _outside(path, "sample_labels", a["sample_labels"], 0, 2)
    first = event_buckets[offsets[a["sample_room"]]]  # no product is on show before it
    _reject(path, "sample_bucket", a["sample_bucket"], a["sample_bucket"] < first,
            "comes before its room's first event")
    try:
        samples = SampleTable(
            room=a["sample_room"], bucket=a["sample_bucket"], fields=a["sample_fields"],
            labels=a["sample_labels"], weight=a["sample_weight"],
            tasks=SERVICES[cfg.service], vocab=field_sizes(cfg),
        )
    except VocabularyError as exc:
        raise ParseError(f"{path}: sample_fields[{exc.row}]: {exc}") from exc
    rooms = offsets[1:-1]  # where each room's events start, after the first's
    return World(config=cfg, seed=seed, hierarchy=h, panels=panels.astype(np.float64),
                 phases=phases, home_c1=a["home_c1"], base_rates=rates,
                 events=np.split(events, rooms), event_buckets=np.split(event_buckets, rooms),
                 user_prefs=a["user_prefs"], user_aff_bucket=a["user_aff_bucket"],
                 user_click_bucket=a["user_click_bucket"], samples=samples)


# ---------------------------------------------------------------------------
# oracle probe: does the future carry label signal the past cannot?


def _probe_features(world):
    """(past-only features, past+future features, cvr or lvtr label) per sample."""
    samples, prefs = world.samples, world.user_prefs
    room, t, user = samples.room, samples.bucket, samples.fields[:, 0]
    events, rows = _upcoming(world, room, t)
    phases = world.phases[room[:, None], t[:, None] + np.arange(LOOKAHEAD + 1)]
    # samples sit at or past SAMPLE_BUCKET_FLOOR, so each window holds 8 buckets
    recent = world.panels[room[:, None], 1, t[:, None] + np.arange(-7, 1)]
    past = [prefs[user, events[rows, 1]], (phases[:, 0] == HIGHLIGHT).astype(np.float64),
            (phases[:, 0] == GRAB).astype(np.float64), np.add.reduce(recent, axis=1) / 8]
    future = past + [
        np.add.reduce(prefs[user[:, None], events[rows[:, None] + np.arange(1, 4), 1]], axis=1) / 3,
        (phases[:, 1:] == GRAB).any(axis=1).astype(np.float64),
        (phases[:, 1:] == HIGHLIGHT).any(axis=1).astype(np.float64),
    ]
    task = samples.tasks.index("cvr" if "cvr" in samples.tasks else "lvtr")
    return np.stack(past, axis=1), np.stack(future, axis=1), samples.labels[:, task]


def _logistic_auc(x, y, seed=0, epochs=400, lr=0.5):
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(x))
    cut = len(x) // 2
    tr, ev = order[:cut], order[cut:]
    mean, std = x[tr].mean(axis=0), x[tr].std(axis=0) + 1e-9
    xs = (x - mean) / std
    w = np.zeros(x.shape[1])
    b = 0.0
    for _ in range(epochs):
        p = _sigmoid(xs[tr] @ w + b)
        g = p - y[tr]
        w -= lr * (xs[tr].T @ g) / len(tr)
        b -= lr * g.mean()
    return auc(xs[ev] @ w + b, y[ev])


def probe_future_vs_past(world, seed=0):
    """AUC of a logistic probe on true past-only vs past+future features."""
    x_past, x_future, y = _probe_features(world)
    return {
        "past": _logistic_auc(x_past, y, seed=seed),
        "future": _logistic_auc(x_future, y, seed=seed),
    }
