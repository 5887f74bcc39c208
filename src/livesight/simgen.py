"""Synthetic live-streaming world.

Each stream is an author with a home category neighborhood and a hidden
per-bucket phase (steady / highlight / grab) driving Poisson behavior counts.
Product switches walk the category tree with configurable persistence, and
interaction labels deliberately depend on what happens NEXT (upcoming
categories, an imminent grab phase), so features that see the future carry
signal that past-only features cannot.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import SAMPLE_BUCKET_FLOOR, SERVICES, SimConfig, from_dict, to_dict
from .errors import ConfigurationError, DatasetError, DimensionError, ParseError, VocabularyError
from .layers import check_ids
from .metrics import auc
from .prodfore import CategoryHierarchy
from .statfore import StatPanel

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


@dataclass
class AuthorStyle:
    author_id: int
    home_c1: int
    stay_level2: float
    move_level1: float
    jump: float
    base_rates: np.ndarray  # per-channel Poisson base rates
    repeat_within_stay: float = 0.2  # else: ring-step to the next sibling c3

    def __post_init__(self):
        total = self.stay_level2 + self.move_level1 + self.jump
        if abs(total - 1.0) > 1e-9:
            raise ConfigurationError(f"style probabilities sum to {total}, not 1")
        self.base_rates = np.asarray(self.base_rates, dtype=np.float64)


@dataclass
class Stream:
    room_id: str
    author: AuthorStyle
    panel: StatPanel
    events: np.ndarray  # (L, 4) int: product, c1, c2, c3
    event_buckets: np.ndarray  # (L,) int, strictly increasing
    phases: np.ndarray  # (T,) int in {0, 1, 2}


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


def field_sizes(sim):
    """Each id field's vocabulary size in a world built from `sim`, in FIELD_NAMES order."""
    return (sim.users, sim.n_c1, sim.streams, sim.n_c1, sim.n_c3, 2, CLICK_BUCKETS)


@dataclass(frozen=True)
class SampleTable:
    """Labeled exposures as aligned columns, one row per sample."""

    room: np.ndarray  # (S,) index into the world's streams
    bucket: np.ndarray  # (S,) time bucket of the exposure
    fields: np.ndarray  # (S, len(FIELD_NAMES)) int64 ids, in FIELD_NAMES order
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

    def __len__(self):
        return len(self.room)


@dataclass
class World:
    config: SimConfig
    seed: int
    hierarchy: CategoryHierarchy
    streams: list
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


def _next_category(rng, c3, style, hierarchy):
    u = rng.random()
    if u < style.stay_level2:
        # stay in the level-2 neighborhood: mostly step to the next sibling
        # (a learnable rule), sometimes re-feature the same product category
        if rng.random() < style.repeat_within_stay:
            return c3
        sibs = hierarchy.c3_children_of_c2(int(hierarchy.c3_to_c2[c3]))
        pos = int(np.searchsorted(sibs, c3))
        return int(sibs[(pos + 1) % len(sibs)])
    if u < style.stay_level2 + style.move_level1:
        # moving within the home level-1 must leave the current level-2,
        # or measured persistence would overshoot the configured 0.6
        home = hierarchy.c3_children_of_c1(style.home_c1)
        away = home[hierarchy.c3_to_c2[home] != hierarchy.c3_to_c2[c3]]
        pool = away if len(away) else home
        return int(pool[rng.integers(len(pool))])
    return int(rng.integers(hierarchy.n_c3))


def gen_stream(author, hierarchy, t_total, seed, config=None):
    """One room: phase path, Poisson count panel, and its product-switch walk."""
    if t_total < 48:
        raise ConfigurationError(f"stream length {t_total} < 48 buckets")
    cfg = config or SimConfig(buckets=t_total)
    rng = np.random.default_rng(seed)
    phases = _sample_phases(rng, cfg.phase_matrix, t_total)
    rates = author.base_rates[None, :] * PHASE_MULTIPLIERS[phases]  # (T, N)
    counts = rng.poisson(rates).T.astype(np.int64)  # (N, T)

    home = hierarchy.c3_children_of_c1(author.home_c1)
    c3 = int(home[rng.integers(len(home))])
    events, buckets = [], []
    bucket = 0
    while bucket < t_total:
        prods = np.flatnonzero(hierarchy.p_to_c3 == c3)
        p = int(prods[rng.integers(len(prods))])
        c2 = int(hierarchy.c3_to_c2[c3])
        events.append((p, int(hierarchy.c2_to_c1[c2]), c2, c3))
        buckets.append(bucket)
        bucket += int(rng.integers(cfg.event_gap_min, cfg.event_gap_max + 1))
        c3 = _next_category(rng, c3, author, hierarchy)

    panel = StatPanel(
        room_id=f"room{author.author_id:04d}",
        t0_bucket=0,
        channels=list(CHANNEL_NAMES),
        values=counts,
        groups=list(CHANNEL_GROUPS),
    )
    return Stream(
        room_id=panel.room_id,
        author=author,
        panel=panel,
        events=np.asarray(events, dtype=np.int64),
        event_buckets=np.asarray(buckets, dtype=np.int64),
        phases=phases,
    )


def _make_author(rng, i, cfg):
    return AuthorStyle(
        author_id=i,
        home_c1=int(rng.integers(cfg.n_c1)),
        stay_level2=cfg.stay_level2,
        move_level1=cfg.move_level1,
        jump=cfg.jump,
        base_rates=np.array([c[2] for c in CHANNELS]) * rng.uniform(0.7, 1.3, len(CHANNELS)),
        repeat_within_stay=cfg.repeat_within_stay,
    )


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


def gen_interactions(streams, world, seed, bucket_lo=SAMPLE_BUCKET_FLOOR, lookahead=5):
    """Exposure events with labels whose ground truth peeks at the future.

    Click follows sigmoid(a*affinity + b*[highlight] + c0) where affinity is
    the user's preference for the UPCOMING product's level-1 category (the
    product being teased as the viewer decides), measured as excess over the
    uniform 1/|C1| baseline — raw preferences (mean 0.2) would pin the
    positive rate above 15% for any preference spread. The conversion-style
    labels read the NEXT 3 product events and whether a grab phase lands
    within the next `lookahead` buckets.

    Returns a SampleTable whose `room` column indexes `streams`.
    """
    if not streams:
        raise DatasetError("no streams to sample exposures from")
    cfg = world.config
    rng = np.random.default_rng(seed)
    coeffs = _task_coeffs(cfg)
    # the last bucket a stream can be sampled at: future labels need 3
    # upcoming events and `lookahead` more buckets
    last = [min(st.phases.shape[0] - lookahead - 1, int(st.event_buckets[-3]) - 1)
            if len(st.event_buckets) >= 3 else bucket_lo - 1 for st in streams]
    # only the RNG draws are made per exposure; everything else follows from
    # them as array ops, in the order the draws were made
    room = np.empty(cfg.n_samples, dtype=np.int64)
    user = np.empty(cfg.n_samples, dtype=np.int64)
    bucket = np.empty(cfg.n_samples, dtype=np.int64)
    draws = np.empty((cfg.n_samples, 1 + len(coeffs)))  # one uniform per label
    kept = 0
    for _ in range(cfg.n_samples):
        r = int(rng.integers(len(streams)))
        u = int(rng.integers(cfg.users))
        if last[r] < bucket_lo:
            continue
        room[kept], user[kept] = r, u
        bucket[kept] = rng.integers(bucket_lo, last[r] + 1)
        draws[kept] = rng.random(draws.shape[1])
        kept += 1
    if not kept:
        raise DatasetError("no valid exposure buckets; streams too short")
    room, user, bucket, draws = room[:kept], user[:kept], bucket[:kept], draws[:kept]

    item = np.empty(kept, dtype=np.int64)  # the product category on show
    nxt_c1 = np.empty((kept, 3), dtype=np.int64)  # level-1 categories of the next 3 events
    highlight = np.empty(kept, dtype=bool)
    grab_soon = np.empty(kept, dtype=bool)  # a grab phase within `lookahead` buckets
    for r, st in enumerate(streams):
        sel = room == r
        t = bucket[sel]
        cur = np.searchsorted(st.event_buckets, t, side="right") - 1
        item[sel] = st.events[cur, 3]
        nxt_c1[sel] = st.events[cur[:, None] + np.arange(1, 4), 1]
        highlight[sel] = st.phases[t] == HIGHLIGHT
        grab_soon[sel] = (st.phases[t[:, None] + np.arange(1, lookahead + 1)] == GRAB).any(axis=1)
    uniform = 1.0 / cfg.n_c1
    prefs = world.user_prefs
    aff_next = prefs[user, nxt_c1[:, 0]] - uniform
    # np.add.reduce / 3 is the float that a three-value .mean() gives
    aff_future = np.add.reduce(prefs[user[:, None], nxt_c1], axis=1) / 3 - uniform
    click_logit = (
        cfg.click_affinity_coeff * aff_next
        + cfg.click_highlight_coeff * highlight.astype(np.float64)
        + cfg.click_bias
    )
    labels = [draws[:, 0] < _sigmoid(click_logit)]
    for j, (a2, b2, c2) in enumerate(coeffs.values(), start=1):
        logit = a2 * aff_future + b2 * grab_soon.astype(np.float64) + c2
        labels.append(draws[:, j] < _sigmoid(logit))
    # the user- and room-derived ids are gathers, filled after the draws
    author = np.asarray([st.author.author_id for st in streams], dtype=np.int64)[room]
    home = np.asarray([st.author.home_c1 for st in streams], dtype=np.int64)[room]
    aff = world.user_aff_bucket[user]
    fields = np.stack(
        [user, aff, author, home, item, (aff == home).astype(np.int64),
         world.user_click_bucket[user]],
        axis=1,
    )
    return SampleTable(room=room, bucket=bucket, fields=fields,
                       labels=np.stack(labels, axis=1).astype(np.int64),
                       weight=np.ones(kept), tasks=("ctr", *coeffs),
                       vocab=field_sizes(cfg))


def gen_world(config, seed):
    """Full synthetic dataset: streams, users, and labeled exposures."""
    hierarchy = CategoryHierarchy.balanced(
        config.n_c1, config.n_c2, config.n_c3, config.n_products
    )
    author_rng = np.random.default_rng([seed, 0xA0])
    streams = [
        gen_stream(
            _make_author(author_rng, i, config),
            hierarchy,
            config.buckets,
            seed=[seed, 0x57, i],
            config=config,
        )
        for i in range(config.streams)
    ]
    user_rng = np.random.default_rng([seed, 0xB1])
    prefs = user_rng.dirichlet(np.full(config.n_c1, config.dirichlet_alpha), size=config.users)
    world = World(
        config=config,
        seed=seed,
        hierarchy=hierarchy,
        streams=streams,
        user_prefs=prefs,
        user_aff_bucket=prefs.argmax(axis=1).astype(np.int64),
        user_click_bucket=user_rng.integers(CLICK_BUCKETS, size=config.users),
    )
    world.samples = gen_interactions(streams, world, seed=[seed, 0xC2])
    return world


# ---------------------------------------------------------------------------
# serialization


def _dump_jsonl(path, rows):
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True, separators=(",", ":")))
            fh.write("\n")


def _has(record, path):
    """Whether a JSON record holds the (nested) key whose parts are `path`."""
    for part in path:
        if not isinstance(record, dict) or part not in record:
            return False
        record = record[part]
    return True


def _read_jsonl(path, keys):
    """(line number, record) for each non-blank line of a JSON Lines file; a
    line that is not JSON, or whose record lacks one of `keys`, raises
    ParseError naming the line. A dotted key ("labels.cvr") is nested."""
    paths = [(key, key.split(".")) for key in keys]
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"bad JSON: {exc.msg}", path=str(path), line=lineno) from exc
            missing = [key for key, parts in paths if not _has(record, parts)]
            if missing:
                raise ParseError(f"row has no {', '.join(missing)}", path=str(path), line=lineno)
            yield lineno, record


FILES = ("panels.jsonl", "products.jsonl", "samples.jsonl", "users.jsonl", "latent.jsonl")

# the keys each row of a per-room or per-user file must hold
ROW_KEYS = {
    "panels.jsonl": ("room_id", "t0_bucket", *(f"channels.{n}" for n in CHANNEL_NAMES)),
    "products.jsonl": ("room_id", "events", "event_buckets"),
    "users.jsonl": ("user_id", "prefs", "aff_bucket", "click_bucket"),
    "latent.jsonl": ("room_id", "phases", "home_c1", "base_rates"),
}


def _data_digest(dir_path):
    h = hashlib.sha256()
    for name in FILES + ("hierarchy.json",):
        with open(dir_path / name, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def export_dataset(world, dir_path):
    """Write the world as JSON Lines plus a manifest with a content hash."""
    dir_path = Path(dir_path)
    dir_path.mkdir(parents=True, exist_ok=True)
    _dump_jsonl(
        dir_path / "panels.jsonl",
        (
            {
                "room_id": st.room_id,
                "t0_bucket": st.panel.t0_bucket,
                "channels": {
                    name: st.panel.values[i].astype(np.int64).tolist()
                    for i, name in enumerate(st.panel.channels)
                },
            }
            for st in world.streams
        ),
    )
    _dump_jsonl(
        dir_path / "products.jsonl",
        (
            {
                "room_id": st.room_id,
                "events": st.events.tolist(),
                "event_buckets": st.event_buckets.tolist(),
            }
            for st in world.streams
        ),
    )
    samples = world.samples
    room_ids = [st.room_id for st in world.streams]
    _dump_jsonl(
        dir_path / "samples.jsonl",
        (
            {
                "room_id": room_ids[r],
                "bucket": t,
                **dict(zip(FIELD_NAMES, ids)),
                "weight": w,
                "labels": dict(zip(samples.tasks, y)),
            }
            for r, t, ids, w, y in zip(
                samples.room.tolist(),
                samples.bucket.tolist(),
                samples.fields.tolist(),
                samples.weight.tolist(),
                samples.labels.tolist(),
            )
        ),
    )
    _dump_jsonl(
        dir_path / "users.jsonl",
        (
            {
                "user_id": u,
                "prefs": world.user_prefs[u].tolist(),
                "aff_bucket": int(world.user_aff_bucket[u]),
                "click_bucket": int(world.user_click_bucket[u]),
            }
            for u in range(len(world.user_prefs))
        ),
    )
    _dump_jsonl(
        dir_path / "latent.jsonl",
        (
            {
                "room_id": st.room_id,
                "phases": st.phases.tolist(),
                "home_c1": st.author.home_c1,
                "base_rates": st.author.base_rates.tolist(),
            }
            for st in world.streams
        ),
    )
    world.hierarchy.to_json(dir_path / "hierarchy.json")
    manifest = {
        "seed": world.seed,
        "config": to_dict(world.config),
        "counts": {
            "streams": len(world.streams),
            "users": int(len(world.user_prefs)),
            "samples": len(world.samples),
        },
        "data_sha256": _data_digest(dir_path),
    }
    with open(dir_path / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def import_dataset(dir_path):
    """Inverse of export_dataset; warns (not fails) on a manifest hash mismatch."""
    dir_path = Path(dir_path)
    with open(dir_path / "manifest.json") as fh:
        manifest = json.load(fh)
    if manifest.get("data_sha256") != _data_digest(dir_path):
        warnings.warn(
            f"dataset in {dir_path} does not match its manifest hash; "
            "files may have been edited after generation",
            stacklevel=2,
        )
    cfg = from_dict({"sim": manifest["config"]}).sim
    hierarchy = CategoryHierarchy.from_json(dir_path / "hierarchy.json")
    rows = {name: list(_read_jsonl(dir_path / name, keys)) for name, keys in ROW_KEYS.items()}
    panels = {r["room_id"]: (line, r) for line, r in rows["panels.jsonl"]}
    products = {r["room_id"]: (line, r) for line, r in rows["products.jsonl"]}
    latents = {r["room_id"]: (line, r) for line, r in rows["latent.jsonl"]}
    users = [r for _, r in rows["users.jsonl"]]
    for k, (line, r) in enumerate(rows["users.jsonl"]):
        if r["user_id"] != k:
            raise ParseError(f"user_id {r['user_id']!r} out of order: expected {k}",
                             path=str(dir_path / "users.jsonl"), line=line)
    if len(users) != cfg.users:
        raise ParseError(f"{len(users)} user rows, but the config has {cfg.users} users",
                         path=str(dir_path / "users.jsonl"))

    streams = []
    for i, room_id in enumerate(sorted(panels)):
        line, pan = panels[room_id]
        absent = [name for name, by_room in (("products.jsonl", products), ("latent.jsonl", latents))
                  if room_id not in by_room]
        if absent:
            raise ParseError(f"room {room_id!r} has no row in {' or '.join(absent)}",
                             path=str(dir_path / "panels.jsonl"), line=line)
        room_rows = {"panels.jsonl": (line, pan), "products.jsonl": products[room_id],
                     "latent.jsonl": latents[room_id]}
        values, events, event_buckets, phases, home_c1, base_rates = _room_arrays(
            dir_path, room_rows, cfg, hierarchy
        )
        author = AuthorStyle(
            author_id=i,
            home_c1=home_c1,
            stay_level2=cfg.stay_level2,
            move_level1=cfg.move_level1,
            jump=cfg.jump,
            base_rates=base_rates,
        )
        streams.append(
            Stream(
                room_id=room_id,
                author=author,
                panel=StatPanel(
                    room_id=room_id,
                    t0_bucket=pan["t0_bucket"],
                    channels=list(CHANNEL_NAMES),
                    values=values,
                    groups=list(CHANNEL_GROUPS),
                ),
                events=events,
                event_buckets=event_buckets,
                phases=phases,
            )
        )
    world = World(
        config=cfg,
        seed=manifest["seed"],
        hierarchy=hierarchy,
        streams=streams,
        user_prefs=np.asarray([u["prefs"] for u in users]),
        user_aff_bucket=np.asarray([u["aff_bucket"] for u in users], dtype=np.int64),
        user_click_bucket=np.asarray([u["click_bucket"] for u in users], dtype=np.int64),
    )
    room_index = {st.room_id: i for i, st in enumerate(streams)}
    world.samples = _read_samples(
        dir_path / "samples.jsonl", room_index, [st.panel.values.shape[1] for st in streams],
        SERVICES[cfg.service], field_sizes(cfg),
    )
    return world


def _room_arrays(dir_path, rows, cfg, hierarchy):
    """(values, events, event_buckets, phases, home_c1, base_rates) of one room
    from its file name -> `(line, row)` in panels.jsonl, products.jsonl and
    latent.jsonl. Raises ParseError naming the file and line unless each
    channel holds `buckets` non-negative counts, the events are (L, 4) rows
    that agree with `hierarchy`, `event_buckets` holds one strictly increasing
    bucket of the stream per event, `phases` holds `buckets` phases in
    {0, 1, 2}, `base_rates` one finite, non-negative rate per channel, and
    `home_c1` is a level-1 category."""
    buckets = cfg.buckets
    pan, prod, lat = (rows[name][1] for name in ("panels.jsonl", "products.jsonl", "latent.jsonl"))

    def error(name, message):
        return ParseError(message, path=str(dir_path / name), line=rows[name][0])

    def parsed(name, value, what, dtype=np.int64):
        try:
            return np.asarray(value, dtype=dtype)
        except (ValueError, TypeError, OverflowError):
            kind = "integer" if dtype is np.int64 else "number"
            raise error(name, f"{what} is not a rectangular {kind} array") from None

    channels = [parsed("panels.jsonl", pan["channels"][n], f"channel {n}") for n in CHANNEL_NAMES]
    for name, channel in zip(CHANNEL_NAMES, channels):
        if channel.shape != (buckets,) or (channel < 0).any():
            raise error("panels.jsonl", f"channel {name} must hold {buckets} non-negative counts")
    events = parsed("products.jsonl", prod["events"], "events")
    if events.ndim != 2 or events.shape[1] != 4:
        raise error("products.jsonl", f"events must be (L, 4) rows, got shape {events.shape}")
    h, item = hierarchy, events[:, 0]
    bad = np.flatnonzero((item < 0) | (item >= h.n_products))
    if bad.size:
        raise error("products.jsonl",
                    f"event {bad[0]}: product {item[bad[0]]} outside [0, {h.n_products})")
    c3 = h.p_to_c3[item]
    c2 = h.c3_to_c2[c3]
    bad = np.flatnonzero((events != np.stack([item, h.c2_to_c1[c2], c2, c3], axis=1)).any(axis=1))
    if bad.size:
        k = bad[0]
        raise error("products.jsonl", f"event {k} {events[k].tolist()} disagrees with the "
                    f"hierarchy: product {item[k]} is in c3 {c3[k]}, c2 {c2[k]}")
    event_buckets = parsed("products.jsonl", prod["event_buckets"], "event_buckets")
    # _latest_event bisects event_buckets: unsorted, it could pick a later event
    if (event_buckets.shape != (len(events),) or (np.diff(event_buckets) <= 0).any()
            or event_buckets[0] < 0 or event_buckets[-1] >= buckets):
        raise error("products.jsonl", f"event_buckets must be {len(events)} strictly "
                    f"increasing buckets in [0, {buckets})")
    phases = parsed("latent.jsonl", lat["phases"], "phases")
    if phases.shape != (buckets,) or ((phases < 0) | (phases > 2)).any():
        raise error("latent.jsonl", f"phases must hold {buckets} values in {{0, 1, 2}}")
    base_rates = parsed("latent.jsonl", lat["base_rates"], "base_rates", np.float64)
    rates_ok = np.isfinite(base_rates) & (base_rates >= 0)
    if base_rates.shape != (len(CHANNEL_NAMES),) or not rates_ok.all():
        raise error("latent.jsonl", f"base_rates must hold {len(CHANNEL_NAMES)} finite, "
                    "non-negative rates")
    home_c1 = lat["home_c1"]
    if type(home_c1) is not int or not 0 <= home_c1 < cfg.n_c1:
        raise error("latent.jsonl", f"home_c1 {home_c1!r} outside [0, {cfg.n_c1})")
    return np.stack(channels), events, event_buckets, phases, home_c1, base_rates


def _read_samples(path, room_index, room_buckets, tasks, vocab):
    """The SampleTable of a samples.jsonl file; a row without one of its keys
    or labels, on an unknown room, with a bucket outside
    [SAMPLE_BUCKET_FLOOR, its room's bucket count in `room_buckets`), or with
    an id outside `vocab` raises ParseError naming its line."""
    keys = ("room_id", "bucket", *FIELD_NAMES, "weight", *(f"labels.{t}" for t in tasks))
    lines, ids, weight = [], [], []
    for line, r in _read_jsonl(path, keys):
        if r["room_id"] not in room_index:
            raise ParseError(f"sample room {r['room_id']!r} has no panel", path=str(path), line=line)
        lines.append(line)
        ids.append([room_index[r["room_id"]], r["bucket"], *(r[k] for k in FIELD_NAMES),
                    *(r["labels"][t] for t in tasks)])
        weight.append(r["weight"])
    cols = np.asarray(ids, dtype=np.int64).reshape(len(ids), 2 + len(FIELD_NAMES) + len(tasks))
    # the foresight bank keys a row by room * buckets + bucket, so a bucket
    # past its stream would read another room's foresight
    room, bucket = cols[:, 0], cols[:, 1]
    outside = np.flatnonzero((bucket < SAMPLE_BUCKET_FLOOR)
                             | (bucket >= np.asarray(room_buckets, dtype=np.int64)[room]))
    if outside.size:
        row = outside[0]
        raise ParseError(
            f"sample bucket {bucket[row]} outside [{SAMPLE_BUCKET_FLOOR}, "
            f"{room_buckets[room[row]]}) of its room", path=str(path), line=lines[row])
    try:
        return SampleTable(
            room=room, bucket=bucket, fields=cols[:, 2 : 2 + len(FIELD_NAMES)],
            labels=cols[:, 2 + len(FIELD_NAMES) :], weight=np.asarray(weight, dtype=np.float64),
            tasks=tuple(tasks), vocab=vocab,
        )
    except VocabularyError as exc:
        raise ParseError(f"sample {exc}", path=str(path), line=lines[exc.row]) from exc


# ---------------------------------------------------------------------------
# oracle probe: does the future carry label signal the past cannot?


def _probe_features(world, future):
    samples = world.samples
    task = samples.tasks.index("cvr" if "cvr" in samples.tasks else "lvtr")
    rows = []
    for r, t, u in zip(samples.room.tolist(), samples.bucket.tolist(),
                       samples.fields[:, 0].tolist()):
        st = world.streams[r]
        cur = int(np.searchsorted(st.event_buckets, t, side="right")) - 1
        past = [
            world.user_prefs[u, st.events[cur, 1]],
            float(st.phases[t] == HIGHLIGHT),
            float(st.phases[t] == GRAB),
            float(st.panel.values[1, max(0, t - 7) : t + 1].mean()),
        ]
        if future:
            nxt = st.events[cur + 1 : cur + 4]
            past = past + [
                float(world.user_prefs[u, nxt[:, 1]].mean()),
                float((st.phases[t + 1 : t + 6] == GRAB).any()),
                float((st.phases[t + 1 : t + 6] == HIGHLIGHT).any()),
            ]
        rows.append(past)
    return np.asarray(rows), samples.labels[:, task]


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
    x_past, y = _probe_features(world, future=False)
    x_future, _ = _probe_features(world, future=True)
    return {
        "past": _logistic_auc(x_past, y, seed=seed),
        "future": _logistic_auc(x_future, y, seed=seed),
    }
