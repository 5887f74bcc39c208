"""End-to-end experiment pipeline and the four ablation studies.

Stages: generate world -> train statistic forecaster -> train product
forecaster -> precompute the foresight bank -> train ranker variants ->
write CSV reports. Foresight models are cached as checkpoints keyed by
config, training-data hash, trainer source hash and numerics, on every path
that trains or loads them, so ablations don't retrain them, and the
foresight bank is saved beside them, so they don't rebuild it either.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import BLAS_THREADS, NUMPY_FIRST
from . import checkpoint, layers, optim, prodfore, ranker, simgen, statfore, tensor
from .config import (
    VARIANTS,
    ExperimentConfig,
    ProdConfig,
    StatConfig,
    _build,
    config_hash,
    to_dict,
)
from .errors import ConfigurationError, StateError
from .prodfore import ProductModel
from .statfore import StatisticModel

ABLATIONS = ("accuracy-stat", "accuracy-prod", "channels", "steps")


def split_rooms(n_streams):
    """Deterministic room split: every fifth room is held out."""
    idx = np.arange(n_streams)
    return idx[idx % 5 != 4], idx[idx % 5 == 4]


@dataclass
class Artifacts:
    cfg: ExperimentConfig
    world: simgen.World
    train_rooms: np.ndarray
    eval_rooms: np.ndarray
    stat_model: StatisticModel
    prod_model: ProductModel
    bank: ranker.ForesightBank
    rows: np.ndarray  # (S,) bank row of each world sample
    timings: dict = field(default_factory=dict)


def _windows(panels, rooms, buckets, context):
    """Statistic windows (len(buckets), N, context) of the (R, N, T) `panels`,
    each ending at its bucket of the aligned room."""
    return np.stack([panels[r, :, t - context + 1 : t + 1] for r, t in zip(rooms, buckets)])


def _stat_block(steps, enc, horizon, channels=slice(None)):
    """Forecast steps 1..horizon of some channels, then their encodings (if
    `enc` is given), flattened per key."""
    parts = [steps[:, channels, :horizon].reshape(len(steps), -1)]
    if enc is not None:
        parts.append(enc[:, channels].reshape(len(steps), -1))
    return np.concatenate(parts, axis=1)


def _bank(world, stat_model, prod_model, k_enc, column):
    """(bank, rows): the ForesightBank over the world's sample keys, with each
    forecast column `column(name, shape)` gives, and each sample's row. Built
    or loaded, a bank gets its keys and rows from the world by this code."""
    span = world.config.buckets  # every bucket index is below it
    samples = world.samples
    codes, rows = np.unique(np.multiply(samples.room, span, dtype=np.int64) + samples.bucket,
                            return_inverse=True)
    rows = rows.astype(np.int32)  # no bank that fits in memory has 2**31 rows
    keys = np.stack(np.divmod(codes, span), axis=1)  # (room index, bucket) per row
    ends = simgen.on_show(world, keys[:, 0], keys[:, 1])
    prods, prod_row = np.unique(np.stack([keys[:, 0], ends], axis=1), axis=0, return_inverse=True)
    c, n, k, p = stat_model.config, world.panels.shape[1], len(keys), len(prods)
    shapes = {"stat_steps": (k, n, c.horizon_train), "stat": (k, n * c.horizon_infer + n * c.d_model),
              "dist": (p, prod_model.hierarchy.n_c3), "prod_enc": (p, k_enc * prod_model.config.d_model)}
    columns = {name: column(name, shape) for name, shape in shapes.items()}
    # the ranker's stat block already holds every channel encoding: the
    # stat_enc column is a view into it rather than a second copy
    enc = columns["stat"][:, n * c.horizon_infer :].reshape(k, n, c.d_model)
    bank = ranker.ForesightBank(room=keys[:, 0], bucket=keys[:, 1], stat_enc=enc, prod_row=prod_row,
                                prod_key=prods, d_mix=prod_model.config.d_model, **columns)
    return bank, rows


def _freeze(bank):
    for f in dataclasses.fields(bank):
        if isinstance(col := getattr(bank, f.name), np.ndarray):
            col.flags.writeable = False
    return bank


def build_foresight_bank(world, stat_model, prod_model, k_enc):
    """Foresight constants for every (room, bucket) that appears in a sample.

    Returns (bank, rows): a ForesightBank with a row per distinct key and a
    product row per distinct (room, event on show), and each sample's row.
    The bank's columns are read-only.
    """
    bank, rows = _bank(world, stat_model, prod_model, k_enc, lambda _, shape: np.empty(shape))
    c, prods = stat_model.config, bank.prod_key
    # filled room by room: each room's windows, and its distinct prefixes, form one batch
    for r in np.unique(bank.room):
        sel, mine = bank.room == r, prods[:, 0] == r
        windows = _windows(world.panels, bank.room[sel], bank.bucket[sel], c.context)
        bank.stat_steps[sel], bank.stat_enc[sel] = statfore.forecast_batch(
            stat_model, windows, c.horizon_train
        )
        bank.dist[mine], bank.prod_enc[mine] = prodfore.forecast_prefixes(
            prod_model, world.events[r], prods[mine, 1], k_enc
        )
    h = c.horizon_infer
    bank.stat[:, : world.panels.shape[1] * h] = _stat_block(bank.stat_steps, None, h)
    return _freeze(bank), rows


def _digest(arrays):
    """SHA-256 of the arrays' dtypes, shapes and bytes, in order."""
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr)
    return h.hexdigest()


def training_digest(world, train_rooms):
    """SHA-256 of what the forecasters train on: the train rooms' panel values
    and product events, and the category hierarchy."""
    hier = world.hierarchy
    arrays = [hier.c2_to_c1, hier.c3_to_c2, hier.p_to_c3]
    for i in train_rooms:
        arrays += [world.panels[i], world.events[i]]
    return _digest(arrays)


# ---------------------------------------------------------------------------
# forecaster checkpoints: one trainer, one key, one saver, one loader


FORECASTERS = {"stat": (StatConfig, "statistic"), "prod": (ProdConfig, "product")}


def model_configs(cfg):
    """{"stat": StatConfig, "prod": ProdConfig}, each with its training seed
    tied to the experiment seed."""
    return {kind: dataclasses.replace(getattr(cfg, kind), seed=cfg.seed) for kind in FORECASTERS}


def _new_forecaster(model_cfg, hierarchy):
    if isinstance(model_cfg, StatConfig):
        return StatisticModel(model_cfg)
    return ProductModel(model_cfg, hierarchy)


def train_forecaster(model_cfg, world, train_rooms):
    """Train the forecaster that `model_cfg` configures (a StatConfig or a
    ProdConfig) on the train rooms. Returns (model, per-epoch losses)."""
    model = _new_forecaster(model_cfg, world.hierarchy)
    if isinstance(model, StatisticModel):
        return model, statfore.train_statistic(model, world.panels[train_rooms])
    return model, prodfore.train_product(model, [world.events[i] for i in train_rooms])


# The source of the modules on the forecasters' training path (no source file
# holds a NUL byte): a checkpoint that other code trained has another key, so
# it is retrained rather than silently reused.
TRAINER_SHA256 = hashlib.sha256(b"\0".join(
    Path(m.__file__).read_bytes() for m in (tensor, layers, optim, statfore, prodfore)
)).hexdigest()

# What else sets the trained floats: the numpy build and the BLAS thread
# setting numpy loaded with (two threads sum a GEMM in another order), which
# the pin set only if numpy was not loaded before livesight.
NUMERICS = {"numpy": np.__version__, "numpy_first": NUMPY_FIRST, **BLAS_THREADS}


def forecaster_key(model_cfg, data):
    """A forecaster checkpoint's key: its model config, the `training_digest`
    of the data it trains on, `TRAINER_SHA256`, the code that trains it, and
    `NUMERICS`, the numpy build and BLAS threads it runs on."""
    return config_hash({"config": to_dict(model_cfg), "data_sha256": data,
                        "code_sha256": TRAINER_SHA256, "numerics": NUMERICS})


def checkpoint_name(kind, key):
    return f"{kind}fore-{key}.ckpt"


def save_forecaster(path, model, key):
    checkpoint.save_checkpoint(
        path, model.store, config_hash=key, extra={"config": to_dict(model.config)}
    )


def load_forecaster(path, kind, hierarchy, data, key=None):
    """Rebuild a `kind` ("stat" or "prod") forecaster from its checkpoint's
    parameters. A checkpoint of the other kind, or whose key is not `key` (by
    default its saved config's key on `data`, a `training_digest`), raises
    StateError."""
    with checkpoint.open_archive(path) as (manifest, _):
        extra = manifest.get("extra")
    config = extra.get("config", {}) if isinstance(extra, dict) else None
    if not isinstance(config, dict):
        raise StateError(f"{path} has no forecaster manifest: 'extra' is {extra!r}")
    held = [
        k for k, (cls, _) in FORECASTERS.items()
        if set(config) == {f.name for f in dataclasses.fields(cls)}
    ]
    if held != [kind]:
        found = f"a {FORECASTERS[held[0]][1]} forecaster" if held else "no forecaster"
        raise StateError(f"{path} holds {found}, not a {FORECASTERS[kind][1]} forecaster")
    # with the config file's type checks, so a wrongly typed value is named
    model = _new_forecaster(_build(FORECASTERS[kind][0], config, kind), hierarchy)
    checkpoint.load_checkpoint(
        path, model.store, config_hash=key or forecaster_key(model.config, data)
    )
    return model


# ---------------------------------------------------------------------------
# the foresight bank on disk: what the forecasters computed, beside their checkpoints

# The source of the code that builds the bank and its rows.
BANK_SHA256 = hashlib.sha256(b"\0".join(
    Path(f).read_bytes() for f in (__file__, simgen.__file__, ranker.__file__)
)).hexdigest()
BANK_COLUMNS = ("stat_steps", "stat", "dist", "prod_enc")


def bank_key(world, forecaster_keys, k_enc):
    """A saved bank's key: its two forecasters' keys, `k_enc`, a digest of
    what the bank reads from the world, and `BANK_SHA256`."""
    samples = world.samples
    read = [world.panels, *world.events, *world.event_buckets, samples.room, samples.bucket]
    return config_hash({"forecasters": forecaster_keys, "k_enc": k_enc, "code_sha256": BANK_SHA256,
                        "buckets": world.config.buckets, "world_sha256": _digest(read)})


def save_bank(path, bank, key):
    """Write the bank's forecast columns to `path`, each streamed from its array."""
    columns = [(name, np.asarray(getattr(bank, name), dtype="<f8")) for name in BANK_COLUMNS]
    arrays = {name: [a.dtype.str, list(a.shape)] for name, a in columns}
    checkpoint.write_archive(path, {"config_hash": key, "d_mix": bank.d_mix, "arrays": arrays},
                             columns)


def load_bank(path, key, world, stat_model, prod_model, k_enc):
    """(bank, rows) as `build_foresight_bank` gives them, with the forecast
    columns read from the file `save_bank` wrote under `key`. An unreadable
    file, another key or `d_mix`, or a column whose dtype or shape these
    forecasters and this world do not give raises StateError naming the file."""
    d_mix = prod_model.config.d_model
    with checkpoint.open_archive(path, what="foresight bank") as (manifest, zf):
        checkpoint.field(manifest, "config_hash", lambda h: h == key, f"is not the key {key!r}")
        checkpoint.field(manifest, "d_mix", lambda d: d == d_mix, f"is not {d_mix}")
        arrays = checkpoint.field(manifest, "arrays", lambda a: isinstance(a, dict),
                                  "is not an object")

        def column(name, shape):  # a read-only view of the member's bytes: one copy
            if arrays.get(name) != ["<f8", list(shape)]:
                raise ValueError(f"column {name} is {arrays.get(name)}, not ['<f8', {list(shape)}]")
            return np.frombuffer(zf.read(name), "<f8").reshape(shape)

        bank, rows = _bank(world, stat_model, prod_model, k_enc, column)
    return _freeze(bank), rows


def prepare(cfg, out_dir=None, reuse=True):
    """Generate (or regenerate) the world and produce trained foresight models.

    With `reuse`, each forecaster whose checkpoint in `out_dir` has the
    matching key is loaded instead of retrained. Either way the forecaster
    holds its parameters only: its optimizer state lived only while it
    trained. A checkpoint's key (its file name and manifest `config_hash`,
    see `forecaster_key`) hashes the model config, `training_digest`, the
    trainer's source and `NUMERICS`, so another world in the same directory,
    changed training code, another numpy or another BLAS thread setting
    trains its own forecasters. The foresight bank is saved and reused the
    same way, beside them (`bank_key`).
    """
    timings = {}
    t0 = time.monotonic()
    world = simgen.gen_world(cfg.sim, cfg.seed)
    timings["gen"] = time.monotonic() - t0
    ranker.check_held_out(world.samples, cfg.rank)
    train_rooms, eval_rooms = split_rooms(len(world.panels))
    if not len(eval_rooms):
        raise ConfigurationError(f"sim.streams = {cfg.sim.streams} holds out no eval room; "
                                 "the forecast reports need sim.streams >= 5")

    data = training_digest(world, train_rooms)
    out = Path(out_dir) if out_dir else None
    models, keys = {}, {}
    for kind, model_cfg in model_configs(cfg).items():
        key = keys[kind] = forecaster_key(model_cfg, data)
        path = out / checkpoint_name(kind, key) if out else None
        if reuse and path and path.exists():
            models[kind] = load_forecaster(path, kind, world.hierarchy, data, key=key)
            continue
        t0 = time.monotonic()
        models[kind], _ = train_forecaster(model_cfg, world, train_rooms)
        timings[f"train_{kind}"] = time.monotonic() - t0
        if out:
            out.mkdir(parents=True, exist_ok=True)
            save_forecaster(path, models[kind], key)
    stat_model, prod_model = models["stat"], models["prod"]

    t0 = time.monotonic()
    key = bank_key(world, keys, cfg.rank.k_enc)
    path = out / f"foresight-{key}.bank" if out else None
    if reuse and path and path.exists():
        bank, rows = load_bank(path, key, world, stat_model, prod_model, cfg.rank.k_enc)
    else:
        bank, rows = build_foresight_bank(world, stat_model, prod_model, k_enc=cfg.rank.k_enc)
        if out:
            save_bank(path, bank, key)
    timings["bank"] = time.monotonic() - t0
    return Artifacts(
        cfg=cfg,
        world=world,
        train_rooms=train_rooms,
        eval_rooms=eval_rooms,
        stat_model=stat_model,
        prod_model=prod_model,
        bank=bank,
        rows=rows,
        timings=timings,
    )


def train_variant(art, variant, bank=None):
    """Train one ranker variant against (a possibly substituted) bank."""
    _, report, history = ranker.train_ranker(
        art.world.samples,
        variant,
        art.cfg.rank,
        bank=bank if bank is not None else art.bank,
        rows=art.rows,
    )
    return report, history


def forecast_reports(art):
    """Original-scale MSE and next-category hit rates on held-out rooms."""
    world = art.world
    stat_eval = statfore.evaluate_statistic(art.stat_model, world.panels[art.eval_rooms])
    prod_eval = prodfore.evaluate_hitrate(art.prod_model, [world.events[i] for i in art.eval_rooms])
    return stat_eval, prod_eval


# ---------------------------------------------------------------------------
# report files


def write_csv(path, cfg, columns, rows):
    """Deterministic CSV: hash+seed header, fixed float formatting."""
    lines = [f"# config_hash={config_hash(cfg)} seed={cfg.seed}"]
    lines.append(",".join(columns))
    for row in rows:
        cells = []
        for v in row:
            cells.append(f"{v:.6f}" if isinstance(v, float) else str(v))
        lines.append(",".join(cells))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    return path


def write_rank_report(out_dir, cfg, reports):
    """rank_report.csv: AUC, UAUC and GAUC per variant and task, from a
    {variant: ranker report} mapping."""
    rows = [
        [variant, task, m["AUC"], m["UAUC"], m["GAUC"]]
        for variant, report in reports.items()
        for task, m in report.items()
    ]
    columns = ["variant", "task", "AUC", "UAUC", "GAUC"]
    return write_csv(Path(out_dir) / "rank_report.csv", cfg, columns, rows)


def run_pipeline(cfg):
    """gen -> train models -> train ranker variants -> reports. Returns file paths."""
    out = Path(cfg.out_dir)
    art = prepare(cfg, out_dir=out, reuse=True)
    simgen.export_dataset(art.world, out / "data")

    service_variants = ("base", "+stat") if cfg.sim.service == "talent" else VARIANTS
    reports = {variant: train_variant(art, variant)[0] for variant in service_variants}
    rank_path = write_rank_report(out, cfg, reports)

    stat_eval, prod_eval = forecast_reports(art)
    forecast_rows = [
        ["mean", "MSE", stat_eval["mean"]],
        ["latest", "MSE", stat_eval["latest"]],
        ["model", "MSE", stat_eval["model"]],
        ["most-frequent", "HitRate", prod_eval["most-frequent"]],
        ["latest-category", "HitRate", prod_eval["latest"]],
        ["model-category", "HitRate", prod_eval["model"]],
    ]
    forecast_path = write_csv(
        out / "forecast_report.csv", cfg, ["method", "metric", "value"], forecast_rows
    )
    return {"rank_report": rank_path, "forecast_report": forecast_path}


# ---------------------------------------------------------------------------
# ablations


def _stat_baseline_bank(art, method):
    """The bank with a forecast-only statistic block: the model's first
    `horizon_infer` steps, or a window baseline's, for every row at once."""
    bank, c = art.bank, art.stat_model.config
    if method == "model":
        stat = _stat_block(bank.stat_steps, None, c.horizon_infer)
    else:
        windows = _windows(art.world.panels, bank.room, bank.bucket, c.context)
        stat = statfore.baseline_forecast(windows, c.horizon_infer, method)
    return dataclasses.replace(bank, stat=stat.reshape(len(bank), -1))


def _prod_baseline_bank(art, method):
    """The bank with the category distribution as its only product part: the
    model's, or a baseline's one-hot; the product encodings are dropped."""
    bank = art.bank
    dist = bank.dist
    if method != "model":
        cats = [prodfore.baseline_category(art.world.events[r][: e + 1], method)
                for r, e in bank.prod_key]
        dist = np.eye(dist.shape[1])[cats]
    return dataclasses.replace(bank, dist=dist, prod_enc=np.zeros((len(dist), 0)))


def run_ablation(cfg, which, art=None):
    """One of the four ablation studies; writes ablation_<which>.csv."""
    if which not in ABLATIONS:
        raise ConfigurationError(f"unknown ablation {which!r}; choose from {ABLATIONS}")
    if cfg.sim.service != "shopping":
        raise ConfigurationError("ablation studies run on the shopping service")
    out = Path(cfg.out_dir)
    if art is None:
        art = prepare(cfg, out_dir=out, reuse=True)

    rows = []
    if which == "accuracy-stat":
        stat_eval, _ = forecast_reports(art)
        for method in ("mean", "latest", "model"):
            report, _ = train_variant(art, "+stat", _stat_baseline_bank(art, method))
            rows.append(
                [method, stat_eval[method], report["ctr"]["AUC"], report["cvr"]["AUC"]]
            )
        columns = ["method", "mse", "auc_ctr", "auc_cvr"]
    elif which == "accuracy-prod":
        _, prod_eval = forecast_reports(art)
        for method in ("most-frequent", "latest", "model"):
            report, _ = train_variant(art, "+prod", _prod_baseline_bank(art, method))
            rows.append(
                [method, prod_eval[method], report["ctr"]["AUC"], report["cvr"]["AUC"]]
            )
        columns = ["method", "hitrate", "auc_ctr", "auc_cvr"]
    elif which == "channels":
        base_report, _ = train_variant(art, "base")
        groups = {}  # in order of first appearance
        for i, g in enumerate(simgen.CHANNEL_GROUPS):
            groups.setdefault(g, []).append(i)
        c = art.stat_model.config
        for group, channels in groups.items():
            stat = _stat_block(art.bank.stat_steps, art.bank.stat_enc, c.horizon_infer, channels)
            report, _ = train_variant(art, "+stat", dataclasses.replace(art.bank, stat=stat))
            rows.append(
                [
                    group,
                    report["ctr"]["AUC"],
                    report["ctr"]["AUC"] - base_report["ctr"]["AUC"],
                    report["cvr"]["AUC"],
                    report["cvr"]["AUC"] - base_report["cvr"]["AUC"],
                ]
            )
        columns = ["group", "auc_ctr", "delta_ctr", "auc_cvr", "delta_cvr"]
    else:  # steps
        per_step = statfore.mse_per_step(art.stat_model, art.world.panels[art.eval_rooms])
        base_report, _ = train_variant(art, "base")
        for h in range(1, art.stat_model.config.horizon_train + 1):
            stat = _stat_block(art.bank.stat_steps, None, h)
            report, _ = train_variant(art, "+stat", dataclasses.replace(art.bank, stat=stat))
            rows.append(
                [
                    h,
                    float(per_step[h - 1]),
                    report["ctr"]["AUC"],
                    report["ctr"]["AUC"] - base_report["ctr"]["AUC"],
                ]
            )
        columns = ["h", "mse", "auc_ctr", "gain_ctr"]

    return write_csv(out / f"ablation_{which}.csv", cfg, columns, rows)
