"""Command-line harness: generation, the three training stages, the full run,
ablations, and plain-text report summaries.

Configuration comes from an optional JSON file (--config) with flag
overrides on top; every subcommand is deterministic given the same config.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import checkpoint, pipeline, prodfore, ranker, simgen, statfore
from .config import SERVICES, ExperimentConfig, config_hash, load_config, to_dict
from .pipeline import ABLATIONS
from .prodfore import ProductModel
from .statfore import StatisticModel


def _load_base_config(args):
    cfg = load_config(args.config) if getattr(args, "config", None) else ExperimentConfig()
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if getattr(args, "out", None):
        cfg = dataclasses.replace(cfg, out_dir=str(args.out))
    if getattr(args, "variant", None):
        cfg = dataclasses.replace(cfg, variant=args.variant)
    sim_over = {}
    for name in ("streams", "users", "buckets"):
        if getattr(args, name, None) is not None:
            sim_over[name] = getattr(args, name)
    if sim_over:
        cfg = dataclasses.replace(cfg, sim=dataclasses.replace(cfg.sim, **sim_over))
    return cfg


def _stat_config(cfg, args):
    over = {"seed": cfg.seed}
    if getattr(args, "context", None) is not None:
        over["context"] = args.context
    if getattr(args, "horizon", None) is not None:
        over["horizon_train"] = args.horizon
    if getattr(args, "epochs", None) is not None:
        over["epochs"] = args.epochs
    # through the experiment config, which checks the context against the samples
    return dataclasses.replace(cfg, stat=dataclasses.replace(cfg.stat, **over)).stat


def cmd_gen(args):
    cfg = _load_base_config(args)
    world = simgen.gen_world(cfg.sim, cfg.seed)
    manifest = simgen.export_dataset(world, args.out)
    print(
        f"wrote {manifest['counts']['streams']} streams, "
        f"{manifest['counts']['samples']} samples to {args.out}"
    )
    return 0


def cmd_train_stat(args):
    cfg = _load_base_config(args)
    world = simgen.import_dataset(args.data)
    train_rooms, _ = pipeline.split_rooms(len(world.streams))
    stat_cfg = _stat_config(cfg, args)
    model = StatisticModel(stat_cfg)
    history = statfore.train_statistic(model, [world.streams[i].panel for i in train_rooms])
    h = config_hash(to_dict(stat_cfg))
    out = Path(args.out) if args.out else Path(args.data) / f"statfore-{h}.ckpt"
    checkpoint.save_checkpoint(out, model.store, config_hash=h, extra={"config": to_dict(stat_cfg)})
    print(f"loss {history[0]:.3f} -> {history[-1]:.3f}; saved {out}")
    return 0


def cmd_train_prod(args):
    cfg = _load_base_config(args)
    world = simgen.import_dataset(args.data)
    train_rooms, _ = pipeline.split_rooms(len(world.streams))
    over = {"seed": cfg.seed}
    if args.epochs is not None:
        over["epochs"] = args.epochs
    prod_cfg = dataclasses.replace(cfg.prod, **over)
    model = ProductModel(prod_cfg, world.hierarchy)
    history = prodfore.train_product(model, [world.streams[i].events for i in train_rooms])
    h = config_hash(to_dict(prod_cfg))
    out = Path(args.out) if args.out else Path(args.data) / f"prodfore-{h}.ckpt"
    checkpoint.save_checkpoint(out, model.store, config_hash=h, extra={"config": to_dict(prod_cfg)})
    print(f"loss {history[0]:.3f} -> {history[-1]:.3f}; saved {out}")
    return 0


def cmd_train_rank(args):
    cfg = _load_base_config(args)
    world = simgen.import_dataset(args.data)
    stat_model = pipeline.load_forecaster(args.stat_ckpt)
    prod_model = pipeline.load_forecaster(args.prod_ckpt, world.hierarchy)
    bank, bank_rows = pipeline.build_foresight_bank(
        world, stat_model, prod_model, k_enc=cfg.rank.k_enc
    )
    rank_cfg = dataclasses.replace(
        cfg.rank,
        seed=cfg.seed,
        **({"epochs": args.epochs} if args.epochs is not None else {}),
    )
    tasks = SERVICES[world.config.service]
    _, report, history = ranker.train_ranker(
        world.samples, cfg.variant, rank_cfg, tasks, pipeline.vocab_sizes(world.config),
        bank=bank, rows=bank_rows,
    )
    rows = [
        [cfg.variant, task, report[task]["AUC"], report[task]["UAUC"], report[task]["GAUC"]]
        for task in tasks
    ]
    out = Path(args.out or cfg.out_dir)
    path = pipeline.write_csv(
        out / "rank_report.csv", cfg, ["variant", "task", "AUC", "UAUC", "GAUC"], rows
    )
    print(f"loss {history[0]:.3f} -> {history[-1]:.3f}")
    for row in rows:
        print(f"{row[0]} {row[1]}: AUC={row[2]:.4f} UAUC={row[3]:.4f} GAUC={row[4]:.4f}")
    print(f"wrote {path}")
    return 0


def cmd_run(args):
    cfg = _load_base_config(args)
    paths = pipeline.run_pipeline(cfg)
    for name, path in paths.items():
        print(f"{name}: {path}")
    return 0


def cmd_ablate(args):
    cfg = _load_base_config(args)
    path = pipeline.run_ablation(cfg, args.which)
    print(f"wrote {path}")
    return 0


def cmd_report(args):
    out = Path(args.out)
    csvs = sorted(out.glob("*.csv"))
    if not csvs:
        print(f"no CSV reports under {out}", file=sys.stderr)
        return 1
    lines = []
    for path in csvs:
        lines.append(f"== {path.name} ==")
        for raw in path.read_text().splitlines():
            if raw.startswith("#"):
                lines.append(raw)
            else:
                lines.append("  " + "  ".join(f"{c:>12}" for c in raw.split(",")))
        lines.append("")
    text = "\n".join(lines)
    (out / "summary.txt").write_text(text)
    print(text)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="livesight",
        description="Live-stream foresight models: data generation, training, evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed_required=False):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, required=seed_required)
        p.add_argument("--out", help="output directory")

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    common(p, seed_required=True)
    p.add_argument("--streams", type=int)
    p.add_argument("--users", type=int)
    p.add_argument("--buckets", type=int)
    p.set_defaults(func=cmd_gen, out="data")

    p = sub.add_parser("train-stat", help="train the statistic forecaster")
    common(p)
    p.add_argument("--data", required=True, help="dataset directory from gen")
    p.add_argument("--context", type=int)
    p.add_argument("--horizon", type=int)
    p.add_argument("--epochs", type=int)
    p.set_defaults(func=cmd_train_stat)

    p = sub.add_parser("train-prod", help="train the product-sequence forecaster")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--epochs", type=int)
    p.set_defaults(func=cmd_train_prod)

    p = sub.add_parser("train-rank", help="train one ranker variant")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--stat-ckpt", required=True)
    p.add_argument("--prod-ckpt", required=True)
    p.add_argument("--variant", choices=["base", "+stat", "+prod", "+both"])
    p.add_argument("--epochs", type=int)
    p.set_defaults(func=cmd_train_rank)

    p = sub.add_parser("run", help="full pipeline: gen, train everything, report")
    common(p)
    p.add_argument("--variant", choices=["base", "+stat", "+prod", "+both"])
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("ablate", help="run one ablation study")
    common(p)
    p.add_argument("--which", required=True, choices=list(ABLATIONS))
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("report", help="summarize CSV reports as plain text")
    p.add_argument("--out", required=True, help="directory holding the CSVs")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
