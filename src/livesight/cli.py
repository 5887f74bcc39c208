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

from . import pipeline, ranker, simgen
from .config import VARIANTS, ExperimentConfig, load_config
from .errors import LivesightError
from .pipeline import ABLATIONS


# flags that override a field of the model config section a command trains
MODEL_FLAGS = (("context", "context"), ("horizon", "horizon_train"), ("epochs", "epochs"))


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
    over = {
        name: getattr(args, flag) for flag, name in MODEL_FLAGS
        if getattr(args, flag, None) is not None
    }
    if over:
        # through the experiment config, which checks the context against the samples
        section = dataclasses.replace(getattr(cfg, args.section), **over)
        cfg = dataclasses.replace(cfg, **{args.section: section})
    return cfg


def cmd_gen(args):
    cfg = _load_base_config(args)
    world = simgen.gen_world(cfg.sim, cfg.seed)
    manifest = simgen.export_dataset(world, args.out)
    print(
        f"wrote {manifest['counts']['streams']} streams, "
        f"{manifest['counts']['samples']} samples to {args.out}"
    )
    return 0


def cmd_train_forecaster(args):
    """train-stat and train-prod: train one forecaster on the dataset's train
    rooms and save it, by default under the name `run` gives it."""
    cfg = _load_base_config(args)
    world = simgen.import_dataset(args.data)
    train_rooms, _ = pipeline.split_rooms(len(world.panels))
    model_cfg = pipeline.model_configs(cfg)[args.section]
    model, history = pipeline.train_forecaster(model_cfg, world, train_rooms)
    key = pipeline.forecaster_key(model_cfg, pipeline.training_digest(world, train_rooms))
    out = Path(args.out or Path(args.data) / pipeline.checkpoint_name(args.section, key))
    pipeline.save_forecaster(out, model, key)
    print(f"loss {history[0]:.3f} -> {history[-1]:.3f}; saved {out}")
    return 0


def cmd_train_rank(args):
    cfg = _load_base_config(args)
    world = simgen.import_dataset(args.data)
    ranker.check_held_out(world.samples, cfg.rank)
    train_rooms, _ = pipeline.split_rooms(len(world.panels))
    data = pipeline.training_digest(world, train_rooms)
    stat_model = pipeline.load_forecaster(args.stat_ckpt, "stat", world.hierarchy, data)
    prod_model = pipeline.load_forecaster(args.prod_ckpt, "prod", world.hierarchy, data)
    bank, bank_rows = pipeline.build_foresight_bank(
        world, stat_model, prod_model, k_enc=cfg.rank.k_enc
    )
    _, report, history = ranker.train_ranker(
        world.samples, cfg.variant, cfg.rank, bank=bank, rows=bank_rows
    )
    path = pipeline.write_rank_report(cfg.out_dir, cfg, {cfg.variant: report})
    print(f"loss {history[0]:.3f} -> {history[-1]:.3f}")
    for task, m in report.items():
        print(f"{cfg.variant} {task}: AUC={m['AUC']:.4f} UAUC={m['UAUC']:.4f} GAUC={m['GAUC']:.4f}")
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

    for section, model in (("stat", "statistic"), ("prod", "product-sequence")):
        p = sub.add_parser(f"train-{section}", help=f"train the {model} forecaster")
        common(p)
        p.add_argument("--data", required=True, help="dataset directory from gen")
        if section == "stat":
            p.add_argument("--context", type=int)
            p.add_argument("--horizon", type=int)
        p.add_argument("--epochs", type=int)
        p.set_defaults(func=cmd_train_forecaster, section=section)

    p = sub.add_parser("train-rank", help="train one ranker variant")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--stat-ckpt", required=True)
    p.add_argument("--prod-ckpt", required=True)
    p.add_argument("--variant", choices=list(VARIANTS))
    p.add_argument("--epochs", type=int)
    p.set_defaults(func=cmd_train_rank, section="rank")

    p = sub.add_parser("run", help="full pipeline: gen, train everything, report")
    common(p)
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
    except (LivesightError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
