"""One benchmark workload in a fresh process.

`run.py` starts this file once per measurement and reads the JSON result file
it writes. It loads `src/` from the checkout, calls livesight's public entry
points for one workload, and starts no thread or process of its own. BLAS
threading is left at the program's default; the environment records what was
found.

    python3 perfbench/workload.py --workload NAME --seed N --out RESULT.json
        --run-dir DIR --spawned-at T [--fixture DIR] [--trace] [--quick]
        [--setup-only | --build-fixture]

The workload seed reaches the program only as the ranker seed (`rank.seed`:
initial weights, eval split and batch order). Each workload's world, and so
its forecasters, is fixed: run-cold and ablate-warm use `livesight run --seed 7`'s
world, rank-80k the acceptance ranking world (seed 101). Seed 0 is the
default `rank.seed`, so run-cold at seed 0 is `livesight run --seed 7`, and the
warm workloads' checkpoint fixture is built once per source tree for all seeds.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

WORKLOADS = ("run-cold", "rank-80k", "ablate-warm")
# each workload's world (and so its forecasters) is fixed; the workload seed is the ranker seed
WORLD_SEEDS = {"run-cold": 7, "rank-80k": 101, "ablate-warm": 7}
ABLATIONS = ("accuracy-stat", "accuracy-prod", "channels", "steps")
# The warm workloads train every ranker for exactly WARM_RANK_EPOCHS epochs.
# With the default 24 and early stopping, the stopping epoch moves with the
# ranker seed (6 to 14 epochs for `base` at 80k samples over seeds 0-2), so
# wall time would measure the seed rather than the code. Early stopping waits
# 3 epochs without improvement, so it can never cut a 4-epoch training short.
WARM_RANK_EPOCHS = 4


def monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def experiment(workload, seed, quick):
    from livesight.config import ExperimentConfig, ProdConfig, RankConfig, SimConfig, StatConfig

    if quick:  # the tiny acceptance config, 2 epochs per model
        sized = dict(sim=SimConfig(streams=10, users=50, n_samples=300),
                     stat=StatConfig(epochs=2), prod=ProdConfig(epochs=2))
        epochs = 2
    elif workload == "run-cold":
        sized, epochs = {}, RankConfig().epochs
    elif workload == "rank-80k":
        sized = dict(sim=SimConfig(streams=100, users=200, n_samples=80000))
        epochs = WARM_RANK_EPOCHS
    else:
        sized, epochs = {}, WARM_RANK_EPOCHS
    return ExperimentConfig(
        seed=WORLD_SEEDS[workload], rank=RankConfig(epochs=epochs, seed=seed), **sized
    )


def timed_region(workload, cfg):
    """The work whose wall time is `wall_s`. Returns ranker epoch counts seen."""
    from livesight import pipeline

    if workload == "run-cold":
        pipeline.run_pipeline(cfg)
        return []
    if workload == "ablate-warm":
        for which in ABLATIONS:
            pipeline.run_ablation(cfg, which)
        return []
    art = pipeline.prepare(cfg, out_dir=cfg.out_dir, reuse=True)
    rows, epochs = [], []
    for variant in ("base", "+both"):
        report, history = pipeline.train_variant(art, variant)
        epochs.append(len(history))
        for task in cfg.tasks:
            m = report[task]
            rows.append([variant, task, m["AUC"], m["UAUC"], m["GAUC"]])
    # full repr digits: byte identity of this file means identical values
    lines = ["variant,task,AUC,UAUC,GAUC"] + [
        ",".join(str(v) if isinstance(v, str) else repr(float(v)) for v in row) for row in rows
    ]
    Path(cfg.out_dir, "rank_metrics.csv").write_text("\n".join(lines) + "\n")
    return epochs


def environment(root):
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py"))
    )
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "src_lines": src_lines,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="result JSON file")
    ap.add_argument("--run-dir", required=True, help="empty output directory")
    ap.add_argument("--spawned-at", type=float, required=True, help="CLOCK_MONOTONIC at spawn")
    ap.add_argument("--fixture", help="directory of cached forecaster checkpoints")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--quick", action="store_true")
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--build-fixture", action="store_true")
    ap.add_argument("--probe-missing", action="append", default=[],
                    help="extra span name the tracer should expect (smoke test)")
    args = ap.parse_args(argv)

    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    from livesight import pipeline  # imported before the clock stops: set-up cost

    run_dir = Path(args.run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    cfg = dataclasses.replace(experiment(args.workload, args.seed, args.quick), out_dir=str(run_dir))
    result = {"workload": args.workload, "seed": args.seed, "rank_epochs_limit": cfg.rank.epochs}

    if args.build_fixture:
        t0 = monotonic()
        pipeline.prepare(cfg, out_dir=run_dir, reuse=True)
        result["fixture_s"] = monotonic() - t0
        Path(args.out).write_text(json.dumps(result))
        return 0

    if args.fixture:
        for ckpt in sorted(Path(args.fixture).glob("*.ckpt")):
            shutil.copyfile(ckpt, run_dir / ckpt.name)
    tracer = None
    if args.trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer

        tracer = Tracer().install(extra_sources=args.probe_missing)
    ready = monotonic()
    result["setup_s"] = ready - args.spawned_at
    if args.setup_only:
        Path(args.out).write_text(json.dumps(result))
        return 0

    t0 = time.perf_counter()
    epochs = timed_region(args.workload, cfg)
    wall = time.perf_counter() - t0
    result.update(
        wall_s=wall,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        epochs=epochs,
        env=environment(root),
    )
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics(wall)
        result["missing_spans"] = tracer.missing
        with open(run_dir / "spans.jsonl", "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
