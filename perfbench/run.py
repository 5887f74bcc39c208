"""livesight benchmark: three workloads, end-to-end metrics, and a traced per-module run.

Run from the root of a livesight checkout:

    python3 perfbench/run.py --workload run-cold --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload at seed 0
    python3 perfbench/run.py --quick                 # smoke test on the tiny config

Each measurement runs in a fresh `python3 perfbench/workload.py` process, one
at a time. A run repeats its workload until `--seconds` of timed work have
passed (at least once) and reports medians:
- `wall_s`: wall time of the timed region;
- `peak_rss_mb`: peak resident memory of the workload process;
- `setup_s`: process start to the start of the timed region, measured in
  every workload process plus `SETUP_REPEATS` processes that only set up.
With `--trace 1` one more process runs the workload under the timing
wrappers of `tracer.py`; its per-module metrics replace the end-to-end ones
in the result line, and `trace.overhead_s` is its wall time minus the
untraced median.

The warm workloads reuse forecaster checkpoints cached under `.bench_cache/`,
keyed by the contents of `src/` and of `workload.py`; building them is not
part of `setup_s`. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; `error_rate` (failed checks
over attempted checks) is printed above it. A failed check makes `correct`
false; the exit code is 0 whenever metrics were measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from workload import WORKLOADS  # noqa: E402

SETUP_REPEATS = 9
RUN_LIMIT_S = 175  # a run must end within 180 s
FIXTURE_LIMIT_S = 600
CACHE = Path(".bench_cache")
# exact counts that must repeat between two traced runs of one seed
EXACT = (
    "pipeline.bank_keys", "ranker.calls", "ranker.epochs", "optim.adam_step_calls",
    "tensor.backward_calls", "tensor.step_nodes.stat", "tensor.step_nodes.prod",
    "tensor.step_nodes.rank",
)
MIN_COVERAGE = 0.9


def monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def unit_of(name):
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s") or "_s." in name or name.startswith("self_s."):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name == "trace.coverage":
        return "ratio"
    return "count"


class Runner:
    def __init__(self, seconds, quick, budget=RUN_LIMIT_S):
        self.seconds = seconds
        self.quick = quick
        self.budget = budget  # per workload, counted after its fixture exists
        self.deadline = monotonic() + budget
        self.checker = checks.Checker()
        self.n = 0
        self.reference = {}
        ref_path = HERE / "reference.json"
        if ref_path.exists() and not quick:
            self.reference = json.loads(ref_path.read_text())

    def spawn(self, workload, seed, *flags, fixture=None, limit=RUN_LIMIT_S):
        """Run workload.py once; returns (result dict or None, run directory)."""
        self.n += 1
        tag = f"{os.getpid()}-{self.n}"
        run_dir = CACHE / "runs" / tag
        out = CACHE / "runs" / f"{tag}.json"
        cmd = [
            sys.executable, str(HERE / "workload.py"), "--workload", workload,
            "--seed", str(seed), "--out", str(out), "--run-dir", str(run_dir),
        ]
        if fixture:
            cmd += ["--fixture", str(fixture)]
        if self.quick:
            cmd.append("--quick")
        cmd += list(flags)
        timeout = max(1.0, min(limit, self.deadline - monotonic()))
        try:
            proc = subprocess.run(
                cmd + ["--spawned-at", repr(monotonic())],
                capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            self.checker.check(False, f"{workload}: process exceeded {timeout:.0f} s")
            return None, run_dir
        if proc.returncode != 0 or not out.exists():
            tail = (proc.stderr or proc.stdout).strip().splitlines()[-3:]
            self.checker.check(False, f"{workload}: exited {proc.returncode}: {' | '.join(tail)}")
            return None, run_dir
        result = json.loads(out.read_text())
        out.unlink()
        return result, run_dir

    def fixture(self, workload):
        """Directory of forecaster checkpoints for a warm workload, built once per source tree."""
        if workload == "run-cold":
            return None
        h = hashlib.sha256()
        for path in sorted(Path("src").rglob("*.py")) + [HERE / "workload.py"]:
            h.update(path.as_posix().encode() + b"\0" + path.read_bytes())
        key = f"{workload}{'-quick' if self.quick else ''}-{h.hexdigest()[:16]}"
        final = CACHE / "fixtures" / key
        if final.exists():
            return final
        self.deadline = monotonic() + FIXTURE_LIMIT_S
        result, run_dir = self.spawn(workload, 0, "--build-fixture",
                                     limit=FIXTURE_LIMIT_S)
        if result is None:
            shutil.rmtree(run_dir, ignore_errors=True)
            return None
        print(f"# built {workload} checkpoint fixture in {result['fixture_s']:.1f} s", flush=True)
        final.parent.mkdir(parents=True, exist_ok=True)
        try:
            run_dir.rename(final)
        except OSError:  # another run built it first
            shutil.rmtree(run_dir, ignore_errors=True)
        return final

    def measure(self, workload, seed, trace=False, probe_missing=None, traced_runs=1):
        """Untraced iterations (and traced ones on request) of one workload."""
        fixture = self.fixture(workload)
        if workload != "run-cold" and fixture is None:
            return None
        self.deadline = monotonic() + self.budget
        reference = self.reference.get(workload, {}).get(str(seed))
        setups, walls, rss, texts, traces = [], [], [], None, []
        for _ in range(SETUP_REPEATS):
            res, run_dir = self.spawn(workload, seed, "--setup-only", fixture=fixture)
            shutil.rmtree(run_dir, ignore_errors=True)
            if res:
                setups.append(res["setup_s"])
        env = None
        started = monotonic()
        while not walls or (monotonic() - started < self.seconds
                            and monotonic() + 2 * walls[-1] < self.deadline):
            res, run_dir = self.spawn(workload, seed, fixture=fixture)
            if res:
                setups.append(res["setup_s"])
                walls.append(res["wall_s"])
                rss.append(res["peak_rss_mb"])
                env = res["env"]
                got = self.checker.reports(workload, run_dir, reference, res["epochs"],
                                           res["rank_epochs_limit"])
                texts = texts or got
            shutil.rmtree(run_dir, ignore_errors=True)
            if not res:
                break
        for k in range(traced_runs if trace else 0):
            flags = ["--trace"]
            if probe_missing and k == traced_runs - 1:
                flags += ["--probe-missing", probe_missing]
            res, run_dir = self.spawn(workload, seed, *flags, fixture=fixture)
            if res:
                got = self.checker.reports(workload, run_dir, None, res["epochs"],
                                           res["rank_epochs_limit"])
                for name, text in (texts or {}).items():
                    self.checker.check(checks.body(got.get(name, "")) == checks.body(text),
                                       f"{name}: tracing changed the report")
                layers = res["layers"]
                if walls:
                    layers["trace.overhead_s"] = res["wall_s"] - statistics.median(walls)
                self.checker.check(layers["trace.nesting_errors"] == 0,
                                   f"{workload}: {layers['trace.nesting_errors']} spans nest wrongly")
                self.checker.check(layers["trace.coverage"] >= MIN_COVERAGE,
                                   f"{workload}: top-level spans cover {layers['trace.coverage']:.3f}")
                traces.append(res)
                self._keep_trace(workload, seed, run_dir, layers, res["missing_spans"])
            shutil.rmtree(run_dir, ignore_errors=True)
        if not walls:
            return None
        return {
            "wall_s": statistics.median(walls),
            "peak_rss_mb": statistics.median(rss),
            "setup_s": statistics.median(setups),
            "iterations": len(walls),
            "walls": walls,
            "env": env,
            "texts": texts,
            "traces": traces,
        }

    def _keep_trace(self, workload, seed, run_dir, layers, missing):
        dest = CACHE / "traces"
        dest.mkdir(parents=True, exist_ok=True)
        stem = f"{workload}-seed{seed}{'-quick' if self.quick else ''}"
        spans = run_dir / "spans.jsonl"
        if spans.exists():
            shutil.move(str(spans), dest / f"{stem}.spans.jsonl")
        (dest / f"{stem}.layers.json").write_text(
            json.dumps({"layers": layers, "missing_spans": missing}, indent=1, sort_keys=True)
        )


def print_env(env):
    if env:
        print("# environment: " + ", ".join(f"{k}={v}" for k, v in env.items()), flush=True)


def emit(correct, checker, metrics):
    print(json.dumps({
        "correct": correct,
        "attempted": max(checker.attempted, 1),
        "failed": checker.failed if checker.attempted else 1,
        "metrics": metrics,
    }))


def report_checks(checker, identical):
    rate = checker.failed / checker.attempted if checker.attempted else 1.0
    print(f"error_rate {rate:.6f} ratio ({checker.failed} of {checker.attempted} checks failed)")
    if identical:
        print(f"reports_identical {int(all(identical))} bool "
              f"({sum(identical)} of {len(identical)} report bodies match their reference digest)")
    for reason in checker.reasons[:20]:
        print(f"# failed check: {reason}")


def single(args, spec):
    runner = Runner(args.seconds, False)
    seed = args.seed
    m = runner.measure(args.workload, seed, trace=bool(args.trace))
    ck = runner.checker
    if m is None:
        report_checks(ck, [])
        emit(False, ck, {})
        return 1
    print_env(m["env"])
    print(f"# {args.workload} seed={seed}: {m['iterations']} timed iteration(s), "
          f"walls {', '.join(f'{w:.3f}' for w in m['walls'])} s", flush=True)
    if args.record_reference and ck.failed == 0:
        ref_path = HERE / "reference.json"
        ref = json.loads(ref_path.read_text()) if ref_path.exists() else {}
        ref.setdefault(args.workload, {})[str(seed)] = checks.reference_entry(m["texts"])
        ref_path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
        print(f"# recorded reference for {args.workload} seed {seed}")
    if args.trace:
        if not m["traces"]:
            report_checks(ck, ck.identical)
            emit(False, ck, {})
            return 1
        layers = m["traces"][0]["layers"]
        for name in sorted(layers):
            print(f"{name} {layers[name]} {unit_of(name)}")
        if m["traces"][0]["missing_spans"]:
            print(f"# missing spans: {', '.join(m['traces'][0]['missing_spans'])}")
        metrics = {
            x["name"]: {"value": layers.get(x["name"], 0), "unit": x["unit"]} for x in spec["per_layer"]
        }
    else:
        for x in spec["end_to_end"]:
            print(f"{x['name']} {m[x['name']]} {x['unit']}")
        metrics = {x["name"]: {"value": m[x["name"]], "unit": x["unit"]} for x in spec["end_to_end"]}
    report_checks(ck, ck.identical)
    emit(ck.failed == 0, ck, metrics)
    return 0


def every_workload(args, spec):
    """Every end-to-end metric of every workload at seed 0."""
    runner = Runner(args.seconds, False)
    metrics = {}
    for workload in WORKLOADS:
        m = runner.measure(workload, 0)
        if m is None:
            print(f"# {workload}: no successful run")
            continue
        print_env(m["env"])
        for x in spec["end_to_end"]:
            print(f"{workload} {x['name']} {m[x['name']]} {x['unit']}", flush=True)
            metrics[f"{workload}.{x['name']}"] = {"value": m[x["name"]], "unit": x["unit"]}
    ck = runner.checker
    report_checks(ck, ck.identical)
    emit(ck.failed == 0 and len(metrics) == 3 * len(spec["end_to_end"]), ck, metrics)
    return 0 if ck.failed == 0 else 1


def smoke(spec):
    """Every workload on the tiny config: one untraced and two traced runs each."""
    runner = Runner(0, True)
    ck = runner.checker
    probe = "ranker.__absent_for_smoke_test__"
    seen = {}
    for workload in WORKLOADS:
        m = runner.measure(workload, 0, trace=True,
                           probe_missing=probe, traced_runs=2)
        if m is None or len(m["traces"]) != 2:
            ck.check(False, f"{workload}: smoke run incomplete")
            continue
        first, second = (t["layers"] for t in m["traces"])
        for name in EXACT:
            ck.check(first.get(name) == second.get(name),
                     f"{workload}: {name} {first.get(name)} then {second.get(name)}")
        for x in spec["per_layer"]:
            ck.check(x["name"] in first or x["name"] == "trace.overhead_s",
                     f"{workload}: per-layer metric {x['name']} not reported")
        ck.check(m["traces"][0]["missing_spans"] == [],
                 f"{workload}: missing spans {m['traces'][0]['missing_spans']}")
        ck.check(m["traces"][1]["missing_spans"] == [probe],
                 f"{workload}: probe span reported as {m['traces'][1]['missing_spans']}")
        for name, value in first.items():
            seen[name] = seen.get(name, 0) or value
        print(f"# {workload}: wall {m['wall_s']:.2f} s, setup {m['setup_s']:.2f} s, "
              f"traced wall {first['trace.wall_s']:.2f} s, coverage {first['trace.coverage']:.4f}",
              flush=True)
    idle = sorted(name for name, value in seen.items() if not value and not name.startswith("trace."))
    ck.check(not idle, f"metrics no workload exercised: {idle}")
    report_checks(ck, [])
    print("BENCHMARK.json schema: valid")
    emit(ck.failed == 0, ck, {})
    return 0 if ck.failed == 0 else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0, help="workload seed: the ranker seed")
    ap.add_argument("--seconds", type=float, help="timed work per run (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="smoke test on the tiny config")
    ap.add_argument("--record-reference", action="store_true",
                    help="store this run's report digests as the seed's reference")
    args = ap.parse_args(argv)

    if not (Path("src/livesight/pipeline.py").is_file() and Path("BENCHMARK.json").is_file()):
        print("error: run from the root of a livesight checkout (src/livesight and "
              "BENCHMARK.json not found)", file=sys.stderr)
        return 2
    spec, problems = checks.load_benchmark("BENCHMARK.json")
    if problems:
        print("error: BENCHMARK.json breaks its contract: " + "; ".join(problems), file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    CACHE.mkdir(exist_ok=True)
    if args.quick:
        return smoke(spec)
    if args.workload is None:
        ap.error("--workload is required unless --quick is given")
    if args.workload == "all":
        return every_workload(args, spec)
    return single(args, spec)


if __name__ == "__main__":
    sys.exit(main())
