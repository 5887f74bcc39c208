"""Timing wrappers installed around livesight's functions from outside the package.

`Tracer.install()` replaces every public function of each livesight module
(and a few model methods) with a timing wrapper, in every livesight module
namespace that holds a reference to it, then the benchmark calls the same
public entry point it calls untraced. Nothing under `src/` changes, and the
pipeline's call order is not copied here: whatever the entry point calls is
what gets timed.

What is recorded:
- per wrapped name: calls, inclusive seconds, self seconds (inclusive minus
  wrapped callees);
- a span (id, parent id, name, start, end) for every call outside the hot
  numeric modules (`tensor`, `layers`, `optim`), which are only aggregated;
- for tensor ops that create a graph node, backward seconds and calls, by
  wrapping the node's backward closure;
- CPU seconds for the three training loops, and RSS after the main stages;
- exact counts: bank keys, ranker epochs, graph nodes of one training step.

A name that `METRIC_SOURCES` expects but no longer exists in the package (a
later change renamed or deleted it) is listed in `missing`, never raised.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import time

HOT_MODULES = ("tensor", "layers", "optim")
MODULES = (
    "tensor", "layers", "optim", "metrics", "checkpoint", "config",
    "simgen", "statfore", "prodfore", "ranker", "pipeline",
)
# trivially cheap helpers called on every op; wrapping them would time the wrapper
SKIP = {"tensor.as_tensor"}
METHODS = (
    ("tensor", "Tensor", "backward"),
    ("statfore", "StatisticModel", "forward"),
    ("prodfore", "ProductModel", "forward_positions"),
    ("ranker", "RankingModel", "features"),
    ("ranker", "RankingModel", "forward"),
)
# private helpers worth their own span; `_banked` is the per-sample bank
# assembly inside train_ranker
PRIVATE = (("ranker", "_banked"),)
TRAINING = {
    "statfore.train_statistic": "stat",
    "prodfore.train_product": "prod",
    "ranker.train_ranker": "rank",
}
MODEL_FORWARD = {
    "statfore.StatisticModel.forward": "stat",
    "prodfore.ProductModel.forward_positions": "prod",
    "ranker.RankingModel.forward": "rank",
}
RSS_STAGES = {
    "simgen.gen_world": "gen",
    "statfore.train_statistic": "train_stat",
    "prodfore.train_product": "train_prod",
    "pipeline.build_foresight_bank": "bank",
    "ranker.train_ranker": "rank",
    "pipeline.forecast_reports": "reports",
}
# every span name a reported metric reads; absent ones become "missing spans"
METRIC_SOURCES = (
    "simgen.gen_world", "simgen.export_dataset",
    "statfore.train_statistic", "statfore.evaluate_statistic",
    "prodfore.train_product", "prodfore.evaluate_hitrate",
    "checkpoint.save_checkpoint", "checkpoint.load_checkpoint",
    "pipeline.prepare", "pipeline.build_foresight_bank", "pipeline.forecast_reports",
    "pipeline.run_ablation", "pipeline.write_csv",
    "ranker.train_ranker", "ranker._banked", "ranker.RankingModel.features",
    "ranker.RankingModel.forward",
    "metrics.auc", "metrics.uauc", "metrics.gauc",
    "statfore.StatisticModel.forward", "prodfore.ProductModel.forward_positions",
    "tensor.Tensor.backward", "optim.adam_step",
)
OPS = (
    "matmul", "layer_norm", "softmax", "softmax_cross_entropy",
    "binary_cross_entropy", "embedding", "add", "mul",
)

_PAGE = os.sysconf("SC_PAGE_SIZE")


def rss_mb():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE / 2**20


def _graph_size(root):
    """Graph nodes reachable from a loss: op nodes plus parameter leaves."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


class Tracer:
    def __init__(self):
        self.stats = {}  # name -> [calls, inclusive_s, self_s]
        self.bwd = {}  # op name -> [calls, seconds]
        self.cpu = {}  # name -> cpu seconds
        self.counts = {}
        self.rss = {}  # stage -> max RSS (MB) right after the stage
        self.spans = []  # (id, parent_id, name, start, end)
        self.missing = []
        self._frames = []  # child-time accumulators of the open calls
        self._span_ids = []  # ids of the open recorded spans
        self._kind = []  # which model's training loop is open
        self._restore = []

    # -- installation -----------------------------------------------------

    def install(self, extra_sources=()):
        pkg = {}
        for short in MODULES:
            try:
                pkg[short] = importlib.import_module(f"livesight.{short}")
            except ModuleNotFoundError:  # a removed module: its names show up as missing
                pass
        namespaces = [m for name, m in sys.modules.items() if name.split(".")[0] == "livesight"]
        wrapped = set()
        for short, mod in pkg.items():
            targets = [
                (attr, fn) for attr, fn in vars(mod).items()
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__
                and (not attr.startswith("_") or (short, attr) in PRIVATE)
            ]
            for attr, fn in targets:
                name = f"{short}.{attr}"
                if name in SKIP:
                    continue
                wrapper = self._wrap(name, fn, short)
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is fn:
                            setattr(ns, key, wrapper)
                            self._restore.append((ns, key, fn))
                wrapped.add(name)
        for short, cls_name, meth in METHODS:
            cls = getattr(pkg.get(short), cls_name, None)
            fn = getattr(cls, meth, None) if cls is not None else None
            if fn is None:
                continue
            name = f"{short}.{cls_name}.{meth}"
            setattr(cls, meth, self._wrap(name, fn, short))
            self._restore.append((cls, meth, fn))
            wrapped.add(name)
        self.missing = sorted(n for n in (*METRIC_SOURCES, *extra_sources) if n not in wrapped)
        return self

    def uninstall(self):
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore = []

    def _wrap(self, name, fn, module):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        frames, span_ids, spans = self._frames, self._span_ids, self.spans
        clock = time.perf_counter
        record = module not in HOT_MODULES
        is_op = module == "tensor" and name != "tensor.Tensor.backward"
        kind = TRAINING.get(name)
        cpu = kind is not None
        rss_stage = RSS_STAGES.get(name)
        after = self._after_hook(name)

        def wrapper(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            if record:
                sid = len(spans)
                parent = span_ids[-1] if span_ids else None
                span_ids.append(sid)
                spans.append(None)  # reserve the id; filled on exit
            if kind:
                self._kind.append(kind)
            c0 = time.process_time() if cpu else 0.0
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                frames.pop()
                dt = t1 - t0
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[0]
                if frames:
                    frames[-1][0] += dt
                if record:
                    span_ids.pop()
                    spans[sid] = (sid, parent, name, t0, t1)
                if kind:
                    self._kind.pop()
                    self.cpu[name] = self.cpu.get(name, 0.0) + time.process_time() - c0
                if rss_stage:
                    self.rss[rss_stage] = max(self.rss.get(rss_stage, 0.0), rss_mb())
            # composite ops (tmean) return a node an inner op already timed
            closure = getattr(out, "_backward", None) if is_op else None
            if closure is not None and not hasattr(closure, "traced_op"):
                out._backward = self._timed_backward(name, closure)
            if after:
                try:
                    after(args, out)
                except (AttributeError, IndexError, KeyError, TypeError):
                    # the function now returns another shape: report, don't crash
                    if name not in self.missing:
                        self.missing.append(name)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _timed_backward(self, name, closure):
        acc = self.bwd.setdefault(name, [0, 0.0])
        clock = time.perf_counter

        def backward(g):
            t0 = clock()
            try:
                closure(g)
            finally:
                acc[0] += 1
                acc[1] += clock() - t0

        backward.traced_op = name
        return backward

    # -- exact counts -------------------------------------------------------

    def _count(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def _after_hook(self, name):
        if name == "pipeline.build_foresight_bank":

            def keys(args, out):  # the same bank may be rebuilt; count it once
                self.counts["pipeline.bank_keys"] = max(self.counts.get("pipeline.bank_keys", 0), len(out[0]))

            return keys
        if name == "ranker.train_ranker":
            return lambda args, out: self._count("ranker.epochs", len(out[2]))
        if name in MODEL_FORWARD:
            kind = MODEL_FORWARD[name]

            def rows(args, out):
                if self._kind and self._kind[-1] == kind:
                    shape = args[1].shape
                    # product batches are (B, L, 4) events: count positions
                    n = shape[0] * shape[1] if kind == "prod" else shape[0]
                    self._count(f"train_rows.{kind}", int(n))

            return rows
        if name == "tensor.Tensor.backward":

            def nodes(args, out):
                key = f"tensor.step_nodes.{self._kind[-1]}" if self._kind else None
                # the graph of a training step has one fixed shape per model
                if key and key not in self.counts:
                    self.counts[key] = _graph_size(args[0])

            return nodes
        return None

    # -- results -------------------------------------------------------------

    def nesting_errors(self):
        """Spans whose parent is missing, opened later, or does not enclose them."""
        bad = 0
        for sid, parent, _name, t0, t1 in self.spans:
            if parent is None:
                continue
            p = self.spans[parent]
            if not (parent < sid and p[3] <= t0 and t1 <= p[4]):
                bad += 1
        return bad

    def top_level_seconds(self):
        return sum(t1 - t0 for _sid, parent, _n, t0, t1 in self.spans if parent is None)

    def metrics(self, wall):
        """Per-module metrics of one traced timed region that took `wall` seconds."""
        st, counts = self.stats, self.counts

        def incl(name):
            return st.get(name, (0, 0.0, 0.0))[1]

        def calls(name):
            return st.get(name, (0, 0.0, 0.0))[0]

        def rate(rows, seconds):
            return rows / seconds if seconds > 0 else 0.0

        m = {
            "simgen.gen_world_s": incl("simgen.gen_world"),
            "simgen.export_dataset_s": incl("simgen.export_dataset"),
            "statfore.train_statistic_s": incl("statfore.train_statistic"),
            "statfore.train_statistic_cpu_s": self.cpu.get("statfore.train_statistic", 0.0),
            "statfore.windows_per_s": rate(counts.get("train_rows.stat", 0), incl("statfore.train_statistic")),
            "statfore.evaluate_s": incl("statfore.evaluate_statistic"),
            "prodfore.train_product_s": incl("prodfore.train_product"),
            "prodfore.train_product_cpu_s": self.cpu.get("prodfore.train_product", 0.0),
            "prodfore.positions_per_s": rate(counts.get("train_rows.prod", 0), incl("prodfore.train_product")),
            "prodfore.evaluate_hitrate_s": incl("prodfore.evaluate_hitrate"),
            "checkpoint.save_s": incl("checkpoint.save_checkpoint"),
            "checkpoint.load_s": incl("checkpoint.load_checkpoint"),
            "pipeline.prepare_s": incl("pipeline.prepare"),
            "pipeline.build_foresight_bank_s": incl("pipeline.build_foresight_bank"),
            "pipeline.bank_keys": counts.get("pipeline.bank_keys", 0),
            "pipeline.forecast_reports_s": incl("pipeline.forecast_reports"),
            "pipeline.run_ablation_self_s": st.get("pipeline.run_ablation", (0, 0.0, 0.0))[2],
            "pipeline.write_csv_s": incl("pipeline.write_csv"),
            "ranker.train_ranker_s": incl("ranker.train_ranker"),
            "ranker.train_ranker_cpu_s": self.cpu.get("ranker.train_ranker", 0.0),
            "ranker.calls": calls("ranker.train_ranker"),
            "ranker.epochs": counts.get("ranker.epochs", 0),
            "ranker.examples_per_s": rate(counts.get("train_rows.rank", 0), incl("ranker.train_ranker")),
            "ranker.forward_s": incl("ranker.RankingModel.features") + incl("ranker.RankingModel.forward"),
            "ranker.bank_assembly_s": incl("ranker._banked"),
            "metrics.auc_s": incl("metrics.auc"),
            "metrics.uauc_s": incl("metrics.uauc"),
            "metrics.gauc_s": incl("metrics.gauc"),
            "model.forward_s.stat": incl("statfore.StatisticModel.forward"),
            "model.forward_s.prod": incl("prodfore.ProductModel.forward_positions"),
            "model.forward_s.rank": incl("ranker.RankingModel.forward"),
            "tensor.backward_s": incl("tensor.Tensor.backward"),
            "tensor.backward_calls": calls("tensor.Tensor.backward"),
            "optim.adam_step_s": incl("optim.adam_step"),
            "optim.adam_step_calls": calls("optim.adam_step"),
        }
        for op in OPS:
            m[f"tensor.{op}.fwd_s"] = incl(f"tensor.{op}")
            m[f"tensor.{op}.bwd_s"] = self.bwd.get(f"tensor.{op}", (0, 0.0))[1]
            m[f"tensor.{op}.calls"] = calls(f"tensor.{op}")
        for kind in ("stat", "prod", "rank"):
            m[f"tensor.step_nodes.{kind}"] = counts.get(f"tensor.step_nodes.{kind}", 0)
        for stage in RSS_STAGES.values():
            m[f"rss_after.{stage}_mb"] = self.rss.get(stage, 0.0)
        for name, (_calls, _incl, self_s) in st.items():
            key = f"self_s.{name.split('.')[0]}"
            m[key] = m.get(key, 0.0) + self_s
        covered = self.top_level_seconds()
        m["trace.wall_s"] = wall
        m["trace.coverage"] = covered / wall if wall > 0 else 0.0
        m["trace.uncovered_s"] = wall - covered
        m["trace.spans"] = len(self.spans)
        m["trace.nesting_errors"] = self.nesting_errors()
        m["trace.missing_spans"] = len(self.missing)
        return m
