"""Correctness checks on a workload's reports, and the BENCHMARK.json schema.

Every report body (the CSV without its `# config_hash=` header line, which
embeds the output path) is hashed and compared with the digest recorded in
`reference.json` for the workload's default seed. Byte identity is reported
as `reports_identical`; it is not required, because a reordered float
reduction may move digits. A check fails only when a value leaves its
tolerance around the reference, or when an invariant breaks:
- every report parses, has its expected rows, and every value is finite;
- every AUC, UAUC and GAUC value lies in [0, 1], and so does every HitRate;
- every MSE is non-negative;
- each ranker training stopped within `rank.epochs` epochs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from pathlib import Path

EXPECTED_ROWS = {
    "run-cold": {"rank_report.csv": 8, "forecast_report.csv": 6},
    "rank-80k": {"rank_metrics.csv": 4},
    "ablate-warm": {
        "ablation_accuracy-stat.csv": 3,
        "ablation_accuracy-prod.csv": 3,
        "ablation_channels.csv": 4,
        "ablation_steps.csv": 5,
    },
}
UNIT_COLUMNS = re.compile(r"^(AUC|UAUC|GAUC|auc_.*|hitrate)$")
# Tolerances around the reference: an AUC may move with a different
# early-stopping epoch, a model MSE with a reordered reduction.
ABS_TOL = {"auc": 0.02, "delta": 0.02, "hitrate": 0.03}
REL_TOL_MSE = 0.05


def body(text):
    return "".join(line for line in text.splitlines(True) if not line.startswith("# config_hash="))


def digest(text):
    return hashlib.sha256(body(text).encode()).hexdigest()


def parse(text):
    """Report text -> (columns, rows), numeric cells as floats."""
    reader = csv.reader(line for line in body(text).splitlines() if line)
    columns = next(reader)
    rows = []
    for raw in reader:
        row = []
        for cell in raw:
            try:
                row.append(float(cell))
            except ValueError:
                row.append(cell)
        rows.append(row)
    return columns, rows


def _kind(column, row):
    """Which value family a cell belongs to, for ranges and tolerances."""
    if column == "value":  # forecast_report.csv: the metric column says what it is
        return "mse" if row[1] == "MSE" else "hitrate"
    if column == "mse":
        return "mse"
    if column == "hitrate":
        return "hitrate"
    if UNIT_COLUMNS.match(column):
        return "auc"
    if column.startswith(("delta_", "gain_")):
        return "delta"
    return None


def _within(kind, value, ref):
    if kind == "mse":
        return abs(value - ref) <= REL_TOL_MSE * abs(ref)
    return abs(value - ref) <= ABS_TOL[kind]


class Checker:
    """Counts attempted and failed checks and keeps the reasons of failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []
        self.identical = []  # per compared report: byte-identical body

    def check(self, ok, reason):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(reason)
        return ok

    def reports(self, workload, run_dir, reference=None, epochs=(), epoch_limit=None):
        """Check every expected report in `run_dir`; returns {name: text} read."""
        texts = {}
        for name, n_rows in EXPECTED_ROWS[workload].items():
            path = Path(run_dir) / name
            if not self.check(path.exists(), f"{name}: missing"):
                continue
            text = path.read_text()
            texts[name] = text
            try:
                columns, rows = parse(text)
            except (StopIteration, csv.Error) as exc:
                self.check(False, f"{name}: does not parse ({exc})")
                continue
            self.check(len(rows) == n_rows, f"{name}: {len(rows)} rows, expected {n_rows}")
            for row in rows:
                for column, value in zip(columns, row):
                    if isinstance(value, float):
                        self._value(name, column, row, value)
            if reference is not None and name in reference:
                self._against(name, text, columns, rows, reference[name])
        for n in epochs:
            self.check(n <= epoch_limit, f"ranker ran {n} epochs > rank.epochs {epoch_limit}")
        return texts

    def _value(self, name, column, row, value):
        kind = _kind(column, row)
        where = f"{name}: {row[0]} {column}={value}"
        if not self.check(math.isfinite(value), f"{where} is not finite"):
            return
        if kind in ("auc", "hitrate"):
            self.check(0.0 <= value <= 1.0, f"{where} outside [0, 1]")
        elif kind == "mse":
            self.check(value >= 0.0, f"{where} is negative")

    def _against(self, name, text, columns, rows, ref):
        self.identical.append(digest(text) == ref["sha256"])
        if not self.check(len(rows) == len(ref["rows"]), f"{name}: row count differs from reference"):
            return
        for row, ref_row in zip(rows, ref["rows"]):
            for column, value, expected in zip(columns, row, ref_row):
                if isinstance(expected, str):
                    self.check(value == expected, f"{name}: {column}={value!r}, reference {expected!r}")
                    continue
                kind = _kind(column, ref_row) or "delta"
                self.check(
                    isinstance(value, float) and _within(kind, value, expected),
                    f"{name}: {row[0]} {column}={value} outside tolerance of reference {expected}",
                )


def reference_entry(texts):
    return {
        name: {"sha256": digest(text), "rows": parse(text)[1]} for name, text in sorted(texts.items())
    }


# ---------------------------------------------------------------------------
# BENCHMARK.json

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def benchmark_problems(doc, size):
    """Every way `doc` breaks the BENCHMARK.json contract; empty when valid."""
    bad = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if size > 64 * 1024:
        bad.append("file larger than 64 KiB")
    if not isinstance(doc, dict) or set(doc) != keys:
        return bad + [f"top-level keys must be exactly {sorted(keys)}"]
    cmd = doc["command"]
    if not (isinstance(cmd, list) and 1 <= len(cmd) <= 32
            and all(isinstance(c, str) and 0 < len(c) <= 200 for c in cmd)):
        bad.append("command: 1-32 strings of at most 200 characters")
    elif any(c.startswith("/") or ".." in c.split("/") for c in cmd):
        bad.append("command: no absolute path and no '..'")
    paths = doc["paths"]
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16
            and all(isinstance(p, str) and PATH.match(p) and ".." not in p.split("/")
                    and not p.startswith("/") for p in paths)):
        bad.append("paths: 1-16 relative paths of letters, digits, _ . - /")
    rs = doc["run_seconds"]
    if not (isinstance(rs, int) and not isinstance(rs, bool) and 1 <= rs <= 60):
        bad.append("run_seconds: whole number 1-60")
    names = []
    wl = doc["workloads"]
    if not (isinstance(wl, list) and 2 <= len(wl) <= 8):
        bad.append("workloads: 2-8 entries")
        wl = []
    for w in wl:
        if not (isinstance(w, dict) and set(w) == {"name", "why"}):
            bad.append(f"workload {w!r}: exactly name and why")
            continue
        names.append(w["name"])
        if not (isinstance(w["why"], str) and 0 < len(w["why"]) <= 200 and "\n" not in w["why"]):
            bad.append(f"workload {w['name']}: why is one line of at most 200 characters")
    for section, lo, hi, fields in (
        ("end_to_end", 1, 16, {"name", "unit", "better", "bound"}),
        ("per_layer", 1, 128, {"name", "unit", "better"}),
    ):
        metrics = doc[section]
        if not (isinstance(metrics, list) and lo <= len(metrics) <= hi):
            bad.append(f"{section}: {lo}-{hi} entries")
            continue
        for m in metrics:
            if not (isinstance(m, dict) and set(m) == fields):
                bad.append(f"{section} {m!r}: keys must be {sorted(fields)}")
                continue
            names.append(m["name"])
            if not (isinstance(m["unit"], str) and UNIT.match(m["unit"])):
                bad.append(f"{m['name']}: bad unit {m['unit']!r}")
            if m["better"] not in ("lower", "higher"):
                bad.append(f"{m['name']}: better must be lower or higher")
            if section == "end_to_end":
                b = m["bound"]
                if not (isinstance(b, (int, float)) and not isinstance(b, bool) and 0 < b <= 0.25):
                    bad.append(f"{m['name']}: bound must be in (0, 0.25]")
        if section == "end_to_end" and not any(
            m.get("name") == "setup_s" and m.get("unit") == "s" and m.get("better") == "lower"
            for m in metrics if isinstance(m, dict)
        ):
            bad.append("end_to_end: needs setup_s in s, lower is better")
    for n in names:
        if not (isinstance(n, str) and NAME.match(n)):
            bad.append(f"bad name {n!r}")
    dupes = sorted({n for n in names if names.count(n) > 1})
    if dupes:
        bad.append(f"names used twice: {dupes}")
    return bad


def load_benchmark(path):
    raw = Path(path).read_bytes()
    doc = json.loads(raw)
    return doc, benchmark_problems(doc, len(raw))
