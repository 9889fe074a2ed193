"""Perf-regression diffing for bench baselines and telemetry runs.

``repro obs diff A B`` compares two recorded runs and flags metrics
that moved past a threshold in the *bad* direction.  Two input shapes:

* **BENCH_*.json** — the repo's committed benchmark baselines (nested
  dicts of numbers).  Leaves are flattened to dotted paths and
  classified by name: ``*_s``/``*_ns``/``latency``/``shed``/… are
  lower-is-better, ``throughput``/``coverage``/… are higher-is-better,
  everything else is informational (reported when changed, never a
  regression) — ``*speedup`` too: each is a ratio of two times the
  record gates itself, and a faster cold run lowers a warm-cache one.
* **telemetry JSONL** — a ``repro report --jsonl`` export.  Span
  groups diff on total wall time, histograms on their mean; counters
  are informational.

The comparison is deliberately *relative* (``--threshold``, default
0.25 = flag a >25% move) because wall time is machine-dependent; the
CI gate diffs two runs of the same machine (self-diff must pass, an
injected 2x regression must fail).  The ``machine`` block itself is
never diffed as a metric, but when both bench records carry one and
their ``cpus``, ``available_cpus`` or ``python`` differ, the report
names those fields (:attr:`DiffReport.machine`) so a wall-time verdict
across two machines is not read as a code change.
"""

from __future__ import annotations

import json

from dataclasses import dataclass, field

#: Substrings (checked in order against the lowercased dotted path)
#: that decide which direction is a regression.  Higher-is-better
#: wins ties by running first on *more specific* tokens, so e.g.
#: ``hit_rate`` is higher-better even though bare ``rate`` is not
#: classified.
_HIGHER_BETTER = ("throughput", "hit_rate", "carried_fps",
                  "offered_fps", "coverage", "rescue", "per_second",
                  "concurrency")
#: Unit suffixes matched against the *leaf* key only (``parallel_s``,
#: ``total_ns``) so e.g. ``block_size`` stays unclassified.
_LOWER_SUFFIXES = ("_s", "_ns", "_ms", "_bytes")
_LOWER_WORDS = ("wall", "latency", "shed", "deviation", "overhead",
                "gap", "misses", "corrupt", "invalidations",
                "truncated", "lost")

#: Path fragments never diffed (environment, gate bookkeeping, knobs).
_SKIPPED = ("machine", "gates", "config", "python", "seed", "cpus")
#: The ``machine`` fields whose difference a bench diff reports.
_MACHINE_FIELDS = ("cpus", "available_cpus", "python")


def classify_metric(path):
    """``"higher"`` / ``"lower"`` / ``None`` for a dotted metric path."""
    lowered = path.lower()
    for token in _HIGHER_BETTER:
        if token in lowered:
            return "higher"
    leaf = lowered.rsplit(".", 1)[-1]
    for suffix in _LOWER_SUFFIXES:
        if leaf.endswith(suffix):
            return "lower"
    for token in _LOWER_WORDS:
        if token in lowered:
            return "lower"
    return None


def _flatten(data, prefix=""):
    """Nested dicts → ``{dotted.path: number}`` (numbers only)."""
    out = {}
    if isinstance(data, dict):
        for key in sorted(data):
            path = f"{prefix}.{key}" if prefix else str(key)
            out.update(_flatten(data[key], path))
    elif isinstance(data, bool):
        pass
    elif isinstance(data, (int, float)):
        out[prefix] = float(data)
    return out


def _is_skipped(path):
    parts = path.lower().split(".")
    return any(part in _SKIPPED for part in parts)


def flatten_bench(record):
    """A BENCH_*.json dict → comparable ``{path: value}`` metrics."""
    return {path: value for path, value in _flatten(record).items()
            if not _is_skipped(path)}


def flatten_telemetry(payload):
    """A telemetry payload → comparable ``{path: value}`` metrics."""
    from repro.telemetry.export import _fmt_labels, _group_spans

    out = {}
    for (name, labels), group in _group_spans(payload).items():
        key = f"span.{name}[{labels}]"
        out[key + ".total_ns"] = float(group["total_ns"])
        out[key + ".count"] = float(group["count"])
    for item in payload.get("histograms", ()):
        key = (f"hist.{item['name']}"
               f"[{_fmt_labels(item.get('labels', {}))}]")
        count = item.get("count", 0)
        out[key + ".mean"] = (float(item.get("total", 0.0)) / count
                              if count else 0.0)
        out[key + ".count"] = float(count)
    for item in payload.get("counters", ()):
        key = (f"counter.{item['name']}"
               f"[{_fmt_labels(item.get('labels', {}))}]")
        out[key] = float(item["value"])
    return out


def _machine_changes(base_record, new_record):
    """``{field: (base, new)}`` for the ``machine`` fields two bench
    records disagree on; empty unless both carry a ``machine`` block."""
    base = base_record.get("machine")
    new = new_record.get("machine")
    if not isinstance(base, dict) or not isinstance(new, dict):
        return {}
    return {name: (base.get(name), new.get(name)) for name in _MACHINE_FIELDS
            if base.get(name) != new.get(name)}


def _read_run(path):
    """``(kind, raw)``: a BENCH JSON dict or a telemetry payload."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        data = None
    if isinstance(data, dict) and "traceEvents" not in data:
        return "bench", data
    from repro.telemetry.export import read_jsonl

    return "telemetry", read_jsonl(path)


def load_run(path):
    """Load a run for diffing: BENCH JSON dict or telemetry JSONL.

    Returns ``(kind, metrics)`` with ``kind`` in ``{"bench",
    "telemetry"}``.
    """
    kind, raw = _read_run(path)
    flatten = flatten_bench if kind == "bench" else flatten_telemetry
    return kind, flatten(raw)


@dataclass(frozen=True)
class DiffEntry:
    """One compared metric."""

    metric: str
    base: float
    new: float
    direction: str              # "higher" | "lower" | "info"
    status: str                 # "ok" | "regression" | "improvement" |
                                # "changed" | "added" | "removed"

    @property
    def ratio(self):
        if self.base == 0:
            return float("inf") if self.new else 1.0
        return self.new / self.base

    def as_dict(self):
        ratio = self.ratio
        return {"metric": self.metric, "base": self.base, "new": self.new,
                "ratio": None if ratio == float("inf") else round(ratio, 4),
                "direction": self.direction, "status": self.status}


@dataclass
class DiffReport:
    """Every compared metric plus the regression verdict."""

    base_path: str
    new_path: str
    threshold: float
    entries: list
    #: ``{field: (base, new)}`` where the two records' ``machine``
    #: blocks differ (bench runs only; see :func:`_machine_changes`).
    machine: dict = field(default_factory=dict)

    @property
    def regressions(self):
        return [e for e in self.entries if e.status == "regression"]

    @property
    def improvements(self):
        return [e for e in self.entries if e.status == "improvement"]

    @property
    def ok(self):
        return not self.regressions

    def as_dict(self):
        return {"base": self.base_path, "new": self.new_path,
                "threshold": self.threshold,
                "regressions": len(self.regressions),
                "improvements": len(self.improvements),
                "machine": {name: {"base": b, "new": n}
                            for name, (b, n) in self.machine.items()},
                "entries": [e.as_dict() for e in self.entries]}

    def format_lines(self, show_ok=False):
        """Human-readable table lines (regressions first)."""
        order = {"regression": 0, "improvement": 1, "changed": 2,
                 "added": 3, "removed": 3, "ok": 4}
        rows = sorted(self.entries,
                      key=lambda e: (order[e.status], e.metric))
        lines = [f"diff: {self.base_path} -> {self.new_path} "
                 f"(threshold {self.threshold:.0%})"]
        if self.machine:
            lines.append("  machines differ: " + ", ".join(
                f"{name} {b} -> {n}" for name, (b, n) in self.machine.items()))
        shown = 0
        for entry in rows:
            if entry.status == "ok" and not show_ok:
                continue
            ratio = entry.ratio
            ratio_s = "inf" if ratio == float("inf") else f"{ratio:6.2f}x"
            marker = {"regression": "REGRESSION", "improvement": "improved",
                      "changed": "changed", "added": "added",
                      "removed": "removed", "ok": "ok"}[entry.status]
            lines.append(f"  {marker:<10} {entry.metric:<58} "
                         f"{entry.base:>12.4g} -> {entry.new:>12.4g} "
                         f"({ratio_s}, {entry.direction})")
            shown += 1
        if not shown:
            lines.append("  no differences past the threshold")
        lines.append(f"  {len(self.regressions)} regression(s), "
                     f"{len(self.improvements)} improvement(s), "
                     f"{len(self.entries)} metrics compared")
        return lines


def diff_metrics(base, new, threshold=0.25, base_path="base",
                 new_path="new"):
    """Compare two flattened metric dicts into a :class:`DiffReport`."""
    if threshold <= 0:
        raise ValueError(f"threshold must be > 0, got {threshold}")
    entries = []
    for metric in sorted(set(base) | set(new)):
        if metric not in new:
            entries.append(DiffEntry(metric, base[metric], 0.0, "info",
                                     "removed"))
            continue
        if metric not in base:
            entries.append(DiffEntry(metric, 0.0, new[metric], "info",
                                     "added"))
            continue
        b, n = base[metric], new[metric]
        direction = classify_metric(metric)
        if direction is None:
            status = "ok" if b == n else "changed"
            entries.append(DiffEntry(metric, b, n, "info", status))
            continue
        status = "ok"
        if direction == "lower":
            if n > b * (1 + threshold) and n - b > 1e-12:
                status = "regression"
            elif b > n * (1 + threshold):
                status = "improvement"
        else:
            if b > n * (1 + threshold) and b - n > 1e-12:
                status = "regression"
            elif n > b * (1 + threshold):
                status = "improvement"
        entries.append(DiffEntry(metric, b, n, direction, status))
    return DiffReport(base_path=base_path, new_path=new_path,
                      threshold=threshold, entries=entries)


def diff_runs(base_path, new_path, threshold=0.25):
    """Load and diff two run files (see :func:`load_run`).

    The two files must be the same kind — diffing a bench baseline
    against a telemetry export compares nothing meaningful.
    """
    base_kind, base = _read_run(base_path)
    new_kind, new = _read_run(new_path)
    if base_kind != new_kind:
        raise ValueError(
            f"cannot diff a {base_kind} run against a {new_kind} run "
            f"({base_path} vs {new_path})")
    flatten = flatten_bench if base_kind == "bench" else flatten_telemetry
    report = diff_metrics(flatten(base), flatten(new), threshold=threshold,
                          base_path=str(base_path), new_path=str(new_path))
    if base_kind == "bench":
        report.machine = _machine_changes(base, new)
    return report


__all__ = ["DiffEntry", "DiffReport", "classify_metric", "diff_metrics",
           "diff_runs", "flatten_bench", "flatten_telemetry", "load_run"]
