"""Probe baselines: versioned stores and typed drift verdicts.

A :class:`ProbeBaseline` freezes the ``ProbeSet.summary()`` aggregates
of a canonical probe-enabled sweep (next to ``BENCH_sweep.json`` in
spirit: a committed reference the CI gate re-derives and compares).
:func:`compare_to_baseline` yields a :class:`DriftReport` of per-metric
:class:`DriftVerdict` rows — ``pass`` / ``warn`` / ``fail`` against
per-metric tolerances — usable directly as a pytest assertion or a CI
exit code.

The module doubles as the CI gate::

    python -m repro.probes.baseline --write PROBE_BASELINE.json
    python -m repro.probes.baseline --check PROBE_BASELINE.json

``--check`` re-runs the canonical link-health sweep recorded in the
baseline's config block and exits non-zero on any ``fail`` verdict,
printing the per-metric diagnosis.
"""

from __future__ import annotations

import json

from dataclasses import dataclass, field

from repro.utils.atomic import atomic_replace

#: On-disk schema version (bumped on incompatible layout changes).
BASELINE_VERSION = 1

#: Default canonical sweep the committed baseline freezes.
CANONICAL_CONFIG = {
    "experiment": "link-health",
    "num_clients": 4,
    "seed": 2014,
    "n_symbols": 24,
}

#: Per-metric (warn, fail) absolute tolerances, matched by the longest
#: key suffix.  Deliberately loose enough to absorb cross-platform
#: floating-point noise, tight enough that a real physics regression —
#: a lifted residual-SI floor, a blown latency budget, a drifting
#: constellation — trips the gate.
DEFAULT_TOLERANCES = {
    "evm_rms_db": (1.5, 4.0),
    "cancellation_depth_db": (1.0, 3.0),
    "oob_leakage_db": (1.0, 3.0),
    "snr_ewma_db": (1.0, 3.0),
    "papr_db": (0.75, 2.5),
    "flatness": (0.05, 0.15),
    "occupancy": (0.02, 0.08),
    "total_ns": (0.5, 5.0),
    "cp_ns": (0.5, 5.0),
    "margin_ns": (0.5, 5.0),
}

#: Fallback (warn, fail) when no suffix matches: relative to baseline.
DEFAULT_RELATIVE_TOLERANCE = (0.05, 0.20)


def metric_tolerance(name, baseline_value, tolerances=None):
    """The (warn, fail) absolute tolerance pair for ``name``."""
    table = DEFAULT_TOLERANCES if tolerances is None else tolerances
    best = None
    for suffix, tol in table.items():
        if name.endswith(suffix) and (best is None
                                      or len(suffix) > len(best[0])):
            best = (suffix, tol)
    if best is not None:
        return best[1]
    scale = max(abs(float(baseline_value)), 1.0)
    warn, fail = DEFAULT_RELATIVE_TOLERANCE
    return (warn * scale, fail * scale)


@dataclass
class ProbeBaseline:
    """A frozen set of probe aggregates plus the sweep that made them."""

    metrics: dict
    config: dict = field(default_factory=dict)
    version: int = BASELINE_VERSION

    @classmethod
    def from_summary(cls, summary, config=None):
        return cls(metrics={k: float(v) for k, v in summary.items()},
                   config=dict(config or {}))

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        version = data.get("version")
        if version != BASELINE_VERSION:
            raise ValueError(
                f"{path}: baseline version {version!r} unsupported "
                f"(expected {BASELINE_VERSION})")
        return cls(metrics=dict(data["metrics"]),
                   config=dict(data.get("config", {})),
                   version=version)

    def save(self, path):
        payload = {"version": self.version, "config": self.config,
                   "metrics": {k: self.metrics[k]
                               for k in sorted(self.metrics)}}
        with atomic_replace(path) as tmp, \
                open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path


@dataclass(frozen=True)
class DriftVerdict:
    """One metric's drift against the baseline."""

    metric: str
    status: str                  # "pass" | "warn" | "fail"
    baseline: float
    current: float
    delta: float
    warn_at: float
    fail_at: float
    note: str = ""

    def __str__(self):
        detail = self.note or (
            f"baseline {self.baseline:+.4f}, current {self.current:+.4f}, "
            f"drift {self.delta:+.4f} (warn at {self.warn_at:g}, "
            f"fail at {self.fail_at:g})")
        return f"[{self.status.upper():4}] {self.metric}: {detail}"


@dataclass
class DriftReport:
    """Every verdict of one baseline comparison."""

    verdicts: list

    @property
    def status(self):
        order = {"pass": 0, "warn": 1, "fail": 2}
        worst = "pass"
        for verdict in self.verdicts:
            if order[verdict.status] > order[worst]:
                worst = verdict.status
        return worst

    @property
    def ok(self):
        return self.status != "fail"

    @property
    def failures(self):
        return [v for v in self.verdicts if v.status == "fail"]

    @property
    def warnings(self):
        return [v for v in self.verdicts if v.status == "warn"]

    def __str__(self):
        lines = [str(v) for v in self.verdicts
                 if v.status != "pass"]
        lines.append(f"drift gate: {self.status.upper()} "
                     f"({len(self.verdicts)} metrics, "
                     f"{len(self.warnings)} warn, "
                     f"{len(self.failures)} fail)")
        return "\n".join(lines)


def compare_to_baseline(current, baseline, tolerances=None):
    """Typed pass/warn/fail drift verdicts for ``current`` metrics.

    ``current`` is a flat metric dict (``ProbeSet.summary()`` or an
    experiment's aggregated ``probes`` block); ``baseline`` is a
    :class:`ProbeBaseline` or its plain metric dict.  A metric missing
    from ``current`` fails (the probe stopped reporting); a metric new
    in ``current`` warns (extend the baseline deliberately).
    """
    base_metrics = baseline.metrics if isinstance(baseline, ProbeBaseline) \
        else dict(baseline)
    verdicts = []
    for name in sorted(base_metrics):
        expected = float(base_metrics[name])
        warn_at, fail_at = metric_tolerance(name, expected, tolerances)
        if name not in current:
            verdicts.append(DriftVerdict(
                metric=name, status="fail", baseline=expected,
                current=float("nan"), delta=float("inf"),
                warn_at=warn_at, fail_at=fail_at,
                note="metric missing from current run"))
            continue
        value = float(current[name])
        delta = value - expected
        if abs(delta) <= warn_at:
            status = "pass"
        elif abs(delta) <= fail_at:
            status = "warn"
        else:
            status = "fail"
        verdicts.append(DriftVerdict(
            metric=name, status=status, baseline=expected, current=value,
            delta=delta, warn_at=warn_at, fail_at=fail_at))
    for name in sorted(set(current) - set(base_metrics)):
        verdicts.append(DriftVerdict(
            metric=name, status="warn", baseline=float("nan"),
            current=float(current[name]), delta=float("nan"),
            warn_at=0.0, fail_at=0.0,
            note="metric absent from baseline (re-write to adopt)"))
    return DriftReport(verdicts=verdicts)


def canonical_summary(config=None, fault=None, jobs=None, backend=None):
    """Run the canonical probe-enabled sweep; return its aggregates.

    ``fault`` optionally injects an impairment (``"residual-si"`` /
    ``"tap-drift"``) — the deliberate-perturbation path the tests use
    to prove the gate trips with a per-metric diagnosis.
    """
    from repro.netsim.experiments import link_health_experiment

    cfg = dict(CANONICAL_CONFIG)
    cfg.update(config or {})
    data = link_health_experiment(
        num_clients=int(cfg["num_clients"]), seed=int(cfg["seed"]),
        n_symbols=int(cfg["n_symbols"]), fault=fault, jobs=jobs,
        backend=backend)
    return data["probes"], cfg


def main(argv=None):
    """CLI: write or check the committed probe baseline."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.probes.baseline",
        description="Write or drift-check the committed probe baseline.")
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--write", metavar="FILE",
                       help="run the canonical sweep and write FILE")
    group.add_argument("--check", metavar="FILE",
                       help="run the canonical sweep and gate against FILE")
    parser.add_argument("--fault", default=None,
                        choices=["residual-si", "tap-drift"],
                        help="inject a deliberate impairment (gate "
                             "self-test: the check must fail)")
    parser.add_argument("--jobs", type=int, default=None)
    args = parser.parse_args(argv)

    if args.write:
        summary, cfg = canonical_summary(fault=args.fault, jobs=args.jobs)
        ProbeBaseline.from_summary(summary, config=cfg).save(args.write)
        print(f"wrote {len(summary)} probe metrics to {args.write}")
        return 0

    baseline = ProbeBaseline.load(args.check)
    summary, _ = canonical_summary(config=baseline.config, fault=args.fault,
                                   jobs=args.jobs)
    report = compare_to_baseline(summary, baseline)
    print(report)
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())


__all__ = [
    "BASELINE_VERSION",
    "CANONICAL_CONFIG",
    "DEFAULT_TOLERANCES",
    "DriftReport",
    "DriftVerdict",
    "ProbeBaseline",
    "canonical_summary",
    "compare_to_baseline",
    "metric_tolerance",
]
