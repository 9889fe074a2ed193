"""Benchmark the observability layer: profiler, SLO engine, diff gates.

Three scenarios, each with hard gates (exit non-zero on violation),
writing the measurements to ``BENCH_obs.json`` at the repo root:

* **profile** — run the overall-gains sweep on 2 jobs under a live
  telemetry collector, then profile the recorded payload.  Gates:
  attribution must cover at least 90% of the measured sweep wall with
  named span nodes (``--min-coverage``), the cross-shard critical path
  must name its top-3 stages, and the profiler's own analysis time —
  tree build, attribution, flamegraph render — must stay under 5% of
  the sweep wall it explains (``--max-overhead``);
* **diff** — the freshly-written record must self-diff clean, and a
  synthetic 2x regression injected into ``sweep_s`` (with the
  attribution ``coverage`` halved) must be flagged as a regression;
* **slo** — the storm-scenario service run must fire SLO burn-rate
  alerts into ``status.json``, and two same-seed runs must produce
  bit-identical alert streams.

Usage::

    PYTHONPATH=src python benchmarks/bench_obs.py
    PYTHONPATH=src python benchmarks/bench_obs.py \
        --clients 24 --flamegraph artifacts/flamegraph.html
"""

import argparse
import json
import os
import sys
import tempfile
import time

from repro.netsim.experiments import overall_gains_experiment
from repro.obs import diff_metrics, profile_payload
from repro.obs.diff import flatten_bench
from repro.obs.flamegraph import write_flamegraph_html
from repro.service import ServeConfig, run_once
from repro.telemetry import TelemetryCollector, use_collector
from machine import available_cpus, machine_block


def run_profile(clients, jobs, seed, flamegraph_path):
    print(f"profile scenario: overall_gains_experiment("
          f"num_clients={clients}, seed={seed}), jobs={jobs}, "
          f"backend=process")
    tel = TelemetryCollector(origin="bench-obs")
    start = time.perf_counter()
    with use_collector(tel):
        overall_gains_experiment(num_clients=clients, seed=seed,
                                 jobs=jobs, backend="process")
    sweep_s = time.perf_counter() - start

    start = time.perf_counter()
    report = profile_payload(tel.payload(), cpus=available_cpus())
    if flamegraph_path:
        os.makedirs(os.path.dirname(os.path.abspath(flamegraph_path)),
                    exist_ok=True)
        write_flamegraph_html(report.stacks, flamegraph_path,
                              title="bench_obs gains sweep",
                              verdict_lines=report.verdict_lines())
    analysis_s = time.perf_counter() - start
    overhead = analysis_s / sweep_s if sweep_s else 0.0

    for line in report.verdict_lines():
        print(f"  {line}")
    print(f"  profiler analysis    : {analysis_s * 1e3:.1f} ms "
          f"({100 * overhead:.2f}% of sweep wall)")
    if flamegraph_path:
        print(f"  wrote {flamegraph_path}")

    return {
        "sweep_s": round(sweep_s, 4),
        "analysis_s": round(analysis_s, 4),
        "overhead_frac": round(overhead, 5),
        "coverage": round(report.coverage, 4),
        "concurrency": round(report.concurrency, 3),
        "backend": report.backend,
        "jobs": report.jobs,
        "lanes": report.lanes,
        "gap_frac": round(report.attribution["gap_ns"]
                          / max(report.wall_ns, 1.0), 4),
        "critical_path": [node.name for node in report.critical_path],
        "top_stages": [name for name, _, _ in report.top_stages],
    }


def run_diff(record):
    """Self-diff must pass; a synthetic 2x regression must be caught."""
    base = flatten_bench(record)
    self_report = diff_metrics(base, dict(base))

    worse = json.loads(json.dumps(record))
    worse["profile"]["sweep_s"] = record["profile"]["sweep_s"] * 2.0
    worse["profile"]["coverage"] = record["profile"]["coverage"] * 0.5
    regressed = diff_metrics(base, flatten_bench(worse))
    flagged = {entry.metric for entry in regressed.regressions}

    print(f"diff scenario: self-diff ok={self_report.ok}, synthetic 2x "
          f"regression flagged={sorted(flagged)}")
    return {
        "self_ok": self_report.ok,
        "regression_flagged": not regressed.ok,
        "flagged_metrics": sorted(flagged),
    }


def run_slo(seed):
    """Storm the service twice; alerts must fire, identically."""
    config = ServeConfig(sessions=10, tenants=2, chains=2, seed=seed,
                         rate_fps=80.0, duration_s=0.6,
                         capacity_per_tick=2, storm_rate_per_s=25.0,
                         status_interval_s=0.1)
    with tempfile.TemporaryDirectory() as tmp:
        pump_a, _ = run_once(config, status_dir=tmp)
        status = json.loads(
            open(os.path.join(tmp, "status.json")).read())
    pump_b, _ = run_once(config)

    stream_a = pump_a.slo_engine.alert_stream()
    deterministic = stream_a == pump_b.slo_engine.alert_stream()
    fired = sorted({a["slo"] for a in status["slo"]["alerts"]})
    print(f"slo scenario: {len(stream_a)} alert transitions "
          f"({', '.join(fired) or 'none'}), deterministic={deterministic}")
    return {
        "alert_count": len(stream_a),
        "fired_slos": fired,
        "status_has_alerts": bool(status["slo"]["alerts"]),
        "deterministic": deterministic,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clients", type=int, default=24)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--seed", type=int, default=2014)
    parser.add_argument("--flamegraph", default=None,
                        help="write the sweep flamegraph HTML here "
                             "(CI uploads it as an artifact)")
    parser.add_argument("--min-coverage", type=float, default=0.90,
                        help="fail if attribution covers less of the "
                             "sweep wall than this")
    parser.add_argument("--max-overhead", type=float, default=0.05,
                        help="fail if profiler analysis time exceeds "
                             "this fraction of the sweep wall")
    parser.add_argument("--out", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCH_obs.json"))
    args = parser.parse_args(argv)

    record = {
        "profile": run_profile(args.clients, args.jobs, args.seed,
                               args.flamegraph),
        "machine": machine_block(),
        "config": {"clients": args.clients, "jobs": args.jobs,
                   "seed": args.seed, "backend": "process"},
    }
    record["diff"] = run_diff(record)
    record["slo"] = run_slo(args.seed)

    failures = []

    def gate(name, passed, message):
        record.setdefault("gates", {})[name] = {"passed": bool(passed),
                                                "detail": message}
        if not passed:
            failures.append(f"{name}: {message}")

    profile = record["profile"]
    gate("profile-coverage",
         profile["coverage"] >= args.min_coverage,
         f"attribution covers {profile['coverage']:.1%} of sweep wall "
         f"< {args.min_coverage:.0%}")
    gate("profile-critical-path",
         len(profile["top_stages"]) == 3
         and all(profile["top_stages"]),
         f"critical path names {len(profile['top_stages'])} stages, "
         f"need top-3")
    gate("profile-overhead",
         profile["overhead_frac"] <= args.max_overhead,
         f"profiler analysis {profile['overhead_frac']:.2%} of sweep "
         f"wall > {args.max_overhead:.0%} (wall-clock: see "
         f"machine.available_cpus)")
    gate("diff-self-pass", record["diff"]["self_ok"],
         "self-diff of the fresh record must report no regressions")
    gate("diff-flags-regression", record["diff"]["regression_flagged"],
         "synthetic 2x sweep_s regression must be flagged")
    gate("slo-alerts-fired",
         record["slo"]["status_has_alerts"]
         and record["slo"]["alert_count"] > 0,
         "storm scenario must surface SLO alerts in status.json")
    gate("slo-deterministic", record["slo"]["deterministic"],
         "same-seed storm runs must produce identical alert streams")

    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"  wrote {args.out}")

    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
