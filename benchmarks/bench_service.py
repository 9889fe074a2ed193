"""Benchmark the always-on relay service: sustained load + CI gates.

Runs the open-loop load test (:mod:`repro.service.loadtest`) against
a saturating population — by default 120 concurrent seeded sessions
across 4 equal-weight tenants offering ~3600 frames/s into a dispatch
capacity of ~2400 frames/s — plus a storm scenario that drives chains
through the supervisor ladder mid-run, and writes the measurements to
``BENCH_service.json`` at the repo root.

Hard gates (exit non-zero on violation):

* **conservation** — zero unexplained frame losses: every admitted
  frame is processed or shed for a declared reason, in both scenarios;
* **determinism** — two runs of the same config produce bit-identical
  typed event logs (SHA-256 digest compared);
* **fairness** (``--max-fairness-deviation``, default 0.20) — each
  equal-weight tenant's carried load within 20% of fair share under
  saturation;
* **latency** (``--max-p99-ms``) — p99 per-frame relay processing
  wall time under the bound.  Wall time is machine-dependent, so the
  JSON records the available CPU count next to it (the
  ``bench_sweep.py`` convention) and the gate default is generous;
* **storm** — the storm scenario must show ladder activity (SI jumps
  and at least one half-duplex mute) *and* still conserve frames with
  every session closed — the service stayed up.

Usage::

    PYTHONPATH=src python benchmarks/bench_service.py
    PYTHONPATH=src python benchmarks/bench_service.py \
        --sessions 120 --max-p99-ms 50 --out /tmp/bench.json
"""

import argparse
import json
import os
import sys
import time

from repro.service import LoadTestConfig, run_loadtest
from machine import available_cpus, machine_block


def _run(label, config):
    start = time.perf_counter()
    report, pump = run_loadtest(config)
    wall = time.perf_counter() - start
    frames = report.frames
    print(f"  {label:<10} {wall:7.2f} s wall   "
          f"offered {frames['offered']}, carried {frames['processed']}, "
          f"shed {frames['shed']} ({frames['shed_rate']:.0%}), "
          f"deterministic={report.deterministic}")
    return report, wall


def run(sessions, tenants, seed, duration, rate, capacity, storm_rate):
    cpus = available_cpus()
    print(f"service benchmark: {sessions} sessions / {tenants} tenants, "
          f"{rate:.0f} fps for {duration:.1f} s virtual, capacity "
          f"{capacity}/tick, cpus available={cpus}")

    saturated, wall_sat = _run("saturated", LoadTestConfig.saturating(
        sessions=sessions, tenants=tenants, seed=seed, rate_fps=rate,
        duration_s=duration, capacity_per_tick=capacity))
    storm, wall_storm = _run("storm", LoadTestConfig.saturating(
        sessions=max(sessions // 4, 8), tenants=tenants, seed=seed + 1,
        rate_fps=rate, duration_s=duration, capacity_per_tick=None,
        storm_rate_per_s=storm_rate))

    return {
        "scenarios": {
            "saturated": {**saturated.as_dict(),
                          "wall_s": round(wall_sat, 3)},
            "storm": {**storm.as_dict(), "wall_s": round(wall_storm, 3)},
        },
        "machine": machine_block(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sessions", type=int, default=120)
    parser.add_argument("--tenants", type=int, default=4)
    parser.add_argument("--seed", type=int, default=2014)
    parser.add_argument("--duration", type=float, default=1.0,
                        help="per-session traffic window, virtual seconds")
    parser.add_argument("--rate", type=float, default=30.0,
                        help="per-session offered rate, frames/s")
    parser.add_argument("--capacity", type=int, default=12,
                        help="dispatch budget per 5 ms tick (12 -> "
                             "2400 frames/s carried capacity)")
    parser.add_argument("--storm-rate", type=float, default=4.0,
                        help="per-chain storm arrival rate for the "
                             "storm scenario, storms/s")
    parser.add_argument("--out", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCH_service.json"))
    parser.add_argument("--max-fairness-deviation", type=float,
                        default=0.20,
                        help="fail if any equal-weight tenant deviates "
                             "more than this from fair share")
    parser.add_argument("--max-p99-ms", type=float, default=50.0,
                        help="fail if p99 per-frame processing wall "
                             "time exceeds this bound")
    parser.add_argument("--min-shed-rate", type=float, default=0.01,
                        help="the saturated scenario must actually "
                             "shed (sanity check that the load was "
                             "a real overload)")
    args = parser.parse_args(argv)

    record = run(args.sessions, args.tenants, args.seed, args.duration,
                 args.rate, args.capacity, args.storm_rate)
    saturated = record["scenarios"]["saturated"]
    storm = record["scenarios"]["storm"]

    failures = []

    def gate(name, passed, message):
        record.setdefault("gates", {})[name] = {"passed": bool(passed),
                                                "detail": message}
        if not passed:
            failures.append(f"{name}: {message}")

    for label, scenario in (("saturated", saturated), ("storm", storm)):
        gate(f"conservation-{label}", scenario["conserved"],
             f"admitted == processed + shed must hold ({label})")
        gate(f"determinism-{label}", scenario["deterministic"],
             f"same-seed event digests must match ({label})")
        shed_reasons = set(scenario["shed_reasons"])
        gate(f"declared-shed-{label}",
             shed_reasons <= {"queue-full", "half-duplex", "drain"},
             f"undeclared shed reasons {sorted(shed_reasons)} ({label})")
    gate("sessions-closed",
         saturated["sessions"]["closed"]
         == saturated["config"]["sessions"],
         f"{saturated['sessions']['closed']} of "
         f"{saturated['config']['sessions']} sessions closed")
    gate("overloaded",
         saturated["frames"]["shed_rate"] >= args.min_shed_rate,
         f"shed rate {saturated['frames']['shed_rate']:.1%} < "
         f"{args.min_shed_rate:.0%} — the scenario did not saturate")
    deviation = saturated["fairness"]["max_deviation"]
    gate("fairness", deviation <= args.max_fairness_deviation,
         f"max tenant deviation {deviation:.1%} > "
         f"{args.max_fairness_deviation:.0%} of fair share")
    p99 = saturated["latency"].get("process", {}).get("p99_ms")
    gate("p99-latency", p99 is not None and p99 <= args.max_p99_ms,
         f"p99 process latency {p99} ms > {args.max_p99_ms} ms "
         f"(wall-clock: see machine.available_cpus)")
    gate("storm-ladder",
         storm["supervisor"]["si_jumps"] > 0
         and storm["supervisor"]["mutes"] > 0
         and storm["supervisor"]["recoveries"] > 0,
         f"storm scenario showed {storm['supervisor']['si_jumps']} jumps,"
         f" {storm['supervisor']['mutes']} mutes, "
         f"{storm['supervisor']['recoveries']} recoveries — ladder "
         f"must mute and recover")
    gate("storm-service-up",
         storm["sessions"]["closed"] == storm["config"]["sessions"],
         f"{storm['sessions']['closed']} of "
         f"{storm['config']['sessions']} sessions closed under storms")

    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"  wrote {args.out}")
    print(f"  fairness deviation {deviation:.1%}, p99 process "
          f"{p99 if p99 is not None else '-'} ms, storm mutes "
          f"{storm['supervisor']['mutes']}")

    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
