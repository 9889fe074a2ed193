"""Benchmark + gate for the district-scale fleet sweep.

Runs one seeded district (default: 10×10 homes = 100 relays, 1000
clients) under a relay fault storm four ways — serial, process-pool
parallel, cold cache, warm cache — and gates the fleet layer's whole
contract (exit non-zero on violation, for CI):

- **bit-identical backends**: the process-backed sweep's per-client
  throughput, reroute-latency and rescue arrays equal the serial
  run's exactly;
- **bounded fast reroute**: every observed reroute latency is within
  the policy's hard bound (detection + next sounding tick), and every
  client of a muted relay that has a precomputed backup and a
  feasible switch window actually rerouted (`unrerouted_muted_clients
  == 0`);
- **cache reuse**: the warm rerun must be at least
  ``--min-warm-speedup`` times faster than the cold run.

Writes the throughput / rescue-rate / reroute-latency CDF summaries
to ``BENCH_fleet.json`` (or ``--out``).

Usage::

    PYTHONPATH=src python benchmarks/bench_fleet.py
    PYTHONPATH=src python benchmarks/bench_fleet.py \
        --rows 4 --cols 4 --density 4 --jobs 2 --out /tmp/fleet.json
"""

import argparse
import json
import os
import shutil
import tempfile
import time

import numpy as np

from repro.fleet import fleet_experiment
from machine import machine_block

COMPARE_KEYS = ("throughput_mbps", "reroute_latency_intervals", "rescued",
                "relay_load")


def _timed(label, fn):
    start = time.perf_counter()
    out = fn()
    wall = time.perf_counter() - start
    print(f"  {label:<16} {wall:8.3f} s   ({out['reroutes']} reroutes, "
          f"rescue {out['rescue_rate']:.1%})")
    return wall, out


def _identical(a, b):
    return all(np.array_equal(a[key], b[key]) for key in COMPARE_KEYS)


def run(args):
    kw = {"rows": args.rows, "cols": args.cols,
          "clients_per_home": args.density, "seed": args.seed,
          "policy": args.policy, "storm": args.storm,
          "num_steps": args.steps}
    print(f"fleet benchmark: {args.rows * args.cols} relays, "
          f"{args.rows * args.cols * args.density} clients, "
          f"policy {args.policy}, storm {args.storm}, "
          f"{args.steps} sounding intervals, jobs={args.jobs}")

    serial_s, serial = _timed("serial", lambda: fleet_experiment(
        **kw, jobs=1, backend="serial", cache=False))
    parallel_s, parallel = _timed("process", lambda: fleet_experiment(
        **kw, jobs=args.jobs, backend="process", cache=False))

    cache_dir = tempfile.mkdtemp(prefix="fleet-bench-cache-")
    try:
        cold_s, cold = _timed("cold cache", lambda: fleet_experiment(
            **kw, jobs=1, backend="serial", cache=cache_dir))
        warm_s, warm = _timed("warm cache", lambda: fleet_experiment(
            **kw, jobs=1, backend="serial", cache=cache_dir))
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    warm_speedup = cold_s / warm_s if warm_s > 0 else float("inf")

    failures = []
    if not _identical(serial, parallel):
        failures.append("process backend results differ from serial")
    if not _identical(serial, warm):
        failures.append("warm-cache results differ from serial")
    lat = serial["reroute_latency_intervals"]
    bound = serial["latency_bound_intervals"]
    if lat.size and int(lat.max()) > bound:
        failures.append(f"reroute latency {int(lat.max())} exceeds the "
                        f"policy bound {bound}")
    if serial["unrerouted_muted_clients"]:
        failures.append(f"{serial['unrerouted_muted_clients']} muted-relay "
                        f"clients with a backup never rerouted")
    if not serial["reroutes"]:
        failures.append("storm produced zero reroutes — gate is vacuous")
    if args.min_warm_speedup > 0 and warm_speedup < args.min_warm_speedup:
        failures.append(f"warm-cache speedup {warm_speedup:.2f}x below "
                        f"required {args.min_warm_speedup:.2f}x")
    if not failures:
        print(f"  gates: bit-identical serial/process/warm, "
              f"latency <= {bound} intervals, "
              f"{serial['muted_clients']}/{serial['muted_clients']} muted "
              f"clients rerouted, warm cache {warm_speedup:.1f}x — all OK")

    record = {
        "district": {"rows": args.rows, "cols": args.cols,
                     "clients_per_home": args.density, "seed": args.seed},
        "relays": serial["num_relays"],
        "clients": serial["num_clients"],
        "policy": serial["policy"],
        "storm": serial["storm"],
        "num_steps": serial["num_steps"],
        "jobs": args.jobs,
        "serial_s": round(serial_s, 4),
        "parallel_s": round(parallel_s, 4),
        "cold_cache_s": round(cold_s, 4),
        "warm_cache_s": round(warm_s, 4),
        "warm_speedup": round(warm_speedup, 2),
        "reroutes": serial["reroutes"],
        "failbacks": serial["failbacks"],
        "outage_relays": serial["outage_relays"],
        "muted_clients": serial["muted_clients"],
        "unrerouted_muted_clients": serial["unrerouted_muted_clients"],
        "rescue_rate": round(serial["rescue_rate"], 4),
        "latency_bound_intervals": bound,
        "max_latency_intervals": serial["max_latency_intervals"],
        "throughput_cdf": serial["throughput_cdf"],
        "latency_cdf": serial["latency_cdf"],
        "gates_failed": failures,
        "machine": machine_block(),
    }
    return record, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=10)
    parser.add_argument("--cols", type=int, default=10)
    parser.add_argument("--density", type=int, default=10,
                        help="clients per home (default 10)")
    parser.add_argument("--seed", type=int, default=2014)
    parser.add_argument("--policy", default="hashed-lb")
    parser.add_argument("--storm", type=float, default=0.25)
    parser.add_argument("--steps", type=int, default=240)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--min-warm-speedup", type=float, default=2.0,
                        help="fail when the warm-cache rerun is not at "
                             "least this much faster (0 disables)")
    parser.add_argument("--no-write", action="store_true",
                        help="skip writing the JSON record")
    parser.add_argument("--out", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCH_fleet.json"))
    args = parser.parse_args(argv)

    record, failures = run(args)
    if not args.no_write:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    if failures:
        for failure in failures:
            print(f"GATE FAILED: {failure}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
