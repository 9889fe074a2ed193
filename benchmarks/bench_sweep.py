"""Benchmark the repro.exec sweep engine: serial vs parallel vs warm cache.

Runs ``overall_gains_experiment`` three ways — serial cold, parallel
cold on the process backend, then again against the now-warm result
cache — verifies all three produce bit-identical arrays, and writes
the wall times and speedups to a JSON baseline (``BENCH_sweep.json``
at the repo root by default).

The machine's *available* CPU count (scheduler affinity, not just
``os.cpu_count()``) is autodetected and recorded.  The parallel
speedup gate (``--min-parallel-speedup``) is only evaluated when at
least two CPUs are actually available; on an under-provisioned machine
the gate is skipped and the JSON record says so explicitly — a 0.79x
"speedup" measured on one core is a provisioning artefact, not an
engine regression, and must not be presented as either a pass or a
meaningful number.

Doubles as a CI gate: ``--min-warm-speedup X`` exits non-zero when the
warm-cache rerun is not at least ``X`` times faster than the cold run.

Usage::

    PYTHONPATH=src python benchmarks/bench_sweep.py
    PYTHONPATH=src python benchmarks/bench_sweep.py \
        --clients 12 --jobs 2 --min-warm-speedup 2.0 --out /tmp/bench.json
"""

import argparse
import json
import os
import sys
import tempfile
import time

import numpy as np

from repro.exec import ResultCache, last_sweep_stats
from repro.netsim.experiments import overall_gains_experiment
from machine import available_cpus, machine_block

ARRAY_KEYS = ("ap_only", "half_duplex", "fastforward")


def _timed(label, fn):
    start = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - start
    stats = last_sweep_stats()
    print(f"  {label:<14} {wall:8.3f} s   [{stats.summary() if stats else '-'}]")
    return wall, result


def run(clients, jobs, seed, block):
    cpus = available_cpus()
    print(f"sweep benchmark: overall_gains_experiment("
          f"num_clients={clients}, seed={seed}), jobs={jobs}, "
          f"backend=process, block={block}, cpus available={cpus}")
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(os.path.join(tmp, "cache"))
        serial_s, serial = _timed(
            "serial cold", lambda: overall_gains_experiment(
                num_clients=clients, seed=seed, jobs=1))
        parallel_s, parallel = _timed(
            "parallel cold", lambda: overall_gains_experiment(
                num_clients=clients, seed=seed, jobs=jobs,
                backend="process", cache=cache, block_size=block))
        parallel_stats = last_sweep_stats()
        warm_s, warm = _timed(
            "parallel warm", lambda: overall_gains_experiment(
                num_clients=clients, seed=seed, jobs=jobs,
                backend="process", cache=cache, block_size=block))
        cache_stats = cache.stats

    for key in ARRAY_KEYS:
        if not (np.array_equal(serial[key], parallel[key])
                and np.array_equal(serial[key], warm[key])):
            raise SystemExit(f"FAIL: {key!r} differs across execution modes")
    print("  results bit-identical across serial / parallel / warm cache")

    return {
        "experiment": "overall_gains_experiment",
        "num_clients": clients,
        "seed": seed,
        "jobs": jobs,
        "backend": "process",
        "block_size": block,
        "serial_s": round(serial_s, 4),
        "parallel_s": round(parallel_s, 4),
        "warm_cache_s": round(warm_s, 4),
        "parallel_speedup": round(serial_s / parallel_s, 2),
        "warm_cache_speedup": round(serial_s / warm_s, 2),
        "dispatch": {
            "chunk_size": parallel_stats.chunk_size if parallel_stats else None,
        },
        "cache": {"hits": cache_stats.hits, "misses": cache_stats.misses,
                  "stores": cache_stats.stores},
        "machine": machine_block(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clients", type=int, default=60)
    parser.add_argument("--jobs", type=int,
                        default=min(4, max(available_cpus(), 1)))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--block", type=int, default=4,
                        help="clients per dispatched task "
                             "(netsim client-block batching)")
    parser.add_argument("--out", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCH_sweep.json"))
    parser.add_argument("--min-warm-speedup", type=float, default=0.0,
                        help="fail unless warm cache is at least this "
                             "many times faster than the cold serial run")
    parser.add_argument("--min-parallel-speedup", type=float, default=0.0,
                        help="fail unless parallel cold beats serial cold "
                             "by this factor; skipped (and recorded as "
                             "skipped) when fewer than 2 CPUs are "
                             "available")
    args = parser.parse_args(argv)

    record = run(args.clients, args.jobs, args.seed, args.block)

    cpus = record["machine"]["available_cpus"]
    gate = {"required": args.min_parallel_speedup or None,
            "evaluated": False, "passed": None, "reason": None}
    if args.min_parallel_speedup:
        if cpus < 2:
            gate["reason"] = (
                f"skipped: only {cpus} CPU available — parallel speedup "
                f"on an under-provisioned machine measures the scheduler, "
                f"not the engine")
            print(f"  parallel-speedup gate {gate['reason']}")
        else:
            gate["evaluated"] = True
            gate["passed"] = \
                record["parallel_speedup"] >= args.min_parallel_speedup
    record["parallel_gate"] = gate

    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"  wrote {args.out}")
    print(f"  warm-cache speedup: {record['warm_cache_speedup']:.1f}x "
          f"(parallel: {record['parallel_speedup']:.2f}x)")

    failed = False
    if args.min_warm_speedup and \
            record["warm_cache_speedup"] < args.min_warm_speedup:
        print(f"FAIL: warm-cache speedup {record['warm_cache_speedup']:.1f}x "
              f"< required {args.min_warm_speedup:.1f}x")
        failed = True
    if gate["evaluated"] and not gate["passed"]:
        print(f"FAIL: parallel speedup {record['parallel_speedup']:.2f}x "
              f"< required {args.min_parallel_speedup:.1f}x")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
