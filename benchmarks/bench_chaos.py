"""Benchmark + gate for fault-tolerant sweep execution under chaos.

Runs the same ``netsim.overall-gains-client`` task set three ways:

1. **clean serial** — the ground truth, no fault tolerance engaged;
2. **tolerant serial** — fault tolerance armed but nothing injected,
   which isolates the overhead of the armed recovery machinery;
3. **chaotic parallel** — process backend with seeded chaos injection
   (raised exceptions, SIGKILLed workers, one deliberately poisoned
   task) plus retries, timeouts and quarantine.

Gates (exit non-zero on violation, for CI):

- zero lost tasks: every non-quarantined slot holds a result;
- exact quarantine: the quarantined set is precisely the poisoned set;
- bit-identical salvage: every surviving result equals the clean
  serial run, array-for-array;
- determinism: rerunning the chaotic sweep with the same chaos seed
  reproduces the same results and the same quarantine set;
- optional ``--max-ft-overhead``: tolerant serial must not be more
  than the given factor slower than plain serial.

Usage::

    PYTHONPATH=src python benchmarks/bench_chaos.py
    PYTHONPATH=src python benchmarks/bench_chaos.py \
        --clients 12 --jobs 2 --error 0.3 --kill 0.15 --out /tmp/chaos.json
"""

import argparse
import json
import os
import sys
import time

import numpy as np

from repro.exec import ChaosPolicy, RetryPolicy, run_sweep
from repro.netsim.experiments import _client_tasks, paper_scenarios
from machine import machine_block

RESULT_KEYS = ("ap", "hd", "ff", "snr", "streams")


def _timed(label, fn):
    start = time.perf_counter()
    out = fn()
    wall = time.perf_counter() - start
    print(f"  {label:<18} {wall:8.3f} s   [{out.stats.summary()}]")
    return wall, out


def _identical(a, b):
    return all(np.array_equal(a[key], b[key]) for key in RESULT_KEYS)


def run(args):
    tasks = _client_tasks("netsim.overall-gains-client", paper_scenarios(),
                          args.clients, args.seed, stream=100)
    poison = (len(tasks) // 2,)
    chaos = ChaosPolicy(seed=args.chaos_seed, error_rate=args.error,
                        kill_rate=args.kill, poison=poison)
    policy = RetryPolicy(max_retries=args.max_retries,
                         task_timeout_s=args.task_timeout,
                         backoff_base_s=0.005, backoff_max_s=0.05,
                         seed=args.chaos_seed)
    print(f"chaos benchmark: {len(tasks)} tasks, jobs={args.jobs}, "
          f"chunk={args.chunk}, error={args.error}, kill={args.kill}, "
          f"poison={poison}, chaos seed={args.chaos_seed}")

    clean_s, clean = _timed("serial clean", lambda: run_sweep(
        tasks, jobs=1, cache=False))
    tolerant_s, tolerant = _timed("serial tolerant", lambda: run_sweep(
        tasks, jobs=1, cache=False, retry_policy=policy))
    chaotic_s, chaotic = _timed("chaotic parallel", lambda: run_sweep(
        tasks, jobs=args.jobs, backend="process", chunk_size=args.chunk,
        cache=False, retry_policy=policy, chaos=chaos))
    rerun_s, rerun = _timed("chaotic rerun", lambda: run_sweep(
        tasks, jobs=args.jobs, backend="process", chunk_size=args.chunk,
        cache=False, retry_policy=policy, chaos=chaos))

    failures = []
    quarantined = tuple(f.index for f in chaotic.failures)
    if quarantined != poison:
        failures.append(f"quarantine set {quarantined} != poisoned {poison}")
    lost = [i for i, r in enumerate(chaotic.results)
            if r is None and i not in poison]
    if lost:
        failures.append(f"{len(lost)} tasks lost without a failure "
                        f"record: {lost[:8]}")
    mismatched = [i for i, (a, b) in enumerate(zip(clean.results,
                                                   chaotic.results))
                  if i not in poison and not _identical(a, b)]
    if mismatched:
        failures.append(f"{len(mismatched)} salvaged results differ from "
                        f"the clean serial run: {mismatched[:8]}")
    if not all(_identical(a, b) for a, b in zip(tolerant.results,
                                                clean.results)):
        failures.append("tolerant serial run differs from plain serial")
    if tuple(f.index for f in rerun.failures) != quarantined:
        failures.append("chaotic rerun quarantined a different set")
    redrawn = [i for i, (a, b) in enumerate(zip(chaotic.results,
                                                rerun.results))
               if i not in poison and not _identical(a, b)]
    if redrawn:
        failures.append(f"chaotic rerun nondeterministic at {redrawn[:8]}")
    if not failures:
        print("  gates: zero lost tasks, exact quarantine, bit-identical "
              "salvage, deterministic rerun — all OK")

    overhead = tolerant_s / clean_s if clean_s > 0 else float("nan")
    record = {
        "tasks": len(tasks),
        "jobs": args.jobs,
        "chunk_size": args.chunk,
        "chaos": {"seed": args.chaos_seed, "error_rate": args.error,
                  "kill_rate": args.kill, "poison": list(poison)},
        "retry": {"max_retries": args.max_retries,
                  "task_timeout_s": args.task_timeout},
        "serial_clean_s": round(clean_s, 4),
        "serial_tolerant_s": round(tolerant_s, 4),
        "chaotic_parallel_s": round(chaotic_s, 4),
        "chaotic_rerun_s": round(rerun_s, 4),
        "ft_overhead": round(overhead, 3),
        "recovery": {
            "retries": chaotic.stats.retries,
            "worker_crashes": chaotic.stats.worker_crashes,
            "respawns": chaotic.stats.respawns,
            "chunk_splits": chaotic.stats.chunk_splits,
            "timeouts": chaotic.stats.timeouts,
            "quarantined": chaotic.stats.quarantined,
            "degraded_to": chaotic.stats.degraded_to,
        },
        "gates_failed": failures,
        "machine": machine_block(),
    }
    return record, failures, overhead


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clients", type=int, default=12)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--chunk", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--chaos-seed", type=int, default=7)
    parser.add_argument("--error", type=float, default=0.25,
                        help="per-task injected-exception probability")
    parser.add_argument("--kill", type=float, default=0.1,
                        help="per-task worker-SIGKILL probability")
    parser.add_argument("--max-retries", type=int, default=6)
    parser.add_argument("--task-timeout", type=float, default=120.0)
    parser.add_argument("--max-ft-overhead", type=float, default=0.0,
                        help="fail when the tolerant serial run is more "
                             "than this factor slower than plain serial "
                             "(0 disables the gate)")
    parser.add_argument("--out", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCH_chaos.json"))
    args = parser.parse_args(argv)

    record, failures, overhead = run(args)

    if args.max_ft_overhead and overhead > args.max_ft_overhead:
        failures.append(f"ft overhead {overhead:.2f}x > allowed "
                        f"{args.max_ft_overhead:.2f}x")
        record["gates_failed"] = failures

    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"  wrote {args.out}")
    print(f"  ft overhead (tolerant serial / clean serial): {overhead:.2f}x")

    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
