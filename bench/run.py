"""Run the benchmark, or compare two of its result files.

    PYTHONPATH=src python bench/run.py [--workload NAME] [--seed S]
        [--seconds T] [--trace [0|1]] [--smoke] [--out FILE]
    python bench/run.py --compare A.json B.json

Every workload runs in a fresh child process (``bench/workloads.py``)
with a clean environment: every ``REPRO_*`` variable unset, BLAS and
OpenMP pinned to one thread, ``PYTHONPATH`` pointing at this checkout's
``src``, and temporary files kept under ``.bench_build/``.  Set-up is
timed from process start to the child's ``READY`` line, five times per
workload; the end-to-end metrics come from untraced runs, the per-layer
metrics from ``--trace 1``.

``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``; a
runner of ``BENCHMARK.json`` passes it explicitly.  ``--smoke`` runs
small inputs and stops after the guard set, whatever ``--seconds``
says.  ``--compare`` refuses two sets made with different seed,
seconds, trace or smoke settings.

Metric names, units and directions are those of ``BENCHMARK.json``;
each workload's guard metrics (output quality, service latency) are
declared with their bounds in ``bench/workloads.py``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}

#: Set-up is measured this many times per workload; the median is kept.
SETUP_REPEATS = 5
#: A workload (its set-up children and its run) must end within this.
WORKLOAD_DEADLINE_S = 170.0


def spread(values):
    """Interquartile range over the median (0 for fewer than 2 values)."""
    values = [float(v) for v in values]
    if len(values) < 2 or statistics.median(values) == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


class WorkloadError(RuntimeError):
    """A child process failed, timed out, or printed no result."""


def machine():
    """The machine block every result file carries."""
    def package(name):
        try:
            return version(name)
        except PackageNotFoundError:
            return None

    return {"cpus": os.cpu_count(),
            "available_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": package("numpy"), "scipy": package("scipy")}


def child_env(tmp):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=str(ROOT / "src"),
               TMPDIR=str(tmp))
    return env


def run_child(argv, env, deadline):
    """Run one child; returns (seconds to READY, its last stdout line)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "workloads.py"),
                             *argv], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - start
        rest = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if first.strip() != "READY" or code != 0:
        raise WorkloadError(f"{' '.join(argv)}: exit code {code}")
    return ready_s, rest[-1] if rest else ""


def run_workload(name, args):
    """Set up five times, measure once; returns the workload's record."""
    deadline = time.monotonic() + WORKLOAD_DEADLINE_S
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=build))
    env = child_env(tmp)
    argv = ["--workload", name, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        argv.append("--smoke")
    try:
        setups = [run_child(argv + ["--setup-only"], env, deadline)[0]
                  for _ in range(SETUP_REPEATS - 1)]
        ready_s, line = run_child(argv, env, deadline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    setups.append(ready_s)
    try:
        child = json.loads(line)
    except json.JSONDecodeError as exc:
        raise WorkloadError(f"{name}: no result line") from exc
    return record(name, child, setups, args.trace)


def record(name, child, setups, traced):
    """Fold a child's raw samples into named, unit-tagged metrics.

    Timed metrics keep their samples and spread, which ``--compare``
    uses to tell a change from noise.
    """
    walls, items = child["walls_s"], child["items_per_iteration"]
    samples = {"setup_s": setups, "wall_s": walls,
               "work_per_s": [i / w for i, w in zip(items, walls)]}
    if "realtime_factor" in child["guards"]:
        virtual_s = child["guards"]["realtime_factor"] * statistics.median(walls)
        samples["realtime_factor"] = [virtual_s / w for w in walls]

    def metric(n, value, unit, **extra):
        if n in samples:
            extra.update(spread=spread(samples[n]), samples=samples[n])
        return {"value": value, "unit": unit, **extra}

    if traced:
        extra = set(child["per_layer"]) - set(PER_LAYER)
        if extra:
            raise WorkloadError(f"{name}: undeclared metrics {sorted(extra)}")
        metrics = {n: {"value": child["per_layer"].get(n, 0),
                       "unit": m["unit"]} for n, m in PER_LAYER.items()}
    else:
        values = {n: statistics.median(s) for n, s in samples.items()}
        values["peak_rss_mb"] = child["peak_rss_mb"]
        metrics = {n: metric(n, values[n], m["unit"], spread=0.0)
                   for n, m in E2E.items()}
    declared = WORKLOADS[name].guards
    guards = {g: metric(g, value, declared[g][0], better=declared[g][1],
                        bound=declared[g][2], spread=0.0)
              for g, value in child["guards"].items()}
    out = {"correct": child["failed"] == 0 and not child["failures"],
           "attempted": child["attempted"], "failed": child["failed"],
           "failures": child["failures"], "items": child["items"],
           "iterations": len(walls), "metrics": metrics, "guards": guards}
    if traced:
        out["layers"] = child["layers"]
    return out


def print_record(name, rec):
    verdict = "correct" if rec["correct"] else "INCORRECT"
    print(f"== {name}: {rec['iterations']} iterations, {rec['attempted']} "
          f"{rec['items']}, {verdict}")
    for message in rec["failures"]:
        print(f"   ! {message}")
    for metric, m in rec["metrics"].items():
        if "spread" in m:
            print(f"   {metric:<28} {m['value']:>14.6g} {m['unit']:<6} "
                  f"spread {m['spread']:.3f}")
    for metric, g in rec["guards"].items():
        print(f"   {metric:<28} {g['value']:>14.6g} {g['unit']:<6} "
              f"(guard, {g['better']} is better, bound {g['bound']:g})")
    if "layers" in rec:
        rows = sorted(rec["layers"].items(),
                      key=lambda kv: -kv[1].get("self_s", 0.0))
        print(f"   {'layer':<28} {'calls':>10} {'self_s':>10} {'share':>7}")
        for layer, row in rows:
            if not row["calls"]:
                continue
            if "self_s" in row:
                print(f"   {layer:<28} {row['calls']:>10g} "
                      f"{row['self_s']:>10.4f} {row['share']:>7.3f}")
            else:
                print(f"   {layer:<28} {row['calls']:>10g} {'(count)':>10}")
        for metric in ("trace.unattributed_share", "trace.overhead_frac"):
            print(f"   {metric:<28} {rec['metrics'][metric]['value']:.4f}")


def result_line(records):
    """The last output line: one workload's, or a whole set's with
    the metrics grouped by workload."""
    def values(rec):
        return {n: {"value": m["value"], "unit": m["unit"]}
                for n, m in rec["metrics"].items()}

    metrics = {w: values(r) for w, r in records.items()}
    return {"correct": all(r["correct"] for r in records.values()),
            "attempted": sum(r["attempted"] for r in records.values()),
            "failed": sum(r["failed"] for r in records.values()),
            "metrics": metrics.popitem()[1] if len(records) == 1
            else metrics}


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------

def judge(a, b, better, bound, width=0.0, samples=((), ())):
    """better / same / worse / unresolved, for one metric's medians.

    ``width`` is the wider of the two sets' iteration spreads and
    ``samples`` their per-iteration values.  While the width is inside
    the bound, the change alone decides.  A wider spread decides only a
    change past bound + width, or one where every sample of one set is
    beyond every sample of the other; anything else is unresolved.
    """
    if a == b:
        change = 0.0
    else:
        change = (b - a) / abs(a) if a else math.copysign(math.inf, b - a)
    worse = change if better == "lower" else -change

    def beyond(x, y):
        """Every sample of x is worse than every sample of y."""
        if not x or not y:
            return False
        return min(x) > max(y) if better == "lower" else max(x) < min(y)

    sa, sb = samples
    if worse > bound and (width <= bound or worse > bound + width
                          or beyond(sb, sa)):
        return "worse"
    if -worse > bound and (width <= bound or -worse > bound + width
                           or beyond(sa, sb)):
        return "better"
    return "unresolved" if width > bound else "same"


#: Result-set settings two compared sets must share.
SETTINGS = ("seed", "seconds", "trace", "smoke")


def compare(path_a, path_b):
    """Judge every workload x metric of B against A.

    Returns 1 on a regression: a metric judged worse, a workload or
    metric of A missing from B, or a B workload whose checks failed;
    2 when the two sets were made with different settings.
    """
    set_a, set_b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    differ = [k for k in SETTINGS if set_a.get(k) != set_b.get(k)]
    if differ:
        print(f"bench: the sets differ in {', '.join(differ)}; "
              f"compare sets made with the same settings", file=sys.stderr)
        return 2
    a, b = set_a["workloads"], set_b["workloads"]
    print(f"{'workload':<18} {'metric':<22} {'A':>12} {'B':>12} "
          f"{'change':>8} {'bound':>6}  verdict")
    regressions = 0

    def flag(name, metric, verdict):
        nonlocal regressions
        regressions += 1
        print(f"{name:<18} {metric:<22} {'-':>12} {'-':>12} {'-':>8} "
              f"{'-':>6}  {verdict}")

    for name, wa in a.items():
        if name not in b:
            flag(name, "workload", "missing")
            continue
        wb = b[name]
        if not wb["correct"]:
            flag(name, "correct", "incorrect")
        rows = [(n, wa["metrics"][n], wb["metrics"].get(n),
                 E2E[n]["better"], E2E[n]["bound"])
                for n in E2E if n in wa["metrics"]]
        rows += [(n, wa["guards"][n], wb["guards"].get(n), better, bound)
                 for n, (_, better, bound) in WORKLOADS[name].guards.items()
                 if n in wa["guards"]]
        for metric, ma, mb, better, bound in rows:
            if mb is None:
                flag(name, metric, "missing")
                continue
            width = max(ma.get("spread", 0.0), mb.get("spread", 0.0))
            verdict = judge(ma["value"], mb["value"], better, bound, width,
                            (ma.get("samples", ()), mb.get("samples", ())))
            regressions += verdict == "worse"
            change = ((mb["value"] - ma["value"]) / abs(ma["value"])
                      if ma["value"] else 0.0)
            print(f"{name:<18} {metric:<22} {ma['value']:>12.5g} "
                  f"{mb['value']:>12.5g} {change:>+8.1%} {bound:>6.0%}  "
                  f"{verdict}")
    return 1 if regressions else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(SPEC["run_seconds"]),
                        help="measuring time per workload (default: "
                        "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="per-layer metrics from a traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs, measured for the guard set "
                        "only, for the tests")
    parser.add_argument("--out", help="write the result set as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="judge result set B against A")
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    records = {}
    try:
        for name in names:
            records[name] = run_workload(name, args)
            print_record(name, records[name])
    except WorkloadError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds,
             "trace": bool(args.trace), "smoke": args.smoke,
             "machine": machine(), "workloads": records}, indent=1) + "\n")
    print(json.dumps(result_line(records)), flush=True)
    return 0 if all(r["correct"] for r in records.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
