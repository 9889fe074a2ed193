"""The benchmark's five workloads, and the child process that runs one.

``bench/run.py`` starts this file once per workload in a fresh process
with a clean environment:

    python bench/workloads.py --workload NAME --seed S --seconds T \
        --trace 0|1 [--smoke] [--setup-only]

The child imports the program, builds its inputs from the seed, runs a
small warm-up, prints ``READY`` (the parent times set-up up to that
line), then measures for ``--seconds`` (``--smoke``: the guard set
only) and prints one JSON line: the iteration samples, the correctness
verdict, the workload's guard metrics and, with ``--trace 1``, the
per-layer metrics.  A failed check also raises the ``failed_frac``
guard to at least failed ÷ attempted items.

Untraced runs give every iteration its own seed derived from the run's
seed, so a run's median covers many inputs and two runs with different
seeds agree.  The service is the exception: its iterations repeat one
input, because the event digest must repeat.  Traced runs repeat the
first input, so their per-layer counts are exact.

Importing this module imports nothing from the program; the workload
classes import it in :meth:`Workload.setup`, inside the timed set-up.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path


def sub_seed(seed, index):
    """Iteration ``index``'s input seed (index -1 is the warm-up).

    Spaced 1000 apart: the sweeps derive per-scenario seeds as
    ``seed + i`` and ``seed + 100 + i``, which must not overlap
    between neighbouring iterations.
    """
    return (int(seed) * 100_003 + 1_000 * (index + 1)) % 2**31


def load_trace():
    """``bench/trace.py`` under its own module name.

    A plain ``import trace`` could resolve to the standard library's
    module of that name.
    """
    spec = importlib.util.spec_from_file_location(
        "bench_trace", Path(__file__).with_name("trace.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class Outcome:
    """One iteration's result: work items, a summary, and the program's
    own telemetry collector when the program made one."""

    __slots__ = ("items", "summary", "collector")

    def __init__(self, items, summary, collector=None):
        self.items = items
        self.summary = summary
        self.collector = collector


class Workload:
    """Base class: one call into the program, repeated."""

    name = ""
    items = "clients"
    rotate = True
    #: Iterations always run, whatever ``--seconds`` says; guards are
    #: computed over exactly these, so they are a function of the seed.
    guard_iterations = 1
    #: Guard metrics: name -> (unit, better, bound).  A bound of 0 means
    #: any move in the worse direction is a regression.
    guards = {}

    def __init__(self, seed, smoke):
        self.seed = int(seed)
        self.smoke = bool(smoke)

    def setup(self):
        """Import the program and build the inputs."""

    def warm_up(self):
        """A small call that touches every code path the iterations use."""

    def run(self, index):
        """One timed iteration; returns an :class:`Outcome`."""
        raise NotImplementedError

    def check(self, outcomes):
        """Correctness checks; returns ``(failed_items, messages)``."""
        return 0, []

    def guard_values(self, outcomes, walls):
        """The guard metrics over the first :attr:`guard_iterations`."""
        return {}

    def trace_values(self, outcome, led):
        """Workload-specific per-layer metrics of one traced iteration."""
        return {}

    def close(self):
        """Release whatever :meth:`setup` created."""


# ---------------------------------------------------------------------------
# The paper's figure sweeps
# ---------------------------------------------------------------------------

_RATE_KEYS = ("ap_only", "half_duplex", "fastforward")


def _bad_rates(out):
    """Clients with any non-finite or negative rate."""
    import numpy as np

    bad = np.zeros(len(out["fastforward"]), dtype=bool)
    for key in _RATE_KEYS:
        rates = np.asarray(out[key], dtype=float)
        bad |= ~np.isfinite(rates) | (rates < 0)
    return int(bad.sum())


class _Sweep(Workload):
    """A serial figure sweep: one client per scenario per iteration."""

    experiment = ""
    clients = 4
    guard_iterations = 6
    guards = {"ff_median_mbps": ("Mbps", "higher", 0.01),
              "failed_frac": ("ratio", "lower", 0.0)}

    def setup(self):
        from repro.netsim import experiments
        from repro.netsim.testbed import paper_scenarios

        self.fn = getattr(experiments, self.experiment)
        self.scenarios = paper_scenarios()
        if self.smoke:
            self.guard_iterations = 1

    def call(self, seed, **kwargs):
        kwargs.setdefault("num_clients", self.clients)
        kwargs.setdefault("scenarios", self.scenarios)
        return self.fn(seed=seed, jobs=1, backend="serial", cache=False,
                       **kwargs)

    def warm_up(self):
        self.call(sub_seed(self.seed, -1), num_clients=1,
                  scenarios=self.scenarios[:1])

    def run(self, index):
        out = self.call(sub_seed(self.seed, index))
        return Outcome(len(out["fastforward"]),
                       {key: out[key] for key in _RATE_KEYS})

    def check(self, outcomes):
        failed = sum(_bad_rates(o.summary) for o in outcomes)
        messages = [f"{failed} clients with a non-finite or negative rate"] \
            if failed else []
        return failed, messages

    def guard_values(self, outcomes, walls):
        import numpy as np

        head = outcomes[:self.guard_iterations]
        ff = np.concatenate([o.summary["fastforward"] for o in head])
        bad = sum(_bad_rates(o.summary) for o in head)
        return {"ff_median_mbps": float(np.median(ff)),
                "failed_frac": bad / len(ff)}


class MimoSweep(_Sweep):
    name = "mimo-sweep"
    experiment = "overall_gains_experiment"


class SisoSweep(_Sweep):
    name = "siso-sweep"
    experiment = "siso_gains_experiment"


class MimoSweepPar(_Sweep):
    """The MIMO sweep on two worker processes with a fresh result cache.

    Iterations are 24-client sweeps in blocks of four, so dispatch,
    shared-memory packing and cache writes are real.  Checks re-run the
    first iteration's first scenario serially (bit-identity) and re-run
    the first iteration on its own cache (a warm rerun must hit every
    entry and return identical arrays).
    """

    name = "mimo-sweep-par"
    experiment = "overall_gains_experiment"
    clients = 24
    jobs = 2
    block_size = 4
    guard_iterations = 1
    tmp = None

    def setup(self):
        super().setup()
        from repro.exec import ResultCache, last_sweep_stats

        self.cache_cls = ResultCache
        self.last_stats = last_sweep_stats
        self.tmp = Path(tempfile.mkdtemp(prefix="bench-cache-"))
        self.caches = {}
        self.warm = None
        if self.smoke:
            self.clients, self.block_size = 8, 2

    def call_par(self, seed, cache_dir, num_clients=None, scenarios=None,
                 block_size=None):
        return self.fn(seed=seed, jobs=self.jobs, backend="process",
                       block_size=block_size or self.block_size,
                       cache=self.cache_cls(cache_dir),
                       num_clients=num_clients or self.clients,
                       scenarios=scenarios or self.scenarios)

    def warm_up(self):
        self.call_par(sub_seed(self.seed, -1),
                      tempfile.mkdtemp(dir=self.tmp), num_clients=4,
                      scenarios=self.scenarios[:1], block_size=2)

    def run(self, index):
        # Every call gets a fresh (cold) cache; the first one is kept
        # for the warm-rerun check.
        cache_dir = tempfile.mkdtemp(dir=self.tmp)
        self.caches.setdefault(index, cache_dir)
        out = self.call_par(sub_seed(self.seed, index), cache_dir)
        return Outcome(len(out["fastforward"]), out)

    def check(self, outcomes):
        import numpy as np

        failed, messages = super().check(outcomes)
        first = outcomes[0].summary
        keys = _RATE_KEYS + ("direct_snr_db", "direct_streams")
        per_scenario = self.clients // len(self.scenarios)
        serial = self.call(sub_seed(self.seed, 0), num_clients=per_scenario,
                           scenarios=self.scenarios[:1])
        broken = []
        if not all(np.array_equal(first[k][:per_scenario], serial[k])
                   for k in keys):
            broken.append("process-backend rows differ from a serial run "
                          "of the first scenario")
        warm, _, hit_frac = self.warm_rerun()
        if hit_frac != 1.0:
            broken.append(f"warm rerun hit {hit_frac:.0%} of the cache")
        if not all(np.array_equal(first[k], warm[k]) for k in keys):
            broken.append("warm rerun arrays differ from the cold run")
        if broken:
            failed = sum(o.items for o in outcomes)
        return failed, messages + broken

    def warm_rerun(self):
        """The first iteration again, on its own cache (run once).

        Returns ``(arrays, wall_s, cache hit fraction)``.
        """
        if self.warm is None:
            start = time.perf_counter()
            out = self.call_par(sub_seed(self.seed, 0), self.caches[0])
            wall_s = time.perf_counter() - start
            stats = self.last_stats()
            self.warm = (out, wall_s, stats.cache_hits / stats.total)
        return self.warm

    def trace_values(self, outcome, led):
        _, wall_s, hit_frac = self.warm_rerun()
        return {"exec.cache.warm_rerun_frac": wall_s / led["wall_s"],
                "exec.cache.hit_frac": hit_frac}

    def close(self):
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)


# ---------------------------------------------------------------------------
# The always-on relay service
# ---------------------------------------------------------------------------

def _wall_bound():
    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    return next(m["bound"] for m in spec["end_to_end"]
                if m["name"] == "wall_s")


class ServiceSaturated(Workload):
    """``run_once`` of the saturating load test, in virtual time."""

    name = "service-saturated"
    items = "frames"
    rotate = False
    guard_iterations = 1
    # realtime_factor is the fixed virtual time over the median wall:
    # it is wall_s again, so it takes wall_s's bound.
    guards = {"realtime_factor": ("ratio", "higher", _wall_bound()),
              "queue_wait_p99_ms": ("ms", "lower", 0.01),
              "failed_frac": ("ratio", "lower", 0.0)}

    def setup(self):
        from repro.service.loadtest import LoadTestConfig
        from repro.service.server import run_once
        from repro.telemetry import percentiles

        self.run_once = run_once
        self.percentiles = percentiles
        seed = sub_seed(self.seed, 0)
        size = {"sessions": 24, "duration_s": 0.1} if self.smoke else {}
        self.config = LoadTestConfig.saturating(seed=seed, **size).serve
        self.warm_config = LoadTestConfig.saturating(
            seed=sub_seed(self.seed, -1), sessions=8, duration_s=0.05).serve

    def warm_up(self):
        self.run_once(self.warm_config)

    def run(self, index):
        pump, tel = self.run_once(self.config)
        sched = pump.scheduler
        try:
            conserved = sched.check_conservation()
        except AssertionError:
            conserved = False
        (p99_s,) = self.percentiles(sched.queue_wait_s, (99,))
        summary = {"digest": sched.event_digest(), "conserved": conserved,
                   "virtual_s": pump.now_s, "offered": sched.offered,
                   "admitted": sched.admitted, "processed": sched.processed,
                   "shed": sched.shed, "rejected": sched.rejected_frames,
                   "queue_wait_p99_ms": p99_s * 1e3}
        return Outcome(sched.offered, summary, collector=tel)

    def check(self, outcomes):
        messages = []
        if not all(o.summary["conserved"] for o in outcomes):
            messages.append("frame conservation violated")
        if len({o.summary["digest"] for o in outcomes}) != 1:
            messages.append("event digest differs between iterations")
        failed = sum(o.items for o in outcomes) if messages else 0
        return failed, messages

    def guard_values(self, outcomes, walls):
        s = outcomes[0].summary
        return {"realtime_factor": s["virtual_s"] / statistics.median(walls),
                "queue_wait_p99_ms": s["queue_wait_p99_ms"],
                "failed_frac": (s["shed"] + s["rejected"]) / s["offered"]}

    def trace_values(self, outcome, led):
        s = outcome.summary
        frame = self.config.frame_samples
        # Computed, not measured: one forward and one inverse FFT of
        # fft_size points per hop, over the hops one frame needs.
        points = [2 * fft * math.ceil(frame / hop) / frame
                  for fft, hop in led["spectral_sizes"]]
        return {"runtime.spectral.fft_points_per_sample":
                max(points) if points else 0.0,
                "service.carried_frac": s["processed"] / s["admitted"],
                "service.frames.processed": s["processed"],
                "service.frames.shed": s["shed"]}


# ---------------------------------------------------------------------------
# The 100-relay fleet
# ---------------------------------------------------------------------------

class FleetStorm(Workload):
    """A 10x10-home district under a relay fault storm."""

    name = "fleet-storm"
    guard_iterations = 4
    guards = {"reroute_p99_intervals": ("intervals", "lower", 0.0),
              "failed_frac": ("ratio", "lower", 0.0)}

    def setup(self):
        from repro.fleet.experiment import fleet_experiment

        self.fn = fleet_experiment
        self.size = ({"rows": 3, "cols": 3, "clients_per_home": 3,
                      "num_steps": 60} if self.smoke else
                     {"rows": 10, "cols": 10, "clients_per_home": 10,
                      "num_steps": 240})
        if self.smoke:
            self.guard_iterations = 1

    def call(self, seed, **size):
        return self.fn(seed=seed, policy="hashed-lb", storm=0.25, jobs=1,
                       backend="serial", cache=False, **size)

    def warm_up(self):
        self.call(sub_seed(self.seed, -1), rows=2, cols=2,
                  clients_per_home=2, num_steps=40)

    def run(self, index):
        r = self.call(sub_seed(self.seed, index), **self.size)
        keys = ("num_clients", "max_latency_intervals",
                "latency_bound_intervals", "unrerouted_muted_clients",
                "reroute_latency_intervals", "rescued", "reroutes")
        return Outcome(r["num_clients"], {k: r[k] for k in keys})

    def check(self, outcomes):
        messages = []
        for i, o in enumerate(outcomes):
            s = o.summary
            if s["max_latency_intervals"] > s["latency_bound_intervals"]:
                messages.append(f"iteration {i}: reroute latency "
                                f"{s['max_latency_intervals']} over bound "
                                f"{s['latency_bound_intervals']}")
            if s["unrerouted_muted_clients"]:
                messages.append(f"iteration {i}: "
                                f"{s['unrerouted_muted_clients']} muted "
                                f"clients never rerouted")
        failed = sum(o.items for o in outcomes) if messages else 0
        return failed, messages

    def guard_values(self, outcomes, walls):
        import numpy as np

        head = outcomes[:self.guard_iterations]
        lat = np.concatenate([o.summary["reroute_latency_intervals"]
                              for o in head])
        rescued = np.concatenate([o.summary["rescued"] for o in head])
        return {"reroute_p99_intervals":
                float(np.percentile(lat, 99)) if lat.size else 0.0,
                "failed_frac":
                float(1.0 - rescued.mean()) if rescued.size else 0.0}

    def trace_values(self, outcome, led):
        return {"fleet.reroutes": outcome.summary["reroutes"]}


WORKLOADS = {cls.name: cls for cls in
             (MimoSweep, SisoSweep, MimoSweepPar, ServiceSaturated,
              FleetStorm)}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def _peak_rss_mb():
    """This process's peak RSS plus its largest finished child's, MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def measure(wl, seconds):
    """Untraced iterations for ``seconds``; never fewer than the guard set.

    An iteration starts only if the median so far says it will end
    inside the budget.  Peak RSS is read when the guard set is done, so
    it covers a fixed amount of work however many iterations follow
    (the runtime's kernel cache grows with every service iteration).
    """
    walls, outcomes = [], []
    start = time.perf_counter()
    while True:
        index = len(walls) if wl.rotate else 0
        t0 = time.perf_counter()
        outcome = wl.run(index)
        walls.append(time.perf_counter() - t0)
        outcomes.append(outcome)
        outcome.collector = None
        if len(walls) == wl.guard_iterations:
            rss_mb = _peak_rss_mb()
        elapsed = time.perf_counter() - start
        if (len(walls) >= wl.guard_iterations
                and elapsed + statistics.median(walls) > seconds):
            return walls, outcomes, rss_mb


def measure_traced(wl, seconds, trace):
    """Alternate untraced and traced runs of the first input.

    Each pair runs the same input twice, once with the layer wrappers
    and a live collector installed.  Returns the untraced walls and
    outcomes, plus the per-layer metrics (medians over the traced runs)
    and the layer table; the overhead is the median per-pair ratio of
    traced to untraced wall.
    """
    from repro.telemetry.collector import TelemetryCollector, use_collector

    walls, outcomes, pairs, rows, tables = [], [], [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        outcome = wl.run(0)
        walls.append(time.perf_counter() - t0)
        outcome.collector = None
        outcomes.append(outcome)

        collector = TelemetryCollector(origin="main")
        with trace.Tracer() as tracer, use_collector(collector):
            t0 = time.perf_counter()
            traced = wl.run(0)
            traced_s = time.perf_counter() - t0
        if traced.collector is not None:
            collector.merge(traced.collector.payload())
        led = trace.ledger(collector, traced_s, tracer)
        rows.append({**trace.layer_metrics(led), **wl.trace_values(traced, led)})
        tables.append(led["layers"])
        pairs.append(traced_s / walls[-1] - 1.0)
        if time.perf_counter() - start + walls[-1] + traced_s > seconds:
            break

    per_layer = {name: statistics.median(row[name] for row in rows)
                 for name in rows[0]}
    per_layer["trace.overhead_frac"] = statistics.median(pairs)
    layers = {name: {key: statistics.median(t[name][key] for t in tables)
                     for key in cells}
              for name, cells in tables[0].items()}
    return walls, outcomes, per_layer, layers


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload](args.seed, args.smoke)
    # A smoke run stops after the guard set (one traced pair).
    seconds = 0.0 if args.smoke else args.seconds
    try:
        wl.setup()
        wl.warm_up()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        result = {"workload": wl.name, "items": wl.items}
        if args.trace:
            walls, outcomes, result["per_layer"], result["layers"] = \
                measure_traced(wl, seconds, load_trace())
            rss_mb = _peak_rss_mb()
        else:
            walls, outcomes, rss_mb = measure(wl, seconds)
        failed, messages = wl.check(outcomes)
        attempted = sum(o.items for o in outcomes)
        guards = {}
        if not args.trace:
            guards = wl.guard_values(outcomes, walls)
            # A failed check fails its items, whatever the guard counted.
            guards["failed_frac"] = max(guards["failed_frac"],
                                        failed / attempted)
        result.update({
            "walls_s": walls,
            "items_per_iteration": [o.items for o in outcomes],
            "attempted": attempted, "failed": failed, "failures": messages,
            "guards": guards, "peak_rss_mb": rss_mb})
    finally:
        wl.close()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
