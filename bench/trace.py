"""Per-layer tracing from outside the program.

Each layer of the relay system is timed by wrapping its public
functions, for the length of one traced iteration, in telemetry spans
opened on the ambient collector (``current_collector().span(name)``).
Inside a ``use_collector`` block those spans nest under the program's
own ``exec.sweep`` / ``exec.shard`` spans, and worker shards ship theirs
back in their telemetry payloads, so one span forest covers every lane.
Nothing under ``src/`` changes: the wrappers are installed by
:class:`Tracer` and removed again when it exits.

:func:`ledger` folds the forest into per-layer calls and self time.
Self time comes from :func:`repro.obs.tree.build_span_trees`; a program
span that is not itself a layer (``relay.process``, ``exec.shard``)
hands its self time to the nearest enclosing layer, or to
``unattributed`` when it has none.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
import time
from collections import Counter
from dataclasses import dataclass

from repro.obs.tree import build_span_trees
from repro.telemetry.collector import current_collector


@dataclass(frozen=True)
class Layer:
    """One layer: a span name and the functions it wraps.

    ``targets`` are ``"module:attr"`` or ``"module:Class.method"``
    strings.  ``span=False`` counts calls without a span, for functions
    called so often (10^5 per iteration) that a span each would distort
    the timing; their time stays in the enclosing layer.  ``waits=True``
    also sums, per process, the wall time the call spent off the CPU
    (wall minus process CPU time): the time a sweep's parent process blocks on
    its workers.
    """

    name: str
    targets: tuple
    span: bool = True
    labels: object = None       # (args, kwargs) -> span labels
    on_result: object = None    # (collector, result) -> None
    optional: bool = False      # skip targets that no longer exist
    waits: bool = False


def _timeline_retunes(tel, timeline):
    kinds = Counter(event.kind.value for event in timeline.events)
    tel.counter("bench.retune", outcome="succeeded").inc(
        kinds["retune-succeeded"])
    tel.counter("bench.retune", outcome="failed").inc(kinds["retune-failed"])


def _nfev(tel, result):
    tel.counter("bench.cnf.nfev").inc(int(result.nfev))


def _spectral_labels(args, kwargs):
    stage = args[0]
    return {"fft_size": stage.fft_size, "hop": stage.hop}


LAYERS = (
    Layer("exec.sweep", ("repro.netsim.experiments:run_sweep",
                         "repro.fleet.experiment:run_sweep"), waits=True),
    Layer("channel.synth", ("repro.netsim.testbed:Testbed.mimo_triple",
                            "repro.netsim.testbed:Testbed.hop_mimo_channels",
                            "repro.netsim.testbed:Testbed.siso_triple")),
    Layer("core.relay.configure",
          ("repro.core.relay:FastForwardRelay.configure_mimo_link",
           "repro.core.relay:FastForwardRelay.configure_siso_link")),
    Layer("core.cnf.solve", ("repro.core.relay:mimo_cnf_filter",)),
    Layer("core.cnf.phase_align", ("repro.core.relay:band_phase_alignment",)),
    Layer("core.decomposition", ("repro.core.relay:decompose_cnf_filter",)),
    Layer("netsim.rate", ("repro.netsim.experiments:ap_only_mimo_rate",
                          "repro.netsim.experiments:ap_only_siso_rate",
                          "repro.netsim.experiments:ff_mimo_rate",
                          "repro.netsim.experiments:ff_siso_rate",
                          "repro.netsim.experiments:usable_streams")),
    Layer("service.pump", ("repro.service.server:ServicePump.step",),
          labels=lambda args, kwargs: {"tick": args[0].ticks}),
    Layer("service.scheduler.offer",
          ("repro.service.scheduler:ServiceScheduler.offer",)),
    Layer("service.scheduler.dispatch",
          ("repro.service.scheduler:ServiceScheduler.dispatch",)),
    Layer("core.relay.process", ("repro.core.relay:FastForwardRelay.process",)),
    Layer("runtime.chain", ("repro.runtime.chain:Chain.run",)),
    Layer("runtime.spectral",
          ("repro.runtime.spectral:FrequencyResponseStage.process_block",
           "repro.runtime.spectral:FrequencyResponseStage.flush"),
          labels=_spectral_labels),
    Layer("obs.slo", ("repro.obs.slo:SloEngine.evaluate",)),
    Layer("obs.series", ("repro.obs.series:SeriesRecorder.sample",)),
    Layer("probes.refresh", ("repro.service.server:refresh_probes",)),
    Layer("service.pool.build", ("repro.service.scheduler:ChainPool.entry",)),
    Layer("fleet.district.link_budget",
          ("repro.fleet.district:District.snr_db",)),
    Layer("fleet.association.table",
          ("repro.fleet.experiment:build_candidate_table",)),
    Layer("fleet.association.assign",
          ("repro.fleet.association:StrongestRssPolicy.assign",
           "repro.fleet.association:HashedLoadBalancingPolicy.assign",
           "repro.fleet.association:ThroughputPredictivePolicy.assign")),
    Layer("fleet.reroute.timeline",
          ("repro.fleet.experiment:relay_outage_timeline",),
          labels=lambda args, kwargs: {"seed": args[0]},
          on_result=_timeline_retunes),
    # ~10^5 calls per fleet iteration: a span each adds ~50% of the
    # untraced wall, so the step is only counted and its time stays in
    # fleet.reroute.timeline.
    Layer("supervision.step",
          ("repro.supervision.supervisor:RelaySupervisor.step",), span=False),
    Layer("fleet.reroute.machine",
          ("repro.fleet.reroute:ClientRerouteMachine.run",)),
)

#: Result hooks that are not layers: they record a count, no span.
#: ``minimize`` disappears with scipy, hence optional.
HOOKS = (
    Layer("core.cnf.solve.nfev", ("repro.core.cnf_filter:minimize",),
          span=False, on_result=_nfev, optional=True),
)

SPAN_LAYERS = tuple(layer.name for layer in LAYERS if layer.span)
COUNT_LAYERS = tuple(layer.name for layer in LAYERS if not layer.span)


def _resolve(target):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Installs every layer wrapper on enter and restores on exit.

    ``counts`` holds the calls of count-only layers made in this
    process; span layers are counted from the span records, which also
    cover worker processes.  ``waits_ns`` holds, per ``waits`` layer,
    the off-CPU wall time of its calls in this process.
    """

    def __init__(self):
        self.counts = Counter()
        self.waits_ns = Counter()
        self._restore = []

    def _wrap(self, layer, fn):
        name, labels, on_result = layer.name, layer.labels, layer.on_result
        counts, waits_ns, pid = self.counts, self.waits_ns, os.getpid()
        if not layer.span:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[name] += 1
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(current_collector(), result)
                return result
            return counted

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            tel = current_collector()
            span_labels = labels(args, kwargs) if labels is not None else {}
            wall0, cpu0 = time.perf_counter_ns(), time.process_time_ns()
            with tel.span(name, **span_labels):
                result = fn(*args, **kwargs)
            if layer.waits and os.getpid() == pid:
                waits_ns[name] += max((time.perf_counter_ns() - wall0)
                                      - (time.process_time_ns() - cpu0), 0)
            if on_result is not None:
                on_result(tel, result)
            return result
        return spanned

    def __enter__(self):
        self.counts.clear()
        self.waits_ns.clear()
        for layer in LAYERS + HOOKS:
            for target in layer.targets:
                try:
                    owner, attr = _resolve(target)
                    fn = getattr(owner, attr)
                except (ImportError, AttributeError):
                    if layer.optional:
                        continue
                    self.__exit__(None, None, None)
                    raise
                own = attr in vars(owner)
                self._restore.append((owner, attr, vars(owner).get(attr), own))
                setattr(owner, attr, self._wrap(layer, fn))
        return self

    def __exit__(self, exc_type, exc, tb):
        while self._restore:
            owner, attr, original, own = self._restore.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        return False


def _owned(node, owner=None):
    """Yield ``(node, layer, entered)`` depth-first.

    ``layer`` is the node's own layer or its nearest enclosing one
    (``None`` when no ancestor is a layer).  ``entered`` marks a call
    into the layer from outside it: the program's own ``exec.sweep``
    span, directly under the wrapper of the same name, is not a second
    call.
    """
    layer = node.name if node.name in SPAN_LAYERS else owner
    yield node, layer, node.name == layer != owner
    for child in node.children:
        yield from _owned(child, layer)


def ledger(collector, wall_s, tracer):
    """Fold one traced iteration into per-layer calls and self time.

    ``wall_s`` is the iteration's wall time measured around it.  Lanes
    on this process's main thread ran inside that wall; shard lanes on
    the same thread are the serial backend's inline shards, which ran
    inside the program's ``exec.sweep`` span and are taken back out of
    its self time.  Lanes of worker processes ran concurrently, so the
    ledger's total is traced *lane* time: the time each lane was busy,
    summed.  For single-process workloads that is the wall.  With worker
    lanes, the parent's busy time is the wall less the time it sat off
    the CPU inside ``run_sweep`` waiting for them
    (:attr:`Tracer.waits_ns`); that wait leaves ``exec.sweep``'s self
    time, which keeps only the parent's own dispatch, packing and
    result handling.

    ``tracer`` is the :class:`Tracer` that was installed; its ``counts``
    give the count-only layers' calls.  Returns ``{"layers": {name:
    {"calls", "self_s", "share"}}, "wall_s", "lane_s", "wait_s",
    "unattributed_s", "spectral_sizes", "roots", "payload"}``;
    ``spectral_sizes`` is the set of ``(fft_size, hop)`` the overlap-save
    stages ran with.
    """
    payload = collector.payload()
    roots = build_span_trees(payload)
    main = (os.getpid(), threading.main_thread().ident)
    self_ns = dict.fromkeys(SPAN_LAYERS, 0)
    calls = Counter()
    worker_ns = inline_shard_ns = 0
    for root in roots:
        if (root.pid, root.tid) != main:
            worker_ns += root.dur_ns
        elif root.name == "exec.shard":
            inline_shard_ns += root.dur_ns
        for node, layer, entered in _owned(root):
            if entered:
                calls[layer] += 1
            if layer is not None:
                self_ns[layer] += node.self_ns
    self_ns["exec.sweep"] = max(self_ns["exec.sweep"] - inline_shard_ns, 0)
    wait_ns = 0
    if worker_ns:
        wait_ns = min(tracer.waits_ns["exec.sweep"], self_ns["exec.sweep"])
        self_ns["exec.sweep"] -= wait_ns
    lane_s = wall_s + (worker_ns - wait_ns) / 1e9
    layers = {name: {"calls": calls[name], "self_s": self_ns[name] / 1e9,
                     "share": self_ns[name] / 1e9 / lane_s}
              for name in SPAN_LAYERS}
    for name in COUNT_LAYERS:
        layers[name] = {"calls": tracer.counts[name]}
    attributed = sum(self_ns.values()) / 1e9
    spectral = {(node.labels["fft_size"], node.labels["hop"])
                for node in _spans(roots, "runtime.spectral")}
    return {"layers": layers, "wall_s": wall_s, "lane_s": lane_s,
            "wait_s": wait_ns / 1e9,
            "unattributed_s": max(lane_s - attributed, 0.0),
            "spectral_sizes": spectral, "roots": roots, "payload": payload}


def _metric_items(payload, kind, name):
    return [item for item in payload.get(kind, ()) if item["name"] == name]


def _gauge(payload, name):
    items = _metric_items(payload, "gauges", name)
    return float(items[-1]["value"]) if items else 0.0


def _hist_total(payload, name):
    return float(sum(item["total"]
                     for item in _metric_items(payload, "histograms", name)))


def _counter(payload, name, **labels):
    return float(sum(item["value"]
                     for item in _metric_items(payload, "counters", name)
                     if all(item["labels"].get(k) == v
                            for k, v in labels.items())))


def _spans(roots, name):
    for root in roots:
        for node in root.walk():
            if node.name == name:
                yield node


def layer_metrics(led):
    """The per-layer metrics one traced iteration's ledger yields.

    Every workload reports the same names; a layer the workload never
    reaches reads 0 calls and 0 share.
    """
    payload, roots, lane_s = led["payload"], led["roots"], led["lane_s"]
    layers = led["layers"]
    out = {}
    for name, row in layers.items():
        out[f"{name}.calls"] = row["calls"]
        if "share" in row:
            out[f"{name}.share"] = row["share"]
    out["core.cnf.solve.nfev"] = _counter(payload, "bench.cnf.nfev")
    decompositions = layers["core.decomposition"]["calls"]
    out["core.decomposition.per_link"] = (
        decompositions / layers["core.relay.configure"]["calls"]
        if decompositions else 0.0)
    sweep_s = _gauge(payload, "exec.sweep.wall_s")
    shard_s = sum(node.dur_ns for node in _spans(roots, "exec.shard")) / 1e9
    out["exec.concurrency"] = shard_s / sweep_s if sweep_s else 0.0
    out["exec.dispatch.pack_share"] = (
        _hist_total(payload, "exec.dispatch.pack_ns") / 1e9 / lane_s)
    out["exec.dispatch.unpack_share"] = (
        _hist_total(payload, "exec.dispatch.unpack_ns") / 1e9 / lane_s)
    out["exec.dispatch.payload_bytes"] = _hist_total(
        payload, "exec.dispatch.payload_bytes")
    out["exec.shm_bytes"] = _gauge(payload, "exec.dispatch.shm_bytes")
    out["exec.chunk_size"] = _gauge(payload, "exec.dispatch.chunk_size")
    out["exec.cache.stores"] = _gauge(payload, "exec.cache.stores")
    seeds = [node.labels["seed"]
             for node in _spans(roots, "fleet.reroute.timeline")]
    out["fleet.reroute.timeline.unique_frac"] = (
        len(set(seeds)) / len(seeds) if seeds else 0.0)
    ok = _counter(payload, "bench.retune", outcome="succeeded")
    failed = _counter(payload, "bench.retune", outcome="failed")
    out["supervision.retune.success_frac"] = (
        ok / (ok + failed) if ok + failed else 0.0)
    out["exec.sweep.wait_frac"] = led["wait_s"] / led["wall_s"]
    out["trace.unattributed_share"] = led["unattributed_s"] / lane_s
    out["trace.wall_s"] = led["wall_s"]
    out["trace.lane_s"] = lane_s
    return out
