"""Collectors: where metrics, spans and events accumulate.

:class:`TelemetryCollector` is the live object instrumented code talks
to — a metrics registry plus a span recorder plus a structured event
log.  :class:`NullCollector` is its zero-cost stand-in: every method is
a no-op returning a shared singleton, so uninstrumented hot paths pay
an attribute lookup and nothing else.

**Ambient collector.**  ``current_collector()`` returns the thread's
installed collector, falling back to a process-wide default (the null
collector unless :func:`set_collector` changed it).  ``use_collector``
installs a collector thread-locally for a ``with`` block — this is how
``repro.exec`` gives each shard its own collector, and how the CLI
turns a whole experiment run into one report.  A collector installed
in one thread is invisible to every other thread.

**Serialisation and merge.**  ``payload()`` lowers a collector to a
plain dict (JSON-able and picklable — it crosses the process boundary
from sweep workers); ``merge(payload)`` folds a worker's payload back
in.  Merging in the executor's deterministic task order makes
``deterministic_snapshot()`` — counters, gauges, histograms with
non-time units, and the event sequence stripped of timestamps —
bit-identical across the serial and process backends.
"""

from __future__ import annotations

import os
import threading

from repro.telemetry.metrics import NONDETERMINISTIC_UNITS, MetricsRegistry
from repro.telemetry.spans import NULL_SPAN, SpanRecorder
from repro.telemetry.timing import now_ns

#: Payload schema version (bumped on incompatible layout changes).
PAYLOAD_VERSION = 1


def _det_labels(labels):
    return tuple(sorted(labels.items(), key=lambda kv: (kv[0], repr(kv[1]))))


class TelemetryCollector:
    """A live sink for metrics, spans and structured events."""

    enabled = True

    def __init__(self, origin="main"):
        self.origin = str(origin)
        self.epoch_ns = now_ns()
        self.metrics = MetricsRegistry()
        self._spans = SpanRecorder(self.epoch_ns)
        self.events = []

    # -- instruments -------------------------------------------------------

    def counter(self, name, unit=None, **labels):
        """Get-or-create the counter point for ``(name, labels)``."""
        return self.metrics.counter(name, unit=unit, **labels)

    def gauge(self, name, unit=None, **labels):
        """Get-or-create the gauge point for ``(name, labels)``."""
        return self.metrics.gauge(name, unit=unit, **labels)

    def histogram(self, name, unit=None, edges=None, **labels):
        """Get-or-create the histogram point for ``(name, labels)``."""
        return self.metrics.histogram(name, unit=unit, edges=edges, **labels)

    def span(self, name, **labels):
        """A context manager timing the enclosed region."""
        return self._spans.start(name, labels)

    def event(self, name, **labels):
        """Append one structured event (name + labels + timestamp)."""
        self.events.append({
            "name": str(name), "labels": labels,
            "time_ns": now_ns() - self.epoch_ns,
            "seq": len(self.events),
            "pid": os.getpid(), "tid": threading.get_ident(),
        })

    @property
    def spans(self):
        """Finished span records (plain dicts), in completion order."""
        return self._spans.records

    # -- serialisation / merge --------------------------------------------

    def payload(self):
        """A plain-dict (JSON-able, picklable) view of everything."""
        out = {"version": PAYLOAD_VERSION, "origin": self.origin}
        out.update(self.metrics.snapshot())
        out["spans"] = [dict(rec) for rec in self.spans]
        out["events"] = [dict(ev) for ev in self.events]
        return out

    def merge(self, payload):
        """Fold a worker collector's :meth:`payload` into this one.

        Counters and histograms add; gauges take the incoming value;
        spans and events are appended (tagged with the payload's origin
        and re-sequenced locally).  Call in deterministic order — the
        executor merges shards in task order — and the deterministic
        snapshot stays backend-invariant.
        """
        if payload is None:
            return
        if payload.get("version", PAYLOAD_VERSION) != PAYLOAD_VERSION:
            raise ValueError(
                f"cannot merge telemetry payload version "
                f"{payload.get('version')!r} into version {PAYLOAD_VERSION}")
        self.metrics.merge(payload)
        origin = payload.get("origin")
        for rec in payload.get("spans", ()):
            rec = dict(rec)
            rec.setdefault("origin", origin)
            self._spans.records.append(rec)
        for ev in payload.get("events", ()):
            ev = dict(ev)
            ev.setdefault("origin", origin)
            ev["seq"] = len(self.events)
            self.events.append(ev)

    def deterministic_snapshot(self):
        """The backend-invariant projection of this collector.

        Wall-clock and execution-layout metrics (unit in
        :data:`~repro.telemetry.metrics.NONDETERMINISTIC_UNITS`), spans,
        and event timestamps are excluded; what remains — counts,
        deterministic gauges/histograms, the event (name, labels)
        sequence — must be bit-identical whatever the job count or
        backend.
        """
        snap = self.metrics.snapshot()

        def keep(item):
            return item.get("unit") not in NONDETERMINISTIC_UNITS

        return {
            "counters": tuple(
                (i["name"], _det_labels(i["labels"]), i["value"])
                for i in snap["counters"] if keep(i)),
            "gauges": tuple(
                (i["name"], _det_labels(i["labels"]), i["value"])
                for i in snap["gauges"] if keep(i)),
            "histograms": tuple(
                (i["name"], _det_labels(i["labels"]), tuple(i["edges"]),
                 tuple(i["counts"]), i["count"], i["total"],
                 i["min"], i["max"])
                for i in snap["histograms"] if keep(i)),
            "events": tuple(
                (ev["name"], _det_labels(ev["labels"]))
                for ev in self.events),
        }


class _NullInstrument:
    """Shared no-op counter/gauge/histogram."""

    __slots__ = ()

    def inc(self, amount=1):
        pass

    def set(self, value):
        pass

    def observe(self, value):
        pass


_NULL_INSTRUMENT = _NullInstrument()


class NullCollector:
    """The zero-cost collector: every method is a cached no-op."""

    enabled = False

    __slots__ = ()

    def counter(self, name, unit=None, **labels):
        return _NULL_INSTRUMENT

    def gauge(self, name, unit=None, **labels):
        return _NULL_INSTRUMENT

    def histogram(self, name, unit=None, edges=None, **labels):
        return _NULL_INSTRUMENT

    def span(self, name, **labels):
        return NULL_SPAN

    def event(self, name, **labels):
        pass

    @property
    def spans(self):
        return []

    @property
    def events(self):
        return []

    def payload(self):
        return {"version": PAYLOAD_VERSION, "origin": "null",
                "counters": [], "gauges": [], "histograms": [],
                "spans": [], "events": []}

    def merge(self, payload):
        pass

    def deterministic_snapshot(self):
        return {"counters": (), "gauges": (), "histograms": (),
                "events": ()}


_NULL = NullCollector()
_process_default = _NULL
_tls = threading.local()


def current_collector():
    """The ambient collector: thread-local if installed, else the
    process default (the null collector unless :func:`set_collector`
    changed it)."""
    collector = getattr(_tls, "collector", None)
    return collector if collector is not None else _process_default


def set_collector(collector):
    """Install ``collector`` as the process-wide default; returns the
    previous default.  Pass ``None`` to restore the null collector."""
    global _process_default
    previous = _process_default
    _process_default = collector if collector is not None else _NULL
    return previous


class use_collector:
    """Thread-locally install a collector for a ``with`` block.

    Nested uses restore the enclosing collector on exit; other threads
    are unaffected (each sweep worker installs its own shard
    collector).
    """

    def __init__(self, collector):
        self.collector = collector

    def __enter__(self):
        self._previous = getattr(_tls, "collector", None)
        _tls.collector = self.collector
        return self.collector

    def __exit__(self, exc_type, exc, tb):
        _tls.collector = self._previous
        return False
