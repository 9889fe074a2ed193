"""repro.telemetry — unified metrics, tracing and profiling.

One subsystem for every measurement the repo makes:

* **Metrics** — label-aware counters, gauges and fixed-bucket
  log-spaced histograms (:mod:`repro.telemetry.metrics`).
* **Tracing** — nested wall-clock spans via a context-manager API
  (:mod:`repro.telemetry.spans`)::

      tel = TelemetryCollector()
      with tel.span("cnf.filter", mode="siso"):
          ...

* **Collection** — :class:`TelemetryCollector` accumulates everything;
  ``current_collector()`` / ``use_collector`` provide the ambient
  collector instrumented code reads, and :class:`NullCollector` keeps
  the uninstrumented hot path zero-cost.  Worker collectors serialise
  to plain-dict payloads and merge deterministically
  (:mod:`repro.telemetry.collector`).
* **Export** — JSONL event streams, Markdown/CSV summary tables and
  Chrome trace-event JSON (:mod:`repro.telemetry.export`), with schema
  validators in :mod:`repro.telemetry.validate`.

Instrumented code finds its collector only through
``current_collector()``: install one with ``use_collector(tel)`` (a
``with`` block) or ``set_collector(tel)`` (process-wide) and
``relay.process``, ``exec.run_sweep`` (per-shard collectors), the
supervision ladder, the service, the netsim experiment runners and the
``repro report`` CLI subcommand record into it.
"""

from repro.telemetry.collector import (
    PAYLOAD_VERSION,
    NullCollector,
    TelemetryCollector,
    current_collector,
    set_collector,
    use_collector,
)
from repro.telemetry.export import (
    chrome_trace,
    read_jsonl,
    summary_csv,
    summary_table,
    write_chrome_trace,
    write_jsonl,
)
from repro.telemetry.metrics import (
    DEFAULT_EDGES,
    NONDETERMINISTIC_UNITS,
    TIME_UNITS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    log_spaced_edges,
    percentiles,
)
from repro.telemetry.spans import NULL_SPAN, NullSpan, SpanRecorder
from repro.telemetry.timing import NS_PER_S, now_ns, timed_call

__all__ = [
    "PAYLOAD_VERSION",
    "NullCollector",
    "TelemetryCollector",
    "current_collector",
    "set_collector",
    "use_collector",
    "chrome_trace",
    "read_jsonl",
    "summary_csv",
    "summary_table",
    "write_chrome_trace",
    "write_jsonl",
    "DEFAULT_EDGES",
    "NONDETERMINISTIC_UNITS",
    "TIME_UNITS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "log_spaced_edges",
    "percentiles",
    "NULL_SPAN",
    "NullSpan",
    "SpanRecorder",
    "NS_PER_S",
    "now_ns",
    "timed_call",
    "KNOWN_METRIC_PREFIXES",
    "TelemetrySchemaError",
    "validate_chrome_trace",
    "validate_jsonl",
]

#: Served from :mod:`repro.telemetry.validate` on first use, so that
#: ``python -m repro.telemetry.validate`` runs that module once, as
#: ``__main__``, and not a second time under its own name.
_VALIDATE_NAMES = frozenset({
    "KNOWN_METRIC_PREFIXES", "TelemetrySchemaError",
    "validate_chrome_trace", "validate_jsonl",
})


def __getattr__(name):
    if name in _VALIDATE_NAMES:
        from repro.telemetry import validate

        return getattr(validate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
