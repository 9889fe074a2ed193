"""Probe aggregates are bit-identical across executor backends.

The determinism contract ``repro.probes`` inherits from ``repro.exec``
and ``repro.telemetry``: every published ``probes.*`` number — the
per-client summaries, the experiment-level aggregate and the merged
telemetry snapshot — must be equal whatever the worker count, backend
or chunk layout, because every float is dyadic-quantised (exact,
associative sums) and decimation keys to absolute stream position.
"""

from repro.netsim import link_health_experiment
from repro.telemetry import TelemetryCollector, use_collector

_KW = dict(num_clients=4, seed=2014, n_symbols=12)


def _run(jobs, backend=None):
    tel = TelemetryCollector(origin=f"probes-{backend}-{jobs}")
    with use_collector(tel):
        data = link_health_experiment(jobs=jobs, backend=backend, **_KW)
    return data, tel.deterministic_snapshot()


class TestBackendInvariance:
    def test_process_matches_serial(self):
        serial, serial_snap = _run(jobs=1)
        proc, proc_snap = _run(jobs=4, backend="process")
        assert serial["probes"] == proc["probes"]         # bitwise dict ==
        assert serial["per_client"] == proc["per_client"]
        assert serial_snap == proc_snap

    def test_job_count_irrelevant(self):
        two, two_snap = _run(jobs=2, backend="process")
        four, four_snap = _run(jobs=4, backend="process")
        assert two["probes"] == four["probes"]
        assert two_snap == four_snap


class TestPublishedMetricsDeterminism:
    def test_probe_metric_families_present_and_merged(self):
        _, snap = _run(jobs=3, backend="process")
        gauge_names = {g[0] for g in snap["gauges"]}
        assert "probes.evm.rms_db" in gauge_names
        assert "probes.spectrum.cancellation_depth_db" in gauge_names
        assert "probes.latency.cumulative_ns" in gauge_names
        counter_names = {c[0] for c in snap["counters"]}
        assert "probes.samples" in counter_names
        assert "probes.segments_analyzed" in counter_names

    def test_fault_run_is_deterministic_too(self):
        a = link_health_experiment(fault="residual-si", jobs=1, **_KW)
        b = link_health_experiment(fault="residual-si", jobs=4,
                                   backend="process", **_KW)
        assert a["probes"] == b["probes"]
        # ...and genuinely different from the healthy run.
        healthy = link_health_experiment(jobs=1, **_KW)
        assert a["probes"] != healthy["probes"]
