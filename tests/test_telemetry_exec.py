"""Multi-backend telemetry determinism through the sweep engine.

The engine's contract — parallel output bit-identical to serial —
extends to telemetry: the *deterministic snapshot* (counters, non-time
gauges/histograms, the event sequence stripped of timestamps) of a
sweep's merged telemetry must be identical whatever the job count or
backend, because per-shard collectors merge in task order.
"""

import numpy as np
import pytest

from repro.exec import Task, run_sweep, task_fn
from repro.telemetry import TelemetryCollector, current_collector, use_collector
from repro.telemetry.validate import KNOWN_METRIC_PREFIXES


@task_fn("test.telemetry.demo", version="1")
def _demo_task(value, rng=None):
    tel = current_collector()
    tel.counter("demo.calls", parity="odd" if value % 2 else "even").inc()
    tel.histogram("demo.value", kind="input").observe(float(value))
    tel.event("demo.task", value=value)
    draw = float(rng.normal()) if rng is not None else 0.0
    return {"value": value, "draw": draw}


@task_fn("test.telemetry.norm", version="1")
def _norm_task(vec, scale, rng=None):
    current_collector().counter("demo.norm.calls").inc()
    return float(np.dot(vec, vec)) * scale + rng.standard_normal()


def _tasks(n=12):
    return [Task("test.telemetry.demo", {"value": i}, seed=100 + i)
            for i in range(n)]


def _array_tasks(n=8):
    """Tasks whose params carry a 16 kB ndarray."""
    vec = np.arange(2000, dtype=float)
    return [Task("test.telemetry.norm", {"vec": vec, "scale": i}, seed=i)
            for i in range(n)]


def _sweep_snapshot(jobs, backend=None, chunk_size=None, tasks=None):
    tel = TelemetryCollector(origin=f"run-{backend}-{jobs}")
    with use_collector(tel):
        result = run_sweep(tasks if tasks is not None else _tasks(),
                           jobs=jobs, backend=backend, cache=False,
                           chunk_size=chunk_size)
    return tel, result


class TestBackendInvariance:
    def test_process_matches_serial(self):
        for tasks in (_tasks(), _array_tasks()):
            serial_tel, serial = _sweep_snapshot(jobs=1, tasks=tasks)
            proc_tel, proc = _sweep_snapshot(jobs=4, backend="process",
                                             tasks=tasks)
            assert serial.results == proc.results
            assert serial_tel.deterministic_snapshot() == \
                proc_tel.deterministic_snapshot()

    def test_chunk_layout_irrelevant(self):
        a_tel, _ = _sweep_snapshot(jobs=3, backend="process", chunk_size=1)
        b_tel, _ = _sweep_snapshot(jobs=3, backend="process", chunk_size=5)
        assert a_tel.deterministic_snapshot() == b_tel.deterministic_snapshot()

    def test_event_sequence_in_task_order(self):
        tel, _ = _sweep_snapshot(jobs=4, backend="process", chunk_size=3)
        values = [e["labels"]["value"] for e in tel.events
                  if e["name"] == "demo.task"]
        assert values == list(range(12))

    def test_task_metrics_accumulated(self):
        tel, _ = _sweep_snapshot(jobs=2, backend="process")
        calls = tel.metrics.counter_values("demo.calls")
        assert calls == {(("parity", "even"),): 6, (("parity", "odd"),): 6}
        hist = tel.histogram("demo.value", kind="input")
        assert hist.count == 12
        assert hist.total == pytest.approx(sum(range(12)))


class TestEngineMetrics:
    def test_sweep_counters_and_shard_spans(self):
        tel, result = _sweep_snapshot(jobs=2, backend="process", chunk_size=4)
        assert tel.counter("exec.tasks.total").value == 12
        assert tel.counter("exec.tasks.executed").value == 12
        names = [s["name"] for s in tel.spans]
        assert names.count("exec.shard") == result.stats.chunks
        assert "exec.sweep" in names
        completed = tel.metrics.counter_values("exec.tasks.completed")
        assert completed == {(("fn", "test.telemetry.demo"),): 12}
        assert tel.histogram("exec.task.wall_ns",
                             fn="test.telemetry.demo").count == 12

    def test_cache_stats_surface_as_gauges(self, tmp_path):
        cache = tmp_path / "cache"
        tel_cold = TelemetryCollector()
        with use_collector(tel_cold):
            run_sweep(_tasks(4), jobs=1, cache=cache)
        assert tel_cold.gauge("exec.cache.misses").value == 4
        assert tel_cold.gauge("exec.cache.stores").value == 4

        tel_warm = TelemetryCollector()
        with use_collector(tel_warm):
            run_sweep(_tasks(4), jobs=1, cache=cache)
        assert tel_warm.gauge("exec.cache.hits").value == 4
        assert tel_warm.gauge("exec.cache.hit_rate").value == 1.0
        assert tel_warm.counter("exec.tasks.cache_hits").value == 4
        assert tel_warm.counter("exec.tasks.executed").value == 0

    def test_process_dispatch_layout(self):
        tel, result = _sweep_snapshot(jobs=2, backend="process",
                                      chunk_size=4, tasks=_array_tasks())
        assert result.stats.chunks == 2
        # One pickled-payload observation per chunk sent to the pool.
        payload = tel.histogram("exec.dispatch.payload_bytes",
                                unit="layout")
        assert payload.count == 2
        assert payload.total > 2 * 16000
        assert tel.gauge("exec.dispatch.chunk_size",
                         unit="layout").value == 4
        assert "exec.dispatch." in KNOWN_METRIC_PREFIXES

    def test_uninstrumented_sweep_collects_nothing(self):
        result = run_sweep(_tasks(4), jobs=2, backend="process", cache=False)
        assert len(result) == 4        # and no collector was touched


class TestNetsimTelemetryDeterminism:
    def _run(self, jobs, backend=None):
        from repro.netsim import overall_gains_experiment

        tel = TelemetryCollector()
        with use_collector(tel):
            data = overall_gains_experiment(num_clients=4, seed=3,
                                            jobs=jobs, backend=backend)
        return tel.deterministic_snapshot(), data

    def test_process_matches_serial(self):
        serial_snap, serial = self._run(jobs=1)
        proc_snap, proc = self._run(jobs=2, backend="process")
        assert serial_snap == proc_snap
        np.testing.assert_array_equal(serial["fastforward"],
                                      proc["fastforward"])
