"""The service runtime: pump, asyncio shell, health output, load tests."""

import json
import os

import pytest

from repro.service import (
    LoadTestConfig,
    RelayService,
    ServeConfig,
    ServiceStatus,
    StatusWriter,
    build_service,
    latency_summary,
    refresh_probes,
    run_loadtest,
    run_once,
)
from repro.service.session import SessionState


def _small_config(**kwargs):
    base = dict(sessions=6, tenants=2, chains=2, seed=11,
                rate_fps=40.0, duration_s=0.2)
    base.update(kwargs)
    return ServeConfig(**base)


class TestPump:
    def test_run_once_closes_every_session_and_conserves(self):
        pump, tel = run_once(_small_config())
        assert all(s.state is SessionState.CLOSED for s in pump.sessions)
        pump.scheduler.check_conservation()
        assert pump.scheduler.processed > 0
        assert pump.scheduler.queue_depth() == 0

    def test_two_runs_same_seed_identical_event_logs(self):
        pump_a, _ = run_once(_small_config())
        pump_b, _ = run_once(_small_config())
        assert pump_a.scheduler.event_digest() \
            == pump_b.scheduler.event_digest()

    def test_different_seed_different_event_log(self):
        pump_a, _ = run_once(_small_config(seed=11))
        pump_b, _ = run_once(_small_config(seed=12))
        assert pump_a.scheduler.event_digest() \
            != pump_b.scheduler.event_digest()

    def test_sessions_admitted_before_activation(self):
        pump, _ = run_once(_small_config())
        for session in pump.sessions:
            kinds = [e.kind.value for e in session.events]
            assert kinds.index("admitted") < kinds.index("activated")

    def test_capacity_cap_limits_per_tick_dispatch(self):
        pump, _ = run_once(_small_config(capacity_per_tick=2))
        # The pump cannot have served more than its budget per tick.
        assert pump.scheduler.processed <= 2 * pump.ticks

    def test_sustains_100_concurrent_sessions_no_unexplained_loss(self):
        # The acceptance headline, sized for the test suite: every
        # admitted frame is processed or shed for a declared reason.
        pump, _ = run_once(_small_config(sessions=100, tenants=4,
                                         chains=2, duration_s=0.2,
                                         rate_fps=20.0))
        sched = pump.scheduler
        sched.check_conservation()
        assert sum(1 for s in pump.sessions
                   if s.state is SessionState.CLOSED) == 100
        assert sched.admitted == sched.processed + sched.shed
        reasons = {e.detail["reason"] for e in sched.events
                   if e.kind.value == "shed"}
        assert reasons <= {"queue-full", "half-duplex", "drain"}


class TestService:
    def test_asyncio_shell_matches_virtual_run(self):
        # The asyncio wrapper drives the identical pump, so the final
        # ledger must agree with a pure virtual-time run.
        config = _small_config(tick_s=0.002)
        pump_virtual, _ = run_once(config)
        pump_live, _ = build_service(config)
        RelayService(pump_live).serve_forever()
        assert pump_live.scheduler.offered \
            == pump_virtual.scheduler.offered
        assert pump_live.scheduler.processed \
            == pump_virtual.scheduler.processed
        pump_live.scheduler.check_conservation()

    def test_request_stop_drains_cleanly(self):
        import asyncio

        pump, _ = build_service(_small_config(duration_s=5.0))
        service = RelayService(pump)

        async def run_then_stop():
            task = asyncio.ensure_future(service.run())
            await asyncio.sleep(0.05)
            service.request_stop()
            await task

        asyncio.run(run_then_stop())
        pump.scheduler.check_conservation()
        assert pump.scheduler.queue_depth() == 0
        assert all(s.state in (SessionState.CLOSED, SessionState.PENDING)
                   for s in pump.sessions)


class TestHealth:
    def test_status_capture_reflects_ledger(self):
        pump, tel = run_once(_small_config())
        status = ServiceStatus.capture(pump.scheduler, pump.now_s,
                                       telemetry=tel)
        sched = pump.scheduler
        assert status.frames["offered"] == sched.offered
        assert status.frames["processed"] == sched.processed
        assert status.sessions["by_state"]["closed"] == len(pump.sessions)
        assert status.latency["queue"]["count"] == sched.processed
        assert {c["key"] for c in status.chains} \
            == {"chain-0", "chain-1"}

    def test_status_dir_written_atomically(self, tmp_path):
        out = tmp_path / "status"
        pump, tel = run_once(_small_config(status_interval_s=0.05),
                             status_dir=out)
        status = json.loads((out / "status.json").read_text())
        assert status["frames"]["offered"] == pump.scheduler.offered
        html = (out / "link_health.html").read_text()
        assert "<html" in html
        assert "probes." in html or "service" in html
        # No temp files left behind by the atomic swap.
        assert all(not name.startswith(".status-")
                   and not name.endswith(".tmp")
                   for name in os.listdir(out))

    def test_periodic_snapshots_overwrite_one_file(self, tmp_path):
        out = tmp_path / "status"
        run_once(_small_config(status_interval_s=0.02), status_dir=out)
        assert sorted(os.listdir(out)) == ["link_health.html",
                                           "series.jsonl",
                                           "status.json"]

    @pytest.mark.parametrize("broken", ["series", "html"])
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch,
                                              broken):
        out = tmp_path / "status"
        pump, tel = run_once(_small_config(status_interval_s=0.05),
                             status_dir=out)
        names = sorted(os.listdir(out))
        target = out / ("series.jsonl" if broken == "series"
                        else "link_health.html")
        before = target.read_bytes()

        def torn_write(*args, **kwargs):
            # Both writers take the output path as their last positional
            # argument: start the file, then fail half-way through it.
            with open(args[-1], "w") as fh:
                fh.write("{\"torn\": ")
            raise OSError("disk full")

        class TornSeries:
            write_jsonl = staticmethod(torn_write)

        if broken == "html":
            monkeypatch.setattr("repro.service.health.write_html_report",
                                torn_write)
        status = ServiceStatus.capture(pump.scheduler, pump.now_s,
                                       telemetry=tel)
        with pytest.raises(OSError, match="disk full"):
            StatusWriter(out).write(
                status, telemetry=tel,
                series=TornSeries() if broken == "series" else None)
        assert target.read_bytes() == before
        assert sorted(os.listdir(out)) == names

    def test_refresh_probes_populates_probe_metrics(self):
        from repro.telemetry.collector import TelemetryCollector

        pump, _ = build_service(_small_config())
        tel = TelemetryCollector(origin="probe-test")
        pump.scheduler.pool.entry("chain-0")
        assert refresh_probes(pump.scheduler.pool, telemetry=tel) >= 1
        names = {g["name"] for g in tel.payload()["gauges"]}
        assert any(name.startswith("probes.") for name in names)

    def test_latency_summary_empty_and_filled(self):
        empty = latency_summary([])
        assert empty == {"count": 0, "p50_ms": 0.0, "p99_ms": 0.0,
                         "max_ms": 0.0}
        filled = latency_summary([0.001, 0.002, 0.100])
        assert filled["count"] == 3
        assert filled["max_ms"] == pytest.approx(100.0)
        assert filled["p50_ms"] == pytest.approx(2.0)


class TestLoadTest:
    def test_saturating_run_sheds_fairly_and_conserves(self):
        report, pump = run_loadtest(LoadTestConfig.saturating(
            sessions=48, tenants=4, duration_s=0.4, capacity_per_tick=5,
            queue_high_water=24))
        assert report.conserved
        assert report.deterministic
        assert report.frames["shed"] > 0
        assert set(report.shed_reasons) <= {"queue-full", "half-duplex",
                                            "drain"}
        # Equal-weight tenants within 20% of fair share (the CI gate).
        assert report.fairness["max_deviation"] < 0.20
        assert report.sessions["closed"] == 48

    def test_report_round_trips_to_json(self):
        report, _ = run_loadtest(LoadTestConfig(
            serve=_small_config(), check_determinism=False))
        blob = json.dumps(report.as_dict())
        back = json.loads(blob)
        assert back["frames"]["offered"] == report.frames["offered"]
        assert back["event_digest"] == report.event_digest
        assert back["deterministic"] is None

    def test_storm_scenario_reports_ladder_activity(self):
        report, pump = run_loadtest(LoadTestConfig(
            serve=_small_config(sessions=8, duration_s=0.3,
                                rate_fps=60.0, storm_rate_per_s=20.0),
            check_determinism=False))
        assert report.supervisor["si_jumps"] > 0
        assert report.supervisor["mutes"] > 0
        assert report.conserved
