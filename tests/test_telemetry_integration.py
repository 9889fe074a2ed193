"""Telemetry wired through the runtime, relay, supervisor and netsim."""

import collections

import numpy as np
import pytest

from repro.core.relay import FastForwardRelay, RelayConfig
from repro.runtime.chain import Chain, ChainTrace, FunctionStage, GainStage
from repro.supervision import (
    RelayHealthMonitor,
    RelaySupervisor,
    SupervisorPolicy,
)
from repro.telemetry import (
    NullCollector,
    TelemetryCollector,
    current_collector,
    use_collector,
)


def _siso_relay(seed=0, n_sc=None):
    rng = np.random.default_rng(seed)
    relay = FastForwardRelay(RelayConfig())
    n_sc = n_sc or len(relay.config.params.subcarrier_freqs_hz())

    def h():
        return rng.normal(size=n_sc) + 1j * rng.normal(size=n_sc)

    relay.configure_siso_link(h(), h(), h())
    return relay


def _mimo_relay(seed=0, k=2):
    rng = np.random.default_rng(seed)
    relay = FastForwardRelay(RelayConfig())
    n_sc = len(relay.config.params.subcarrier_freqs_hz())

    def h():
        return (rng.normal(size=(n_sc, k, k))
                + 1j * rng.normal(size=(n_sc, k, k)))

    relay.configure_mimo_link(h(), h(), h())
    return relay


class TestChainTraceAdapter:
    def _chain(self):
        return Chain([FunctionStage(lambda x: x, name="identity"),
                      GainStage(6.0)])

    def test_trace_without_collector_keeps_legacy_shape(self):
        chain = self._chain()
        trace = ChainTrace()
        chain.run(np.ones(256, dtype=complex), trace=trace)
        assert trace.stages["identity"].calls == 1
        assert trace.stages["identity"].samples_in == 256
        assert trace.collector is None

    def test_trace_feeds_collector(self):
        tel = TelemetryCollector()
        chain = self._chain()
        chain.run(np.ones(256, dtype=complex), trace=ChainTrace(collector=tel))
        calls = tel.metrics.counter_values("runtime.stage.calls")
        assert calls == {(("stage", "identity"),): 1,
                         (("stage", "amplify"),): 1}
        samples = tel.metrics.counter_values("runtime.stage.samples")
        assert samples[(("stage", "identity"),)] == 256
        hist = tel.histogram("runtime.stage.wall_ns", stage="identity")
        assert hist.count == 1
        assert tel.metrics.unit("runtime.stage.wall_ns") == "ns"

    def test_null_collector_is_dropped(self):
        trace = ChainTrace(collector=NullCollector())
        assert trace.collector is None

    def test_trace_results_unchanged_by_collector(self):
        x = np.arange(512, dtype=complex)
        plain, instrumented = ChainTrace(), ChainTrace(
            collector=TelemetryCollector())
        a = self._chain().run(x, trace=plain)
        b = self._chain().run(x, trace=instrumented)
        np.testing.assert_array_equal(a, b)
        assert plain.stages["amplify"].samples_in == \
            instrumented.stages["amplify"].samples_in


class TestRelayTelemetry:
    def test_process_records_span_and_counters(self):
        relay = _siso_relay()
        x = np.ones(4096, dtype=complex)
        with use_collector(TelemetryCollector()) as tel:
            relay.process(x)
        assert [s["name"] for s in tel.spans] == ["relay.process"]
        assert tel.spans[0]["labels"] == {"mode": "siso"}
        assert tel.counter("relay.samples", mode="siso").value == 4096
        # The auto-created ChainTrace fed per-stage metrics too.
        assert tel.metrics.counter_values("runtime.stage.calls")

        # A MIMO link runs the same entry point under its own label and
        # counts per-stream samples, not array elements.
        relay = _mimo_relay()
        with use_collector(TelemetryCollector()) as tel:
            relay.process(np.ones((2, 1024), dtype=complex))
        assert [s["name"] for s in tel.spans] == ["relay.process"]
        assert tel.spans[0]["labels"] == {"mode": "mimo"}
        assert tel.metrics.counter_values("relay.samples") == {
            (("mode", "mimo"),): 1024}

    def test_ambient_collector_used_by_default(self):
        relay = _siso_relay()
        x = np.ones(2048, dtype=complex)
        with use_collector(TelemetryCollector()) as tel:
            relay.process(x)
        assert tel.counter("relay.samples", mode="siso").value == 2048

    def test_explicit_trace_still_honoured(self):
        relay = _siso_relay()
        trace = ChainTrace()
        with use_collector(TelemetryCollector()):
            relay.process(np.ones(2048, dtype=complex), trace=trace)
        assert trace.stages            # caller's trace got the stats
        assert trace.collector is None  # and was not silently rewired

    def test_output_identical_with_and_without_telemetry(self):
        relay = _siso_relay(seed=3)
        rng = np.random.default_rng(7)
        x = rng.normal(size=8192) + 1j * rng.normal(size=8192)
        y_plain = relay.process(x)
        with use_collector(TelemetryCollector()):
            y_instr = relay.process(x)
        np.testing.assert_array_equal(y_plain, y_instr)

    def test_uninstrumented_records_nothing(self):
        relay = _siso_relay()
        assert isinstance(current_collector(), NullCollector)
        relay.process(np.ones(1024, dtype=complex))   # must not raise


class TestSupervisorTelemetry:
    def _drive_ladder(self, tel):
        sup = RelaySupervisor(
            monitor=RelayHealthMonitor(alpha=1.0),
            policy=SupervisorPolicy(retune_retry_budget=1,
                                    escalation_hold_s=0.0,
                                    recovery_hold_s=0.2),
            retune=lambda t: False)
        with use_collector(tel):
            for i in range(30):
                sup.monitor.observe(residual_si_db=-10.0)
                sup.step(i * 0.1)
            for i in range(30, 40):
                sup.monitor.observe(residual_si_db=-50.0, clip_fraction=0.0)
                sup.step(i * 0.1)
        return sup

    def test_transition_counters_match_event_log(self):
        # The regression contract: per-kind telemetry counters must
        # equal the typed event log's kind histogram, transition for
        # transition.
        tel = TelemetryCollector()
        sup = self._drive_ladder(tel)
        assert len(sup.events) > 3     # the ladder actually moved
        expected = collections.Counter(k.value for k in sup.event_kinds())
        recorded = {labels[0][1]: value for labels, value in
                    tel.metrics.counter_values(
                        "supervision.transitions").items()}
        assert recorded == dict(expected)

    def test_structured_events_mirror_log(self):
        tel = TelemetryCollector()
        sup = self._drive_ladder(tel)
        assert len(tel.events) == len(sup.events)
        for ev, logged in zip(tel.events, sup.events):
            assert ev["name"] == "supervision.transition"
            assert ev["labels"]["kind"] == logged.kind.value
            assert ev["labels"]["state"] == logged.state.value

    def test_ambient_collector_used_when_not_passed(self):
        with use_collector(TelemetryCollector()) as tel:
            sup = RelaySupervisor(monitor=RelayHealthMonitor(alpha=1.0))
            sup.monitor.observe(residual_si_db=-10.0)
            sup.step(0.0)
        assert tel.metrics.counter_values("supervision.transitions")

    def test_no_collector_no_cost(self):
        sup = RelaySupervisor(monitor=RelayHealthMonitor(alpha=1.0))
        sup.monitor.observe(residual_si_db=-10.0)
        sup.step(0.0)
        assert sup.events              # typed log unaffected


class TestNetsimTelemetry:
    def test_experiment_runs_under_span(self):
        from repro.netsim import overall_gains_experiment

        with use_collector(TelemetryCollector()) as tel:
            overall_gains_experiment(num_clients=2, seed=1, jobs=1)
        names = [s["name"] for s in tel.spans]
        assert "netsim.experiment" in names
        exp = [s for s in tel.spans if s["name"] == "netsim.experiment"]
        assert exp[0]["labels"] == {"experiment": "overall-gains"}
        # The sweep span nests inside the experiment span.
        assert "exec.sweep" in names

    def test_coverage_heatmap_span(self):
        from repro.netsim import Testbed, coverage_heatmap, paper_scenarios

        testbed = Testbed(paper_scenarios()[0], seed=7)
        with use_collector(TelemetryCollector()) as tel:
            coverage_heatmap(testbed, spacing_m=10.0, seed=7, jobs=1)
        exp = [s for s in tel.spans if s["name"] == "netsim.experiment"]
        assert exp and exp[0]["labels"] == {"experiment": "coverage"}


class TestReportCli:
    def test_report_renders_tables(self, capsys):
        from repro.cli import main

        assert main(["report", "gains", "--clients", "2", "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "## Spans" in out
        assert "netsim.experiment" in out
        assert "exec.tasks.total" in out

    def test_report_writes_valid_exports(self, tmp_path, capsys):
        from repro.cli import main
        from repro.telemetry import validate_chrome_trace, validate_jsonl

        jsonl = tmp_path / "run.jsonl"
        trace = tmp_path / "trace.json"
        assert main(["report", "gains", "--clients", "2",
                     "--jsonl", str(jsonl), "--trace", str(trace)]) == 0
        assert validate_jsonl(jsonl)["records"] > 0
        summary = validate_chrome_trace(trace)
        assert summary["by_phase"]["X"] >= 2   # experiment + sweep spans

    def test_report_from_file(self, tmp_path, capsys):
        from repro.cli import main
        from repro.telemetry import TelemetryCollector, write_jsonl

        tel = TelemetryCollector(origin="saved")
        tel.counter("tasks", fn="demo").inc(7)
        path = tmp_path / "saved.jsonl"
        write_jsonl(tel, path)
        assert main(["report", "--from", str(path)]) == 0
        out = capsys.readouterr().out
        assert "origin: saved" in out
        assert "fn=demo" in out

    def test_report_csv(self, tmp_path, capsys):
        from repro.cli import main
        from repro.telemetry import TelemetryCollector, write_jsonl

        tel = TelemetryCollector()
        tel.counter("n").inc()
        path = tmp_path / "saved.jsonl"
        write_jsonl(tel, path)
        assert main(["report", "--from", str(path), "--csv"]) == 0
        assert "section,name,labels" in capsys.readouterr().out

    def test_report_without_experiment_or_file_errors(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["report"])
