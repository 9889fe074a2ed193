"""Exporters and validators: JSONL, summary tables, Chrome traces."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.telemetry import (
    TelemetryCollector,
    TelemetrySchemaError,
    chrome_trace,
    read_jsonl,
    summary_table,
    validate_chrome_trace,
    validate_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.telemetry.validate import main as validate_main


def _sample_collector():
    tel = TelemetryCollector(origin="test")
    with tel.span("outer", phase="a"):
        with tel.span("inner"):
            pass
    tel.counter("tasks", fn="demo").inc(3)
    tel.gauge("rate").set(0.75)
    tel.histogram("wall_ns", unit="ns", stage="f").observe(1500.0)
    tel.event("transition", kind="fault")
    return tel


class TestJsonl:
    def test_write_then_validate(self, tmp_path):
        path = tmp_path / "run.jsonl"
        n = write_jsonl(_sample_collector(), path)
        summary = validate_jsonl(path)
        assert summary["records"] == n
        assert summary["by_type"] == {"meta": 1, "counter": 1, "gauge": 1,
                                      "histogram": 1, "span": 2, "event": 1}

    def test_round_trip(self, tmp_path):
        tel = _sample_collector()
        path = tmp_path / "run.jsonl"
        write_jsonl(tel, path)
        payload = read_jsonl(path)
        assert payload == tel.payload()

    def test_first_line_is_meta(self, tmp_path):
        path = tmp_path / "run.jsonl"
        write_jsonl(_sample_collector(), path)
        first = json.loads(path.read_text().splitlines()[0])
        assert first["type"] == "meta"
        assert first["origin"] == "test"

    def test_validator_rejects_missing_keys(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"type": "meta", "version": 1, "origin": "x"}\n'
            '{"type": "span", "name": "s"}\n')
        with pytest.raises(TelemetrySchemaError, match="missing key"):
            validate_jsonl(path)

    def test_validator_rejects_missing_meta(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "counter", "name": "c", '
                        '"labels": {}, "value": 1}\n')
        with pytest.raises(TelemetrySchemaError, match="meta"):
            validate_jsonl(path)

    def test_validator_rejects_bad_histogram_shape(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"type": "meta", "version": 1, "origin": "x"}\n'
            '{"type": "histogram", "name": "h", "labels": {}, '
            '"edges": [1.0, 2.0], "counts": [0, 1], "count": 1, '
            '"total": 1.5}\n')
        with pytest.raises(TelemetrySchemaError, match="counts"):
            validate_jsonl(path)

    def test_validator_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(TelemetrySchemaError, match="invalid JSON"):
            validate_jsonl(path)


class TestChromeTrace:
    def test_export_validates(self, tmp_path):
        path = tmp_path / "trace.json"
        n = write_chrome_trace(_sample_collector(), path)
        summary = validate_chrome_trace(path)
        assert summary["events"] == n
        # 2 spans (X), 1 event (i), 1 process-name metadata row (M).
        assert summary["by_phase"] == {"X": 2, "i": 1, "M": 1}

    def test_span_timestamps_in_microseconds(self):
        tel = _sample_collector()
        trace = chrome_trace(tel)
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        by_name = {e["name"]: e for e in spans}
        rec = {r["name"]: r for r in tel.spans}
        assert by_name["outer"]["ts"] == rec["outer"]["ts_ns"] / 1e3
        assert by_name["outer"]["dur"] == rec["outer"]["dur_ns"] / 1e3
        assert by_name["outer"]["args"]["phase"] == "a"

    def test_process_metadata_named_by_origin(self):
        trace = chrome_trace(_sample_collector())
        meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        assert meta[0]["args"]["name"] == "test"

    def test_merged_worker_spans_keep_origin(self):
        parent = TelemetryCollector(origin="main")
        worker = TelemetryCollector(origin="shard-0")
        with worker.span("exec.shard", shard=0):
            pass
        parent.merge(worker.payload())
        trace = chrome_trace(parent)
        meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        assert {e["args"]["name"] for e in meta} == {"shard-0"}

    def test_validator_rejects_bad_phase(self):
        with pytest.raises(TelemetrySchemaError, match="phase"):
            validate_chrome_trace({"traceEvents": [
                {"name": "x", "ph": "Z", "pid": 1, "tid": 1}]})

    def test_validator_rejects_negative_duration(self):
        with pytest.raises(TelemetrySchemaError, match="dur"):
            validate_chrome_trace({"traceEvents": [
                {"name": "x", "ph": "X", "pid": 1, "tid": 1,
                 "ts": 0, "dur": -5}]})

    def test_validator_rejects_missing_array(self):
        with pytest.raises(TelemetrySchemaError, match="traceEvents"):
            validate_chrome_trace({"foo": []})


class TestSummaryTables:
    def test_markdown_sections(self):
        text = summary_table(_sample_collector())
        assert "## Spans" in text
        assert "## Counters" in text
        assert "## Gauges" in text
        assert "## Histograms" in text
        assert "fn=demo" in text
        assert "| outer" in text

    def test_csv_rows(self):
        text = summary_table(_sample_collector(), fmt="csv")
        lines = text.strip().splitlines()
        header = lines[0].split(",")
        assert header[:3] == ["section", "name", "labels"]
        assert all(len(line.split(",")) == len(header)
                   for line in lines[1:])
        assert any(line.startswith("counters,tasks,fn=demo,3")
                   for line in lines)

    def test_empty_collector_renders(self):
        text = summary_table(TelemetryCollector())
        assert "no telemetry recorded" in text

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            summary_table(TelemetryCollector(), fmt="xml")


class TestValidateCli:
    def test_ok_exit_zero(self, tmp_path, capsys):
        # The sample collector uses free-form metric names, so the
        # repo-prefix gate (on by default) is switched off here; the
        # gate itself is covered by TestPrefixGate.
        jsonl = tmp_path / "run.jsonl"
        trace = tmp_path / "trace.json"
        tel = _sample_collector()
        write_jsonl(tel, jsonl)
        write_chrome_trace(tel, trace)
        assert validate_main([str(jsonl), "--no-prefix-check",
                              "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert out.count("OK") == 2

    def test_failure_exit_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("nope\n")
        assert validate_main([str(bad)]) == 1
        assert "schema error" in capsys.readouterr().out

    def test_requires_an_input(self):
        with pytest.raises(SystemExit):
            validate_main([])

    def test_module_runs_once_under_python_m(self, tmp_path):
        # The package must not import the module `python -m` executes,
        # or runpy warns and the validator's module body runs twice.
        tel = TelemetryCollector(origin="service")
        with tel.span("relay.process", mode="siso"):
            tel.counter("service.frames.admitted", tenant="t").inc()
        jsonl = tmp_path / "run.jsonl"
        write_jsonl(tel, jsonl)
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m",
             "repro.telemetry.validate", str(jsonl)],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "OK" in proc.stdout


class TestPrefixGate:
    """The CLI rejects metric families the repo does not define."""

    @staticmethod
    def _write(tmp_path, name):
        tel = TelemetryCollector(origin="prefix-test")
        tel.counter(name).inc()
        path = tmp_path / "run.jsonl"
        write_jsonl(tel, path)
        return path

    def test_known_prefixes_cover_probes(self):
        from repro.telemetry import KNOWN_METRIC_PREFIXES

        assert "probes." in KNOWN_METRIC_PREFIXES
        assert KNOWN_METRIC_PREFIXES == tuple(sorted(KNOWN_METRIC_PREFIXES))

    def test_known_prefixes_cover_fleet(self):
        from repro.telemetry import KNOWN_METRIC_PREFIXES

        assert "fleet." in KNOWN_METRIC_PREFIXES

    def test_known_prefixes_cover_service(self):
        from repro.telemetry import KNOWN_METRIC_PREFIXES

        assert "service." in KNOWN_METRIC_PREFIXES
        assert KNOWN_METRIC_PREFIXES == tuple(sorted(KNOWN_METRIC_PREFIXES))

    def test_repo_prefix_accepted(self, tmp_path):
        assert validate_main(
            [str(self._write(tmp_path, "probes.samples"))]) == 0

    def test_fleet_prefix_accepted(self, tmp_path):
        assert validate_main(
            [str(self._write(tmp_path, "fleet.reroute.events"))]) == 0

    def test_known_prefixes_cover_obs(self):
        from repro.telemetry import KNOWN_METRIC_PREFIXES

        assert "obs." in KNOWN_METRIC_PREFIXES
        assert KNOWN_METRIC_PREFIXES == tuple(sorted(KNOWN_METRIC_PREFIXES))

    def test_service_prefix_accepted(self, tmp_path):
        assert validate_main(
            [str(self._write(tmp_path, "service.frames.shed"))]) == 0

    def test_obs_prefix_accepted(self, tmp_path):
        assert validate_main(
            [str(self._write(tmp_path, "obs.slo.alerts"))]) == 0

    def test_obs_typo_still_rejected(self, tmp_path, capsys):
        # "observ." is NOT the registered family; near-miss names must
        # still fail the gate.
        assert validate_main(
            [str(self._write(tmp_path, "observ.slo.alerts"))]) == 1
        out = capsys.readouterr().out
        assert "unknown prefix" in out and "obs." in out

    def test_service_typo_still_rejected(self, tmp_path, capsys):
        # "services." is NOT the registered family; the gate must not
        # let the new prefix shadow near-miss names.
        assert validate_main(
            [str(self._write(tmp_path, "servicex.frames.shed"))]) == 1
        out = capsys.readouterr().out
        assert "unknown prefix" in out and "service." in out

    def test_unregistered_prefix_fails_with_actionable_message(
            self, tmp_path, capsys):
        # A new subsystem that emits metrics without registering its
        # family in KNOWN_METRIC_PREFIXES must fail CI with a message
        # naming both the offending metric and the accepted families.
        assert validate_main(
            [str(self._write(tmp_path, "flleet.reroute.events"))]) == 1
        out = capsys.readouterr().out
        assert "flleet.reroute.events" in out
        assert "unknown prefix" in out
        assert "fleet." in out          # the known list is printed

    def test_unknown_prefix_exits_nonzero(self, tmp_path, capsys):
        assert validate_main(
            [str(self._write(tmp_path, "typo.samples"))]) == 1
        out = capsys.readouterr().out
        assert "unknown prefix" in out and "typo.samples" in out

    def test_allow_prefix_extends_the_gate(self, tmp_path):
        path = self._write(tmp_path, "custom.thing")
        assert validate_main([str(path)]) == 1
        assert validate_main([str(path), "--allow-prefix", "custom."]) == 0

    def test_library_api_stays_permissive_by_default(self, tmp_path):
        # validate_jsonl only enforces prefixes when asked — existing
        # callers with free-form names keep working.
        path = self._write(tmp_path, "anything.goes")
        assert validate_jsonl(path)["records"] == 2
        from repro.telemetry import KNOWN_METRIC_PREFIXES

        with pytest.raises(TelemetrySchemaError, match="unknown prefix"):
            validate_jsonl(path, metric_prefixes=KNOWN_METRIC_PREFIXES)
