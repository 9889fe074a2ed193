"""Perf-regression diffing: classification, thresholds, CLI exit."""

import json

import pytest

from repro.cli import main
from repro.obs.diff import (
    classify_metric,
    diff_metrics,
    diff_runs,
    flatten_bench,
    load_run,
)
from repro.telemetry import TelemetryCollector
from repro.telemetry.export import write_jsonl


class TestClassify:
    @pytest.mark.parametrize("path,expected", [
        ("parallel_s", "lower"),
        ("span.exec.sweep[jobs=2].total_ns", "lower"),
        ("latency.queue.p99_ms", "lower"),
        ("fairness.max_deviation", "lower"),
        ("frames.shed_rate", "lower"),
        ("parallel_speedup", None),
        ("warm_cache_speedup", None),
        ("frames.carried_fps", "higher"),
        ("cache.hit_rate", "higher"),
        ("block_size", None),
        ("jobs", None),
        ("num_clients", None),
    ])
    def test_direction(self, path, expected):
        assert classify_metric(path) == expected


class TestFlatten:
    def test_nested_dict_to_dotted_paths(self):
        flat = flatten_bench({"a": {"b": 1, "c": 2.5}, "d": 3})
        assert flat == {"a.b": 1.0, "a.c": 2.5, "d": 3.0}

    def test_environment_subtrees_skipped(self):
        flat = flatten_bench({"machine": {"cpus": 8}, "seed": 1,
                              "gates": {"x": 1}, "parallel_s": 2.0})
        assert flat == {"parallel_s": 2.0}

    def test_booleans_not_numbers(self):
        assert flatten_bench({"ok": True, "x": 1}) == {"x": 1.0}


class TestDiffMetrics:
    def test_self_diff_is_clean(self):
        base = {"parallel_s": 10.0, "parallel_speedup": 2.0}
        report = diff_metrics(base, dict(base))
        assert report.ok
        assert not report.regressions

    def test_lower_better_regression(self):
        report = diff_metrics({"parallel_s": 10.0}, {"parallel_s": 20.0})
        (entry,) = report.regressions
        assert entry.metric == "parallel_s"
        assert entry.ratio == pytest.approx(2.0)

    def test_higher_better_regression(self):
        report = diff_metrics({"cache.hit_rate": 0.9},
                              {"cache.hit_rate": 0.4})
        assert not report.ok

    def test_improvement_not_regression(self):
        report = diff_metrics({"parallel_s": 20.0}, {"parallel_s": 10.0})
        assert report.ok
        assert len(report.improvements) == 1

    def test_within_threshold_is_ok(self):
        report = diff_metrics({"parallel_s": 10.0}, {"parallel_s": 11.0},
                              threshold=0.25)
        assert report.ok and not report.improvements

    def test_unclassified_changes_are_informational(self):
        report = diff_metrics({"jobs": 1.0}, {"jobs": 4.0})
        assert report.ok
        assert report.entries[0].status == "changed"

    def test_added_and_removed(self):
        report = diff_metrics({"old_s": 1.0}, {"new_s": 1.0})
        statuses = {e.metric: e.status for e in report.entries}
        assert statuses == {"old_s": "removed", "new_s": "added"}
        assert report.ok

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            diff_metrics({}, {}, threshold=0.0)

    def test_format_lines_flags_regressions(self):
        report = diff_metrics({"parallel_s": 10.0}, {"parallel_s": 30.0})
        text = "\n".join(report.format_lines())
        assert "REGRESSION" in text and "parallel_s" in text


class TestDiffRuns:
    @staticmethod
    def _bench(tmp_path, name, **overrides):
        record = {"parallel_s": 10.0, "serial_s": 9.0,
                  "parallel_speedup": 0.9,
                  "machine": {"cpus": 1}}
        record.update(overrides)
        path = tmp_path / name
        path.write_text(json.dumps(record))
        return str(path)

    def test_bench_self_diff(self, tmp_path):
        base = self._bench(tmp_path, "base.json")
        assert diff_runs(base, base).ok

    def test_bench_regression_detected(self, tmp_path):
        base = self._bench(tmp_path, "base.json")
        worse = self._bench(tmp_path, "worse.json", parallel_s=25.0)
        report = diff_runs(base, worse)
        assert [e.metric for e in report.regressions] == ["parallel_s"]

    def test_faster_cold_sweep_is_not_a_speedup_regression(self, tmp_path):
        # A sweep record before and after its cold serial run got 9x
        # faster: warm_cache_speedup (cold / warm) falls 250 -> 30x
        # while every time it is built from improved.
        base = self._bench(tmp_path, "base.json", serial_s=16.92,
                           parallel_s=10.87, parallel_speedup=1.56,
                           warm_cache_s=0.068, warm_cache_speedup=250.0)
        new = self._bench(tmp_path, "new.json", serial_s=1.81,
                          parallel_s=1.05, parallel_speedup=1.73,
                          warm_cache_s=0.060, warm_cache_speedup=30.1)
        report = diff_runs(base, new)
        assert report.ok
        assert {e.metric for e in report.improvements} == {"parallel_s",
                                                           "serial_s"}
        statuses = {e.metric: e.status for e in report.entries}
        assert statuses["warm_cache_speedup"] == "changed"
        # The times a speedup is built from still gate it.
        slower = self._bench(tmp_path, "slower.json", serial_s=16.92,
                             parallel_s=10.87, warm_cache_s=0.68,
                             warm_cache_speedup=25.0)
        assert [e.metric for e in diff_runs(base, slower).regressions] == \
            ["warm_cache_s"]

    def test_machine_differences_are_reported(self, tmp_path, capsys):
        # The committed sweep records of a 1-CPU and a 2-CPU container:
        # the warm-cache regression stands, and the report says the
        # machines differ instead of leaving it unexplained.
        base = self._bench(tmp_path, "one_cpu.json", warm_cache_s=0.0458,
                           machine={"available_cpus": 1, "cpus": 1,
                                    "python": "3.11.7"})
        new = self._bench(tmp_path, "two_cpus.json", warm_cache_s=0.0602,
                          machine={"available_cpus": 2, "cpus": 2,
                                   "python": "3.11.7"})
        report = diff_runs(base, new)
        assert report.machine == {"cpus": (1, 2), "available_cpus": (1, 2)}
        assert report.as_dict()["machine"] == {
            "cpus": {"base": 1, "new": 2},
            "available_cpus": {"base": 1, "new": 2}}
        assert report.format_lines()[1] == \
            "  machines differ: cpus 1 -> 2, available_cpus 1 -> 2"
        assert [e.metric for e in report.regressions] == ["warm_cache_s"]
        with pytest.raises(SystemExit) as exc:
            main(["obs", "diff", base, new])
        assert exc.value.code == 2
        assert "machines differ: cpus 1 -> 2" in capsys.readouterr().out
        # Same machine, or a record without the block: nothing to say.
        assert diff_runs(base, base).machine == {}
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps({"warm_cache_s": 0.0458}))
        assert diff_runs(str(bare), new).machine == {}
        assert "machines differ" not in "\n".join(
            diff_runs(base, base).format_lines())

    def test_telemetry_runs_diff_on_span_totals(self, tmp_path):
        def export(name, burn):
            tel = TelemetryCollector(origin="diff-test")
            with tel.span("hot.loop"):
                total = 0.0
                for i in range(burn):
                    total += i * 0.5
            path = tmp_path / name
            write_jsonl(tel, path)
            return str(path)

        base = export("a.jsonl", 1000)
        kind, metrics = load_run(base)
        assert kind == "telemetry"
        assert any(m.startswith("span.hot.loop") for m in metrics)
        assert diff_runs(base, base).ok

    def test_kind_mismatch_rejected(self, tmp_path):
        bench = self._bench(tmp_path, "bench.json")
        tel = TelemetryCollector()
        tel.counter("obs.x").inc()
        jsonl = tmp_path / "run.jsonl"
        write_jsonl(tel, jsonl)
        with pytest.raises(ValueError):
            diff_runs(bench, str(jsonl))


class TestCliExit:
    def test_diff_self_passes(self, tmp_path, capsys):
        record = {"parallel_s": 10.0}
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(record))
        assert main(["obs", "diff", str(path), str(path)]) == 0

    def test_diff_regression_exits_2(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        base.write_text(json.dumps({"parallel_s": 10.0}))
        worse = tmp_path / "worse.json"
        worse.write_text(json.dumps({"parallel_s": 21.0}))
        with pytest.raises(SystemExit) as exc:
            main(["obs", "diff", str(base), str(worse)])
        assert exc.value.code == 2

    def test_diff_json_report(self, tmp_path, capsys):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"parallel_s": 10.0}))
        out = tmp_path / "diff.json"
        main(["obs", "diff", str(path), str(path), "--json", str(out)])
        data = json.loads(out.read_text())
        assert data["regressions"] == 0
