"""The sweep profile verdict: wall-time attribution and flamegraphs."""

import pytest

from repro.exec import Task, run_sweep, task_fn
from repro.obs import profile_payload
from repro.obs.flamegraph import (
    render_flamegraph_html,
    render_flamegraph_svg,
)
from repro.telemetry import TelemetryCollector, use_collector
from repro.telemetry.export import read_jsonl, write_jsonl


@task_fn("test.obs.profile.burn", version="1")
def _burn_task(value, rng=None):
    # Big enough that the sweep wall dwarfs worker-process start-up and
    # scheduler jitter — the coverage assertion below is about
    # attribution, not fixed dispatch cost or timer noise.
    total = 0.0
    for i in range(320000):
        total += i * 0.5
    return {"value": value, "total": total}


def _sweep_payload(jobs=2, backend="process", n=16):
    tel = TelemetryCollector(origin="profile-test")
    tasks = [Task("test.obs.profile.burn", {"value": i}, seed=300 + i)
             for i in range(n)]
    with use_collector(tel):
        run_sweep(tasks, jobs=jobs, backend=backend, cache=False)
    return tel.payload()


class TestProfilePayload:
    def test_attribution_covers_wall(self):
        report = profile_payload(_sweep_payload())
        assert report.wall_ns > 0
        assert report.coverage >= 0.90
        a = report.attribution
        assert a["attributed_ns"] + a["gap_ns"] == \
            pytest.approx(report.wall_ns)

    def test_names_critical_path_stages(self):
        report = profile_payload(_sweep_payload())
        names = [node.name for node in report.critical_path]
        assert "exec.sweep" in names
        assert "exec.shard" in names
        assert 1 <= len(report.top_stages) <= 3

    def test_concurrency_clamped_to_jobs(self):
        report = profile_payload(_sweep_payload(jobs=2))
        assert 1.0 <= report.concurrency <= 2.0

    def test_cpus_cap_binds(self):
        report = profile_payload(_sweep_payload(jobs=2), cpus=1)
        assert report.concurrency == 1.0

    def test_round_trip_preserves_attribution(self, tmp_path):
        payload = _sweep_payload()
        direct = profile_payload(payload)
        path = tmp_path / "run.jsonl"
        write_jsonl(payload, path)
        rt = profile_payload(read_jsonl(path))
        assert rt.as_dict() == direct.as_dict()

    def test_verdict_lines_mention_gap_and_coverage(self):
        lines = profile_payload(_sweep_payload()).verdict_lines()
        text = "\n".join(lines)
        assert "dispatch gap" in text
        assert "attribution coverage" in text
        assert "critical path" in text

    def test_empty_payload(self):
        report = profile_payload(TelemetryCollector().payload())
        assert report.wall_ns == 0.0
        assert report.critical_path == []


class TestFlamegraph:
    def test_svg_is_self_contained(self):
        report = profile_payload(_sweep_payload())
        svg = render_flamegraph_svg(report.stacks, title="test")
        assert svg.startswith("<svg")
        assert "<script" not in svg
        assert "exec.sweep" in svg
        assert "<title>" in svg          # hover tooltips

    def test_html_page_has_no_scripts(self):
        report = profile_payload(_sweep_payload())
        html = render_flamegraph_html(report.stacks, title="test",
                                      verdict_lines=report.verdict_lines())
        assert html.startswith("<!DOCTYPE html>")
        assert "<script" not in html
        assert "dispatch gap" in html

    def test_empty_stacks_render_placeholder(self):
        svg = render_flamegraph_svg({}, title="empty")
        assert svg.startswith("<svg")

    def test_names_escaped(self):
        svg = render_flamegraph_svg({"a<b>;c&d": 100}, title="<esc>")
        assert "a<b>" not in svg
        assert "&lt;" in svg or "a&lt;b&gt;" in svg
