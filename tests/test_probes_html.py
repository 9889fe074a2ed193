"""The static HTML link-health report.

The report must be fully self-contained (inline SVG + CSS, no scripts,
no external fetches) and render all four diagnostic panels from a real
probe-enabled telemetry payload — the same payload ``repro report
--html`` writes and a ``--from`` JSONL round-trip reloads.
"""

import re

import pytest

from repro.netsim import link_health_experiment
from repro.probes import render_html_report, write_html_report
from repro.telemetry import TelemetryCollector, use_collector
from repro.telemetry.export import read_jsonl, write_jsonl

PANELS = ("panel-constellation", "panel-spectrum", "panel-latency",
          "panel-evm")


@pytest.fixture(scope="module")
def payload():
    tel = TelemetryCollector(origin="html-test")
    with use_collector(tel):
        link_health_experiment(num_clients=2, seed=7, n_symbols=12,
                               jobs=2, backend="process")
    return tel.payload()


class TestRenderedReport:
    def test_all_four_panels_render(self, payload):
        text = render_html_report(payload)
        for panel in PANELS:
            assert f'id="{panel}"' in text
        assert text.count("<svg") >= 4
        # Real data, not placeholders.
        assert "no constellation samples" not in text
        assert "no spectrum samples" not in text
        assert "no latency ledger" not in text
        assert "no EVM samples" not in text

    def test_self_contained(self, payload):
        text = render_html_report(payload)
        assert "<script" not in text.lower()
        assert "<link" not in text.lower()
        # The only URL allowed is the SVG namespace declaration.
        urls = re.findall(r"https?://[^\"'\s<]+", text)
        assert set(urls) <= {"http://www.w3.org/2000/svg"}

    def test_summary_table_lists_tap_sites(self, payload):
        text = render_html_report(payload)
        for site in ("post-si-cancellation", "post-cnf",
                     "post-amplification"):
            assert site in text
        assert "CP budget" in text

    def test_title_and_origin_escaped(self, payload):
        text = render_html_report(payload, title="<alpha> & beta")
        assert "&lt;alpha&gt; &amp; beta" in text
        assert "html-test" in text

    def test_empty_payload_renders_placeholders(self):
        text = render_html_report({"origin": "empty", "gauges": [],
                                   "counters": [], "events": []})
        for panel in PANELS:
            assert f'id="{panel}"' in text
        assert "no constellation samples" in text
        assert "no latency ledger" in text
        assert "No probe metrics" in text

    def test_write_and_jsonl_roundtrip(self, payload, tmp_path):
        jsonl = tmp_path / "probes.jsonl"
        write_jsonl(payload, jsonl)
        reloaded = read_jsonl(jsonl)
        direct = render_html_report(payload)
        roundtrip = render_html_report(reloaded)
        for panel in PANELS:
            assert f'id="{panel}"' in roundtrip
        # The SVG geometry must survive the JSONL round-trip.
        assert re.findall(r"<polyline[^>]*>", roundtrip) == \
            re.findall(r"<polyline[^>]*>", direct)

        out = tmp_path / "report.html"
        assert write_html_report(payload, out) == out
        assert out.read_text(encoding="utf-8").startswith("<!DOCTYPE html>")
