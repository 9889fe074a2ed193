"""Probe baselines: the store, the verdicts and the committed gate.

``PROBE_BASELINE.json`` at the repo root freezes the canonical
link-health sweep; CI re-derives it and fails on drift.  These tests
prove both directions of that gate: the clean run passes against the
committed file, and a deliberate residual-SI perturbation trips a
``fail`` verdict with a per-metric diagnosis.
"""

import json
from pathlib import Path

import pytest

from repro.probes import (
    CANONICAL_CONFIG,
    DriftVerdict,
    ProbeBaseline,
    canonical_summary,
    compare_to_baseline,
    metric_tolerance,
)
from repro.probes.baseline import main as baseline_main

REPO_BASELINE = Path(__file__).resolve().parent.parent \
    / "PROBE_BASELINE.json"


class TestStore:
    def test_save_load_roundtrip(self, tmp_path):
        baseline = ProbeBaseline.from_summary(
            {"a.evm_rms_db": -24.0, "latency.cp_ns": 400.0},
            config={"seed": 1})
        path = tmp_path / "base.json"
        baseline.save(path)
        loaded = ProbeBaseline.load(path)
        assert loaded.metrics == baseline.metrics
        assert loaded.config == {"seed": 1}
        assert loaded.version == baseline.version

    def test_file_is_sorted_and_versioned(self, tmp_path):
        path = tmp_path / "base.json"
        ProbeBaseline.from_summary({"z": 1.0, "a": 2.0}).save(path)
        data = json.loads(path.read_text())
        assert data["version"] == 1
        assert list(data["metrics"]) == ["a", "z"]

    def test_failed_save_keeps_previous_file(self, tmp_path):
        path = tmp_path / "base.json"
        ProbeBaseline.from_summary({"a": 1.0}).save(path)
        before = path.read_bytes()
        unserialisable = ProbeBaseline(metrics={"a": 2.0},
                                       config={"bad": object()})
        with pytest.raises(TypeError):
            unserialisable.save(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["base.json"]

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "base.json"
        path.write_text(json.dumps({"version": 99, "metrics": {}}))
        with pytest.raises(ValueError, match="version 99"):
            ProbeBaseline.load(path)


class TestTolerances:
    def test_longest_suffix_wins(self):
        assert metric_tolerance("post-cnf.evm_rms_db", -24.0) == (1.5, 4.0)
        assert metric_tolerance("latency.margin_ns", 287.0) == (0.5, 5.0)

    def test_unmatched_metric_falls_back_to_relative(self):
        warn, fail = metric_tolerance("something.novel", 100.0)
        assert warn == pytest.approx(5.0)
        assert fail == pytest.approx(20.0)


class TestCompare:
    BASE = {"x.evm_rms_db": -24.0, "x.cancellation_depth_db": 12.0}

    def test_identical_passes(self):
        report = compare_to_baseline(dict(self.BASE), self.BASE)
        assert report.status == "pass" and report.ok
        assert not report.failures and not report.warnings

    def test_drift_inside_warn_band_warns(self):
        current = dict(self.BASE, **{"x.evm_rms_db": -22.0})  # +2.0 dB
        report = compare_to_baseline(current, self.BASE)
        assert report.status == "warn" and report.ok
        assert report.warnings[0].metric == "x.evm_rms_db"

    def test_drift_beyond_fail_band_fails_with_diagnosis(self):
        current = dict(self.BASE, **{"x.evm_rms_db": -14.0})  # +10.0 dB
        report = compare_to_baseline(current, self.BASE)
        assert report.status == "fail" and not report.ok
        text = str(report)
        assert "[FAIL] x.evm_rms_db" in text
        assert "drift +10.0000" in text

    def test_missing_metric_fails(self):
        current = {"x.evm_rms_db": -24.0}
        report = compare_to_baseline(current, self.BASE)
        assert any(v.status == "fail" and "missing" in v.note
                   for v in report.verdicts)

    def test_new_metric_warns(self):
        current = dict(self.BASE, **{"x.papr_db": 9.0})
        report = compare_to_baseline(current, self.BASE)
        assert report.status == "warn"
        assert any("absent from baseline" in v.note
                   for v in report.verdicts)

    def test_verdict_is_frozen(self):
        verdict = compare_to_baseline(dict(self.BASE), self.BASE).verdicts[0]
        assert isinstance(verdict, DriftVerdict)
        with pytest.raises(AttributeError):
            verdict.status = "fail"


class TestCommittedGate:
    """The expensive end-to-end checks against the committed file."""

    def test_committed_baseline_matches_canonical_run(self):
        baseline = ProbeBaseline.load(REPO_BASELINE)
        assert baseline.config == CANONICAL_CONFIG
        summary, _ = canonical_summary(config=baseline.config)
        report = compare_to_baseline(summary, baseline)
        assert report.ok, f"committed baseline drifted:\n{report}"

    def test_deliberate_residual_si_trips_the_gate(self):
        baseline = ProbeBaseline.load(REPO_BASELINE)
        summary, _ = canonical_summary(config=baseline.config,
                                       fault="residual-si")
        report = compare_to_baseline(summary, baseline)
        assert report.status == "fail"
        failed = {v.metric for v in report.failures}
        assert any("evm_rms_db" in name for name in failed)

    def test_cli_gate_exit_codes(self, tmp_path, capsys):
        path = tmp_path / "gate.json"
        assert baseline_main(["--write", str(path)]) == 0
        assert baseline_main(["--check", str(path)]) == 0
        assert baseline_main(["--check", str(path),
                              "--fault", "residual-si"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL]" in out and "drift gate: FAIL" in out
