"""Rolling series ring buffers and the burn-rate SLO engine."""

import json

import pytest

from repro.obs.series import DEFAULT_RETENTION, Series, SeriesRecorder
from repro.obs.slo import (
    DEFAULT_WINDOWS,
    SloEngine,
    SloSpec,
    SloWindow,
    default_service_slos,
    load_slo_specs,
)


class TestSeries:
    def test_retention_bounds_memory(self):
        s = Series("x", retention=4)
        for i in range(10):
            s.sample(i, float(i))
        assert len(s.points) == 4
        assert [v for _, v in s.points] == [6.0, 7.0, 8.0, 9.0]

    def test_window_is_half_open(self):
        s = Series("x")
        for i in range(5):
            s.sample(float(i), float(i))
        # (now - span, now]: t=2 excluded, t=3 and t=4 included.
        assert s.window(4.0, 2.0) == [3.0, 4.0]

    def test_latest(self):
        s = Series("x")
        assert s.latest is None
        s.sample(1.0, 42.0)
        assert s.latest == 42.0


class TestSeriesRecorder:
    def test_get_or_create(self):
        rec = SeriesRecorder()
        a = rec.series("svc.a")
        assert rec.series("svc.a") is a
        assert "svc.a" in rec
        assert rec.names() == ["svc.a"]

    def test_snapshot_is_sorted_and_plain(self):
        rec = SeriesRecorder()
        rec.sample("b", 1.0, 2.0)
        rec.sample("a", 1.0, 3.0, unit="s")
        snap = rec.snapshot()
        assert list(snap) == ["a", "b"]
        assert snap["a"] == {"unit": "s", "points": [[1.0, 3.0]]}

    def test_jsonl_round_trip(self, tmp_path):
        rec = SeriesRecorder(retention=16)
        for i in range(20):
            rec.sample("svc.x", i * 0.1, float(i), unit="s")
        rec.sample("svc.y", 0.5, 1.0)
        path = tmp_path / "series.jsonl"
        lines = rec.write_jsonl(path)
        assert lines == 16 + 1          # retention-trimmed + one y
        loaded = SeriesRecorder.load_jsonl(path)
        assert loaded.retention == 16
        assert loaded.snapshot() == rec.snapshot()

    def test_load_rejects_unknown_record_type(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"type": "bogus"}) + "\n")
        with pytest.raises(ValueError):
            SeriesRecorder.load_jsonl(path)

    def test_default_retention(self):
        assert SeriesRecorder().retention == DEFAULT_RETENTION


class TestSloSpec:
    def test_objective_validation(self):
        with pytest.raises(ValueError):
            SloSpec(name="x", series="s", objective="between", target=1.0)
        with pytest.raises(ValueError):
            SloSpec(name="x", series="s", objective="le", target=1.0,
                    budget=0.0)

    def test_bad_fraction(self):
        spec = SloSpec(name="lat", series="s", objective="le", target=0.05)
        assert spec.bad_fraction([0.01, 0.10, 0.20, 0.02]) == 0.5
        assert spec.bad_fraction([]) == 0.0

    def test_ge_objective(self):
        spec = SloSpec(name="avail", series="s", objective="ge", target=1.0)
        assert spec.is_bad(0.5)
        assert not spec.is_bad(1.0)

    def test_dict_round_trip(self):
        spec = SloSpec(name="x", series="s", objective="ge", target=2.0,
                       budget=0.2)
        assert SloSpec.from_dict(spec.as_dict()) == spec

    def test_default_service_slos_shape(self):
        specs = default_service_slos()
        assert [s.name for s in specs] == \
            ["frame-latency", "shed-rate", "chain-availability"]
        assert all(s.windows == DEFAULT_WINDOWS for s in specs)


def _spec(budget=0.1, min_samples=4):
    return SloSpec(name="lat", series="svc.lat", objective="le",
                   target=1.0, budget=budget, min_samples=min_samples,
                   windows=(SloWindow(long_s=1.0, short_s=0.3,
                                      burn_threshold=1.0),))


def _feed(recorder, t0, values, dt=0.1):
    for i, v in enumerate(values):
        recorder.sample("svc.lat", t0 + i * dt, v)


class TestSloEngine:
    def test_fires_when_both_windows_burn(self):
        rec = SeriesRecorder()
        engine = SloEngine([_spec()])
        _feed(rec, 0.0, [0.5] * 10)           # healthy
        assert engine.evaluate(rec, 0.9) == []
        _feed(rec, 1.0, [5.0] * 10)           # hard breach
        transitions = engine.evaluate(rec, 1.9)
        assert [t.kind for t in transitions] == ["firing"]
        assert engine.firing == ["lat"]

    def test_resolves_when_burn_stops(self):
        rec = SeriesRecorder()
        engine = SloEngine([_spec()])
        _feed(rec, 0.0, [5.0] * 10)
        engine.evaluate(rec, 0.9)
        assert engine.firing == ["lat"]
        _feed(rec, 1.0, [0.5] * 15)
        engine.evaluate(rec, 2.4)             # short+long windows clean
        assert engine.firing == []
        kinds = [a.kind for a in engine.alerts]
        assert kinds == ["firing", "resolved"]

    def test_short_window_gates_stale_breaches(self):
        rec = SeriesRecorder()
        engine = SloEngine([_spec()])
        # Bad samples only in the long window, none recent: no page.
        _feed(rec, 0.0, [5.0] * 6)
        _feed(rec, 0.7, [0.5] * 4, dt=0.05)
        engine.evaluate(rec, 0.9)
        assert engine.firing == []

    def test_min_samples_suppresses_cold_start(self):
        rec = SeriesRecorder()
        engine = SloEngine([_spec(min_samples=8)])
        _feed(rec, 0.0, [5.0] * 3)
        engine.evaluate(rec, 0.2)
        assert engine.firing == []

    def test_same_input_gives_identical_stream(self):
        def run():
            rec = SeriesRecorder()
            engine = SloEngine([_spec()])
            _feed(rec, 0.0, [0.5, 5.0, 5.0, 5.0, 0.5, 5.0, 5.0, 5.0])
            for k in range(1, 9):
                engine.evaluate(rec, k * 0.1)
            return engine.alert_stream()

        assert run() == run()

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            SloEngine([_spec(), _spec()])

    def test_status_projection(self):
        rec = SeriesRecorder()
        engine = SloEngine([_spec()])
        _feed(rec, 0.0, [5.0] * 10)
        engine.evaluate(rec, 0.9)
        status = engine.status()
        assert status["firing"] == ["lat"]
        assert status["state"]["lat"]["firing"] is True
        assert status["alerts"][0]["kind"] == "firing"
        assert status["specs"][0]["name"] == "lat"

    def test_alerts_mirrored_into_telemetry(self):
        from repro.telemetry import TelemetryCollector, use_collector

        tel = TelemetryCollector()
        rec = SeriesRecorder()
        engine = SloEngine([_spec()])
        _feed(rec, 0.0, [5.0] * 10)
        with use_collector(tel):
            engine.evaluate(rec, 0.9)
        values = tel.metrics.counter_values("obs.slo.alerts")
        assert sum(values.values()) == 1
        assert [e["name"] for e in tel.events] == ["obs.slo.alert"]


class TestLoadSpecs:
    def test_list_and_wrapper_forms(self, tmp_path):
        spec = {"name": "x", "series": "s", "objective": "le",
                "target": 1.0}
        p1 = tmp_path / "list.json"
        p1.write_text(json.dumps([spec]))
        p2 = tmp_path / "wrapped.json"
        p2.write_text(json.dumps({"slos": [spec]}))
        assert load_slo_specs(p1) == load_slo_specs(p2)
        (loaded,) = load_slo_specs(p1)
        assert loaded.windows == DEFAULT_WINDOWS
