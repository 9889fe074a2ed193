"""Rolling series ring buffers and the burn-rate SLO engine."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.series import DEFAULT_RETENTION, Series, SeriesRecorder
from repro.obs.slo import (
    DEFAULT_WINDOWS,
    SloEngine,
    SloSpec,
    SloWindow,
    _WindowCounts,
    default_service_slos,
    load_slo_specs,
)
from tests import slo_oracle


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
        assert slo_oracle.window(s, 4.0, 2.0) == [3.0, 4.0]
        spec = SloSpec(name="x", series="x", objective="le", target=3.5,
                       windows=(SloWindow(2.0, 2.0, 1.0),))
        counts = _WindowCounts(spec, s)
        counts.advance(4.0)
        assert counts.window(4.0, 2.0) == (2, 1)

    def test_samples_must_arrive_in_time_order(self):
        s = Series("x")
        s.sample(1.0, 0.0)
        s.sample(1.0, 1.0)              # equal times are fine
        with pytest.raises(ValueError, match="precedes"):
            s.sample(0.5, 2.0)
        assert s.appended == 2

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
        assert slo_oracle.bad_fraction(
            spec, [0.01, 0.10, 0.20, 0.02]) == 0.5
        assert slo_oracle.bad_fraction(spec, []) == 0.0

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


# -- running window counts against the rescan oracle -----------------------

_SPANS = (0.05, 0.1, 0.25, 0.3, 0.75, 1.0)


@st.composite
def _slo_specs(draw):
    specs = []
    for i in range(draw(st.integers(1, 3))):
        windows = tuple(
            SloWindow(long_s=draw(st.sampled_from(_SPANS)),
                      short_s=draw(st.sampled_from(_SPANS)),
                      burn_threshold=draw(st.sampled_from([0.5, 1.0, 2.0])),
                      severity=f"w{j}")
            for j in range(draw(st.integers(1, 2))))
        specs.append(SloSpec(
            name=f"slo-{i}", series=draw(st.sampled_from(["a", "b"])),
            objective=draw(st.sampled_from(["le", "ge"])),
            target=draw(st.sampled_from([0.0, 1.0, 2.0])),
            budget=draw(st.sampled_from([0.05, 0.1, 0.5, 1.0])),
            windows=windows, min_samples=draw(st.integers(1, 6))))
    return specs


# One op: sample a series, or evaluate at a ``now`` chosen relative to
# the newest sample (at it, before it, after it) or to the previous
# evaluation (repeated, or moved back).
_OPS = st.one_of(
    st.tuples(st.just("sample"), st.sampled_from(["a", "b"]),
              st.sampled_from([0.0, 0.01, 0.05, 0.1, 0.25]),
              st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])),
    st.tuples(st.just("eval"),
              st.sampled_from(["newest", "before", "after", "repeat",
                               "back"]),
              st.sampled_from([0.0, 0.01, 0.05, 0.1, 0.3, 1.0])))


def _raw_burns(engine):
    return {name: [tuple(r) for r in results]
            for name, (_, results) in engine._last.items()}


def _oracle_burns(oracle, recorder, now):
    out = {}
    for spec in oracle.specs:
        series = recorder.series(spec.series)
        rows = []
        for win in spec.windows:
            burns = [slo_oracle.bad_fraction(
                spec, slo_oracle.window(series, now, span)) / spec.budget
                for span in (win.long_s, win.short_s)]
            rows.append((*burns, oracle._last[spec.name]["windows"]
                         [len(rows)]["firing"]))
        out[spec.name] = rows
    return out


class TestRunningWindowsMatchRescan:
    """``SloEngine``'s running counts equal a rescan of every window.

    The oracle (``tests/slo_oracle.py``) is the engine as it was before
    the counts: it collects each window's values from the ring and
    counts the bad ones afresh on every evaluation.
    """

    @staticmethod
    def _run(specs, ops, retention):
        rec = SeriesRecorder(retention=retention)
        engine, oracle = SloEngine(specs), slo_oracle.RescanSloEngine(specs)
        newest, now = 0.0, 0.0
        clock = {"a": 0.0, "b": 0.0}
        for op in ops:
            if op[0] == "sample":
                _, name, dt, value = op
                clock[name] += dt
                rec.sample(name, clock[name], value)
                newest = max(newest, clock[name])
                continue
            _, where, delta = op
            now = {"newest": newest, "before": newest - delta,
                   "after": newest + delta, "repeat": now,
                   "back": now - delta}[where]
            assert engine.evaluate(rec, now) == oracle.evaluate(rec, now)
            assert engine.alerts == oracle.alerts
            assert engine.firing == oracle.firing
            assert engine.status() == oracle.status()
            assert _raw_burns(engine) == _oracle_burns(oracle, rec, now)
        return engine

    @settings(max_examples=150, deadline=None)
    @given(specs=_slo_specs(), ops=st.lists(_OPS, max_size=80),
           retention=st.integers(2, 40))
    def test_random_series_and_evaluations(self, specs, ops, retention):
        self._run(specs, ops, retention)

    def test_now_before_the_newest_sample(self):
        # As the replay in ``repro obs slo`` does: every sample is in
        # the ring before the first evaluation.
        ops = [("sample", "a", 0.1, v)
               for v in [0.5, 5.0, 5.0, 5.0, 0.5, 5.0, 5.0, 5.0]]
        ops += [("eval", "before", 0.1 * k) for k in range(8, -1, -1)]
        spec = SloSpec(name="lat", series="a", objective="le", target=1.0,
                       budget=0.1, windows=(SloWindow(1.0, 0.3, 1.0),))
        engine = self._run([spec], ops, DEFAULT_RETENTION)
        assert [a.kind for a in engine.alerts] == ["firing"]

    def test_repeated_now(self):
        spec = SloSpec(name="lat", series="a", objective="le", target=1.0,
                       budget=0.1, min_samples=2,
                       windows=(SloWindow(1.0, 0.3, 1.0),))
        ops = [("sample", "a", 0.1, 5.0), ("sample", "a", 0.1, 5.0),
               ("eval", "newest", 0.0), ("eval", "repeat", 0.0),
               ("sample", "a", 0.0, 0.5), ("eval", "repeat", 0.0),
               ("eval", "repeat", 0.0)]
        self._run([spec], ops, DEFAULT_RETENTION)

    def test_ring_wrapped_inside_a_window(self):
        # Retention 4 against a 1 s window of 0.1 s samples: the window
        # is cut by the ring, so evicted bad samples must leave it, and
        # a burst of more samples than the ring holds lands unseen.
        # Moving back before the ring's oldest sample empties the
        # window.
        spec = SloSpec(name="lat", series="a", objective="le", target=1.0,
                       budget=0.5, min_samples=2,
                       windows=(SloWindow(1.0, 0.3, 1.0),))
        ops = [("sample", "a", 0.1, 5.0)] * 3 + [("eval", "newest", 0.0)]
        ops += [("sample", "a", 0.1, 0.5), ("eval", "newest", 0.0)] * 4
        ops += [("sample", "a", 0.05, 5.0)] * 9 + [("eval", "newest", 0.0)]
        ops += [("eval", "back", 0.3), ("eval", "after", 0.2)]
        engine = self._run([spec], ops, 4)
        assert [(a.kind, round(a.time_s, 2)) for a in engine.alerts] == [
            ("firing", 0.3), ("resolved", 0.5), ("firing", 1.15),
            ("resolved", 0.85), ("firing", 1.35)]
        # At 0.5 s the ring holds 2 bad of 4 samples; the 5 samples of
        # the window would hold 3 bad and burn at 1.2.
        assert engine.alerts[1].burn_long == 1.0

    def test_service_alert_stream_matches_rescan_replay(self):
        from repro.service.loadtest import LoadTestConfig
        from repro.service.server import run_once

        config = LoadTestConfig.saturating(
            sessions=24, duration_s=0.1, storm_rate_per_s=4.0).serve
        pump, _ = run_once(config)
        oracle = slo_oracle.RescanSloEngine(default_service_slos())
        times = sorted({t for name in pump.series.names()
                        for t, _ in pump.series.series(name).points})
        for t in times:
            oracle.evaluate(pump.series, t)
        stream = pump.slo_engine.alert_stream()
        assert stream and stream == [a.as_dict() for a in oracle.alerts]
        assert pump.slo_engine.status() == oracle.status()
