"""The fleet fast paths against the code they replaced.

``tests/fleet_oracle.py`` keeps the all-walls link budget, the
per-client candidate sort, the generator-scan reroute machine and the
un-memoised timeline build.  The fast paths must agree with them bit
for bit: wall losses on real districts and on drawn segments that touch
wall endpoints, run along a wall's line or stop ulps short of a wall;
machine traces on drawn service arrays and event logs; timelines,
whose memo hits must be the same read-only object; and telemetry,
whose deterministic snapshot must not notice the memo.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import (
    ClientRerouteMachine,
    District,
    DistrictConfig,
    FleetReroutePolicy,
    RelayFaultStorm,
    RelayTimeline,
    build_candidate_table,
    fleet_experiment,
    relay_outage_timeline,
)
from repro.fleet import experiment as fleet_experiment_module
from repro.fleet.district import _orient
from repro.fleet.reroute import _supervised_timeline, clear_timeline_memo
from repro.ident.sounding import DEFAULT_SOUNDING_INTERVAL_S
from repro.supervision.supervisor import (
    SupervisorEvent,
    SupervisorEventKind,
    SupervisorState,
)
from repro.telemetry.collector import TelemetryCollector, use_collector
from tests import fleet_oracle

STEP = DEFAULT_SOUNDING_INTERVAL_S
STORM = RelayFaultStorm(rate=0.4)


@pytest.fixture(scope="module")
def small_district():
    return District(DistrictConfig(rows=2, cols=2, seed=3))


def _budget_rays(district):
    """Every ray ``build_candidate_table`` sends through the budget."""
    aps = district.ap_positions()
    relays = district.relay_positions()
    clients = district.client_positions
    home = district.client_home
    cand = [fleet_oracle.candidate_relays(district, c)
            for c in range(district.num_clients)]
    flat = [(c, r) for c in range(district.num_clients) for r in cand[c]]
    p = np.concatenate([aps[home], aps[[int(home[c]) for c, _ in flat]],
                        relays[[r for _, r in flat]]])
    q = np.concatenate([clients, relays[[r for _, r in flat]],
                        clients[[c for c, _ in flat]]])
    return p, q


class TestWallLosses:
    @pytest.mark.parametrize("seed", [0, 1, 2014])
    @pytest.mark.parametrize("rows,cols", [(2, 2), (4, 4), (10, 10)])
    def test_district_rays_equal_all_walls(self, seed, rows, cols):
        district = District(DistrictConfig(rows=rows, cols=cols, seed=seed))
        p, q = _budget_rays(district)
        fast = district.wall_losses_db(p, q)
        assert np.array_equal(fast, fleet_oracle.wall_losses_db(district,
                                                                p, q))
        assert fast.any()

    def test_rays_ending_ulps_off_a_wall_end(self, small_district):
        # Each ray stops an ulp or so short of a wall endpoint, so its
        # box misses the wall's, yet the rounded orientation signs
        # report a crossing: the prefilter's margin must keep the pair.
        d = small_district
        p = np.array([[15.287239612205262, 16.24438675430488],
                      [4.653776231120199, 0.6577295184380887],
                      [-1.888062464487736, 8.43819089996903]])
        q = np.array([[9.0, np.nextafter(7.0, np.inf)],
                      [18.0, np.nextafter(7.0, -np.inf)],
                      [-5e-324, 0.0]])
        a, b = d._wall_a[None], d._wall_b[None]
        pp, qq = p[:, None], q[:, None]
        crosses = (((_orient(a, b, pp) > 0) != (_orient(a, b, qq) > 0))
                   & ((_orient(pp, qq, a) > 0) != (_orient(pp, qq, b) > 0)))
        lo, hi = np.minimum(pp, qq), np.maximum(pp, qq)
        boxes_meet = ((lo <= np.maximum(a, b))
                      & (hi >= np.minimum(a, b))).all(axis=2)
        assert (crosses & ~boxes_meet).any(axis=1).all()
        assert np.array_equal(d.wall_losses_db(p, q),
                              fleet_oracle.wall_losses_db(d, p, q))

    def test_nan_ray_leaves_the_batch_alone(self, small_district):
        d = small_district
        p, q = _budget_rays(d)
        p = p[:20].copy()
        p[3] = np.nan
        fast = d.wall_losses_db(p, q[:20])
        assert np.array_equal(fast, fleet_oracle.wall_losses_db(d, p, q[:20]))
        assert fast[3] == 0.0 and fast.any()

    def test_empty_batch(self, small_district):
        empty = np.zeros((0, 2))
        assert small_district.wall_losses_db(empty, empty).shape == (0,)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_drawn_segments_equal_all_walls(self, small_district, data):
        d = small_district
        walls = d._wall_a.shape[0]
        coord = st.floats(-3.0, max(d.width_m, d.depth_m) + 3.0,
                          allow_nan=False)

        def endpoint():
            kind = data.draw(st.sampled_from(
                ["free", "wall-end", "on-line", "near-end"]))
            w = data.draw(st.integers(0, walls - 1))
            a, b = d._wall_a[w], d._wall_b[w]
            if kind == "free":
                return np.array([data.draw(coord), data.draw(coord)])
            if kind == "wall-end":
                return (a if data.draw(st.booleans()) else b).copy()
            if kind == "on-line":
                # On the wall's line: inside the wall, at it, or beyond.
                t = data.draw(st.sampled_from([-0.5, 0.0, 0.25, 0.5,
                                               1.0, 1.5]))
                return a + t * (b - a)
            # A few ulps off a wall endpoint, toward or away from it.
            point = (a if data.draw(st.booleans()) else b).copy()
            for axis in (0, 1):
                for _ in range(data.draw(st.integers(0, 4))):
                    toward = data.draw(st.sampled_from([-np.inf, np.inf]))
                    point[axis] = np.nextafter(point[axis], toward)
            return point

        count = data.draw(st.integers(1, 12))
        p = np.array([endpoint() for _ in range(count)])
        q = np.array([endpoint() for _ in range(count)])
        assert np.array_equal(d.wall_losses_db(p, q),
                              fleet_oracle.wall_losses_db(d, p, q))


class TestCandidates:
    @pytest.mark.parametrize("seed", [0, 1, 2014])
    @pytest.mark.parametrize("rows,cols,radius,most", [(2, 2, 20.0, 4),
                                                       (4, 4, 20.0, 4),
                                                       (10, 10, 20.0, 4),
                                                       (1, 4, 6.0, 4),
                                                       (4, 4, 20.0, 1),
                                                       (4, 4, 5.0, 2)])
    def test_candidates_equal_per_client_sort(self, seed, rows, cols,
                                              radius, most):
        # One candidate, or a tight radius: a neighbour's relay can be
        # nearer than the client's own, which is then put first.
        district = District(DistrictConfig(rows=rows, cols=cols, seed=seed,
                                           neighbor_radius_m=radius,
                                           max_candidate_relays=most))
        expected = tuple(tuple(fleet_oracle.candidate_relays(district, c))
                         for c in range(district.num_clients))
        assert district.candidates == expected
        assert district.candidate_relays(0) == list(expected[0])
        assert build_candidate_table(district).candidates == expected


_OPEN = (SupervisorEventKind.FALLBACK_HALF_DUPLEX,
         SupervisorState.HALF_DUPLEX, {})
_CLOSE = [(SupervisorEventKind.RECOVERED, SupervisorState.ACTIVE,
           {"from": "half-duplex"}),
          (SupervisorEventKind.RETUNE_SUCCEEDED, SupervisorState.HALF_DUPLEX,
           {})]
_OTHER = [(SupervisorEventKind.RECOVERED, SupervisorState.ACTIVE,
           {"from": "reduced-gain"}),
          (SupervisorEventKind.RETUNE_SUCCEEDED, SupervisorState.RETUNING,
           {}),
          (SupervisorEventKind.GAIN_REDUCED, SupervisorState.REDUCED_GAIN,
           {})]


def _event(kind, step):
    """An event the outage parser reads as happening at ``step``."""
    kind, state, detail = kind
    return SupervisorEvent(time_s=(step + 1) * STEP, kind=kind, state=state,
                           detail=detail)


def _log(spans, num_steps, serve=True):
    """A timeline whose log opens and closes ``spans`` in that order."""
    events = []
    for start, end in spans:
        events += [_event(_OPEN, start), _event(_CLOSE[0], end)]
    return RelayTimeline(relaying=np.full(num_steps, serve),
                         events=tuple(events))


@st.composite
def _timelines(draw, num_steps):
    """A service array and an event log whose outage spans may overlap,
    share a start, close before they open or cross the horizon."""
    relaying = np.array(draw(st.lists(st.booleans(), min_size=num_steps,
                                      max_size=num_steps)), dtype=bool)
    steps = st.one_of(st.integers(-2, 2),
                      st.integers(num_steps - 2, num_steps + 2),
                      st.integers(-2, num_steps + 2))
    events = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.booleans()):
            events.append(_event(_OPEN, draw(steps)))
            events.append(_event(draw(st.sampled_from(_CLOSE)),
                                 draw(steps)))
        else:
            kind = draw(st.sampled_from([_OPEN] + _CLOSE + _OTHER))
            events.append(_event(kind, draw(steps)))
    if draw(st.booleans()):
        events.sort(key=lambda event: event.time_s)
    return RelayTimeline(relaying=relaying, events=tuple(events))


def _assert_same_trace(machine, primary, backup, num_steps):
    fast = machine.run(primary, backup, num_steps)
    slow = fleet_oracle.run_machine(machine, primary, backup, num_steps)
    assert np.array_equal(fast.throughput_mbps, slow.throughput_mbps)
    assert fast.throughput_mbps.dtype == slow.throughput_mbps.dtype
    assert np.array_equal(fast.serving, slow.serving)
    assert fast.serving.dtype == slow.serving.dtype
    assert fast.reroutes == slow.reroutes
    assert fast.failbacks == slow.failbacks
    return fast


class TestRerouteMachine:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_traces_equal_generator_scan(self, data):
        num_steps = data.draw(st.integers(0, 40))
        policy = FleetReroutePolicy(
            detection_intervals=data.draw(st.integers(1, 3)),
            resound_intervals=data.draw(st.integers(1, 5)),
            failback_hold_intervals=data.draw(st.integers(1, 8)))
        backup = data.draw(st.sampled_from([-1, 1]))
        machine = ClientRerouteMachine(
            policy, data.draw(st.integers(0, 50)), direct_rate=10.0,
            primary_rate=90.0, backup_rate=60.0, primary=0, backup=backup)
        primary = data.draw(_timelines(num_steps))
        backup_tl = data.draw(_timelines(num_steps)) if backup >= 0 \
            else None
        _assert_same_trace(machine, primary, backup_tl, num_steps)

    FAST = FleetReroutePolicy(detection_intervals=1, resound_intervals=1,
                              failback_hold_intervals=1)

    def test_overlapping_spans_follow_log_order(self):
        # Both spans hold step 10; the first in the log is the outage,
        # so the client fails back at once and is not rerouted again
        # when the shorter span ends.
        machine = ClientRerouteMachine(self.FAST, 0, 10.0, 90.0, 60.0,
                                       primary=0, backup=1)
        trace = _assert_same_trace(machine, _log([(10, 40), (10, 15)], 50),
                                   _log([], 50), 50)
        assert len(trace.reroutes) == trace.failbacks == 1

    def test_span_closed_before_it_opens_holds_no_step(self):
        machine = ClientRerouteMachine(self.FAST, 0, 10.0, 90.0, 60.0,
                                       primary=0, backup=1)
        primary = _log([(5, -1)], 30)
        assert primary.outages(30) == ((5, -1),)
        trace = _assert_same_trace(machine, primary, _log([], 30), 30)
        assert trace.reroutes == []

    def test_outages_parsed_once(self):
        tl = relay_outage_timeline(11, 120, STORM)
        assert tl.outages(120) is tl.outages(120)
        assert tl.outages(120) == tl._parse_outages(120)
        assert tl.outages(60) == tl._parse_outages(60)


class TestTimelineMemo:
    def test_hit_is_same_read_only_object(self):
        clear_timeline_memo()
        first = relay_outage_timeline(5, 160, STORM)
        assert relay_outage_timeline(5, 160, STORM.as_dict()) is first
        with pytest.raises(ValueError):
            first.relaying[0] = not first.relaying[0]
        clear_timeline_memo()
        assert relay_outage_timeline(5, 160, STORM) is not first

    def test_each_sweep_starts_cold(self):
        kw = {"clients_per_home": 2, "storm": 0.5, "num_steps": 40,
              "jobs": 1, "backend": "serial", "cache": False}
        fleet_experiment(rows=2, cols=2, seed=4, **kw)
        out = fleet_experiment(rows=3, cols=3, seed=5, **kw)
        info = _supervised_timeline.cache_info()
        assert info.hits > 0
        assert info.currsize == info.misses <= out["num_relays"]

    @pytest.mark.parametrize("seed", [0, 5, 2014])
    def test_timeline_equals_unmemoised_build(self, seed):
        clear_timeline_memo()
        tl = relay_outage_timeline(seed, 240, STORM)
        ref = fleet_oracle.build_timeline(seed, 240, STORM)
        assert np.array_equal(tl.relaying, ref.relaying)
        assert tl.events == ref.events
        assert tl.step_s == ref.step_s

    def test_miss_and_hit_replay_the_supervisor_telemetry(self):
        clear_timeline_memo()
        snaps = []
        for build in (fleet_oracle.build_timeline, relay_outage_timeline,
                      relay_outage_timeline):
            tel = TelemetryCollector(origin="timeline")
            with use_collector(tel):
                tl = build(7, 200, STORM)
            snaps.append(tel.deterministic_snapshot())
        assert tl.events
        assert snaps[0]["events"]
        assert snaps[0] == snaps[1] == snaps[2]


#: A small storm-heavy district: enough mutes for the memo to be hit.
KW = {"rows": 3, "cols": 3, "clients_per_home": 3, "seed": 2014,
      "storm": 0.5, "num_steps": 120}
COMPARE = ("throughput_mbps", "reroute_latency_intervals", "rescued",
           "relay_load")


def _traced(**kwargs):
    tel = TelemetryCollector(origin="fleet")
    with use_collector(tel):
        out = fleet_experiment(**KW, **kwargs)
    return out, tel.deterministic_snapshot()


class TestFleetTelemetry:
    def test_snapshot_equal_first_repeat_and_process(self):
        first, snap = _traced(jobs=1, backend="serial", cache=False)
        repeat, repeat_snap = _traced(jobs=1, backend="serial", cache=False)
        proc, proc_snap = _traced(jobs=2, backend="process", cache=False)
        assert snap["events"]
        assert snap == repeat_snap == proc_snap
        for key in COMPARE:
            assert np.array_equal(first[key], repeat[key]), key
            assert np.array_equal(first[key], proc[key]), key

    def test_equals_the_oracle_paths(self, monkeypatch):
        fast, fast_snap = _traced(jobs=1, backend="serial", cache=False)
        monkeypatch.setattr(fleet_experiment_module,
                            "relay_outage_timeline",
                            fleet_oracle.build_timeline)
        monkeypatch.setattr(ClientRerouteMachine, "run",
                            fleet_oracle.run_machine)
        monkeypatch.setattr(District, "wall_losses_db",
                            fleet_oracle.wall_losses_db)
        monkeypatch.setattr(District, "candidates", property(
            lambda d: tuple(tuple(fleet_oracle.candidate_relays(d, c))
                            for c in range(d.num_clients))))
        slow, slow_snap = _traced(jobs=1, backend="serial", cache=False)
        assert fast_snap == slow_snap
        for key in fast:
            if isinstance(fast[key], np.ndarray):
                assert np.array_equal(fast[key], slow[key]), key
                assert fast[key].dtype == slow[key].dtype, key
            else:
                assert fast[key] == slow[key], key
