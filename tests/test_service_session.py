"""Client sessions: lifecycle legality, seeded traffic, typed events."""

import numpy as np
import pytest

from repro.service import (
    ClientSession,
    SessionEventKind,
    SessionState,
    TrafficConfig,
    make_sessions,
)


class TestLifecycle:
    def test_happy_path(self):
        s = ClientSession("s1")
        assert s.state is SessionState.PENDING
        s.admit(0.0)
        assert s.state is SessionState.SOUNDING
        s.activate(0.02)
        assert s.state is SessionState.ACTIVE
        s.drain(1.0)
        assert s.state is SessionState.DRAINING
        s.close(1.1)
        assert s.state is SessionState.CLOSED
        assert s.event_kinds() == (
            SessionEventKind.ADMITTED, SessionEventKind.ACTIVATED,
            SessionEventKind.DRAINING, SessionEventKind.CLOSED)

    def test_rejection_is_terminal(self):
        s = ClientSession("s1")
        s.reject(0.0, "at-capacity")
        assert s.state is SessionState.REJECTED
        with pytest.raises(RuntimeError, match="illegal transition"):
            s.admit(0.1)

    def test_illegal_transitions_raise(self):
        s = ClientSession("s1")
        with pytest.raises(RuntimeError, match="illegal transition"):
            s.activate(0.0)                 # must sound first
        s.admit(0.0)
        s.activate(0.0)
        s.close(0.1)
        with pytest.raises(RuntimeError, match="illegal transition"):
            s.drain(0.2)                    # closed is terminal

    def test_degraded_resumed_marks_are_idempotent(self):
        s = ClientSession("s1")
        s.admit(0.0)
        s.activate(0.0)
        s.mark_degraded(0.1)
        s.mark_degraded(0.2)                # no duplicate event
        s.mark_resumed(0.3)
        s.mark_resumed(0.4)
        kinds = s.event_kinds()
        assert kinds.count(SessionEventKind.DEGRADED) == 1
        assert kinds.count(SessionEventKind.RESUMED) == 1

    def test_close_event_carries_the_ledger(self):
        s = ClientSession("s1")
        s.admit(0.0)
        s.activate(0.0)
        s.offered, s.processed, s.shed = 10, 7, 3
        event = s.close(1.0)
        assert event.detail == {"offered": 10, "processed": 7, "shed": 3}


class TestTraffic:
    def test_arrivals_deterministic_per_seed(self):
        a = ClientSession("a", seed=42).arrivals_s
        b = ClientSession("b", seed=42).arrivals_s
        c = ClientSession("c", seed=43).arrivals_s
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_cbr_evenly_spaced(self):
        t = TrafficConfig(model="cbr", rate_fps=10.0, duration_s=1.0,
                          start_s=2.0)
        arr = ClientSession("s", traffic=t).arrivals_s
        assert arr.size == 10
        assert np.allclose(np.diff(arr), 0.1)
        assert arr[0] == pytest.approx(2.1)

    def test_poisson_stays_inside_window(self):
        t = TrafficConfig(model="poisson", rate_fps=200.0, duration_s=0.5,
                          start_s=1.0)
        arr = ClientSession("s", traffic=t, seed=3).arrivals_s
        assert arr.size > 0
        assert arr.min() >= 1.0
        assert arr.max() <= 1.5

    @pytest.mark.parametrize("seed", [0, 9, 2**32 - 1, 2**32,
                                      701_021 * 100_003 + 5, 2**64 + 3])
    @pytest.mark.parametrize("samples", [1, 256])
    def test_frames_equal_the_tuple_seeded_two_draw_original(self, seed,
                                                             samples):
        # The generator is seeded from uint32 words and draws both parts
        # at once; the stream must be the (seed, 0xF4A3, index) tuple
        # seed's, drawn real parts first.
        def original(index):
            rng = np.random.default_rng((seed, 0xF4A3, int(index)))
            x = (rng.standard_normal(samples)
                 + 1j * rng.standard_normal(samples))
            return x / np.sqrt(2.0)

        s = ClientSession("s", seed=seed,
                          traffic=TrafficConfig(frame_samples=samples))
        for index in (0, 1, 255, 2**32 + 7):
            assert np.array_equal(s.frame(index), original(index))

    def test_negative_seed_refused_like_seed_sequence(self):
        with pytest.raises(ValueError):
            np.random.default_rng((-1, 0xF4A3, 0))
        with pytest.raises(ValueError):
            ClientSession("s", seed=-1).frame(0)

    def test_frames_unit_power_and_deterministic(self):
        s = ClientSession("s", seed=9)
        f1, f2 = s.frame(4), s.frame(4)
        assert np.array_equal(f1, f2)
        assert f1.size == s.traffic.frame_samples
        assert np.mean(np.abs(f1) ** 2) == pytest.approx(1.0, rel=0.3)
        assert not np.array_equal(s.frame(4), s.frame(5))

    def test_config_validation(self):
        with pytest.raises(ValueError, match="model"):
            TrafficConfig(model="vbr")
        with pytest.raises(ValueError, match="rate_fps"):
            TrafficConfig(rate_fps=0)
        with pytest.raises(ValueError, match="duration_s"):
            TrafficConfig(duration_s=-1)


class TestFactory:
    def test_population_is_pure_function_of_args(self):
        a = make_sessions(6, tenants=("x", "y"), seed=5)
        b = make_sessions(6, tenants=("x", "y"), seed=5)
        assert [s.session_id for s in a] == [s.session_id for s in b]
        assert all(np.array_equal(p.arrivals_s, q.arrivals_s)
                   for p, q in zip(a, b))

    def test_round_robin_assignment(self):
        sessions = make_sessions(4, tenants=("x", "y"),
                                 chain_keys=("c0", "c1", "c2"))
        assert [s.tenant for s in sessions] == ["x", "y", "x", "y"]
        assert [s.chain_key for s in sessions] == ["c0", "c1", "c2", "c0"]

    def test_model_mix_cycles(self):
        sessions = make_sessions(4)
        assert [s.traffic.model for s in sessions] == [
            "poisson", "cbr", "poisson", "cbr"]

    def test_distinct_seeds(self):
        sessions = make_sessions(10)
        assert len({s.seed for s in sessions}) == 10
