"""Scheduler: backpressure, fairness, chain pool, conservation."""

import numpy as np
import pytest

from repro.service import (
    ChainPool,
    ClientSession,
    FrameEventKind,
    SchedulerPolicy,
    ServiceScheduler,
    TrafficConfig,
)
from repro.telemetry.collector import TelemetryCollector, use_collector


def _active_session(sched, session_id="s1", tenant="t", now=0.0, **kwargs):
    session = ClientSession(session_id, tenant=tenant,
                            traffic=TrafficConfig(frame_samples=64),
                            **kwargs)
    assert sched.admit_session(session, now)
    session.activate(now)
    return session


class _StubEntry:
    def __init__(self, key):
        self.key = key
        self.relaying = True
        self.frames = 0

    def advance(self, now_s):
        pass

    def process(self, frame):
        self.frames += 1


class _StubPool:
    """Duck-typed pool: the scheduler needs advance/relaying/process."""

    def __init__(self):
        self._entries = {}

    def entry(self, key="default"):
        return self._entries.setdefault(key, _StubEntry(key))

    def entries(self):
        return list(self._entries.values())

    def attach_storm(self, storm):
        pass


def _stub_scheduler(**policy_kwargs):
    return ServiceScheduler(policy=SchedulerPolicy(**policy_kwargs),
                            pool=_StubPool())


class TestBackpressure:
    def test_queue_full_sheds_with_declared_reason(self):
        sched = _stub_scheduler(queue_high_water=4)
        session = _active_session(sched)
        for i in range(10):
            sched.offer(0.1, session, i)
        assert sched.queue_depth("t") == 4
        shed = [e for e in sched.events if e.kind is FrameEventKind.SHED]
        assert len(shed) == 6
        assert all(e.detail["reason"] == "queue-full" for e in shed)
        sched.check_conservation()

    def test_inactive_session_frames_rejected(self):
        sched = _stub_scheduler()
        session = ClientSession("s1", tenant="t")
        sched.admit_session(session, 0.0)   # SOUNDING, not yet ACTIVE
        assert sched.offer(0.0, session, 0) is False
        event = sched.events[-1]
        assert event.kind is FrameEventKind.REJECTED
        assert event.detail["reason"] == "session-sounding"
        sched.check_conservation()

    def test_admission_control_rejects_at_capacity(self):
        sched = _stub_scheduler(max_sessions=2)
        _active_session(sched, "a")
        _active_session(sched, "b")
        third = ClientSession("c")
        assert sched.admit_session(third, 0.0) is False
        assert third.state.value == "rejected"
        assert sched.rejected_sessions == 1

    def test_flush_sheds_everything_queued(self):
        sched = _stub_scheduler(queue_high_water=100)
        session = _active_session(sched)
        for i in range(7):
            sched.offer(0.0, session, i)
        assert sched.flush(1.0) == 7
        assert sched.queue_depth() == 0
        assert session.shed == 7
        sched.check_conservation()


class TestFairness:
    def _run_saturated(self, weights, frames_per_tenant=60, budget=30):
        sched = _stub_scheduler(queue_high_water=1000, quantum_samples=64)
        sessions = {}
        for name, weight in weights.items():
            sched.tenant(name, weight)
            sessions[name] = _active_session(sched, f"s-{name}",
                                             tenant=name)
        for i in range(frames_per_tenant):
            for name in weights:
                sched.offer(0.0, sessions[name], i)
        sched.dispatch(0.1, max_frames=budget)
        return {name: sessions[name].processed for name in weights}

    def test_equal_weights_share_equally(self):
        served = self._run_saturated({"a": 1.0, "b": 1.0, "c": 1.0},
                                     budget=30)
        assert sum(served.values()) == 30
        assert max(served.values()) - min(served.values()) <= 1

    def test_weighted_tenant_gets_proportional_share(self):
        served = self._run_saturated({"heavy": 3.0, "light": 1.0},
                                     budget=40)
        assert sum(served.values()) == 40
        ratio = served["heavy"] / served["light"]
        assert ratio == pytest.approx(3.0, rel=0.15)

    def test_idle_tenant_banks_no_deficit(self):
        sched = _stub_scheduler(queue_high_water=1000, quantum_samples=64)
        sched.tenant("idle", 1.0)
        busy = _active_session(sched, "busy", tenant="busy")
        for i in range(50):
            sched.offer(0.0, busy, i)
        sched.dispatch(0.1, max_frames=10)
        # The idle tenant was reset each round; once it wakes up it
        # cannot burst past its fair share on banked credit.
        assert sched._tenants["idle"].deficit == 0.0

    def test_dispatch_drains_fully_without_budget(self):
        sched = _stub_scheduler(queue_high_water=1000)
        session = _active_session(sched)
        for i in range(25):
            sched.offer(0.0, session, i)
        assert sched.dispatch(0.1) == 25
        assert sched.queue_depth() == 0
        assert session.processed == 25
        sched.check_conservation()


class TestChainPool:
    def test_same_config_shares_one_chain(self):
        pool = ChainPool(seed=3)
        a = pool.entry("default")
        b = pool.entry("default")
        assert a is b
        assert len(pool.entries()) == 1

    def test_distinct_keys_get_distinct_chains(self):
        pool = ChainPool(seed=3)
        assert pool.entry("c0") is not pool.entry("c1")
        assert len(pool.entries()) == 2

    def test_chains_deterministic_per_seed(self):
        frame = np.ones(64, dtype=complex)
        out_a = ChainPool(seed=3).entry("c0").process(frame)
        out_b = ChainPool(seed=3).entry("c0").process(frame)
        assert np.array_equal(out_a, out_b)
        out_c = ChainPool(seed=4).entry("c0").process(frame)
        assert not np.array_equal(out_a, out_c)

    def test_entry_processes_frames(self):
        entry = ChainPool(seed=3).entry()
        out = entry.process(np.ones(64, dtype=complex))
        assert out.shape == (64,)
        assert entry.frames == 1


class TestDeterminism:
    def _drive(self):
        sched = _stub_scheduler(queue_high_water=8)
        sessions = [_active_session(sched, f"s{i}", tenant=f"t{i % 2}",
                                    seed=i) for i in range(4)]
        for step in range(6):
            for i, session in enumerate(sessions):
                sched.offer(step * 0.01, session, step * 10 + i)
            sched.dispatch(step * 0.01 + 0.005, max_frames=3)
        sched.flush(1.0)
        sched.check_conservation()
        return sched

    def test_event_digest_stable_across_runs(self):
        assert self._drive().event_digest() == self._drive().event_digest()

    def test_event_digest_sensitive_to_history(self):
        sched = self._drive()
        digest = sched.event_digest()
        session = _active_session(sched, "late", now=2.0)
        sched.offer(2.0, session, 0)
        assert sched.event_digest() != digest


class TestTelemetry:
    def test_service_metrics_emitted(self):
        tel = TelemetryCollector(origin="test")
        sched = ServiceScheduler(policy=SchedulerPolicy(queue_high_water=2),
                                 pool=_StubPool())
        with use_collector(tel):
            session = _active_session(sched)
            for i in range(5):
                sched.offer(0.0, session, i)
            sched.dispatch(0.01)
        counters = tel.metrics.counter_values("service.frames.admitted")
        assert sum(counters.values()) == 5
        shed = tel.metrics.counter_values("service.frames.shed")
        assert sum(shed.values()) == 3
        names = {m["name"] for m in tel.payload()["counters"]}
        assert {"service.frames.admitted", "service.frames.processed",
                "service.sessions.admitted"} <= names
