"""Property-based tests (hypothesis) on the DRR dispatcher invariants.

The scheduler is exercised against randomly generated arrival/dispatch
interleavings with a duck-typed stub chain pool (no DSP cost), so
hypothesis can run hundreds of cases.  Invariants:

* queue depth never exceeds the per-tenant high-water mark — at any
  instant, not just at the end;
* frames are never reordered within a session — PROCESSED events for
  one session carry strictly increasing frame indices;
* frames are conserved — every offered frame is rejected, processed,
  shed, or still queued; after a flush nothing is queued.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import (
    ClientSession,
    FrameEventKind,
    SchedulerPolicy,
    ServiceScheduler,
    TrafficConfig,
)


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
    def __init__(self):
        self._entries = {}

    def entry(self, key="default"):
        return self._entries.setdefault(key, _StubEntry(key))

    def entries(self):
        return list(self._entries.values())

    def attach_storm(self, storm):
        pass


#: One step of a random schedule: either offer the next frame of
#: session ``s`` (op 0..n_sessions-1) or dispatch with a small budget
#: (op >= n_sessions, budget = op - n_sessions + 1).
def _schedules(n_sessions, max_ops=120):
    return st.lists(st.integers(0, n_sessions + 5),
                    min_size=1, max_size=max_ops)


def _build(n_sessions, high_water, quantum):
    sched = ServiceScheduler(
        policy=SchedulerPolicy(queue_high_water=high_water,
                               quantum_samples=quantum),
        pool=_StubPool())
    sessions = []
    for i in range(n_sessions):
        session = ClientSession(
            f"s{i}", tenant=f"t{i % 2}",
            traffic=TrafficConfig(frame_samples=8), seed=i)
        sched.admit_session(session, 0.0)
        session.activate(0.0)
        sessions.append(session)
    return sched, sessions


class TestDispatcherInvariants:
    @settings(max_examples=60, deadline=None)
    @given(ops=_schedules(3), high_water=st.integers(1, 12),
           quantum=st.integers(1, 64))
    def test_queue_bound_never_exceeded(self, ops, high_water, quantum):
        sched, sessions = _build(3, high_water, quantum)
        cursors = [0] * len(sessions)
        for step, op in enumerate(ops):
            now = step * 0.01
            if op < len(sessions):
                sched.offer(now, sessions[op], cursors[op])
                cursors[op] += 1
            else:
                sched.dispatch(now, max_frames=op - len(sessions) + 1)
            for tenant in sched.tenant_names():
                assert sched.queue_depth(tenant) <= high_water

    @settings(max_examples=60, deadline=None)
    @given(ops=_schedules(4), high_water=st.integers(1, 16),
           quantum=st.integers(1, 64))
    def test_no_reordering_within_a_session(self, ops, high_water,
                                            quantum):
        sched, sessions = _build(4, high_water, quantum)
        cursors = [0] * len(sessions)
        for step, op in enumerate(ops):
            now = step * 0.01
            if op < len(sessions):
                sched.offer(now, sessions[op], cursors[op])
                cursors[op] += 1
            else:
                sched.dispatch(now, max_frames=op - len(sessions) + 1)
        sched.dispatch(len(ops) * 0.01)             # final full drain
        processed = {}
        for event in sched.events:
            if event.kind is FrameEventKind.PROCESSED:
                processed.setdefault(event.session_id, []).append(
                    event.index)
        for indices in processed.values():
            assert indices == sorted(indices)
            assert len(set(indices)) == len(indices)

    @settings(max_examples=60, deadline=None)
    @given(ops=_schedules(3), high_water=st.integers(1, 12),
           quantum=st.integers(1, 64))
    def test_frames_conserved_at_every_step(self, ops, high_water,
                                            quantum):
        sched, sessions = _build(3, high_water, quantum)
        cursors = [0] * len(sessions)
        for step, op in enumerate(ops):
            now = step * 0.01
            if op < len(sessions):
                sched.offer(now, sessions[op], cursors[op])
                cursors[op] += 1
            else:
                sched.dispatch(now, max_frames=op - len(sessions) + 1)
            sched.check_conservation()              # at EVERY step
        sched.flush(len(ops) * 0.01)
        sched.check_conservation()
        assert sched.queue_depth() == 0
        # Terminal ledger: nothing unresolved anywhere.
        assert sched.admitted == sched.processed + sched.shed
        for session in sessions:
            assert session.unresolved == 0

    @settings(max_examples=30, deadline=None)
    @given(ops=_schedules(3), budget=st.integers(1, 8))
    def test_dispatch_never_serves_more_than_budget(self, ops, budget):
        sched, sessions = _build(3, 32, 16)
        cursors = [0] * len(sessions)
        for step, op in enumerate(ops):
            now = step * 0.01
            if op < len(sessions):
                sched.offer(now, sessions[op], cursors[op])
                cursors[op] += 1
        served = sched.dispatch(1.0, max_frames=budget)
        assert served <= budget

    @settings(max_examples=30, deadline=None)
    @given(ops=_schedules(2, max_ops=60))
    def test_event_log_replays_identically(self, ops):
        def run():
            sched, sessions = _build(2, 8, 16)
            cursors = [0, 0]
            for step, op in enumerate(ops):
                now = step * 0.01
                if op < 2:
                    sched.offer(now, sessions[op], cursors[op])
                    cursors[op] += 1
                else:
                    sched.dispatch(now, max_frames=op - 1)
            sched.flush(len(ops) * 0.01)
            return sched.event_digest()

        assert run() == run()
