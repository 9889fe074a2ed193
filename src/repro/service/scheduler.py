"""Bounded-queue frame dispatch: backpressure + weighted fair sharing.

The heart of the always-on service.  Three pieces:

* :class:`ChainPool` — shared, memoised relay chains, one per chain
  key.  Hundreds of sessions process through a handful of configured
  :class:`~repro.core.relay.FastForwardRelay` devices, so the cached
  spectral kernels of the streaming runtime amortise across the whole
  tenant population.  Each pool entry carries its own fault stage and
  PR 2 supervisor, so a storm degrades *one chain* through the ladder
  while the rest of the service keeps serving.
* :class:`ServiceScheduler` — per-tenant bounded FIFO queues with
  explicit backpressure (a frame arriving at a full queue is **shed**,
  with a typed event, never silently dropped) and deficit round-robin
  dispatch across tenants, so one heavy tenant cannot starve the
  others: each round a tenant earns ``quantum_samples x weight`` of
  service and spends it on frames at ``frame_samples`` apiece.
* Typed :class:`FrameEvent` accounting with a hard conservation
  invariant: every offered frame is either rejected at the door
  (session not ACTIVE/DRAINING, or the service refused the session),
  or admitted — and every admitted frame is eventually processed or
  shed for a declared reason (``queue-full``, ``half-duplex``,
  ``drain``).  ``admitted == processed + shed + queued`` holds at
  every instant; after a drain, ``queued == 0``.

Frames are never reordered within a session: a session's frames enter
its tenant's FIFO in arrival order and DRR only ever pops queue heads.
"""

from __future__ import annotations

import enum
import zlib

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.core.relay import FastForwardRelay, RelayConfig
from repro.exec.hashing import digest
from repro.phy.params import WIFI_20MHZ
from repro.service.session import SessionState
from repro.service.storms import InjectedSiStage
from repro.supervision import (
    RelayHealthMonitor,
    RelaySupervisor,
    SupervisorPolicy,
)
from repro.telemetry.collector import current_collector
from repro.telemetry.timing import now_ns


class FrameEventKind(str, enum.Enum):
    """Typed frame-accounting events."""

    ADMITTED = "admitted"
    SHED = "shed"
    REJECTED = "rejected"
    PROCESSED = "processed"


@dataclass(frozen=True)
class FrameEvent:
    """One frame's accounting entry."""

    time_s: float
    kind: FrameEventKind
    session_id: str
    tenant: str
    index: int
    detail: dict = field(default_factory=dict)

    def __str__(self):
        extra = f" {self.detail}" if self.detail else ""
        return (f"[{self.time_s * 1e3:9.1f} ms] {self.kind.value:<9} "
                f"{self.session_id}#{self.index} "
                f"(tenant={self.tenant}){extra}")


@dataclass
class SchedulerPolicy:
    """Backpressure and fairness knobs."""

    #: Per-tenant queue bound; an arrival at a full queue is shed.
    queue_high_water: int = 64
    #: DRR service earned per tenant per round, in samples, scaled by
    #: the tenant's weight.  One 256-sample frame costs 256.
    quantum_samples: int = 512
    #: Admission control: concurrent non-closed sessions allowed.
    max_sessions: int = 1024
    #: Sounding handshake duration (admit -> active).
    sounding_s: float = 0.02

    def __post_init__(self):
        if self.queue_high_water < 1:
            raise ValueError("queue_high_water must be >= 1")
        if self.quantum_samples < 1:
            raise ValueError("quantum_samples must be >= 1")
        if self.max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")


# ---------------------------------------------------------------------------
# Chain pool
# ---------------------------------------------------------------------------

#: Supervisor dynamics tuned to service time: one failed re-tune, one
#: gain rung, then half-duplex — a chain under a sustained storm mutes
#: within a few dispatch ticks instead of amplifying garbage for
#: hundreds of frames.
SERVICE_SUPERVISOR_POLICY = SupervisorPolicy(
    retune_backoff_s=0.02, retune_backoff_max_s=0.16,
    retune_retry_budget=1, gain_step_db=12.0, max_gain_backoff_db=12.0,
    escalation_hold_s=0.02, recovery_hold_s=0.05,
    fallback_sounding_age_s=1e9)


class ChainEntry:
    """One shared relay chain: relay + fault stage + supervisor."""

    def __init__(self, key, relay, stage):
        self.key = key
        self.relay = relay
        self.stage = stage
        self.sample_rate_hz = relay.config.params.bandwidth_hz
        self.supervisor = RelaySupervisor(
            monitor=RelayHealthMonitor(alpha=1.0),
            policy=SERVICE_SUPERVISOR_POLICY, retune=self._retune)
        self._storm = None
        self.frames = 0

    def attach_storm(self, storm):
        self._storm = storm

    def _retune(self, now_s):
        # Mid-storm the SI channel is still moving: re-tuning cannot
        # stick.  Once the window closes, a re-tune restores baseline.
        if self._storm is not None and self._storm.active(self.key, now_s):
            return False
        return self.stage.retune(now_s)

    def advance(self, now_s):
        """Drive the storm and step the supervisor to ``now_s``."""
        if self._storm is not None:
            self._storm.drive(self, now_s)
        self.supervisor.monitor.observe(
            guard_ok=True, residual_si_db=self.stage.residual_si_db)
        self.supervisor.step(now_s)

    @property
    def relaying(self):
        return self.supervisor.relaying

    def process(self, frame):
        """Relay one frame through the shared chain (+ fault stage)."""
        self.frames += 1
        return self.relay.process(frame, faults=[self.stage])


class ChainPool:
    """Configured relay chains, one per key, built on first use.

    ``entry(key)`` builds a relay configured with seeded per-subcarrier
    channels, wrapped in a :class:`ChainEntry`, and returns that same
    entry for every later request with the key, so all sessions on one
    key share one chain and its cached spectral kernel.  The channels
    are seeded from ``seed`` and :meth:`config_hash` of the key and the
    relay config.
    """

    def __init__(self, seed=2014):
        self.seed = int(seed)
        self._by_key = {}
        self._default_storm = None

    @staticmethod
    def config_hash(key, config):
        """The pool's identity for one (key, relay config) pair."""
        return digest(["service-chain", str(key), config.params.name,
                       float(config.cancellation_db),
                       float(config.loop_margin_db),
                       float(config.noise_margin_db),
                       bool(config.use_cnf), bool(config.use_decomposition),
                       float(config.tx_power_dbm),
                       float(config.noise_floor_dbm)])

    def _random_channel(self, rng, params):
        taps = (rng.standard_normal(4) + 1j * rng.standard_normal(4))
        taps *= np.exp(-np.arange(4) / 1.5)
        taps /= np.linalg.norm(taps)
        response = np.fft.fft(taps, params.fft_size)
        used = np.asarray(params.used_subcarriers()) % params.fft_size
        return response[used]

    def entry(self, key="default"):
        """The shared :class:`ChainEntry` for ``key`` (built lazily)."""
        entry = self._by_key.get(key)
        if entry is None:
            config = RelayConfig(params=WIFI_20MHZ, use_decomposition=False)
            chash = self.config_hash(key, config)
            chan_seed = (self.seed, zlib.crc32(chash.encode("ascii")))
            rng = np.random.default_rng(chan_seed)
            params = config.params
            relay = FastForwardRelay(config)
            relay.configure_siso_link(self._random_channel(rng, params),
                                      self._random_channel(rng, params),
                                      self._random_channel(rng, params))
            stage = InjectedSiStage(label=f"service-si-{key}")
            entry = ChainEntry(key, relay, stage)
            if self._default_storm is not None:
                entry.attach_storm(self._default_storm)
            self._by_key[key] = entry
        return entry

    def entries(self):
        """Every chain built so far, in build order."""
        return list(self._by_key.values())

    def keys(self):
        return list(self._by_key)

    def attach_storm(self, storm):
        for entry in self._by_key.values():
            entry.attach_storm(storm)
        self._default_storm = storm


# ---------------------------------------------------------------------------
# The scheduler
# ---------------------------------------------------------------------------

@dataclass
class _QueuedFrame:
    """One admitted frame waiting in a tenant queue."""

    session: object
    index: int
    frame: np.ndarray
    arrival_s: float

    @property
    def cost(self):
        return self.frame.size


class _TenantQueue:
    __slots__ = ("name", "weight", "queue", "deficit")

    def __init__(self, name, weight=1.0):
        if weight <= 0:
            raise ValueError(f"tenant weight must be > 0, got {weight}")
        self.name = name
        self.weight = float(weight)
        self.queue = deque()
        self.deficit = 0.0


class ServiceScheduler:
    """Bounded-queue, weighted-fair frame dispatcher (module docstring).

    The scheduler is deterministic and synchronous: :meth:`offer` and
    :meth:`dispatch` are driven either by the virtual-time load-test
    engine (bit-reproducible event logs) or by the asyncio service's
    wall-clock pump.  Telemetry flows to the ambient collector as the
    ``service.*`` metric family.
    """

    def __init__(self, policy: SchedulerPolicy = None, pool=None):
        self.policy = policy or SchedulerPolicy()
        self.pool = pool if pool is not None else ChainPool()
        self.events = []
        self.sessions = {}
        self._tenants = {}
        self._rotation = 0              # persistent DRR round pointer
        # Global frame accounting.
        self.offered = 0
        self.admitted = 0
        self.processed = 0
        self.shed = 0
        self.rejected_frames = 0
        self.rejected_sessions = 0
        # Deterministic (virtual-time) latency samples, seconds.
        self.queue_wait_s = []
        # Metric points resolved on the current collector (_point).
        self._points_tel = None
        self._points = {}

    # -- plumbing ----------------------------------------------------------

    def tenant(self, name, weight=1.0):
        """Register (or fetch) a tenant queue."""
        tq = self._tenants.get(name)
        if tq is None:
            tq = _TenantQueue(name, weight)
            self._tenants[name] = tq
        return tq

    def tenant_names(self):
        return list(self._tenants)

    def queue_depth(self, tenant=None):
        if tenant is not None:
            tq = self._tenants.get(tenant)
            return len(tq.queue) if tq is not None else 0
        return sum(len(tq.queue) for tq in self._tenants.values())

    @property
    def active_sessions(self):
        return sum(1 for s in self.sessions.values()
                   if s.state in (SessionState.SOUNDING, SessionState.ACTIVE,
                                  SessionState.DRAINING))

    def _point(self, tel, kind, name, unit=None, **labels):
        """The ``kind`` metric point ``(name, labels)`` of ``tel``.

        Resolving a point in the registry (keyword labels -> sorted
        key) costs more than updating it, so each is resolved once per
        collector, on first use, as
        :class:`~repro.runtime.chain.ChainTrace` does for
        ``runtime.stage.*``; a point never used is never created.  Each
        name is always given the same label keys, in the same order.
        """
        if self._points_tel is not tel:
            self._points_tel, self._points = tel, {}
        key = (name, *labels.values())
        point = self._points.get(key)
        if point is None:
            point = self._points[key] = getattr(tel, kind)(
                name, unit=unit, **labels)
        return point

    def _event(self, now_s, kind, session, index, detail=None):
        event = FrameEvent(time_s=float(now_s), kind=kind,
                           session_id=session.session_id,
                           tenant=session.tenant, index=int(index),
                           detail=detail or {})
        self.events.append(event)
        return event

    # -- session admission -------------------------------------------------

    def admit_session(self, session, now_s):
        """Front-door admission control; returns True when admitted."""
        if session.session_id in self.sessions:
            raise ValueError(f"duplicate session {session.session_id!r}")
        self.sessions[session.session_id] = session
        tel = current_collector()
        if self.active_sessions >= self.policy.max_sessions:
            session.reject(now_s, "at-capacity")
            self.rejected_sessions += 1
            if tel.enabled:
                tel.counter("service.sessions.rejected",
                            reason="at-capacity").inc()
                tel.event("service.session.transition", kind="rejected",
                          session=session.session_id)
            return False
        self.tenant(session.tenant)
        self.pool.entry(session.chain_key)    # build the chain up front
        session.admit(now_s)
        if tel.enabled:
            tel.counter("service.sessions.admitted",
                        tenant=session.tenant).inc()
            tel.gauge("service.sessions.active").set(self.active_sessions)
            tel.event("service.session.transition", kind="admitted",
                      session=session.session_id)
        return True

    def close_session(self, session, now_s):
        session.close(now_s)
        tel = current_collector()
        if tel.enabled:
            tel.counter("service.sessions.closed",
                        tenant=session.tenant).inc()
            tel.gauge("service.sessions.active").set(self.active_sessions)

    # -- frame admission (backpressure) ------------------------------------

    def offer(self, now_s, session, index):
        """One frame arrives; admit, shed (queue full) or reject it."""
        self.offered += 1
        session.offered += 1
        tel = current_collector()
        if session.state not in (SessionState.ACTIVE,):
            self.rejected_frames += 1
            session.rejected_frames += 1
            self._event(now_s, FrameEventKind.REJECTED, session, index,
                        {"reason": f"session-{session.state.value}"})
            if tel.enabled:
                self._point(tel, "counter", "service.frames.rejected",
                            tenant=session.tenant,
                            reason=f"session-{session.state.value}").inc()
            return False
        self.admitted += 1
        session.admitted += 1
        self._event(now_s, FrameEventKind.ADMITTED, session, index)
        if tel.enabled:
            self._point(tel, "counter", "service.frames.admitted",
                        tenant=session.tenant).inc()
        tq = self.tenant(session.tenant)
        if len(tq.queue) >= self.policy.queue_high_water:
            self._shed(now_s, session, index, "queue-full")
            return False
        tq.queue.append(_QueuedFrame(session=session, index=index,
                                     frame=session.frame(index),
                                     arrival_s=float(now_s)))
        if tel.enabled:
            self._point(tel, "gauge", "service.queue.depth",
                        tenant=session.tenant).set(len(tq.queue))
        return True

    def _shed(self, now_s, session, index, reason, arrival_s=None):
        self.shed += 1
        session.shed += 1
        detail = {"reason": reason}
        self._event(now_s, FrameEventKind.SHED, session, index, detail)
        tel = current_collector()
        if tel.enabled:
            self._point(tel, "counter", "service.frames.shed",
                        tenant=session.tenant, reason=reason).inc()

    # -- dispatch (deficit round-robin) ------------------------------------

    def dispatch(self, now_s, max_frames=None):
        """Serve queued frames by weighted deficit round-robin.

        Returns the number of frames resolved (processed or shed).
        ``max_frames`` models the service's dispatch capacity for this
        tick; ``None`` drains every queue.

        The round-robin pointer persists *across* dispatch calls: a
        tick-sized budget that runs dry mid-round resumes with the
        *same* tenant on the next tick — the pointer is rolled back to
        the tenant whose service was cut short, and a quantum banked
        on a visit that served nothing is taken back, so the tenant at
        the budget boundary is neither starved (skipped every tick)
        nor double-credited (banking a free quantum per tick).
        """
        served = 0
        while self.queue_depth() and (max_frames is None
                                      or served < max_frames):
            advanced = False
            names = list(self._tenants)
            for _ in range(len(names)):
                tq = self._tenants[names[self._rotation % len(names)]]
                self._rotation += 1
                if not tq.queue:
                    # Standard DRR: an idle tenant banks no deficit.
                    tq.deficit = 0.0
                    continue
                tq.deficit += tq.weight * self.policy.quantum_samples
                visit_served = 0
                while tq.queue and tq.deficit >= tq.queue[0].cost:
                    if max_frames is not None and served >= max_frames:
                        if not visit_served:
                            tq.deficit -= (tq.weight
                                           * self.policy.quantum_samples)
                        self._rotation -= 1
                        return served
                    item = tq.queue.popleft()
                    tq.deficit -= item.cost
                    self._serve(item, now_s)
                    served += 1
                    visit_served += 1
                    advanced = True
                if not tq.queue:
                    tq.deficit = 0.0
            if not advanced:
                break
        return served

    def _serve(self, item, now_s):
        session = item.session
        tel = current_collector()
        entry = self.pool.entry(session.chain_key)
        entry.advance(now_s)
        if not entry.relaying:
            # Supervisor ladder muted the chain: the client keeps the
            # direct path; the relay sheds rather than forward garbage.
            session.mark_degraded(now_s, {"chain": entry.key})
            if tel.enabled:
                tel.event("service.session.transition", kind="degraded",
                          session=session.session_id)
            self._shed(now_s, session, item.index, "half-duplex")
            return
        t0 = now_ns()
        entry.process(item.frame)
        wall_ns = now_ns() - t0
        if session.degraded:
            session.mark_resumed(now_s, {"chain": entry.key})
            if tel.enabled:
                tel.event("service.session.transition", kind="resumed",
                          session=session.session_id)
        self.processed += 1
        session.processed += 1
        wait_s = float(now_s) - item.arrival_s
        self.queue_wait_s.append(wait_s)
        self._event(now_s, FrameEventKind.PROCESSED, session, item.index)
        if tel.enabled:
            self._point(tel, "counter", "service.frames.processed",
                        tenant=session.tenant).inc()
            self._point(tel, "histogram", "service.latency.queue_ms",
                        unit="ms").observe(wait_s * 1e3)
            self._point(tel, "histogram", "service.latency.process_ns",
                        unit="ns").observe(wall_ns)
            self._point(tel, "histogram",
                        "service.frame.samples").observe(item.frame.size)
            tq = self._tenants[session.tenant]
            self._point(tel, "gauge", "service.queue.depth",
                        tenant=session.tenant).set(len(tq.queue))

    # -- drain -------------------------------------------------------------

    def flush(self, now_s, reason="drain"):
        """Shed every queued frame (service shutdown path)."""
        flushed = 0
        for tq in self._tenants.values():
            while tq.queue:
                item = tq.queue.popleft()
                self._shed(now_s, item.session, item.index, reason,
                           arrival_s=item.arrival_s)
                flushed += 1
            tq.deficit = 0.0
        return flushed

    # -- invariants --------------------------------------------------------

    def check_conservation(self):
        """Raise AssertionError unless frame accounting balances."""
        queued = self.queue_depth()
        if self.offered != self.admitted + self.rejected_frames:
            raise AssertionError(
                f"offered {self.offered} != admitted {self.admitted} "
                f"+ rejected {self.rejected_frames}")
        if self.admitted != self.processed + self.shed + queued:
            raise AssertionError(
                f"admitted {self.admitted} != processed {self.processed} "
                f"+ shed {self.shed} + queued {queued}")
        for session in self.sessions.values():
            if session.offered != (session.admitted
                                   + session.rejected_frames):
                raise AssertionError(
                    f"session {session.session_id}: offered "
                    f"{session.offered} != admitted {session.admitted} "
                    f"+ rejected {session.rejected_frames}")
        return True

    def event_digest(self):
        """SHA-256 over the typed event log (determinism assertions)."""
        lines = [f"{e.time_s:.9f}|{e.kind.value}|{e.session_id}|"
                 f"{e.index}|{sorted(e.detail.items())}"
                 for e in self.events]
        return digest(["service-events", lines])
