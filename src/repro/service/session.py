"""Client sessions: lifecycle, seeded traffic, typed event logs.

A :class:`ClientSession` is one client's stream through the always-on
relay service.  Its lifecycle is a small state machine::

    PENDING --admit--> SOUNDING --activate--> ACTIVE
       |                                        |
       +--reject--> REJECTED          drain --> DRAINING --close--> CLOSED

Admission is the service's front door (the scheduler may refuse a
session outright when it is at capacity); sounding models the FF
control-plane handshake of :mod:`repro.ident` — the relay learns the
client's channels before any payload frame is forwarded; an ACTIVE
session offers IQ frames to the scheduler; draining stops new arrivals
while queued frames are resolved.

Traffic is *generated*, not replayed: each session owns a seeded
arrival process (Poisson or CBR) and a per-frame IQ generator, so a
load test is fully determined by ``(config, seed)`` — two runs with
the same seed offer bit-identical frames at identical virtual times,
which is what makes the service's event logs assertable in tests.

Every transition appends a typed :class:`SessionEvent`; the scheduler
adds DEGRADED / RESUMED marks when the supervisor ladder mutes and
recovers the session's relay chain.
"""

from __future__ import annotations

import enum

from dataclasses import dataclass, field

import numpy as np


class SessionState(str, enum.Enum):
    """Lifecycle states of a client session."""

    PENDING = "pending"
    SOUNDING = "sounding"
    ACTIVE = "active"
    DRAINING = "draining"
    CLOSED = "closed"
    REJECTED = "rejected"


class SessionEventKind(str, enum.Enum):
    """Typed session event-log entries."""

    ADMITTED = "admitted"
    REJECTED = "rejected"
    ACTIVATED = "activated"
    DEGRADED = "degraded"
    RESUMED = "resumed"
    DRAINING = "draining"
    CLOSED = "closed"


@dataclass(frozen=True)
class SessionEvent:
    """One entry in a session's event log."""

    time_s: float
    kind: SessionEventKind
    session_id: str
    detail: dict = field(default_factory=dict)

    def __str__(self):
        extra = f" {self.detail}" if self.detail else ""
        return (f"[{self.time_s * 1e3:9.1f} ms] {self.session_id:<12} "
                f"{self.kind.value:<10}{extra}")


#: Valid state transitions (anything else is a programming error).
_TRANSITIONS = {
    SessionState.PENDING: (SessionState.SOUNDING, SessionState.REJECTED),
    SessionState.SOUNDING: (SessionState.ACTIVE, SessionState.CLOSED),
    SessionState.ACTIVE: (SessionState.DRAINING, SessionState.CLOSED),
    SessionState.DRAINING: (SessionState.CLOSED,),
    SessionState.CLOSED: (),
    SessionState.REJECTED: (),
}


@dataclass(frozen=True)
class TrafficConfig:
    """A session's seeded arrival process.

    ``start_s`` is the *activation* time: the first payload frame can
    arrive only once sounding has completed, so the pump admits the
    session ``sounding_s`` earlier and arrivals are generated relative
    to ``start_s``.  ``model`` is ``"poisson"`` (exponential gaps, the
    classic bursty client) or ``"cbr"`` (constant bit rate — evenly
    spaced frames, e.g. a voice/video stream).
    """

    model: str = "poisson"
    rate_fps: float = 40.0
    frame_samples: int = 256
    start_s: float = 0.0
    duration_s: float = 1.0

    def __post_init__(self):
        if self.model not in ("poisson", "cbr"):
            raise ValueError(f"traffic model must be 'poisson' or 'cbr', "
                             f"got {self.model!r}")
        if self.rate_fps <= 0:
            raise ValueError(f"rate_fps must be > 0, got {self.rate_fps}")
        if self.frame_samples < 1:
            raise ValueError(f"frame_samples must be >= 1, "
                             f"got {self.frame_samples}")
        if self.duration_s <= 0:
            raise ValueError(f"duration_s must be > 0, "
                             f"got {self.duration_s}")


def _uint32_words(value):
    """``value`` as the little-endian uint32 words ``SeedSequence`` uses."""
    if value < 0:
        raise ValueError(f"expected a non-negative seed, got {value}")
    words = [value & 0xFFFFFFFF]
    value >>= 32
    while value:
        words.append(value & 0xFFFFFFFF)
        value >>= 32
    return words


class ClientSession:
    """One client's stream through the relay service.

    Parameters
    ----------
    session_id:
        Stable identifier (also the tie-break key for deterministic
        event ordering — keep it unique).
    tenant:
        The fair-share billing entity this session belongs to; the
        scheduler queues and weighs traffic per tenant.
    chain_key:
        Which shared relay chain (see ``ChainPool``) serves this
        session.  Many sessions share one configured chain.
    traffic:
        The seeded arrival process.
    seed:
        Master seed; arrival times and frame contents derive from it.
    """

    def __init__(self, session_id, tenant="default", chain_key="default",
                 traffic: TrafficConfig = None, seed=0):
        self.session_id = str(session_id)
        self.tenant = str(tenant)
        self.chain_key = str(chain_key)
        self.traffic = traffic or TrafficConfig()
        self.seed = int(seed)
        self.state = SessionState.PENDING
        self.events = []
        self.degraded = False
        # Frame accounting (the scheduler maintains these).
        self.offered = 0
        self.admitted = 0
        self.processed = 0
        self.shed = 0
        self.rejected_frames = 0
        self._arrivals = None
        self._frame_words = None

    def __repr__(self):
        return (f"ClientSession({self.session_id!r}, tenant="
                f"{self.tenant!r}, state={self.state.value})")

    # -- seeded traffic ----------------------------------------------------

    @property
    def arrivals_s(self):
        """Absolute arrival times (sorted, deterministic for the seed)."""
        if self._arrivals is None:
            t = self.traffic
            if t.model == "cbr":
                count = max(int(round(t.duration_s * t.rate_fps)), 1)
                rel = (np.arange(count, dtype=float) + 1.0) / t.rate_fps
                rel = rel[rel <= t.duration_s + 1e-12]
            else:
                rng = np.random.default_rng((self.seed, 0xA441))
                # Draw enough exponential gaps to cover the window with
                # margin, then clip — deterministic for the seed.
                n_max = max(int(np.ceil(t.duration_s * t.rate_fps * 3)), 8)
                gaps = rng.exponential(1.0 / t.rate_fps, size=n_max)
                rel = np.cumsum(gaps)
                rel = rel[rel <= t.duration_s]
            self._arrivals = t.start_s + rel
        return self._arrivals

    def frame(self, index):
        """The ``index``-th IQ frame: seeded unit-power complex noise.

        The generator is seeded with ``(seed, 0xF4A3, index)`` as the
        uint32 words :class:`numpy.random.SeedSequence` reduces it to
        (the seed's words are split once per session), so the stream is
        the tuple seed's.
        """
        if self._frame_words is None:
            self._frame_words = _uint32_words(self.seed) + [0xF4A3]
        rng = np.random.default_rng(np.array(
            self._frame_words + _uint32_words(int(index)), dtype=np.uint32))
        n = self.traffic.frame_samples
        # One draw: the real parts come first, as from two calls.
        z = rng.standard_normal((2, n))
        return (z[0] + 1j * z[1]) / np.sqrt(2.0)

    # -- lifecycle ---------------------------------------------------------

    def _move(self, now_s, new_state, kind, detail=None):
        if new_state not in _TRANSITIONS[self.state]:
            raise RuntimeError(
                f"session {self.session_id}: illegal transition "
                f"{self.state.value} -> {new_state.value}")
        self.state = new_state
        return self._mark(now_s, kind, detail)

    def _mark(self, now_s, kind, detail=None):
        event = SessionEvent(time_s=float(now_s), kind=kind,
                             session_id=self.session_id,
                             detail=detail or {})
        self.events.append(event)
        return event

    def admit(self, now_s):
        """Front door passed: the sounding handshake begins."""
        return self._move(now_s, SessionState.SOUNDING,
                          SessionEventKind.ADMITTED,
                          {"tenant": self.tenant,
                           "chain": self.chain_key})

    def reject(self, now_s, reason):
        """Admission control refused the session."""
        return self._move(now_s, SessionState.REJECTED,
                          SessionEventKind.REJECTED, {"reason": reason})

    def activate(self, now_s):
        """Sounding complete: payload frames may now be offered."""
        return self._move(now_s, SessionState.ACTIVE,
                          SessionEventKind.ACTIVATED)

    def drain(self, now_s):
        """Stop accepting new frames; queued frames still resolve."""
        return self._move(now_s, SessionState.DRAINING,
                          SessionEventKind.DRAINING)

    def close(self, now_s):
        """Terminal: all offered frames are accounted for."""
        return self._move(now_s, SessionState.CLOSED,
                          SessionEventKind.CLOSED,
                          {"offered": self.offered,
                           "processed": self.processed,
                           "shed": self.shed})

    def mark_degraded(self, now_s, detail=None):
        """The session's relay chain muted (supervisor ladder)."""
        if not self.degraded:
            self.degraded = True
            self._mark(now_s, SessionEventKind.DEGRADED, detail)

    def mark_resumed(self, now_s, detail=None):
        """The chain recovered; relayed service resumed."""
        if self.degraded:
            self.degraded = False
            self._mark(now_s, SessionEventKind.RESUMED, detail)

    # -- introspection -----------------------------------------------------

    def event_kinds(self):
        """The sequence of event kinds, for compact assertions."""
        return tuple(event.kind for event in self.events)

    @property
    def unresolved(self):
        """Admitted frames not yet processed or shed (still queued)."""
        return self.admitted - self.processed - self.shed


def make_sessions(count, tenants=("tenant-0",), seed=2014,
                  traffic: TrafficConfig = None, chain_keys=("default",),
                  model_mix=("poisson", "cbr")):
    """``count`` seeded sessions round-robined over tenants and chains.

    Session ``i`` gets tenant ``tenants[i % len(tenants)]``, chain
    ``chain_keys[i % len(chain_keys)]``, a traffic model cycled from
    ``model_mix`` and a child seed derived from ``seed`` — the whole
    population is a pure function of the arguments.
    """
    base = traffic or TrafficConfig()
    sessions = []
    for i in range(int(count)):
        model = model_mix[i % len(model_mix)]
        traffic_i = TrafficConfig(
            model=model, rate_fps=base.rate_fps,
            frame_samples=base.frame_samples, start_s=base.start_s,
            duration_s=base.duration_s)
        sessions.append(ClientSession(
            session_id=f"s{i:04d}", tenant=tenants[i % len(tenants)],
            chain_key=chain_keys[i % len(chain_keys)],
            traffic=traffic_i, seed=int(seed) * 100003 + i))
    return sessions
