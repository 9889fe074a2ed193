"""The self-healing watchdog: a degradation ladder over relay health.

A full-duplex relay whose cancellation or filters stop tracking the
channel is not merely useless — it amplifies garbage into the network.
:class:`RelaySupervisor` watches a
:class:`repro.supervision.health.RelayHealthMonitor` and walks a
degradation ladder that always prefers the least lossy remedy:

1. **Re-tune** — residual self-interference rising is first met by
   re-running the noise-injection tuner (paper §3.3/§3.5), with
   exponential backoff between attempts and a bounded retry budget;
2. **Reduce gain** — persistent trouble costs amplification headroom
   in ``gain_step_db`` steps (a quieter relay rings less and clips
   less), down to ``max_gain_backoff_db``;
3. **Fall back to half-duplex** — when the rungs are exhausted, or
   channel state is hopelessly stale, the relay mutes: clients keep
   the plain direct/decode-and-forward service of
   :mod:`repro.core.baselines` instead of a corrupted relayed copy;
4. **Recover** — once health stays clean for ``recovery_hold_s``, gain
   is restored, the budget resets, and the relay resumes.

Every transition is recorded as a typed :class:`SupervisorEvent`, so
experiments can assert *why* the relay did what it did, not just what
throughput resulted.
"""

from __future__ import annotations

import enum

from dataclasses import dataclass, field

import numpy as np

from repro.supervision.health import RelayHealthMonitor
from repro.telemetry.collector import current_collector
from repro.utils.units import db_to_linear


class SupervisorState(str, enum.Enum):
    """Rungs of the degradation ladder."""

    ACTIVE = "active"
    RETUNING = "retuning"
    REDUCED_GAIN = "reduced-gain"
    HALF_DUPLEX = "half-duplex"


class SupervisorEventKind(str, enum.Enum):
    """Typed event-log entries."""

    FAULT_DETECTED = "fault-detected"
    RETUNE_STARTED = "retune-started"
    RETUNE_SUCCEEDED = "retune-succeeded"
    RETUNE_FAILED = "retune-failed"
    GAIN_REDUCED = "gain-reduced"
    GAIN_RESTORED = "gain-restored"
    FALLBACK_HALF_DUPLEX = "fallback-half-duplex"
    RECOVERED = "recovered"
    BLOCK_SANITISED = "block-sanitised"


@dataclass(frozen=True)
class SupervisorEvent:
    """One entry in the supervisor's event log."""

    time_s: float
    kind: SupervisorEventKind
    state: SupervisorState
    detail: dict = field(default_factory=dict)

    def __str__(self):
        extra = f" {self.detail}" if self.detail else ""
        return f"[{self.time_s * 1e3:9.1f} ms] {self.kind.value:<22} " \
               f"(state={self.state.value}){extra}"


def record_transition(tel, event):
    """Count and log one ladder transition on collector ``tel``.

    The ``supervision.transitions`` counter (labelled by event kind)
    and the ``supervision.transition`` event mirror the typed log.
    """
    tel.counter("supervision.transitions", kind=event.kind.value).inc()
    tel.event("supervision.transition", kind=event.kind.value,
              state=event.state.value)


@dataclass
class SupervisorPolicy:
    """Ladder dynamics (health thresholds live on the monitor)."""

    #: Base delay before the first re-tune retry after a failure.
    retune_backoff_s: float = 0.05
    #: Backoff doubles per failure up to this ceiling.
    retune_backoff_max_s: float = 0.8
    #: Consecutive failed re-tunes tolerated before escalating.
    retune_retry_budget: int = 3
    #: Amplification surrendered per gain-reduction rung.
    gain_step_db: float = 6.0
    #: Total amplification the ladder may surrender.
    max_gain_backoff_db: float = 12.0
    #: Minimum dwell between successive escalations.
    escalation_hold_s: float = 0.1
    #: Clean-health dwell required before recovering.
    recovery_hold_s: float = 0.2
    #: Sounding age past which the relay mutes immediately (stale
    #: filters are worse than no relay — §6's selectivity rule).
    fallback_sounding_age_s: float = 0.5


class RelaySupervisor:
    """Watchdog driving the degradation ladder (see module docstring).

    Parameters
    ----------
    monitor:
        The health monitor to consult; a default one is created if
        omitted (reachable as ``supervisor.monitor`` for feeding
        observations).
    policy:
        Ladder dynamics.
    retune:
        ``retune(now_s) -> bool`` — re-runs the cancellation tuning
        (e.g. a :class:`repro.cancellation.tuning.NoiseInjectionTuner`
        pass, or :meth:`repro.faults.impairments.ResidualSiStage.
        retune` in injected-fault tests).  None disables rung 1.

    Every ladder transition increments a ``supervision.transitions``
    counter labelled by event kind in the ambient collector and appends
    a structured telemetry event mirroring the typed log (a zero-cost
    no-op unless a collector is installed).
    """

    def __init__(self, monitor: RelayHealthMonitor = None,
                 policy: SupervisorPolicy = None, retune=None):
        self.monitor = monitor or RelayHealthMonitor()
        self.policy = policy or SupervisorPolicy()
        self._retune = retune
        self.state = SupervisorState.ACTIVE
        self.gain_backoff_db = 0.0
        self.events = []
        self._now_s = 0.0
        self._retries_used = 0
        self._retry_backoff_s = self.policy.retune_backoff_s
        self._next_retry_s = float("-inf")
        self._next_escalation_s = float("-inf")
        self._unhealthy_since = None
        self._healthy_since = None

    # -- introspection -----------------------------------------------------

    @property
    def now_s(self):
        """The supervisor's clock (advanced by :meth:`guard_block`)."""
        return self._now_s

    @property
    def relaying(self):
        """False when the relay is muted (half-duplex fallback)."""
        return self.state is not SupervisorState.HALF_DUPLEX

    def event_kinds(self):
        """The sequence of event kinds, for compact assertions."""
        return tuple(event.kind for event in self.events)

    def event_log(self):
        """Human-readable event log."""
        return "\n".join(str(event) for event in self.events)

    # -- internals ---------------------------------------------------------

    def _emit(self, kind, detail=None):
        event = SupervisorEvent(time_s=self._now_s, kind=kind,
                                state=self.state, detail=detail or {})
        self.events.append(event)
        tel = current_collector()
        if tel.enabled:
            record_transition(tel, event)
        return event

    def _reset_retries(self):
        self._retries_used = 0
        self._retry_backoff_s = self.policy.retune_backoff_s
        self._next_retry_s = float("-inf")

    def _attempt_retune(self, now_s):
        # Only an ACTIVE relay advertises the attempt as a state change;
        # a muted or gain-reduced relay keeps its (safer) state until
        # the retune actually succeeds.
        if self.state is SupervisorState.ACTIVE:
            self.state = SupervisorState.RETUNING
        self._emit(SupervisorEventKind.RETUNE_STARTED,
                   {"attempt": self._retries_used + 1})
        ok = bool(self._retune(now_s))
        if ok:
            self._emit(SupervisorEventKind.RETUNE_SUCCEEDED)
            # The residual metric reflects the *old* filters; forget it
            # so the supervisor judges the re-tuned relay afresh.
            self.monitor.reset_metric("residual_si_db")
            self.state = SupervisorState.ACTIVE
            self._unhealthy_since = None
            self._reset_retries()
        else:
            self._retries_used += 1
            self._next_retry_s = now_s + self._retry_backoff_s
            self._emit(SupervisorEventKind.RETUNE_FAILED,
                       {"attempt": self._retries_used,
                        "next_retry_s": self._next_retry_s})
            self._retry_backoff_s = min(self._retry_backoff_s * 2.0,
                                        self.policy.retune_backoff_max_s)
        return ok

    def _escalate(self, now_s, violations):
        policy = self.policy
        if self.state in (SupervisorState.ACTIVE, SupervisorState.RETUNING):
            self.gain_backoff_db = min(policy.gain_step_db,
                                       policy.max_gain_backoff_db)
            self.state = SupervisorState.REDUCED_GAIN
            self._emit(SupervisorEventKind.GAIN_REDUCED,
                       {"gain_backoff_db": self.gain_backoff_db,
                        "violations": list(violations)})
        elif self.state is SupervisorState.REDUCED_GAIN:
            if self.gain_backoff_db + 1e-9 < policy.max_gain_backoff_db:
                self.gain_backoff_db = min(
                    self.gain_backoff_db + policy.gain_step_db,
                    policy.max_gain_backoff_db)
                self._emit(SupervisorEventKind.GAIN_REDUCED,
                           {"gain_backoff_db": self.gain_backoff_db,
                            "violations": list(violations)})
            else:
                self.state = SupervisorState.HALF_DUPLEX
                self._emit(SupervisorEventKind.FALLBACK_HALF_DUPLEX,
                           {"violations": list(violations)})
        self._next_escalation_s = now_s + policy.escalation_hold_s

    def _fallback(self, violations):
        if self.state is not SupervisorState.HALF_DUPLEX:
            self.state = SupervisorState.HALF_DUPLEX
            self._emit(SupervisorEventKind.FALLBACK_HALF_DUPLEX,
                       {"violations": list(violations)})

    def _recover(self):
        if self.gain_backoff_db:
            self._emit(SupervisorEventKind.GAIN_RESTORED,
                       {"gain_backoff_db": self.gain_backoff_db})
            self.gain_backoff_db = 0.0
        previous = self.state
        self.state = SupervisorState.ACTIVE
        self._reset_retries()
        self._healthy_since = None
        self._emit(SupervisorEventKind.RECOVERED,
                   {"from": previous.value})

    # -- the ladder --------------------------------------------------------

    def step(self, now_s=None):
        """Evaluate health and advance the ladder; returns the state."""
        if now_s is None:
            now_s = self._now_s
        else:
            now_s = float(now_s)
            self._now_s = max(self._now_s, now_s)
        violations = self.monitor.violations()

        if not violations:
            self._unhealthy_since = None
            degraded = (self.state is not SupervisorState.ACTIVE
                        or self.gain_backoff_db > 0.0)
            if degraded:
                if self._healthy_since is None:
                    self._healthy_since = now_s
                elif now_s - self._healthy_since >= self.policy.recovery_hold_s:
                    self._recover()
            return self.state

        self._healthy_since = None
        if self._unhealthy_since is None:
            self._unhealthy_since = now_s
            self._emit(SupervisorEventKind.FAULT_DETECTED,
                       {"violations": list(violations),
                        "health": self.monitor.snapshot()})

        # Hopelessly stale channel state: mute now, no intermediate rungs.
        age = self.monitor.value("sounding_age_s")
        if age is not None and age > self.policy.fallback_sounding_age_s:
            self._fallback(violations)
            return self.state

        # Rung 1: re-tune, while the fault is one a re-tune can fix.
        # The retry budget gates escalation from the working states;
        # once muted there is nothing left to lose, so a half-duplex
        # relay keeps retrying at the (capped) backoff pace — the only
        # road back when the fault needs a re-tune to clear.
        retunable = (self._retune is not None
                     and "residual_si_db" in violations
                     and "sounding_age_s" not in violations)
        if retunable:
            budget_left = self._retries_used < self.policy.retune_retry_budget
            if self.state is SupervisorState.HALF_DUPLEX:
                budget_left = True
            if budget_left:
                if now_s >= self._next_retry_s:
                    self._attempt_retune(now_s)
                if self.state is not SupervisorState.HALF_DUPLEX:
                    return self.state

        # Rungs 2-3: surrender gain, then fall back to half duplex.
        if now_s >= self._next_escalation_s:
            self._escalate(now_s, violations)
        return self.state

    # -- sample-level integration -----------------------------------------

    def guard_block(self, block, duration_s, *, clip_fraction=None,
                    residual_si_db=None, sounding_age_s=None):
        """Supervise one processed block of relay output.

        Advances the supervisor clock by ``duration_s``, sanitises
        non-finite samples (logging ``BLOCK_SANITISED``), feeds the
        supplied health observations, steps the ladder, and returns the
        block with the current remedy applied — gain backoff as a
        scalar derate, half-duplex fallback as silence (the relay's
        transmitter contributes nothing; the destination keeps the
        direct path).
        """
        block = np.asarray(block, dtype=complex)
        self._now_s += float(duration_s)
        finite = np.isfinite(block)
        ok = bool(finite.all())
        if not ok:
            bad = int(block.size - np.count_nonzero(finite))
            block = np.where(finite, block, 0.0)
            self._emit(SupervisorEventKind.BLOCK_SANITISED,
                       {"nonfinite_samples": bad, "block_samples": block.size})
        self.monitor.observe(guard_ok=ok, clip_fraction=clip_fraction,
                             residual_si_db=residual_si_db,
                             sounding_age_s=sounding_age_s)
        self.step(self._now_s)
        if not self.relaying:
            return np.zeros_like(block)
        if self.gain_backoff_db:
            block = block * db_to_linear(-self.gain_backoff_db)
        return block
