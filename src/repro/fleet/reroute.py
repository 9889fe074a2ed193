"""Fast reroute: precomputed backups, bounded switch latency.

The supervision ladder (PR 2) tells a relay *when to stop relaying*;
this module answers the fleet question that follows — *who serves the
stranded clients, and how fast*.  The design mirrors IP fast-reroute:

* every client's **backup relay is precomputed** by the association
  policy, so no policy logic runs during a failure;
* the **failure signal is the typed supervisor event log**:
  ``FALLBACK_HALF_DUPLEX`` opens an outage, the matching ``RECOVERED``
  closes it (:meth:`RelayTimeline.outages` parses exactly those
  events, not a throughput heuristic);
* the switch completes within a **bounded number of 50 ms sounding
  intervals**: one-or-more intervals to observe the event
  (``detection_intervals``) plus at most ``resound_intervals`` until
  the client's next sounding tick arms the backup's constructive
  filter — :meth:`FleetReroutePolicy.max_reroute_intervals` is the
  hard bound the experiment suite asserts.

:func:`relay_outage_timeline` produces each relay's seeded fault-storm
trajectory by actually running a :class:`repro.supervision.
RelaySupervisor` against :class:`repro.faults.FaultSchedule` streams,
so fleet outages inherit the ladder's real dynamics (re-tune with
backoff, gain surrender, mute, recovery) instead of a toy on/off
process.
"""

from __future__ import annotations

import functools

from dataclasses import dataclass, field

import numpy as np

from repro.faults import FaultSchedule
from repro.fleet.association import stable_client_hash
from repro.ident.sounding import DEFAULT_SOUNDING_INTERVAL_S
from repro.supervision import (
    RelayHealthMonitor,
    RelaySupervisor,
    SupervisorPolicy,
)
from repro.supervision.supervisor import (
    SupervisorEventKind,
    SupervisorState,
    record_transition,
)
from repro.telemetry.collector import (
    NullCollector,
    current_collector,
    use_collector,
)

#: Timelines one process keeps (least recently used evicted first).  A
#: sweep's cells run in relay order and each needs its own relay and
#: its clients' nearby backups, so this covers a 100-relay district
#: whole and a larger one's neighbourhood window.
TIMELINE_MEMO_SIZE = 256


@dataclass(frozen=True)
class RelayFaultStorm:
    """Seeded fault-process intensities for one relay's timeline.

    ``rate`` scales every per-step fault probability; 0 disables the
    storm entirely (the relay never leaves ACTIVE).  The processes
    mirror :func:`repro.netsim.experiments.fault_sweep_experiment`:
    SI-channel jumps that void the tuned cancellation, and lost
    sounding polls that age channel state until the ladder mutes.
    """

    rate: float = 0.0
    si_jump_db: float = 35.0
    poll_loss_bias: float = 2.0
    retune_success_prob: float = 0.3

    def as_dict(self):
        """Plain-dict form for task parameters (hashable, picklable)."""
        return {"rate": float(self.rate),
                "si_jump_db": float(self.si_jump_db),
                "poll_loss_bias": float(self.poll_loss_bias),
                "retune_success_prob": float(self.retune_success_prob)}


@dataclass(frozen=True)
class FleetReroutePolicy:
    """Timing contract of the reroute state machine (in 50 ms intervals)."""

    #: Sounding intervals for the controller to observe the typed
    #: mute event (>= 1: events surface at the next interval boundary).
    detection_intervals: int = 1
    #: A client's sounding tick period: the backup's constructive
    #: filter arms at the client's next tick after detection.
    resound_intervals: int = 4
    #: Consecutive healthy primary intervals required before failback.
    failback_hold_intervals: int = 6

    def __post_init__(self):
        if self.detection_intervals < 1:
            raise ValueError("detection_intervals must be >= 1")
        if self.resound_intervals < 1:
            raise ValueError("resound_intervals must be >= 1")
        if self.failback_hold_intervals < 1:
            raise ValueError("failback_hold_intervals must be >= 1")

    @property
    def max_reroute_intervals(self):
        """The asserted bound on mute -> served-by-backup latency."""
        return self.detection_intervals + self.resound_intervals

    def client_phase(self, client_index):
        """The client's stable sounding-tick phase (process-invariant)."""
        return stable_client_hash(client_index, salt=97) \
            % self.resound_intervals

    def as_dict(self):
        """Plain-dict form for task parameters."""
        return {"detection_intervals": int(self.detection_intervals),
                "resound_intervals": int(self.resound_intervals),
                "failback_hold_intervals": int(self.failback_hold_intervals)}


@dataclass(frozen=True)
class RelayTimeline:
    """One relay's supervised trajectory over the sweep horizon."""

    relaying: np.ndarray          # bool per step: FF service available
    events: tuple                 # the typed SupervisorEvent log
    step_s: float = DEFAULT_SOUNDING_INTERVAL_S
    _spans: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def outages(self, num_steps):
        """Half-duplex outage spans parsed from the typed event log.

        Returns ``(start_step, end_step)`` pairs (end exclusive); an
        outage still open at the horizon ends at ``num_steps``.  Only
        ``FALLBACK_HALF_DUPLEX`` opens a span, and it closes two ways —
        a ``RECOVERED`` from half-duplex (health came back while
        muted), or a ``RETUNE_SUCCEEDED`` emitted in the half-duplex
        state (the ladder jumps straight back to ACTIVE without a
        RECOVERED).  Gain backoff is degraded service, not an outage,
        and must not trigger reroute.  The log is parsed once per
        ``num_steps``; later calls return the same tuple.
        """
        num_steps = int(num_steps)
        if num_steps not in self._spans:
            self._spans[num_steps] = self._parse_outages(num_steps)
        return self._spans[num_steps]

    def _parse_outages(self, num_steps):
        spans, start = [], None
        for event in self.events:
            step = int(round(event.time_s / self.step_s)) - 1
            if event.kind is SupervisorEventKind.FALLBACK_HALF_DUPLEX:
                if start is None:
                    start = max(step, 0)
            elif start is not None and (
                    (event.kind is SupervisorEventKind.RECOVERED
                     and event.detail.get("from") == "half-duplex")
                    or (event.kind is SupervisorEventKind.RETUNE_SUCCEEDED
                        and event.state is SupervisorState.HALF_DUPLEX)):
                spans.append((start, min(step, num_steps)))
                start = None
        if start is not None:
            spans.append((start, num_steps))
        return tuple(spans)


def relay_timeline_seed(storm_seed, relay_index):
    """The per-relay child seed every worker derives identically."""
    return (int(storm_seed) * 100_003 + int(relay_index)) & (2**63 - 1)


def relay_outage_timeline(seed, num_steps, storm: RelayFaultStorm,
                          step_s=DEFAULT_SOUNDING_INTERVAL_S):
    """Run one relay's supervisor against its seeded fault storm.

    Deterministic in ``(seed, num_steps, storm, step_s)``: every fault
    draw comes from labelled :class:`~repro.faults.FaultSchedule`
    streams, so any worker process reproduces the identical timeline —
    the property that lets a client task rebuild its primary's *and*
    backup's trajectories locally instead of sharing state.

    The supervisor runs once per key and process: the timeline is
    memoised (least recently used of :data:`TIMELINE_MEMO_SIZE`, cleared
    by :func:`clear_timeline_memo`), so a repeat call returns the same
    object, whose ``relaying`` is read-only.  The run itself reports to
    a null collector; every call, hit or miss, replays the event log's
    ``supervision.*`` transitions into the ambient collector, so
    telemetry reads as if the supervisor had run each time.
    """
    if isinstance(storm, dict):
        storm = RelayFaultStorm(**storm)
    with use_collector(NullCollector()):
        timeline = _supervised_timeline(int(seed), int(num_steps), storm,
                                        float(step_s))
    tel = current_collector()
    if tel.enabled:
        for event in timeline.events:
            record_transition(tel, event)
    return timeline


def clear_timeline_memo():
    """Forget every memoised timeline (each fleet sweep starts cold)."""
    _supervised_timeline.cache_clear()


@functools.lru_cache(maxsize=TIMELINE_MEMO_SIZE)
def _supervised_timeline(seed, num_steps, storm, step_s):
    schedule = FaultSchedule(seed)
    u_jump = schedule.stream("si-jump").random(num_steps)
    u_loss = schedule.stream("poll-loss").random(num_steps)
    u_retune = schedule.stream("retune").random(max(4 * num_steps, 4))

    p_jump = 0.25 * storm.rate
    p_loss = min(storm.poll_loss_bias * storm.rate, 0.95)
    nominal_canc = 110.0
    state = {"canc": nominal_canc}
    calls = [0]

    def attempt_retune(now_s):
        ok = bool(u_retune[calls[0] % u_retune.size]
                  < storm.retune_success_prob)
        calls[0] += 1
        if ok:
            state["canc"] = nominal_canc
        return ok

    policy = SupervisorPolicy(
        retune_backoff_s=0.6 * step_s, retune_backoff_max_s=4.0 * step_s,
        retune_retry_budget=2, gain_step_db=6.0, max_gain_backoff_db=6.0,
        escalation_hold_s=0.5 * step_s, recovery_hold_s=1.2 * step_s,
        fallback_sounding_age_s=0.5)
    supervisor = RelaySupervisor(monitor=RelayHealthMonitor(alpha=1.0),
                                 policy=policy, retune=attempt_retune)

    relaying = np.zeros(num_steps, dtype=bool)
    age_steps = 0
    for t in range(num_steps):
        now_s = (t + 1) * step_s
        if u_jump[t] < p_jump:
            state["canc"] = nominal_canc - storm.si_jump_db
        if u_loss[t] < p_loss:
            age_steps += 1
        else:
            age_steps = 0
        residual = -50.0 + (nominal_canc - state["canc"])
        supervisor.monitor.observe(residual_si_db=residual,
                                   sounding_age_s=age_steps * step_s)
        supervisor.step(now_s)
        relaying[t] = supervisor.relaying
    relaying.flags.writeable = False
    return RelayTimeline(relaying=relaying, events=tuple(supervisor.events),
                         step_s=step_s)


@dataclass(frozen=True)
class RerouteEvent:
    """One completed (or failed) reroute of a client."""

    mute_step: int                # primary's outage start
    switch_step: int              # first step served by the backup (-1: never)
    latency_intervals: int        # switch_step - mute_step (-1: never)
    rescued: bool                 # backup actually delivered FF service


@dataclass
class RerouteTrace:
    """A client's full simulated service history."""

    throughput_mbps: np.ndarray   # per-step rate actually delivered
    serving: np.ndarray           # relay index per step (-1 = direct only)
    reroutes: list = field(default_factory=list)
    failbacks: int = 0

    @property
    def mean_mbps(self):
        return float(self.throughput_mbps.mean()) \
            if self.throughput_mbps.size else 0.0


class ClientRerouteMachine:
    """The per-client fast-reroute state machine.

    Serves from the primary while it relays; on a primary outage
    (parsed from the typed event log), falls to direct-only service
    during detection, then switches to the precomputed backup at the
    client's next sounding tick — latency bounded by
    :meth:`FleetReroutePolicy.max_reroute_intervals`.  While on the
    backup, the primary must stay healthy ``failback_hold_intervals``
    before the client fails back (hysteresis against flapping).  A
    muted backup never serves: the client keeps the direct path, and
    the reroute is recorded as unrescued.
    """

    def __init__(self, policy: FleetReroutePolicy, client_index,
                 direct_rate, primary_rate, backup_rate, primary, backup):
        self.policy = policy
        self.client = int(client_index)
        self.phase = policy.client_phase(client_index)
        self.direct_rate = float(direct_rate)
        self.primary_rate = float(primary_rate)
        self.backup_rate = float(backup_rate)
        self.primary = int(primary)
        self.backup = int(backup)

    def _next_tick(self, step):
        """The first sounding tick of this client at or after ``step``."""
        r = self.policy.resound_intervals
        offset = (self.phase - step) % r
        return step + offset

    def run(self, primary_timeline: RelayTimeline,
            backup_timeline: RelayTimeline, num_steps):
        """Simulate ``num_steps`` sounding intervals; returns the trace."""
        num_steps = int(num_steps)
        p_ok = primary_timeline.relaying.tolist()
        b_ok = backup_timeline.relaying.tolist() \
            if backup_timeline is not None else [False] * num_steps
        outages = primary_timeline.outages(num_steps)
        # span_at[t]: the first outage in log order that holds step t
        # (-1: none), filled last span first so earlier spans win.
        span_at = np.full(num_steps, -1)
        for i in range(len(outages) - 1, -1, -1):
            start, end = outages[i]
            span_at[start:max(start, end)] = i
        span_at = span_at.tolist()

        throughput, serving, reroutes = [], [], []
        failbacks = 0
        on_backup = False
        healthy_streak = 0
        current_outage = None
        pending = None              # (mute_step, switch_step) awaiting switch
        for t in range(num_steps):
            # Track which outage (if any) step t falls in.
            if current_outage is None or t >= current_outage[1]:
                i = span_at[t]
                current_outage = outages[i] if i >= 0 else None
                # A new outage only arms a switch when the client is
                # actually served by the primary; while already on the
                # backup there is nothing to reroute (and a stale
                # pending switch must not replay after failback).
                if (current_outage is not None and self.backup >= 0
                        and not on_backup):
                    mute_step = current_outage[0]
                    pending = (mute_step, self._next_tick(
                        mute_step + self.policy.detection_intervals))

            if pending is not None and not on_backup:
                mute_step, switch_step = pending
                if t >= switch_step:
                    on_backup = True
                    healthy_streak = 0
                    rescued = bool(b_ok[t])
                    reroutes.append(RerouteEvent(
                        mute_step=mute_step, switch_step=switch_step,
                        latency_intervals=switch_step - mute_step,
                        rescued=rescued))
                    pending = None

            if on_backup:
                if p_ok[t]:
                    healthy_streak += 1
                else:
                    healthy_streak = 0
                if (healthy_streak >= self.policy.failback_hold_intervals
                        and t == self._next_tick(t)):
                    on_backup = False
                    failbacks += 1

            if on_backup:
                if b_ok[t]:
                    serving.append(self.backup)
                    throughput.append(self.backup_rate)
                else:
                    serving.append(-1)
                    throughput.append(self.direct_rate)
            elif p_ok[t]:
                serving.append(self.primary)
                throughput.append(self.primary_rate)
            else:
                serving.append(-1)
                throughput.append(self.direct_rate)
        return RerouteTrace(throughput_mbps=np.array(throughput, dtype=float),
                            serving=np.array(serving, dtype=int),
                            reroutes=reroutes, failbacks=failbacks)
