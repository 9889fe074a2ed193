"""Test support: the fleet paths the package ran before its fast paths.

* :func:`wall_losses_db` tests every ray against every wall of the
  district, where ``District.wall_losses_db`` tests only the walls whose
  bounding boxes meet the ray's;
* :func:`candidate_relays` sorts one client's relay distances at a time,
  where ``District.candidates`` sorts one (clients x relays) matrix;
* :func:`run_machine` finds the current outage with a generator scan
  over every span, where ``ClientRerouteMachine.run`` reads a per-step
  span index;
* :func:`build_timeline` runs the supervisor on every call and lets it
  report to the ambient collector, where ``relay_outage_timeline``
  memoises the run and replays its telemetry.

The fast paths are held to these bit for bit (see
``tests/test_fleet_oracle.py``).
"""

from __future__ import annotations

import numpy as np

from repro.faults import FaultSchedule
from repro.fleet.district import _orient
from repro.fleet.reroute import (
    RelayFaultStorm,
    RelayTimeline,
    RerouteEvent,
    RerouteTrace,
)
from repro.ident.sounding import DEFAULT_SOUNDING_INTERVAL_S
from repro.supervision import (
    RelayHealthMonitor,
    RelaySupervisor,
    SupervisorPolicy,
)


def wall_losses_db(district, p, q):
    """``District.wall_losses_db``, every ray against all walls."""
    p = np.atleast_2d(np.asarray(p, dtype=float))
    q = np.atleast_2d(np.asarray(q, dtype=float))
    out = np.empty(p.shape[0])
    a = district._wall_a[None, :, :]
    b = district._wall_b[None, :, :]
    chunk = max(1, int(2_000_000 // max(district._wall_loss.size, 1)))
    for lo in range(0, p.shape[0], chunk):
        pp = p[lo:lo + chunk, None, :]
        qq = q[lo:lo + chunk, None, :]
        d1 = _orient(a, b, pp)
        d2 = _orient(a, b, qq)
        d3 = _orient(pp, qq, a)
        d4 = _orient(pp, qq, b)
        crosses = ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0))
        out[lo:lo + chunk] = crosses @ district._wall_loss
    return out


def candidate_relays(district, client_index):
    """``District.candidate_relays``, one client's distances at a time."""
    pos = district.client_positions[client_index]
    relays = np.array([h.relay for h in district.homes], dtype=float)
    dist = np.linalg.norm(relays - pos[None, :], axis=1)
    order = np.argsort(dist, kind="stable")
    cfg = district.config
    picked = [int(r) for r in order[:cfg.max_candidate_relays]
              if dist[r] <= cfg.neighbor_radius_m]
    home = int(district.client_home[client_index])
    if home not in picked:
        picked = [home] + picked[:max(cfg.max_candidate_relays - 1, 0)]
    return picked


def run_machine(machine, primary_timeline, backup_timeline, num_steps):
    """``ClientRerouteMachine.run`` with the generator scan per step."""
    num_steps = int(num_steps)
    p_ok = primary_timeline.relaying
    b_ok = backup_timeline.relaying if backup_timeline is not None \
        else np.zeros(num_steps, dtype=bool)
    outages = primary_timeline._parse_outages(num_steps)

    throughput = np.empty(num_steps)
    serving = np.full(num_steps, machine.primary, dtype=int)
    trace = RerouteTrace(throughput_mbps=throughput, serving=serving)

    switch_at = {}
    for start, end in outages:
        detect = start + machine.policy.detection_intervals
        switch_at[start] = machine._next_tick(detect)

    on_backup = False
    healthy_streak = 0
    current_outage = None
    pending = None
    for t in range(num_steps):
        if current_outage is None or t >= current_outage[1]:
            current_outage = next(((s, e) for s, e in outages
                                   if s <= t < e), None)
            if (current_outage is not None and machine.backup >= 0
                    and not on_backup):
                pending = (current_outage[0],
                           switch_at[current_outage[0]])

        if pending is not None and not on_backup:
            mute_step, switch_step = pending
            if t >= switch_step:
                on_backup = True
                healthy_streak = 0
                rescued = bool(b_ok[t])
                trace.reroutes.append(RerouteEvent(
                    mute_step=mute_step, switch_step=switch_step,
                    latency_intervals=switch_step - mute_step,
                    rescued=rescued))
                pending = None

        if on_backup:
            if p_ok[t]:
                healthy_streak += 1
            else:
                healthy_streak = 0
            if (healthy_streak >= machine.policy.failback_hold_intervals
                    and t == machine._next_tick(t)):
                on_backup = False
                trace.failbacks += 1

        if on_backup:
            if b_ok[t]:
                serving[t] = machine.backup
                throughput[t] = machine.backup_rate
            else:
                serving[t] = -1
                throughput[t] = machine.direct_rate
        elif p_ok[t]:
            serving[t] = machine.primary
            throughput[t] = machine.primary_rate
        else:
            serving[t] = -1
            throughput[t] = machine.direct_rate
    return trace


def build_timeline(seed, num_steps, storm,
                   step_s=DEFAULT_SOUNDING_INTERVAL_S):
    """``relay_outage_timeline`` without the memo: one supervisor run
    per call, reporting to the ambient collector as it goes."""
    if isinstance(storm, dict):
        storm = RelayFaultStorm(**storm)
    num_steps = int(num_steps)
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
    return RelayTimeline(relaying=relaying, events=tuple(supervisor.events),
                         step_s=step_s)
