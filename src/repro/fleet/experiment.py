"""``fleet_experiment``: the whole district as one exec-engine sweep.

Sharding unit is the *cell*: all clients whose primary is one relay.
A ``fleet.cell-block`` task carries only plan scalars (client indices,
precomputed rates, relay ids) plus the storm seed — every relay
timeline it needs (its own primary's and each client's backup's) is
derived locally from :func:`repro.fleet.reroute.relay_timeline_seed`,
so tasks are pure functions of their params and the sweep inherits the
full exec stack for free: process/serial bit-identity, content-
addressed caching, manifest checkpoints and PR 7 chaos recovery.
Cells share relays (a relay is one cell's primary and other cells'
backup), and :func:`~repro.fleet.reroute.relay_outage_timeline`
memoises per process, so each process runs a relay's supervisor once
per sweep however many cells ask for it; :func:`fleet_experiment`
clears that memo on entry, so every sweep starts cold.

The driver plans the district (generation + association are
vectorised, deterministic driver-side work), fans the cells out over
:func:`repro.exec.run_sweep`, then folds the rows into the three
aggregate CDFs the ROADMAP asks for — per-client throughput, rescue
rate, reroute latency in sounding intervals — and the ``fleet.*``
telemetry family.
"""

from __future__ import annotations

import numpy as np

from repro.exec import Task, run_sweep, task_fn
from repro.fleet.association import build_candidate_table, make_policy
from repro.fleet.district import District, DistrictConfig
from repro.fleet.reroute import (
    ClientRerouteMachine,
    FleetReroutePolicy,
    RelayFaultStorm,
    clear_timeline_memo,
    relay_outage_timeline,
    relay_timeline_seed,
)
from repro.telemetry.collector import current_collector

#: Percentiles reported by every CDF summary.
CDF_PERCENTILES = (5, 10, 25, 50, 75, 90, 95, 99)


def cdf_summary(values):
    """Percentile summary of a sample (the committed-benchmark form)."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0,
                "percentiles": {}}
    return {
        "count": int(values.size),
        "mean": float(values.mean()),
        "min": float(values.min()),
        "max": float(values.max()),
        "percentiles": {str(p): float(np.percentile(values, p))
                        for p in CDF_PERCENTILES},
    }


@task_fn("fleet.cell-block", version="1")
def _fleet_cell_block(storm_seed, num_steps, storm, policy, clients):
    """Simulate one relay cell: every client whose primary is one relay.

    ``clients`` rows are ``(client, primary, backup, direct_rate,
    primary_rate, backup_rate)`` plan tuples; ``storm``/``policy`` are
    the plain-dict forms of :class:`RelayFaultStorm` /
    :class:`FleetReroutePolicy`.  Relay timelines come from
    ``relay_timeline_seed(storm_seed, relay)`` — identical in any
    worker — through the per-process timeline memo, so a relay another
    cell of this process already needed costs a lookup, not a
    supervisor run; each timeline's outage spans are parsed once.
    """
    storm = RelayFaultStorm(**storm)
    policy = FleetReroutePolicy(**policy)
    num_steps = int(num_steps)

    needed = {int(row[1]) for row in clients}
    needed.update(int(row[2]) for row in clients if int(row[2]) >= 0)
    timelines = {
        relay: relay_outage_timeline(
            relay_timeline_seed(storm_seed, relay), num_steps, storm)
        for relay in sorted(needed)
    }

    rows = []
    for client, primary, backup, direct, p_rate, b_rate in clients:
        machine = ClientRerouteMachine(
            policy, client, direct_rate=direct, primary_rate=p_rate,
            backup_rate=b_rate, primary=primary, backup=backup)
        trace = machine.run(timelines[int(primary)],
                            timelines.get(int(backup)), num_steps)
        outages = timelines[int(primary)].outages(num_steps)
        # Outages whose bounded switch window fits inside the horizon:
        # each one MUST produce a reroute (the coverage gate downstream).
        reroutable = sum(1 for start, _ in outages
                         if start + policy.max_reroute_intervals
                         <= num_steps)
        rows.append({
            "client": int(client),
            "primary": int(primary),
            "backup": int(backup),
            "mean_mbps": trace.mean_mbps,
            "latencies": tuple(ev.latency_intervals
                               for ev in trace.reroutes),
            "rescued": tuple(bool(ev.rescued) for ev in trace.reroutes),
            "failbacks": int(trace.failbacks),
            "primary_outages": len(outages),
            "reroutable_outages": int(reroutable),
        })
    return rows


def _plan_tasks(plan, storm, policy, storm_seed, num_steps):
    """One ``fleet.cell-block`` task per relay that serves any client."""
    cells = {}
    for p in plan.clients:
        cells.setdefault(p.primary, []).append(
            (p.client, p.primary, p.backup, p.direct_rate_mbps,
             p.primary_rate_mbps, p.backup_rate_mbps))
    return [
        Task("fleet.cell-block",
             {"storm_seed": int(storm_seed), "num_steps": int(num_steps),
              "storm": storm.as_dict(), "policy": policy.as_dict(),
              "clients": tuple(cells[relay])})
        for relay in sorted(cells)
    ]


def _coerce_storm(storm):
    """Accept ``None`` (calm), a rate, a dict, or a RelayFaultStorm."""
    if storm is None:
        return RelayFaultStorm(rate=0.0)
    if isinstance(storm, RelayFaultStorm):
        return storm
    if isinstance(storm, dict):
        return RelayFaultStorm(**storm)
    return RelayFaultStorm(rate=float(storm))


def fleet_experiment(rows=4, cols=4, clients_per_home=4, seed=0,
                     policy="hashed-lb", policy_kwargs=None,
                     storm=0.25, storm_seed=None, num_steps=240,
                     reroute=None, config=None,
                     jobs=None, cache=None, backend=None, checkpoint=None,
                     max_retries=None, task_timeout=None, chaos=None):
    """Run a full district sweep and fold the fleet-level aggregates.

    Generates the seeded district, runs the chosen association policy,
    shards the deployment into per-relay ``fleet.cell-block`` tasks on
    :func:`repro.exec.run_sweep`, and returns plain arrays plus CDF
    summaries.  ``storm`` is a fault-storm rate (or a full
    :class:`RelayFaultStorm`); ``reroute`` a
    :class:`FleetReroutePolicy` (default timings when ``None``).

    The returned ``latency_bound_intervals`` is the policy's hard
    bound: every observed ``reroute_latency_intervals`` entry is
    ``<=`` it by construction, and the test/bench layers assert so.

    The per-process relay timeline memo is cleared on entry, so the
    sweep's cost never depends on what ran before it in this process.
    """
    clear_timeline_memo()
    cfg = config if config is not None else DistrictConfig(
        rows=rows, cols=cols, clients_per_home=clients_per_home, seed=seed)
    storm = _coerce_storm(storm)
    reroute = reroute if reroute is not None else FleetReroutePolicy()
    storm_seed = int(storm_seed) if storm_seed is not None \
        else int(cfg.seed) * 7919 + 8008

    collector = current_collector()
    with collector.span("fleet.experiment", policy=policy,
                        relays=cfg.num_homes, clients=cfg.num_clients):
        district = District(cfg)
        table = build_candidate_table(district)
        plan = make_policy(policy, **(policy_kwargs or {})).assign(
            district, table)

        tasks = _plan_tasks(plan, storm, reroute, storm_seed, num_steps)
        sweep = run_sweep(tasks, jobs=jobs, backend=backend, cache=cache,
                          checkpoint=checkpoint, max_retries=max_retries,
                          task_timeout=task_timeout, chaos=chaos)

        throughput = np.zeros(district.num_clients)
        latencies, rescued_flags = [], []
        failbacks = outage_relay_count = 0
        muted_clients = unrerouted = 0
        seen_primaries = set()
        for cell in sweep.results:
            for row in cell:
                throughput[row["client"]] = row["mean_mbps"]
                latencies.extend(row["latencies"])
                rescued_flags.extend(row["rescued"])
                failbacks += row["failbacks"]
                if row["backup"] >= 0 and row["reroutable_outages"]:
                    muted_clients += 1
                    if not row["latencies"]:
                        unrerouted += 1
                if row["primary"] not in seen_primaries:
                    seen_primaries.add(row["primary"])
                    if row["primary_outages"]:
                        outage_relay_count += 1

        latencies = np.asarray(latencies, dtype=int)
        rescued_flags = np.asarray(rescued_flags, dtype=bool)
        rescue_rate = float(rescued_flags.mean()) if rescued_flags.size \
            else 1.0

        collector.counter("fleet.clients").inc(district.num_clients)
        collector.counter("fleet.relays").inc(district.num_relays)
        collector.counter("fleet.reroute.events").inc(int(latencies.size))
        collector.counter("fleet.reroute.rescued").inc(
            int(rescued_flags.sum()))
        collector.gauge("fleet.rescue_rate").set(rescue_rate)
        latency_hist = collector.histogram("fleet.reroute.latency_intervals",
                                           unit="intervals")
        for value in latencies:
            latency_hist.observe(int(value))

        return {
            "policy": plan.policy,
            "num_relays": district.num_relays,
            "num_clients": district.num_clients,
            "num_steps": int(num_steps),
            "storm": storm.as_dict(),
            "relay_load": plan.relay_load,
            "throughput_mbps": throughput,
            "reroute_latency_intervals": latencies,
            "rescued": rescued_flags,
            "rescue_rate": rescue_rate,
            "reroutes": int(latencies.size),
            "failbacks": int(failbacks),
            "outage_relays": int(outage_relay_count),
            "muted_clients": int(muted_clients),
            "unrerouted_muted_clients": int(unrerouted),
            "latency_bound_intervals": int(reroute.max_reroute_intervals),
            "max_latency_intervals": int(latencies.max())
            if latencies.size else 0,
            "throughput_cdf": cdf_summary(throughput),
            "latency_cdf": cdf_summary(latencies),
        }
