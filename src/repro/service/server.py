"""The service itself: a deterministic pump inside an asyncio shell.

Determinism is the design constraint: load tests and CI must be able
to assert bit-identical typed event logs for a fixed seed, which rules
out letting wall-clock jitter order anything.  So the service core is
:class:`ServicePump` — a *synchronous* tick loop over virtual time.
Each tick it admits due sessions, activates sounded ones, offers due
frames (in (session, frame-index) order), dispatches a bounded budget
of frames through the DRR scheduler, and periodically snapshots
status.  Run to completion in a plain loop, it IS the load test.

:class:`RelayService` is the thin asyncio shell for ``repro serve``:
it advances the same pump one tick per ``asyncio.sleep(tick_s)``, so
wall time paces the loop but never reorders it, and a Ctrl-C lands as
a clean drain (every queued frame resolves, with typed SHED events for
anything given up) instead of a stack trace.
"""

from __future__ import annotations

import asyncio
import heapq

from dataclasses import dataclass

from repro.obs.series import SeriesRecorder
from repro.obs.slo import SloEngine, default_service_slos
from repro.service.health import ServiceStatus, StatusWriter, refresh_probes
from repro.service.scheduler import (
    ChainPool,
    SchedulerPolicy,
    ServiceScheduler,
)
from repro.service.session import SessionState, TrafficConfig, make_sessions
from repro.service.storms import ServiceStorm, StormConfig
from repro.telemetry.collector import TelemetryCollector, use_collector


@dataclass
class PumpConfig:
    """Tick loop knobs."""

    #: Virtual-time step.  Everything the pump does is quantised to it.
    tick_s: float = 0.005
    #: Dispatch budget per tick (frames); ``None`` means drain fully —
    #: set it below the offered rate to model an overloaded service.
    capacity_per_tick: int = None
    #: Extra ticks after the last arrival for queues to drain.
    drain_ticks: int = 80
    #: Virtual cadence of status snapshots (``None``: only at the end).
    status_interval_s: float = None
    #: Virtual cadence of probe refreshes (``None``: once, at the end).
    probe_interval_s: float = None

    def __post_init__(self):
        if self.tick_s <= 0:
            raise ValueError("tick_s must be > 0")
        if self.capacity_per_tick is not None and self.capacity_per_tick < 1:
            raise ValueError("capacity_per_tick must be >= 1 or None")


class ServicePump:
    """Deterministic tick-driven service core (see module docstring)."""

    def __init__(self, scheduler: ServiceScheduler, sessions, storm=None,
                 config: PumpConfig = None, status_writer: StatusWriter = None):
        self.scheduler = scheduler
        self.sessions = list(sessions)
        self.config = config or PumpConfig()
        self.status_writer = status_writer
        #: Rolling virtual-time series + the stock burn-rate SLOs.
        self.series = SeriesRecorder()
        self.slo_engine = SloEngine(default_service_slos())
        self.now_s = 0.0
        self.ticks = 0
        self._last_status_s = None
        self._last_probe_s = None
        self._prev_counts = (0, 0)      # (admitted, shed) at last sample
        if storm is not None:
            scheduler.pool.attach_storm(storm)
        self.storm = storm
        # Per-session arrival cursors, fixed order = deterministic order.
        self._cursors = [0] * len(self.sessions)
        self._arrivals = [s.arrivals_s for s in self.sessions]
        # The sessions a tick visits: the ones still to be admitted or
        # activated (indices, in session order), and the active ones
        # whose next arrival is due (a heap of (arrival, index)).  Any
        # other session would do nothing in the tick, so it is skipped.
        self._waiting = list(range(len(self.sessions)))
        self._next_arrivals = []

    # -- schedule introspection --------------------------------------------

    @property
    def horizon_s(self):
        """Virtual time of the last scheduled arrival."""
        last = [a[-1] for a in self._arrivals if len(a)]
        return max(last) if last else 0.0

    @property
    def done(self):
        """All arrivals offered and every queue drained."""
        return (all(c >= len(a) for c, a in
                    zip(self._cursors, self._arrivals))
                and self.scheduler.queue_depth() == 0)

    # -- the tick ----------------------------------------------------------

    def step(self, now_s=None):
        """Advance one tick; returns frames resolved this tick."""
        now_s = self.now_s if now_s is None else float(now_s)
        sched = self.scheduler
        sounding_s = sched.policy.sounding_s
        heap = self._next_arrivals
        visit = self._waiting
        while heap and heap[0][0] <= now_s:
            visit.append(heapq.heappop(heap)[1])
        visit.sort()            # session order, as a full scan visits
        self._waiting = []
        for i in visit:
            session = self.sessions[i]
            start = session.traffic.start_s
            if (session.state is SessionState.PENDING
                    and now_s >= start - sounding_s):
                sched.admit_session(session, now_s)
            if (session.state is SessionState.SOUNDING
                    and now_s >= start):
                session.activate(now_s)
            if session.state is SessionState.ACTIVE:
                arrivals = self._arrivals[i]
                while (self._cursors[i] < len(arrivals)
                       and arrivals[self._cursors[i]] <= now_s):
                    sched.offer(now_s, session, self._cursors[i])
                    self._cursors[i] += 1
                if self._cursors[i] < len(arrivals):
                    heapq.heappush(heap, (arrivals[self._cursors[i]], i))
            elif session.state in (SessionState.PENDING,
                                   SessionState.SOUNDING):
                self._waiting.append(i)
        served = sched.dispatch(now_s,
                                max_frames=self.config.capacity_per_tick)
        self._sample_series(now_s)
        self._maybe_observe(now_s)
        self.now_s = now_s + self.config.tick_s
        self.ticks += 1
        return served

    def _sample_series(self, now_s):
        """Record the virtual-time series and evaluate SLOs this tick.

        Everything sampled here is derived from virtual time and the
        deterministic scheduler state — never from wall clocks — so
        same-seed runs produce bit-identical series and alert streams.
        """
        from repro.telemetry import percentiles

        sched = self.scheduler
        waits = sched.queue_wait_s[-256:]
        (p99,) = percentiles([w * 1.0 for w in waits], (99,)) \
            if waits else (0.0,)
        self.series.sample("service.queue_wait_p99_s", now_s, p99, unit="s")
        prev_admitted, prev_shed = self._prev_counts
        d_admitted = sched.admitted - prev_admitted
        d_shed = sched.shed - prev_shed
        self._prev_counts = (sched.admitted, sched.shed)
        if d_admitted > 0:
            shed_rate = d_shed / d_admitted
        else:
            shed_rate = 1.0 if d_shed > 0 else 0.0
        self.series.sample("service.shed_rate", now_s, shed_rate)
        entries = sched.pool.entries()
        availability = (sum(1 for e in entries if e.relaying) / len(entries)
                        if entries else 1.0)
        self.series.sample("service.chain_availability", now_s, availability)
        self.series.sample("service.queue_depth", now_s,
                           sched.queue_depth())
        self.slo_engine.evaluate(self.series, now_s)

    def _maybe_observe(self, now_s):
        cfg = self.config
        if (cfg.probe_interval_s is not None
                and (self._last_probe_s is None
                     or now_s - self._last_probe_s >= cfg.probe_interval_s)):
            refresh_probes(self.scheduler.pool)
            self._last_probe_s = now_s
        if (self.status_writer is not None
                and cfg.status_interval_s is not None
                and (self._last_status_s is None
                     or now_s - self._last_status_s
                     >= cfg.status_interval_s)):
            self.write_status(now_s)
            self._last_status_s = now_s

    def write_status(self, now_s=None):
        """Snapshot now (independent of the periodic cadence)."""
        if self.status_writer is None:
            return None
        status = ServiceStatus.capture(self.scheduler,
                                       self.now_s if now_s is None
                                       else now_s,
                                       slo_engine=self.slo_engine)
        return self.status_writer.write(status, series=self.series)

    # -- drive to completion ------------------------------------------------

    def run(self, horizon_s=None):
        """Run the virtual clock until all traffic resolves, then drain."""
        horizon = self.horizon_s if horizon_s is None else float(horizon_s)
        while self.now_s <= horizon or not self.done:
            if self.now_s > horizon + self.config.drain_ticks * \
                    self.config.tick_s:
                break               # bounded drain: give up, shed below
            self.step()
        self.drain()
        return self

    def drain(self):
        """Resolve or shed everything left; close every open session."""
        sched = self.scheduler
        now_s = self.now_s
        for session in self.sessions:
            if session.state is SessionState.ACTIVE:
                session.drain(now_s)
        # One final full dispatch with no budget cap, then shed the rest.
        sched.dispatch(now_s, max_frames=None)
        sched.flush(now_s, reason="drain")
        self._sample_series(now_s)
        refresh_probes(sched.pool)
        self.write_status(now_s)
        for session in self.sessions:
            if session.state in (SessionState.SOUNDING, SessionState.ACTIVE,
                                 SessionState.DRAINING):
                sched.close_session(session, now_s)
        sched.check_conservation()
        return self


class RelayService:
    """Asyncio shell: the same pump, paced by the wall clock."""

    def __init__(self, pump: ServicePump):
        self.pump = pump
        self._stop = None

    def request_stop(self):
        if self._stop is not None:
            self._stop.set()

    async def run(self):
        """Serve until traffic completes or :meth:`request_stop`."""
        self._stop = asyncio.Event()
        tick = self.pump.config.tick_s
        horizon = self.pump.horizon_s
        grace = horizon + self.pump.config.drain_ticks * tick
        try:
            while not self._stop.is_set():
                self.pump.step()
                if self.pump.now_s > horizon and self.pump.done:
                    break
                if self.pump.now_s > grace:
                    break
                try:
                    await asyncio.wait_for(self._stop.wait(), timeout=tick)
                except asyncio.TimeoutError:
                    pass
        finally:
            self.pump.drain()

    def serve_forever(self):
        """Blocking entry point; Ctrl-C drains instead of crashing."""
        try:
            asyncio.run(self.run())
        except KeyboardInterrupt:
            self.pump.drain()
        return self.pump


# ---------------------------------------------------------------------------
# One-call construction (CLI + smoke tests)
# ---------------------------------------------------------------------------

@dataclass
class ServeConfig:
    """Everything ``repro serve`` needs to build a service."""

    sessions: int = 16
    tenants: int = 2
    chains: int = 2
    seed: int = 2014
    rate_fps: float = 40.0
    frame_samples: int = 256
    duration_s: float = 0.5
    queue_high_water: int = 64
    quantum_samples: int = 512
    max_sessions: int = 1024
    capacity_per_tick: int = None
    tick_s: float = 0.005
    status_interval_s: float = None
    probe_interval_s: float = None
    storm_rate_per_s: float = 0.0
    storm_duration_s: float = 0.3


def build_service(config: ServeConfig, status_dir=None):
    """Construct (pump, collector) from a :class:`ServeConfig`.

    The pump records into whatever collector is ambient while it runs;
    install the returned one (``with use_collector(tel):``) to capture
    the service's telemetry, as :func:`run_once` and ``repro serve`` do.
    The pump's series and SLO state land in ``status.json`` and the
    link-health page whenever a status dir is configured.
    """
    tel = TelemetryCollector(origin="service")
    tenants = tuple(f"tenant-{i}" for i in range(config.tenants))
    chain_keys = tuple(f"chain-{i}" for i in range(config.chains))
    traffic = TrafficConfig(rate_fps=config.rate_fps,
                            frame_samples=config.frame_samples,
                            start_s=0.05, duration_s=config.duration_s)
    sessions = make_sessions(config.sessions, tenants=tenants,
                             seed=config.seed, traffic=traffic,
                             chain_keys=chain_keys)
    pool = ChainPool(seed=config.seed)
    policy = SchedulerPolicy(queue_high_water=config.queue_high_water,
                             quantum_samples=config.quantum_samples,
                             max_sessions=config.max_sessions)
    scheduler = ServiceScheduler(policy=policy, pool=pool)
    storm = None
    if config.storm_rate_per_s > 0:
        # Windows only matter while traffic flows; pad one storm
        # length so a late window can still open before the drain.
        horizon = 0.05 + config.duration_s + config.storm_duration_s
        storm = ServiceStorm.seeded(
            StormConfig(seed=config.seed, rate_per_s=config.storm_rate_per_s,
                        duration_s=config.storm_duration_s,
                        horizon_s=horizon),
            chain_keys)
    writer = StatusWriter(status_dir) if status_dir is not None else None
    pump_config = PumpConfig(tick_s=config.tick_s,
                             capacity_per_tick=config.capacity_per_tick,
                             status_interval_s=config.status_interval_s,
                             probe_interval_s=config.probe_interval_s)
    pump = ServicePump(scheduler, sessions, storm=storm, config=pump_config,
                       status_writer=writer)
    return pump, tel


def run_once(config: ServeConfig = None, status_dir=None):
    """Build a service and run it to completion in virtual time.

    The load-test harness comes through here; the returned pump's
    scheduler holds the typed event logs and the conservation ledger,
    and the returned collector everything it recorded.
    """
    pump, tel = build_service(config or ServeConfig(),
                              status_dir=status_dir)
    with use_collector(tel):
        pump.run()
    return pump, tel
