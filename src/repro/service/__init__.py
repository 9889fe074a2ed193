"""Always-on relay service: sessions, fair scheduling, live health.

The fifth major subsystem: everything before this package runs a
world and exits; :mod:`repro.service` keeps a relay *serving* — many
concurrent client sessions streaming IQ frames through shared,
memoised relay chains, with explicit backpressure, per-tenant weighted
fair scheduling, supervisor-driven degradation under fault storms, and
continuously refreshed health output.

Layout::

    session.py    ClientSession lifecycle + seeded traffic generators
    scheduler.py  ChainPool, bounded queues, deficit round-robin
    storms.py     SI-jump storms driving the PR 2 supervisor ladder
    health.py     ServiceStatus snapshots, probe refresh, StatusWriter
    server.py     ServicePump (virtual time) + RelayService (asyncio)
    loadtest.py   open-loop load generator + LoadTestReport
"""

from repro.service.health import (
    ServiceStatus,
    StatusWriter,
    latency_summary,
    refresh_probes,
)
from repro.service.loadtest import (
    LoadTestConfig,
    LoadTestReport,
    run_loadtest,
)
from repro.service.scheduler import (
    ChainEntry,
    ChainPool,
    FrameEvent,
    FrameEventKind,
    SchedulerPolicy,
    ServiceScheduler,
)
from repro.service.server import (
    PumpConfig,
    RelayService,
    ServeConfig,
    ServicePump,
    build_service,
    run_once,
)
from repro.service.session import (
    ClientSession,
    SessionEvent,
    SessionEventKind,
    SessionState,
    TrafficConfig,
    make_sessions,
)
from repro.service.storms import (
    InjectedSiStage,
    ServiceStorm,
    StormConfig,
    StormWindow,
)

__all__ = [
    "ChainEntry",
    "ChainPool",
    "ClientSession",
    "FrameEvent",
    "FrameEventKind",
    "InjectedSiStage",
    "LoadTestConfig",
    "LoadTestReport",
    "PumpConfig",
    "RelayService",
    "SchedulerPolicy",
    "ServeConfig",
    "ServiceScheduler",
    "ServiceStatus",
    "ServiceStorm",
    "ServicePump",
    "SessionEvent",
    "SessionEventKind",
    "SessionState",
    "StatusWriter",
    "StormConfig",
    "StormWindow",
    "TrafficConfig",
    "build_service",
    "latency_summary",
    "make_sessions",
    "refresh_probes",
    "run_loadtest",
    "run_once",
]
