"""Open-loop load generation against the deterministic service core.

A load test is just :func:`repro.service.server.run_once` plus
measurement: the generator half already lives in the sessions (seeded
Poisson/CBR arrivals, drawn whatever the service does, which makes the
loop open), so this module builds a saturating population, runs the
pump in virtual time, and reduces the result to a
:class:`LoadTestReport` — offered vs. carried load, shed rate and
reasons, sessions/sec sustained, p50/p99 stage latency, per-tenant
fairness under saturation, and the SHA-256 digest of the typed event
log (two runs with the same config must produce the same digest; the
bench gates on it).

Everything here is virtual-time deterministic except the
``process_ns`` wall-clock histogram, which is measurement, not
schedule — it never influences ordering.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.service.health import latency_summary
from repro.service.server import ServeConfig, run_once
from repro.telemetry import percentiles


@dataclass
class LoadTestConfig:
    """A load-test scenario: a service config plus measurement knobs."""

    serve: ServeConfig = field(default_factory=ServeConfig)
    #: Run the scenario twice and require identical event digests.
    check_determinism: bool = True

    @classmethod
    def saturating(cls, sessions=120, tenants=4, seed=2014,
                   rate_fps=30.0, duration_s=1.0, capacity_per_tick=12,
                   storm_rate_per_s=0.0, **kwargs):
        """A population that offers more than the service can carry.

        The defaults offer ``120 * 30 = 3600`` frames/s against a
        dispatch capacity of ``12 / 0.005 = 2400`` frames/s, so queues
        hit the high-water mark and the service sheds — which is what
        the fairness gate needs: DRR only shows its teeth when tenants
        compete.
        """
        return cls(serve=ServeConfig(
            sessions=sessions, tenants=tenants, seed=seed,
            rate_fps=rate_fps, duration_s=duration_s,
            capacity_per_tick=capacity_per_tick,
            storm_rate_per_s=storm_rate_per_s, **kwargs))


@dataclass
class LoadTestReport:
    """The measured outcome of one load-test run."""

    config: dict
    duration_s: float
    sessions: dict
    frames: dict
    shed_reasons: dict
    tenants: dict
    fairness: dict
    latency: dict
    supervisor: dict
    event_digest: str
    deterministic: bool = None
    conserved: bool = False
    slo: dict = field(default_factory=dict)

    def as_dict(self):
        return {"config": self.config, "duration_s": self.duration_s,
                "sessions": self.sessions, "frames": self.frames,
                "shed_reasons": self.shed_reasons, "tenants": self.tenants,
                "fairness": self.fairness, "latency": self.latency,
                "supervisor": self.supervisor,
                "event_digest": self.event_digest,
                "deterministic": self.deterministic,
                "conserved": self.conserved, "slo": self.slo}


def _measure(pump, tel):
    """Reduce a completed pump to report fields."""
    sched = pump.scheduler
    duration = max(pump.now_s, 1e-9)
    closed = sum(1 for s in pump.sessions if s.state.value == "closed")
    per_tenant = {}
    for session in pump.sessions:
        row = per_tenant.setdefault(session.tenant,
                                    {"sessions": 0, "offered": 0,
                                     "admitted": 0, "processed": 0,
                                     "shed": 0})
        row["sessions"] += 1
        row["offered"] += session.offered
        row["admitted"] += session.admitted
        row["processed"] += session.processed
        row["shed"] += session.shed
    shed_reasons = {}
    for event in sched.events:
        if event.kind.value == "shed":
            reason = event.detail.get("reason", "?")
            shed_reasons[reason] = shed_reasons.get(reason, 0) + 1
    # Fairness: equal-weight tenants should carry near-equal load when
    # the service saturates.  Deviation is measured on processed frames
    # against the tenant-mean.
    processed = [row["processed"] for row in per_tenant.values()]
    fair = sum(processed) / len(processed) if processed else 0.0
    deviation = (max(abs(p - fair) for p in processed) / fair
                 if fair > 0 else 0.0)
    latency = {"queue": latency_summary(sched.queue_wait_s)}
    hist = tel.histogram("service.latency.process_ns", unit="ns")
    if hist.count:
        p50_ns, p99_ns = percentiles(hist, (50, 99))
        latency["process"] = {"count": int(hist.count),
                              "p50_ms": p50_ns / 1e6,
                              "p99_ms": p99_ns / 1e6}
    ladder = {"chains": len(sched.pool.entries()),
              "si_jumps": sum(e.stage.jump_count
                              for e in sched.pool.entries()),
              "mutes": 0, "recoveries": 0}
    for entry in sched.pool.entries():
        kinds = [ev.kind.value for ev in entry.supervisor.events]
        ladder["mutes"] += kinds.count("fallback-half-duplex")
        ladder["recoveries"] += kinds.count("recovered")
    engine = pump.slo_engine
    slo = {}
    if engine is not None:
        stream = engine.alert_stream()
        slo = {"firing": engine.firing,
               "alert_count": len(stream),
               "firing_count": sum(1 for a in stream
                                   if a["kind"] == "firing"),
               "alerts": stream}
    return {
        "slo": slo,
        "sessions": {"requested": len(pump.sessions), "closed": closed,
                     "rejected": sched.rejected_sessions,
                     "per_second": closed / duration},
        "frames": {"offered": sched.offered, "admitted": sched.admitted,
                   "processed": sched.processed, "shed": sched.shed,
                   "rejected": sched.rejected_frames,
                   "offered_fps": sched.offered / duration,
                   "carried_fps": sched.processed / duration,
                   "shed_rate": (sched.shed / sched.admitted
                                 if sched.admitted else 0.0)},
        "shed_reasons": shed_reasons,
        "tenants": per_tenant,
        "fairness": {"fair_share": fair, "max_deviation": deviation},
        "latency": latency,
        "supervisor": ladder,
        "duration_s": duration,
    }


def run_loadtest(config: LoadTestConfig = None):
    """Run the scenario (twice if checking determinism) and report."""
    config = config or LoadTestConfig()
    pump, tel = run_once(config.serve)
    digest = pump.scheduler.event_digest()
    deterministic = None
    if config.check_determinism:
        pump2, _ = run_once(config.serve)
        deterministic = pump2.scheduler.event_digest() == digest
    fields = _measure(pump, tel)
    conserved = True
    try:
        pump.scheduler.check_conservation()
    except AssertionError:
        conserved = False
    report = LoadTestReport(
        config={k: getattr(config.serve, k)
                for k in ("sessions", "tenants", "chains", "seed",
                          "rate_fps", "frame_samples", "duration_s",
                          "capacity_per_tick", "queue_high_water",
                          "storm_rate_per_s")},
        event_digest=digest, deterministic=deterministic,
        conserved=conserved, **fields)
    return report, pump
