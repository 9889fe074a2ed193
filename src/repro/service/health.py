"""Continuous observability for the running service.

Three layers, cheapest first:

* :class:`ServiceStatus` — a point-in-time snapshot of the scheduler:
  session counts by state, the frame-conservation ledger, per-tenant
  queue depths, p50/p99 latency (queue wait in virtual time, process
  wall time from the ``service.latency.process_ns`` histogram) and
  per-chain supervisor state.  Serialises to a plain dict.
* :func:`refresh_probes` — runs a short seeded reference frame through
  every chain in the pool with a :class:`repro.probes.ProbeSet`
  attached, so the PR 5 ``probes.*`` link-health aggregates (EVM, SNR,
  stage power) stay fresh while the service runs.
* :class:`StatusWriter` — writes ``status.json`` plus the PR 5
  ``link_health.html`` report into ``--status-dir`` *atomically*
  (:func:`repro.utils.atomic.atomic_replace`), so a dashboard polling
  the directory never reads a torn file.
"""

from __future__ import annotations

import json
import os

from dataclasses import dataclass, field

import numpy as np

from repro.probes import ProbeSet, make_reference_frame
from repro.probes.html_report import write_html_report
from repro.service.session import SessionState
from repro.telemetry import percentiles
from repro.utils.atomic import atomic_replace


def latency_summary(values_s):
    """p50/p99/max (milliseconds) of a list of seconds."""
    if not len(values_s):
        return {"count": 0, "p50_ms": 0.0, "p99_ms": 0.0, "max_ms": 0.0}
    ms = [float(v) * 1e3 for v in values_s]
    p50, p99 = percentiles(ms, (50, 99))
    return {"count": len(ms), "p50_ms": p50, "p99_ms": p99,
            "max_ms": max(ms)}


@dataclass
class ServiceStatus:
    """One snapshot of the service, as written to ``status.json``."""

    time_s: float
    sessions: dict = field(default_factory=dict)
    frames: dict = field(default_factory=dict)
    queues: dict = field(default_factory=dict)
    latency: dict = field(default_factory=dict)
    chains: list = field(default_factory=list)
    slo: dict = None

    @classmethod
    def capture(cls, scheduler, now_s, telemetry=None, slo_engine=None):
        """Snapshot ``scheduler`` (and its chain pool) at ``now_s``."""
        by_state = {state.value: 0 for state in SessionState}
        for session in scheduler.sessions.values():
            by_state[session.state.value] += 1
        queues = {name: scheduler.queue_depth(name)
                  for name in scheduler.tenant_names()}
        latency = {"queue": latency_summary(scheduler.queue_wait_s)}
        if telemetry is not None:
            hist = telemetry.histogram("service.latency.process_ns",
                                       unit="ns")
            if hist.count:
                latency["process"] = {
                    "count": int(hist.count),
                    "p50_ms": hist.percentile(50) / 1e6,
                    "p99_ms": hist.percentile(99) / 1e6,
                    "max_ms": hist.max / 1e6}
        chains = [{"key": entry.key,
                   "state": entry.supervisor.state.value,
                   "relaying": bool(entry.relaying),
                   "residual_si_db": float(entry.stage.residual_si_db),
                   "si_jumps": int(entry.stage.jump_count),
                   "frames": int(entry.frames)}
                  for entry in scheduler.pool.entries()]
        return cls(
            time_s=float(now_s),
            sessions={"by_state": by_state,
                      "active": scheduler.active_sessions,
                      "rejected": scheduler.rejected_sessions},
            frames={"offered": scheduler.offered,
                    "admitted": scheduler.admitted,
                    "processed": scheduler.processed,
                    "shed": scheduler.shed,
                    "rejected": scheduler.rejected_frames,
                    "queued": scheduler.queue_depth()},
            queues=queues, latency=latency, chains=chains,
            slo=slo_engine.status() if slo_engine is not None else None)

    def as_dict(self):
        out = {"time_s": self.time_s, "sessions": self.sessions,
               "frames": self.frames, "queues": self.queues,
               "latency": self.latency, "chains": self.chains}
        if self.slo is not None:
            out["slo"] = self.slo
        return out


def refresh_probes(pool, telemetry=None, n_symbols=8, seed=1905):
    """Run a probed reference frame through every chain in ``pool``.

    Keeps the ``probes.*`` link-health family (EVM, SNR, per-stage
    power) current for the HTML report without touching client
    traffic.  Returns the number of chains probed.
    """
    probed = 0
    for entry in pool.entries():
        params = entry.relay.config.params
        rng = np.random.default_rng((seed, probed))
        reference = make_reference_frame(params, n_symbols=n_symbols,
                                         rng=rng)
        probes = ProbeSet(params, reference=reference)
        entry.relay.process(reference.iq, faults=[entry.stage],
                            telemetry=telemetry, probes=probes)
        probed += 1
    return probed


def slo_html_section(slo_status):
    """The SLO burn-rate table as an HTML fragment (no scripts).

    Takes the ``SloEngine.status()`` dict and renders one row per
    (SLO, window) pair, coloured by firing state, plus the most recent
    alert transitions — passed to ``render_html_report`` via its
    ``extra_sections`` hook.
    """
    import html as _html

    if not slo_status or not slo_status.get("state"):
        return ""
    rows = []
    for name in sorted(slo_status["state"]):
        state = slo_status["state"][name]
        latest = state.get("latest")
        latest_s = f"{latest:.4g}" if latest is not None else "–"
        for window in state.get("windows", ()):
            color = "#dc2626" if window["firing"] else "#059669"
            label = "FIRING" if window["firing"] else "ok"
            rows.append(
                f"<tr><td style=\"text-align:left\">"
                f"{_html.escape(name)}</td>"
                f"<td>{_html.escape(state['objective'])} "
                f"{state['target']:g}</td>"
                f"<td>{latest_s}</td>"
                f"<td>{window['long_s']:g}s/{window['short_s']:g}s</td>"
                f"<td>{window['burn_long']:.2f}</td>"
                f"<td>{window['burn_short']:.2f}</td>"
                f"<td>{window['threshold']:g}</td>"
                f"<td style=\"color:{color}\">{label} "
                f"({_html.escape(window['severity'])})</td></tr>")
    alerts = slo_status.get("alerts", [])
    alert_rows = "".join(
        f"<tr><td>{a['time_s']:.3f}</td>"
        f"<td style=\"text-align:left\">{_html.escape(a['slo'])}</td>"
        f"<td>{_html.escape(a['severity'])}</td>"
        f"<td>{_html.escape(a['kind'])}</td>"
        f"<td>{a['burn_long']:.2f}</td><td>{a['burn_short']:.2f}</td></tr>"
        for a in alerts[-12:])
    alert_table = (
        "<table><thead><tr><th>t (s)</th><th>SLO</th><th>severity</th>"
        "<th>transition</th><th>burn long</th><th>burn short</th></tr>"
        f"</thead><tbody>{alert_rows}</tbody></table>"
        if alert_rows else "<p class=\"meta\">no alert transitions</p>")
    firing = slo_status.get("firing", [])
    firing_s = ", ".join(firing) if firing else "none"
    return (
        "<h2>Service-level objectives</h2>"
        f"<p class=\"meta\">firing: {_html.escape(firing_s)}</p>"
        "<table><thead><tr><th>SLO</th><th>objective</th><th>latest</th>"
        "<th>windows</th><th>burn long</th><th>burn short</th>"
        "<th>threshold</th><th>state</th></tr></thead>"
        f"<tbody>{''.join(rows)}</tbody></table>"
        f"{alert_table}")


class StatusWriter:
    """Atomic ``status.json`` + ``link_health.html`` in a directory."""

    def __init__(self, status_dir):
        self.status_dir = str(status_dir)
        os.makedirs(self.status_dir, exist_ok=True)
        self.writes = 0

    @property
    def status_path(self):
        return os.path.join(self.status_dir, "status.json")

    @property
    def report_path(self):
        return os.path.join(self.status_dir, "link_health.html")

    @property
    def series_path(self):
        return os.path.join(self.status_dir, "series.jsonl")

    def write(self, status: ServiceStatus, telemetry=None, series=None):
        """Write one snapshot; each file lands atomically."""
        with atomic_replace(self.status_path) as tmp, \
                open(tmp, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(status.as_dict(), indent=2,
                                    sort_keys=True) + "\n")
        if telemetry is not None:
            extra = []
            if status.slo is not None:
                section = slo_html_section(status.slo)
                if section:
                    extra.append(section)
            with atomic_replace(self.report_path) as tmp:
                write_html_report(telemetry.payload(), tmp,
                                  title="FastForward relay service",
                                  extra_sections=extra)
        if series is not None:
            with atomic_replace(self.series_path) as tmp:
                series.write_jsonl(tmp)
        self.writes += 1
        return self.status_path
