"""Declarative SLOs with multi-window burn-rate alerting.

The Google-SRE alerting design point, applied to the relay service's
virtual-time series: an SLO names a series, an objective (keep the
value at-or-below / at-or-above a target) and an **error budget** —
the fraction of samples allowed to violate the objective.  The *burn
rate* over a window is the observed bad fraction divided by the
budget; an alert fires only when **both** a long window and a short
confirmation window burn faster than the window's threshold.  The
long window gives the alert statistical weight, the short one makes it
reset quickly once the incident ends — the classic fix for both flappy
and stale alerts.

Everything here is driven by virtual time and deterministic series, so
the alert stream for a fixed seed is bit-identical run to run (gated
in ``bench_obs.py``).  Alerts are typed (:class:`SloAlert`), mirrored
into the ambient collector as ``obs.slo.*`` counters plus structured
events, and surfaced in ``status.json`` / the link-health HTML by the
service layer.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.telemetry.collector import current_collector


@dataclass(frozen=True)
class SloWindow:
    """One (long, short) burn-rate window pair."""

    long_s: float
    short_s: float
    burn_threshold: float
    severity: str = "page"

    def as_dict(self):
        return {"long_s": self.long_s, "short_s": self.short_s,
                "burn_threshold": self.burn_threshold,
                "severity": self.severity}

    @classmethod
    def from_dict(cls, data):
        return cls(long_s=float(data["long_s"]),
                   short_s=float(data["short_s"]),
                   burn_threshold=float(data["burn_threshold"]),
                   severity=str(data.get("severity", "page")))


#: Default window ladder, scaled to the service's ~1 s virtual runs:
#: a fast page pair and a slower ticket pair (Google SRE workbook
#: shape, virtual-seconds units).
DEFAULT_WINDOWS = (
    SloWindow(long_s=0.25, short_s=0.06, burn_threshold=2.0,
              severity="page"),
    SloWindow(long_s=0.75, short_s=0.20, burn_threshold=1.0,
              severity="ticket"),
)


@dataclass(frozen=True)
class SloSpec:
    """One declarative SLO over a recorded series."""

    name: str
    series: str
    #: ``"le"``: samples must stay <= target; ``"ge"``: >= target.
    objective: str
    target: float
    #: Allowed bad-sample fraction (the error budget).
    budget: float = 0.05
    windows: tuple = DEFAULT_WINDOWS
    #: Minimum samples a window needs before it can fire.
    min_samples: int = 4

    def __post_init__(self):
        if self.objective not in ("le", "ge"):
            raise ValueError(
                f"objective must be 'le' or 'ge', got {self.objective!r}")
        if not 0 < self.budget <= 1:
            raise ValueError(f"budget must be in (0, 1], got {self.budget}")

    def is_bad(self, value):
        """Does one sample violate the objective?"""
        return value > self.target if self.objective == "le" \
            else value < self.target

    def as_dict(self):
        return {"name": self.name, "series": self.series,
                "objective": self.objective, "target": self.target,
                "budget": self.budget,
                "windows": [w.as_dict() for w in self.windows],
                "min_samples": self.min_samples}

    @classmethod
    def from_dict(cls, data):
        windows = tuple(SloWindow.from_dict(w)
                        for w in data.get("windows", ())) or DEFAULT_WINDOWS
        return cls(name=str(data["name"]), series=str(data["series"]),
                   objective=str(data.get("objective", "le")),
                   target=float(data["target"]),
                   budget=float(data.get("budget", 0.05)),
                   windows=windows,
                   min_samples=int(data.get("min_samples", 4)))


@dataclass(frozen=True)
class SloAlert:
    """One typed burn-rate alert transition."""

    slo: str
    severity: str
    kind: str                   # "firing" | "resolved"
    time_s: float
    long_s: float
    short_s: float
    burn_long: float
    burn_short: float
    threshold: float

    def as_dict(self):
        return {"slo": self.slo, "severity": self.severity,
                "kind": self.kind, "time_s": self.time_s,
                "long_s": self.long_s, "short_s": self.short_s,
                "burn_long": round(self.burn_long, 6),
                "burn_short": round(self.burn_short, 6),
                "threshold": self.threshold}


def default_service_slos(latency_target_s=0.05, shed_budget=0.05,
                         availability_budget=0.10):
    """The relay service's stock SLOs.

    * **frame-latency** — windowed p99 queue wait stays under the
      paper's 50 ms sounding/latency budget;
    * **shed-rate** — the per-tick shed fraction stays at zero (any
      shedding burns budget);
    * **chain-availability** — every pooled chain keeps relaying
      (a half-duplex mute burns budget).
    """
    return (
        SloSpec(name="frame-latency", series="service.queue_wait_p99_s",
                objective="le", target=latency_target_s, budget=0.05),
        SloSpec(name="shed-rate", series="service.shed_rate",
                objective="le", target=0.0, budget=shed_budget),
        SloSpec(name="chain-availability",
                series="service.chain_availability",
                objective="ge", target=1.0, budget=availability_budget),
    )


class _WindowCounts:
    """One spec's running bad-sample counts over its series.

    ``prefix`` holds, for each absolute sample index ``j`` the series
    still retains (and the next one), the number of bad samples before
    ``j``.  A series is in time order, so the samples of ``(now - span,
    now]`` are the contiguous indices ``[lo, hi)``: their bad count is
    a difference of two prefix entries.  Each evaluation ingests only
    the samples taken since the last one, and moves ``hi`` and each
    span's ``lo`` by as many indices as ``now`` crossed, in either
    direction.
    """

    __slots__ = ("spec", "series", "seen", "prefix", "hi", "lo")

    def __init__(self, spec, series):
        self.spec = spec
        self.series = series
        first = series.appended - len(series.points)
        self.seen = first
        self.prefix = deque([0], maxlen=series.points.maxlen + 1)
        self.hi = first
        self.lo = {span: first for window in spec.windows
                   for span in (window.long_s, window.short_s)}

    def advance(self, now):
        """Ingest new samples and move ``hi`` to the first after ``now``."""
        points, appended = self.series.points, self.series.appended
        new = appended - self.seen
        if new > len(points):
            # Samples came and left the ring unseen: count afresh from
            # the oldest retained one.
            self.prefix.clear()
            self.prefix.append(0)
            new = len(points)
        is_bad, prefix = self.spec.is_bad, self.prefix
        count = prefix[-1]
        for k in range(-new, 0):
            count += is_bad(points[k][1])
            prefix.append(count)
        self.seen = appended
        first = appended - len(points)
        hi = max(self.hi, first)
        while hi < appended and points[hi - appended][0] <= now:
            hi += 1
        while hi > first and points[hi - 1 - appended][0] > now:
            hi -= 1
        self.hi = hi

    def window(self, now, span):
        """``(samples, bad samples)`` with ``now - span < t <= now``."""
        points, appended = self.series.points, self.series.appended
        first = appended - len(points)
        bound = now - span
        hi = self.hi
        lo = min(max(self.lo[span], first), hi)
        while lo < hi and points[lo - appended][0] <= bound:
            lo += 1
        while lo > first and points[lo - 1 - appended][0] > bound:
            lo -= 1
        self.lo[span] = lo
        # prefix[-1] counts the samples before index ``seen``.
        prefix, seen = self.prefix, self.seen
        return hi - lo, prefix[hi - seen - 1] - prefix[lo - seen - 1]


class SloEngine:
    """Evaluates SLO specs against a series recorder, tracks alerts.

    The engine keeps a running count of bad samples per spec and
    window, so an evaluation costs what arrived since the last one, not
    the windows' length.  The series it reads must be in time order,
    which :class:`repro.obs.series.Series` enforces.
    """

    def __init__(self, specs):
        self.specs = tuple(specs)
        names = [spec.name for spec in self.specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO names: {names}")
        self.alerts = []              # full typed transition stream
        self._active = {}             # (slo, long_s, short_s) -> bool
        self._counts = {}             # spec name -> _WindowCounts
        self._last = {}               # spec name -> (latest, results)

    def evaluate(self, recorder, now_s):
        """Evaluate every spec at virtual time ``now_s``.

        Returns the list of *new* :class:`SloAlert` transitions (firing
        or resolving); the cumulative stream stays in ``self.alerts``.
        A burn rate is the window's bad fraction (an integer ratio) over
        the spec's budget.
        """
        transitions = []
        for spec in self.specs:
            series = recorder.series(spec.series)
            counts = self._counts.get(spec.name)
            if counts is None or counts.series is not series:
                counts = self._counts[spec.name] = _WindowCounts(spec,
                                                                 series)
            counts.advance(now_s)
            results = []
            for window in spec.windows:
                n_long, bad_long = counts.window(now_s, window.long_s)
                n_short, bad_short = counts.window(now_s, window.short_s)
                burn_long = (bad_long / n_long if n_long else 0.0) \
                    / spec.budget
                burn_short = (bad_short / n_short if n_short else 0.0) \
                    / spec.budget
                enough = (n_long >= spec.min_samples
                          and n_short >= max(spec.min_samples // 2, 1))
                firing = (enough
                          and burn_long > window.burn_threshold
                          and burn_short > window.burn_threshold)
                key = (spec.name, window.long_s, window.short_s)
                was_firing = self._active.get(key, False)
                if firing != was_firing:
                    self._active[key] = firing
                    alert = SloAlert(
                        slo=spec.name, severity=window.severity,
                        kind="firing" if firing else "resolved",
                        time_s=float(now_s), long_s=window.long_s,
                        short_s=window.short_s, burn_long=burn_long,
                        burn_short=burn_short,
                        threshold=window.burn_threshold)
                    transitions.append(alert)
                    self.alerts.append(alert)
                    self._emit(alert)
                results.append((burn_long, burn_short, firing))
            self._last[spec.name] = (series.latest, results)
        return transitions

    def _emit(self, alert):
        tel = current_collector()
        if not tel.enabled:
            return
        tel.counter("obs.slo.alerts", slo=alert.slo,
                    severity=alert.severity, kind=alert.kind).inc()
        tel.event("obs.slo.alert", slo=alert.slo, severity=alert.severity,
                  kind=alert.kind, burn_long=round(alert.burn_long, 3),
                  burn_short=round(alert.burn_short, 3))

    @property
    def firing(self):
        """Names of SLOs with at least one currently-firing window."""
        return sorted({slo for (slo, _, _), active in self._active.items()
                       if active})

    def _state(self, spec):
        """One spec's burn state at its last evaluation."""
        latest, results = self._last[spec.name]
        windows = [{"long_s": window.long_s, "short_s": window.short_s,
                    "severity": window.severity,
                    "burn_long": round(burn_long, 6),
                    "burn_short": round(burn_short, 6),
                    "threshold": window.burn_threshold, "firing": firing}
                   for window, (burn_long, burn_short, firing)
                   in zip(spec.windows, results)]
        return {"series": spec.series, "objective": spec.objective,
                "target": spec.target, "budget": spec.budget,
                "latest": latest, "windows": windows,
                "firing": any(w["firing"] for w in windows)}

    def status(self):
        """The status.json projection: per-SLO burn state + alert log."""
        by_name = {spec.name: spec for spec in self.specs}
        return {"specs": [spec.as_dict() for spec in self.specs],
                "state": {name: self._state(by_name[name])
                          for name in sorted(self._last)},
                "firing": self.firing,
                "alerts": [alert.as_dict() for alert in self.alerts]}

    def alert_stream(self):
        """The typed transition stream as plain dicts (determinism
        checks compare this across same-seed runs)."""
        return [alert.as_dict() for alert in self.alerts]


def load_slo_specs(path):
    """Load SLO specs from a JSON file (a list or ``{"slos": [...]}``)."""
    import json

    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict):
        data = data.get("slos", [])
    return tuple(SloSpec.from_dict(item) for item in data)


__all__ = ["DEFAULT_WINDOWS", "SloAlert", "SloEngine", "SloSpec",
           "SloWindow", "default_service_slos", "load_slo_specs"]
