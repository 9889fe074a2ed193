"""Test support: the SLO engine that rescans every window on every tick.

This is how :class:`repro.obs.slo.SloEngine` evaluated before it kept
running bad-sample counts: each evaluation collects the values of
``(now - span, now]`` from the series ring and counts the bad ones
afresh.  The running counts are held to it (see
``tests/test_obs_series_slo.py``).
"""

from __future__ import annotations

from repro.obs.slo import SloAlert


def window(series, now, span):
    """Values with ``now - span < t <= now`` (chronological)."""
    lo = now - span
    return [v for t, v in series.points if lo < t <= now]


def bad_fraction(spec, values):
    """The fraction of ``values`` that violate ``spec``'s objective."""
    if not values:
        return 0.0
    return sum(1 for v in values if spec.is_bad(v)) / len(values)


class RescanSloEngine:
    """``SloEngine`` with every window rescanned per evaluation."""

    def __init__(self, specs):
        self.specs = tuple(specs)
        self.alerts = []
        self._active = {}
        self._last = {}

    def evaluate(self, recorder, now_s):
        transitions = []
        for spec in self.specs:
            series = recorder.series(spec.series)
            windows = []
            for win in spec.windows:
                long_vals = window(series, now_s, win.long_s)
                short_vals = window(series, now_s, win.short_s)
                burn_long = bad_fraction(spec, long_vals) / spec.budget
                burn_short = bad_fraction(spec, short_vals) / spec.budget
                enough = (len(long_vals) >= spec.min_samples
                          and len(short_vals) >= max(spec.min_samples // 2,
                                                     1))
                firing = (enough
                          and burn_long > win.burn_threshold
                          and burn_short > win.burn_threshold)
                key = (spec.name, win.long_s, win.short_s)
                if firing != self._active.get(key, False):
                    self._active[key] = firing
                    alert = SloAlert(
                        slo=spec.name, severity=win.severity,
                        kind="firing" if firing else "resolved",
                        time_s=float(now_s), long_s=win.long_s,
                        short_s=win.short_s, burn_long=burn_long,
                        burn_short=burn_short,
                        threshold=win.burn_threshold)
                    transitions.append(alert)
                    self.alerts.append(alert)
                windows.append({"long_s": win.long_s,
                                "short_s": win.short_s,
                                "severity": win.severity,
                                "burn_long": round(burn_long, 6),
                                "burn_short": round(burn_short, 6),
                                "threshold": win.burn_threshold,
                                "firing": firing})
            self._last[spec.name] = {
                "series": spec.series, "objective": spec.objective,
                "target": spec.target, "budget": spec.budget,
                "latest": series.latest, "windows": windows,
                "firing": any(w["firing"] for w in windows)}
        return transitions

    @property
    def firing(self):
        return sorted({slo for (slo, _, _), active in self._active.items()
                       if active})

    def status(self):
        return {"specs": [spec.as_dict() for spec in self.specs],
                "state": {name: self._last[name]
                          for name in sorted(self._last)},
                "firing": self.firing,
                "alerts": [alert.as_dict() for alert in self.alerts]}
