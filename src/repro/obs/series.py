"""Rolling time series for the always-on service.

The service layer needs *history* — SLO burn rates are windowed
queries, and a dashboard polling ``status.json`` sees only the latest
snapshot.  :class:`SeriesRecorder` keeps one retention-bounded ring
buffer per named series, sampled on the service's virtual-time tick,
so memory is bounded no matter how long the service runs and every
query is deterministic for a fixed seed (virtual time, not wall time).

Persistence is JSONL (one ``{"t": ..., "series": ..., "value": ...}``
object per line, append-friendly like the sweep manifest) and
round-trips through :meth:`SeriesRecorder.load_jsonl`, so ``repro obs
slo`` can evaluate a spec against a recorded run offline.
"""

from __future__ import annotations

import json

from collections import deque

#: Default ring size: at a 5 ms service tick this holds ~10 s of
#: virtual history — an order of magnitude above the default SLO
#: windows.
DEFAULT_RETENTION = 2048


class Series:
    """One named ring buffer of ``(t, value)`` samples.

    Samples arrive in time order (equal times are allowed), so every
    time window is a contiguous run of the ring; ``appended`` counts
    every sample ever taken, so ``points[j - appended]`` is the sample
    with absolute index ``j`` while the ring still holds it.
    """

    __slots__ = ("name", "unit", "points", "appended")

    def __init__(self, name, unit=None, retention=DEFAULT_RETENTION):
        self.name = str(name)
        self.unit = unit
        self.points = deque(maxlen=int(retention))
        self.appended = 0

    def sample(self, t, value):
        t = float(t)
        if self.points and t < self.points[-1][0]:
            raise ValueError(
                f"series {self.name!r}: sample at t={t} precedes the "
                f"newest at t={self.points[-1][0]}")
        self.points.append((t, float(value)))
        self.appended += 1

    @property
    def latest(self):
        return self.points[-1][1] if self.points else None


class SeriesRecorder:
    """A bounded set of named rolling series."""

    def __init__(self, retention=DEFAULT_RETENTION):
        self.retention = int(retention)
        self._series = {}

    def series(self, name, unit=None):
        """Get-or-create the :class:`Series` for ``name``."""
        s = self._series.get(name)
        if s is None:
            s = self._series[name] = Series(name, unit=unit,
                                            retention=self.retention)
        return s

    def sample(self, name, t, value, unit=None):
        """Append one sample to series ``name`` at virtual time ``t``."""
        self.series(name, unit=unit).sample(t, value)

    def names(self):
        return sorted(self._series)

    def __contains__(self, name):
        return name in self._series

    def snapshot(self):
        """Deterministic plain-dict view: sorted series, listed points."""
        return {name: {"unit": self._series[name].unit,
                       "points": [[t, v]
                                  for t, v in self._series[name].points]}
                for name in self.names()}

    # -- persistence -------------------------------------------------------

    def write_jsonl(self, path):
        """Write every retained sample as JSONL; returns the line count."""
        lines = 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"type": "meta", "version": 1,
                                 "retention": self.retention}) + "\n")
            for name in self.names():
                series = self._series[name]
                for t, v in series.points:
                    fh.write(json.dumps(
                        {"type": "sample", "series": name, "t": t,
                         "value": v, "unit": series.unit}) + "\n")
                    lines += 1
        return lines

    @classmethod
    def load_jsonl(cls, path):
        """Rebuild a recorder from :meth:`write_jsonl` output."""
        recorder = None
        pending = []
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                kind = record.get("type")
                if kind == "meta":
                    recorder = cls(retention=record.get(
                        "retention", DEFAULT_RETENTION))
                elif kind == "sample":
                    pending.append(record)
                else:
                    raise ValueError(
                        f"{path}:{lineno}: unknown series record type "
                        f"{kind!r}")
        if recorder is None:
            recorder = cls()
        for record in pending:
            recorder.sample(record["series"], record["t"], record["value"],
                            unit=record.get("unit"))
        return recorder


__all__ = ["DEFAULT_RETENTION", "Series", "SeriesRecorder"]
