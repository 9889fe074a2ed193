"""The streaming runtime: stages, chains and per-stage instrumentation.

The FastForward relay is a *streaming* device — IQ samples flow through
cancellation, the CNF filter, amplification and CFO restore within a
latency budget far below the cyclic prefix (paper §3.3–3.5).  This
module gives the reproduction the same shape: a :class:`Stage` is a
persistent block processor with state carried across blocks, a
:class:`Chain` composes stages into a relay you pump fixed-size blocks
through, and a :class:`ChainTrace` records what each stage did (wall
time, sample throughput, in/out power) while the stream flowed.

Stage contract
--------------
``process_block(x)`` consumes a block (1-D for a single IQ stream, or
``(streams, n)`` for MIMO) and returns whatever output samples are ready
— a stage that buffers internally (e.g. an overlap-save filter) may
return fewer or more samples than it was handed.  ``flush()`` drains any
samples still held so that, over a whole stream, output length equals
input length.  ``reset()`` returns the stage to its initial state so a
chain is reusable across independent frames.  ``latency_samples`` is the
lookahead the stage needs before it can emit an aligned output sample —
the quantity the paper's latency budget (:mod:`repro.core.latency`)
accounts against the OFDM cyclic prefix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.telemetry.timing import timed_call
from repro.utils.units import db_to_linear, power_to_db


def _empty_like_stream(x):
    """A zero-length block with the stream shape of ``x``."""
    if x.ndim == 2:
        return np.zeros((x.shape[0], 0), dtype=complex)
    return np.zeros(0, dtype=complex)


def concat_blocks(parts, ndim_hint=1, rows_hint=None):
    """Concatenate stream blocks along the sample axis, skipping empties."""
    parts = [np.asarray(p) for p in parts if np.asarray(p).size]
    if not parts:
        if ndim_hint == 2:
            return np.zeros((rows_hint or 0, 0), dtype=complex)
        return np.zeros(0, dtype=complex)
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts, axis=-1)


class Stage:
    """Base class for streaming block processors (see module docstring)."""

    #: Display name used by :class:`ChainTrace`; instances may override.
    name = "stage"

    #: Lookahead (in samples) the stage needs before emitting an aligned
    #: output sample.  Strictly causal stages keep the default 0.
    latency_samples = 0

    def process_block(self, x):
        """Consume a block; return the output samples that are ready."""
        raise NotImplementedError

    def reset(self):
        """Return to the initial state (empty buffers, zero phase)."""

    def flush(self):
        """Drain buffered samples so total output length equals input."""
        return np.zeros(0, dtype=complex)

    def run(self, x):
        """One-shot convenience: process a whole stream and flush."""
        x = np.asarray(x, dtype=complex)
        head = self.process_block(x)
        tail = self.flush()
        return concat_blocks([head, tail], ndim_hint=x.ndim,
                             rows_hint=x.shape[0] if x.ndim == 2 else None)


class FunctionStage(Stage):
    """A stateless per-block map ``x -> fn(x)`` (no buffering, no state)."""

    def __init__(self, fn, name="function"):
        self._fn = fn
        self.name = name

    def process_block(self, x):
        return self._fn(np.asarray(x, dtype=complex))


class GainStage(Stage):
    """Scalar amplification by a fixed dB gain (the relay's PA)."""

    def __init__(self, gain_db, name="amplify"):
        self.gain_db = float(gain_db)
        self._gain = db_to_linear(self.gain_db)
        self.name = name

    def process_block(self, x):
        return np.asarray(x, dtype=complex) * self._gain


@dataclass
class StageStats:
    """Accumulated per-stage measurements for one traced stream."""

    name: str
    calls: int = 0
    samples_in: int = 0
    samples_out: int = 0
    wall_s: float = 0.0
    energy_in: float = 0.0
    energy_out: float = 0.0

    @property
    def power_in(self):
        """Mean input power (linear) over the traced stream."""
        return self.energy_in / self.samples_in if self.samples_in else 0.0

    @property
    def power_out(self):
        """Mean output power (linear) over the traced stream."""
        return self.energy_out / self.samples_out if self.samples_out else 0.0

    @property
    def gain_db(self):
        """Realised out/in power ratio in dB (nan until samples flow)."""
        if self.power_in <= 0.0 or self.power_out <= 0.0:
            return float("nan")
        return float(power_to_db(self.power_out / self.power_in))

    @property
    def throughput_sps(self):
        """Input samples per second of wall time."""
        return self.samples_in / self.wall_s if self.wall_s > 0 else 0.0


class ChainTrace:
    """Per-stage instrumentation collected while a chain runs.

    Pass an instance to :meth:`Chain.process_block` / :meth:`Chain.run`
    (or to :meth:`repro.core.relay.FastForwardRelay.process` via the
    ``trace`` keyword) and read :attr:`stages` afterwards.  One trace
    may span many blocks and many runs; call :meth:`clear` to start over.

    A trace doubles as the runtime's telemetry adapter: construct it
    with a :class:`repro.telemetry.TelemetryCollector` and every stage
    invocation additionally feeds per-stage counters and a wall-time
    histogram (``runtime.stage.*``) into that collector.

    ``energy=False`` skips the in/out power accumulation — two
    full-array reductions per stage per block, by far the costliest
    part of tracing.  The telemetry auto-wiring uses this mode so
    always-on instrumentation stays within its overhead budget;
    ``gain_db``/``power_in``/``power_out`` then read as empty.
    """

    def __init__(self, collector=None, energy=True):
        self.stages = {}
        self._order = []
        self.energy = bool(energy)
        self.collector = collector if (
            collector is not None and collector.enabled) else None
        # Per-stage metric points, resolved once: the registry lookup
        # (kwargs -> sorted label key) costs more than the update.
        self._points = {}

    def clear(self):
        """Drop all accumulated statistics."""
        self.stages = {}
        self._order = []

    def stage(self, name):
        """The :class:`StageStats` accumulator for ``name`` (created lazily)."""
        if name not in self.stages:
            self.stages[name] = StageStats(name=name)
            self._order.append(name)
        return self.stages[name]

    def record(self, name, wall_s, x_in, x_out):
        """Fold one stage invocation into the accumulator."""
        stats = self.stages.get(name)
        if stats is None:
            stats = self.stage(name)
        x_in = np.asarray(x_in)
        x_out = np.asarray(x_out)
        n_in = x_in.shape[-1] if x_in.ndim else 0
        stats.calls += 1
        stats.wall_s += wall_s
        stats.samples_in += n_in
        stats.samples_out += x_out.shape[-1] if x_out.ndim else 0
        if self.energy:
            if x_in.size:
                stats.energy_in += float(np.sum(np.abs(x_in) ** 2)) \
                    / (x_in.shape[0] if x_in.ndim == 2 else 1)
            if x_out.size:
                stats.energy_out += float(np.sum(np.abs(x_out) ** 2)) \
                    / (x_out.shape[0] if x_out.ndim == 2 else 1)
        if self.collector is not None:
            points = self._points.get(name)
            if points is None:
                tel = self.collector
                points = (
                    tel.counter("runtime.stage.calls", stage=name),
                    tel.counter("runtime.stage.samples", stage=name),
                    tel.histogram("runtime.stage.wall_ns", unit="ns",
                                  stage=name))
                self._points[name] = points
            calls, samples, wall = points
            calls.inc()
            samples.inc(n_in)
            wall.observe(wall_s * 1e9)

    @property
    def total_wall_s(self):
        """Wall time summed over all stages."""
        return sum(s.wall_s for s in self.stages.values())

    def report(self):
        """A human-readable per-stage table."""
        lines = [f"{'stage':<18} {'calls':>5} {'in':>9} {'out':>9} "
                 f"{'wall ms':>8} {'Msps':>7} {'gain dB':>8}"]
        for name in self._order:
            s = self.stages[name]
            lines.append(
                f"{s.name:<18} {s.calls:>5} {s.samples_in:>9} "
                f"{s.samples_out:>9} {s.wall_s * 1e3:>8.3f} "
                f"{s.throughput_sps / 1e6:>7.2f} {s.gain_db:>8.2f}")
        return "\n".join(lines)

    def __str__(self):
        return self.report()


class Chain(Stage):
    """A pipeline of stages pumped block by block with state carry-over.

    A chain is itself a :class:`Stage`, so chains nest.  Per-stage labels
    are de-duplicated (``amplify``, ``amplify-2`` …) so traces stay
    unambiguous when a stage type appears twice.
    """

    def __init__(self, stages, name="chain"):
        stages = list(stages)
        if not stages:
            raise ValueError("a chain needs at least one stage")
        self.stages = stages
        self.name = name
        labels, seen = [], {}
        for stage in stages:
            base = stage.name
            seen[base] = seen.get(base, 0) + 1
            labels.append(base if seen[base] == 1 else f"{base}-{seen[base]}")
        self.labels = labels

    @property
    def latency_samples(self):
        """Total lookahead of the pipeline (latency-budget accounting)."""
        return sum(s.latency_samples for s in self.stages)

    def _timed(self, trace, label, fn, x):
        if trace is None:
            return fn(x)
        y, wall_s = timed_call(fn, x)
        trace.record(label, wall_s, x, y)
        return y

    def process_block(self, x, trace=None):
        """Push one block through every stage in order."""
        x = np.asarray(x, dtype=complex)
        for stage, label in zip(self.stages, self.labels):
            x = self._timed(trace, label, stage.process_block, x)
        return x

    def flush(self, trace=None):
        """Flush each stage, cascading its tail through the rest."""
        carry = None
        for stage, label in zip(self.stages, self.labels):
            parts = []
            if carry is not None and carry.size:
                parts.append(self._timed(trace, label,
                                         stage.process_block, carry))
            tail, flush_s = timed_call(stage.flush)
            if trace is not None and np.asarray(tail).size:
                trace.record(label, flush_s,
                             _empty_like_stream(np.asarray(tail)), tail)
            parts.append(tail)
            hint = carry if carry is not None else np.asarray(parts[-1])
            carry = concat_blocks(
                parts, ndim_hint=hint.ndim,
                rows_hint=hint.shape[0] if hint.ndim == 2 else None)
        return carry if carry is not None else np.zeros(0, dtype=complex)

    def reset(self):
        """Reset every stage (reusable across independent frames)."""
        for stage in self.stages:
            stage.reset()

    def with_taps(self, taps, name=None):
        """A new chain with observer stages spliced in at stage boundaries.

        ``taps`` maps a stage label (as in :attr:`labels`) to the stage
        to insert *after* that labelled stage; the empty-string key
        inserts at the chain input.  The original stage objects are
        shared, not copied — a tap observes the very stream the parent
        chain processes.  This is the generic attachment point
        :mod:`repro.probes` uses to watch any stage boundary.
        """
        taps = dict(taps)
        stages = []
        head = taps.pop("", None)
        if head is not None:
            stages.append(head)
        for stage, label in zip(self.stages, self.labels):
            stages.append(stage)
            tap = taps.pop(label, None)
            if tap is not None:
                stages.append(tap)
        if taps:
            raise ValueError(
                f"unknown stage labels for taps: {sorted(taps)} "
                f"(chain has {self.labels})")
        return Chain(stages, name=name or f"tapped-{self.name}")

    def run(self, x, trace=None):
        """One-shot: process the whole stream, flush, and concatenate."""
        x = np.asarray(x, dtype=complex)
        head = self.process_block(x, trace=trace)
        tail = self.flush(trace=trace)
        return concat_blocks([head, tail], ndim_hint=x.ndim,
                             rows_hint=x.shape[0] if x.ndim == 2 else None)


# Re-exported for the convenience of stage implementations.
__all__ = [
    "Stage",
    "Chain",
    "ChainTrace",
    "StageStats",
    "FunctionStage",
    "GainStage",
    "concat_blocks",
]
