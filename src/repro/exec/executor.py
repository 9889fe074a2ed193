"""The sharded sweep executor: serial, thread and process backends.

``run_sweep`` takes an ordered list of :class:`~repro.exec.task.Task`
work units and returns their results *in task order*, whatever the
backend, job count or chunk layout — parallel output is bit-identical
to serial because each task's RNG is fixed by its seed and reassembly
is positional.

Dispatch is chunked: pending tasks are sliced into contiguous chunks
(default ~4 chunks per worker) so per-future overhead stays small for
fine-grained tasks.  A chunk is a plain list of task items; the process
backend pickles it as-is.  With a cache, hits are resolved up front and
only misses are dispatched; completed results are stored as they arrive.
With a checkpoint, every completion is appended to the sweep manifest
so an interrupted sweep resumes from its completed shards.

Environment defaults (so existing entry points — the benchmarks, the
CLI, plain ``pytest`` — can be routed through the engine without
signature churn):

==========================  ===========================================
``REPRO_JOBS``              default worker count (``jobs=None``)
``REPRO_BACKEND``           default backend (``serial`` / ``thread`` /
                            ``process``)
``REPRO_CACHE``             default cache dir; ``0``/``off`` disables,
                            ``1`` uses ``.repro-cache/``
``REPRO_MAX_RETRIES``       default per-task retry budget
``REPRO_TASK_TIMEOUT``      default per-task deadline in seconds
==========================  ===========================================

The ``exec.dispatch.*`` telemetry family records the dispatch layout
(pickled bytes per process-backend chunk, chosen chunk size)
separately from task compute time (``exec.task.wall_ns``).

Fault tolerance (:mod:`repro.exec.recovery`) is layered on top:
``max_retries`` / ``task_timeout`` enable bounded retry with seeded
exponential backoff and per-task deadlines; a ``BrokenProcessPool`` is
survived (results salvaged, pool respawned, lost chunks re-dispatched
split in half to isolate the culprit); tasks that exhaust their budget
are quarantined as typed :class:`~repro.exec.task.TaskFailure` records
instead of unwinding the sweep; and a pool that keeps breaking demotes
down the ``process -> thread -> serial`` ladder.  Every transition is
emitted as ``exec.recovery.*`` telemetry.  ``chaos`` injects seeded
failures at each of those boundaries (:mod:`repro.exec.chaos`) so the
machinery is testable deterministically.
"""

from __future__ import annotations

import heapq
import importlib
import itertools
import math
import os
import pickle
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

import numpy as np

from repro.exec import chaos as chaos_injection
from repro.exec.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.exec.manifest import SweepManifest
from repro.exec.recovery import FailureLedger, RetryPolicy, next_backend
from repro.exec.task import resolve_task_fn
from repro.telemetry.collector import (
    TelemetryCollector,
    current_collector,
    use_collector,
)
from repro.telemetry.timing import NS_PER_S, timed_call

BACKENDS = ("serial", "thread", "process")

_FALSEY = {"", "0", "off", "none", "false", "no"}


class _Missing:
    __slots__ = ()


_MISSING = _Missing()


def default_jobs():
    """Worker count when ``jobs=None``: ``REPRO_JOBS`` or 1."""
    raw = os.environ.get("REPRO_JOBS", "").strip()
    if not raw:
        return 1
    jobs = int(raw)
    if jobs < 1:
        raise ValueError(f"REPRO_JOBS must be >= 1, got {jobs}")
    return jobs


def default_backend(jobs):
    """Backend when ``backend=None``: ``REPRO_BACKEND``, else by jobs."""
    raw = os.environ.get("REPRO_BACKEND", "").strip().lower()
    if raw:
        if raw not in BACKENDS:
            raise ValueError(f"REPRO_BACKEND must be one of {BACKENDS}, "
                             f"got {raw!r}")
        return raw
    return "serial" if jobs <= 1 else "thread"


def resolve_cache(cache):
    """Coerce a ``cache=`` argument into a :class:`ResultCache` or ``None``.

    Accepts ``None`` (consult ``REPRO_CACHE``), booleans, a directory
    path, or an existing cache instance.
    """
    if cache is None:
        raw = os.environ.get("REPRO_CACHE", "").strip()
        if raw.lower() in _FALSEY:
            return None
        if raw.lower() in {"1", "on", "true", "yes"}:
            return ResultCache(DEFAULT_CACHE_DIR)
        return ResultCache(raw)
    if isinstance(cache, ResultCache):
        return cache
    if cache is True:
        return ResultCache(DEFAULT_CACHE_DIR)
    if cache is False:
        return None
    if isinstance(cache, (str, Path)):
        return ResultCache(cache)
    raise TypeError(f"cache must be None, bool, path or ResultCache, "
                    f"got {type(cache).__qualname__}")


@dataclass
class SweepStats:
    """What one ``run_sweep`` call actually did."""

    total: int = 0
    executed: int = 0
    cache_hits: int = 0
    resumed: int = 0
    chunks: int = 0
    jobs: int = 1
    backend: str = "serial"
    wall_s: float = 0.0
    chunk_size: Optional[int] = None
    # -- fault tolerance ----------------------------------------------------
    retries: int = 0              # failed attempts re-dispatched
    timeouts: int = 0             # deadline expiries observed
    worker_crashes: int = 0       # pool breakages (BrokenProcessPool)
    respawns: int = 0             # pools replaced (breaks + stuck kills)
    quarantined: int = 0          # tasks given up on (TaskFailure records)
    chunk_splits: int = 0         # lost chunks halved to isolate a culprit
    degraded_to: Optional[str] = None   # final ladder rung, if demoted
    interrupted: bool = False     # Ctrl-C landed; finished work salvaged
    cache: Optional[object] = field(default=None, repr=False)

    def summary(self):
        """One-line human summary (CLI / benchmark output)."""
        parts = [f"{self.total} tasks", f"{self.executed} executed",
                 f"{self.cache_hits} cache hits"]
        if self.resumed:
            parts.append(f"{self.resumed} resumed")
        parts.append(f"backend={self.backend} jobs={self.jobs}")
        if self.chunk_size is not None:
            parts.append(f"chunk={self.chunk_size}")
        if self.retries:
            parts.append(f"{self.retries} retries")
        if self.timeouts:
            parts.append(f"{self.timeouts} timeouts")
        if self.worker_crashes:
            parts.append(f"{self.worker_crashes} worker crashes")
        if self.quarantined:
            parts.append(f"{self.quarantined} quarantined")
        if self.degraded_to:
            parts.append(f"degraded->{self.degraded_to}")
        parts.append(f"{self.wall_s:.2f}s")
        return ", ".join(parts)


@dataclass
class SweepResult:
    """Ordered results plus execution statistics.

    When quarantine is active, a failed task's slot in ``results``
    holds its :class:`~repro.exec.task.TaskFailure` record and the
    record is also listed in ``failures`` (ordered by task index).
    """

    results: List
    stats: SweepStats
    failures: List = field(default_factory=list)

    @property
    def ok(self):
        """True when no task was quarantined."""
        return not self.failures

    def raise_if_failed(self):
        """Raise if any task was quarantined (for callers that cannot
        tolerate holes in ``results``)."""
        if self.failures:
            raise RuntimeError(
                f"{len(self.failures)} of {self.stats.total} tasks "
                f"quarantined; first: {self.failures[0]}")

    def __iter__(self):
        return iter(self.results)

    def __len__(self):
        return len(self.results)

    def __getitem__(self, item):
        return self.results[item]


_LAST_STATS: List[SweepStats] = []


def last_sweep_stats():
    """Stats of the most recent ``run_sweep`` in this process, if any."""
    return _LAST_STATS[-1] if _LAST_STATS else None


def _portable_error(exc):
    """``exc`` if it survives pickling, else a summarising RuntimeError.

    Captured outcomes cross the process boundary inside the chunk
    result; an unpicklable exception there would poison the whole
    chunk, so it is swapped for a plain carrier up front.
    """
    try:
        pickle.loads(pickle.dumps(exc, pickle.HIGHEST_PROTOCOL))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _capture_item(item, chaos=None):
    """Run one ``(index, module, fn_name, params, seed, attempt)`` unit.

    The defining module is imported first so spawned processes populate
    the task registry before resolving the function name.  With a chaos
    plan, the seeded injection for (task index, attempt) fires before
    the task function runs.

    Failure is captured instead of raised: returns
    ``(index, ("ok", value))`` or ``(index, ("err", exc))`` so one
    raising task cannot take down its chunkmates — the parent's ledger
    decides retry/quarantine per task.
    """
    index, module, fn_name, params, seed, attempt = item
    try:
        importlib.import_module(module)
        fn, _ = resolve_task_fn(fn_name)
        if chaos is not None:
            chaos_injection.maybe_inject(chaos, index, attempt)
        if seed is None:
            return index, ("ok", fn(**params))
        return index, ("ok", fn(**params, rng=np.random.default_rng(seed)))
    except Exception as exc:
        return index, ("err", _portable_error(exc))


def _run_chunk(items, collect=False, shard=None, chaos=None):
    """Execute one chunk; returns ``(results, telemetry_payload)``.

    Runs in a worker (thread or process), or inline on the serial
    rung.  Per-item results are tagged outcomes (see
    :func:`_capture_item`): a raising task never takes its chunkmates
    down, and the dispatcher's ledger decides whether it is retried,
    quarantined or re-raised.

    When ``collect`` is set the chunk gets its own
    :class:`~repro.telemetry.TelemetryCollector`, installed
    thread-locally so parallel shards never race on shared state and
    anything the task functions record lands in the shard's collector.
    The payload (a plain dict — it crosses the process boundary) is
    merged back in the parent in deterministic task order.
    """
    if not collect:
        return [_capture_item(item, chaos) for item in items], None
    collector = TelemetryCollector(origin=f"shard-{shard}")
    out = []
    with use_collector(collector), \
            collector.span("exec.shard", shard=shard, tasks=len(items)):
        for item in items:
            fn_name = item[2]
            pair, wall_s = timed_call(_capture_item, item, chaos)
            out.append(pair)
            if pair[1][0] == "ok":
                collector.counter("exec.tasks.completed", fn=fn_name).inc()
            else:
                collector.counter("exec.tasks.failed", fn=fn_name).inc()
            collector.histogram("exec.task.wall_ns", unit="ns",
                                fn=fn_name).observe(wall_s * NS_PER_S)
    return out, collector.payload()


def _record_sweep_telemetry(tel, stats, cache):
    """Fold sweep-level stats (and cache stats) into the collector."""
    if not tel.enabled:
        return
    tel.counter("exec.tasks.total").inc(stats.total)
    tel.counter("exec.tasks.executed").inc(stats.executed)
    tel.counter("exec.tasks.cache_hits").inc(stats.cache_hits)
    tel.counter("exec.tasks.resumed").inc(stats.resumed)
    tel.gauge("exec.sweep.wall_s", unit="s").set(stats.wall_s)
    tel.gauge("exec.sweep.chunks", unit="layout").set(stats.chunks)
    if cache is not None:
        cache_stats = cache.stats
        tel.gauge("exec.cache.hits").set(cache_stats.hits)
        tel.gauge("exec.cache.misses").set(cache_stats.misses)
        tel.gauge("exec.cache.stores").set(cache_stats.stores)
        tel.gauge("exec.cache.invalidations").set(cache_stats.invalidations)
        tel.gauge("exec.cache.corrupt").set(cache_stats.corrupt)
        tel.gauge("exec.cache.hit_rate").set(cache_stats.hit_rate)


def _resolve_chunk_size(n_pending, jobs, chunk_size):
    """Explicit size, or the default layout of ~4 chunks per worker."""
    if chunk_size is None:
        chunk_size = max(1, math.ceil(n_pending / (jobs * 4)))
    return max(1, int(chunk_size))


def _chunked(pending, chunk_size):
    return [pending[i:i + chunk_size]
            for i in range(0, len(pending), chunk_size)]


class _Flight:
    """One chunk in flight on the pool."""

    __slots__ = ("shard", "chunk", "deadline")

    def __init__(self, shard, chunk, deadline):
        self.shard = shard
        self.chunk = chunk
        self.deadline = deadline


class _Dispatcher:
    """Fault-tolerant chunk dispatch (the ``run_sweep`` engine room).

    Owns the worker pool and the failure bookkeeping: captured task
    errors are charged against the :class:`FailureLedger` and retried
    with seeded backoff; a broken pool is respawned with lost chunks
    re-dispatched (split in half to isolate the culprit); expired
    deadlines reclaim stuck workers; and a pool that keeps breaking is
    demoted one backend-ladder rung at a time down to inline serial
    execution.  Tasks whose budget is spent are quarantined (or, with
    quarantine off, stop dispatch and re-raise once in-flight work has
    been salvaged).
    """

    def __init__(self, backend, jobs, policy, chaos, tel, collect, stats,
                 complete, quarantine, fn_of):
        self.backend = backend
        self.jobs = jobs
        self.policy = policy
        self.chaos = chaos
        self.tel = tel
        self.collect = collect
        self.stats = stats
        self._complete = complete
        self._quarantine_cb = quarantine
        self._fn_of = fn_of
        self.ledger = FailureLedger(policy)
        self.queue = deque()
        self.delayed = []               # heap of (ready_at, seq, chunk)
        self.inflight = {}              # future -> _Flight
        self.payloads = []              # (shard, telemetry payload)
        self.abandoned = 0              # wedged thread workers written off
        self._pool = None
        self._seq = itertools.count()
        self._shard = itertools.count()
        self._breaks = 0                # consecutive pool breakages
        self._fatal = {}                # index -> exception to raise

    # -- lifecycle -----------------------------------------------------------

    def run(self, chunks):
        """Dispatch ``chunks`` to completion (or first fatal error)."""
        self.queue.extend(chunks)
        try:
            while self.queue or self.delayed or self.inflight:
                if self._fatal:
                    self.queue.clear()
                    self.delayed.clear()
                    if not self.inflight:
                        break
                now = time.monotonic()
                self._promote_delayed(now)
                if self.backend == "serial":
                    self._drain_serial()
                    self._sleep_until_delayed()
                    continue
                self._submit()
                if not self.inflight:
                    self._sleep_until_delayed()
                    continue
                self._wait_and_harvest()
        except KeyboardInterrupt:
            self._salvage_on_interrupt()
            raise
        finally:
            # Drain workers on a clean exit, but never block on a hung
            # thread that was already written off by a deadline.
            self._discard_pool(wait_workers=not self._fatal
                               and self.abandoned == 0)
            for _, payload in sorted(self.payloads, key=lambda p: p[0]):
                self.tel.merge(payload)
        if self._fatal:
            raise self._fatal[min(self._fatal)]

    def _salvage_on_interrupt(self):
        """A Ctrl-C landed mid-sweep: bank whatever already finished.

        In-flight chunks that completed before the interrupt are
        harvested — each result goes through the normal completion
        path, i.e. into the cache and onto the manifest's durable
        (fsync'd) checkpoint — before the interrupt propagates.  A
        resumed sweep with the same ``checkpoint`` file then skips
        every salvaged task instead of recomputing it.
        """
        self.stats.interrupted = True
        if self.tel.enabled:
            self.tel.counter("exec.recovery.interrupts").inc()
        if not self.inflight:
            return
        try:
            done, _ = wait(set(self.inflight), timeout=self.policy.poll_s)
            for future in done:
                flight = self.inflight.pop(future)
                if future.cancelled() or future.exception() is not None:
                    continue
                self._harvest(flight.shard, flight.chunk, future.result())
                if self.tel.enabled:
                    self.tel.counter("exec.recovery.interrupt_salvaged",
                                     ).inc(len(flight.chunk))
        except KeyboardInterrupt:
            # A second Ctrl-C while banking results: stop salvaging,
            # but still let the first interrupt propagate cleanly.
            pass

    def _discard_pool(self, wait_workers=False):
        if self._pool is not None:
            try:
                self._pool.shutdown(wait=wait_workers, cancel_futures=True)
            except Exception:
                pass
            self._pool = None

    def _ensure_pool(self):
        if self._pool is None:
            pool_cls = (ThreadPoolExecutor if self.backend == "thread"
                        else ProcessPoolExecutor)
            self._pool = pool_cls(max_workers=self.jobs)
        return self._pool

    # -- scheduling ----------------------------------------------------------

    def _promote_delayed(self, now):
        while self.delayed and self.delayed[0][0] <= now:
            _, _, chunk = heapq.heappop(self.delayed)
            self.queue.append(chunk)

    def _sleep_until_delayed(self):
        if self.delayed and not self.queue and not self.inflight:
            pause = self.delayed[0][0] - time.monotonic()
            if pause > 0:
                time.sleep(min(pause, self.policy.backoff_max_s))

    def _submit(self):
        if self._fatal:
            return
        # With deadlines armed, cap in-flight chunks at one per worker
        # so a chunk's clock starts ticking only once it can actually
        # run; without deadlines, keep the pool's queue full.
        limit = self.jobs if self.policy.task_timeout_s is not None else None
        while self.queue and (limit is None or len(self.inflight) < limit):
            chunk = self.queue[0]
            pool = self._ensure_pool()
            shard = next(self._shard)
            if self.collect and self.backend == "process":
                self.tel.histogram(
                    "exec.dispatch.payload_bytes",
                    unit="layout").observe(len(pickle.dumps(
                        chunk, pickle.HIGHEST_PROTOCOL)))
            try:
                future = pool.submit(_run_chunk, chunk, self.collect, shard,
                                     self.chaos)
            except (BrokenExecutor, RuntimeError):
                # The pool broke between harvests; the break handler
                # requeues in-flight work and respawns or degrades.
                self._handle_pool_break()
                if self.backend == "serial":
                    return
                continue
            self.queue.popleft()
            deadline = None
            if self.policy.task_timeout_s is not None:
                deadline = (time.monotonic()
                            + self.policy.task_timeout_s * len(chunk)
                            + self.policy.timeout_grace_s)
            self.inflight[future] = _Flight(shard, chunk, deadline)

    def _wait_and_harvest(self):
        bounded = (self.policy.task_timeout_s is not None or self.delayed
                   or self._fatal)
        done, _ = wait(set(self.inflight),
                       timeout=self.policy.poll_s if bounded else None,
                       return_when=FIRST_COMPLETED)
        broke = False
        for future in done:
            flight = self.inflight.pop(future)
            error = future.exception()
            if error is None:
                self._harvest(flight.shard, flight.chunk, future.result())
                self._breaks = 0
            elif isinstance(error, BrokenExecutor):
                broke = True
                self._chunk_failed(flight.chunk, "worker-crash",
                                   "worker process died mid-chunk")
            else:
                # Chunk-level infrastructure failure (result transport,
                # pool internals) — not attributable to one task, so
                # the same split-to-isolate treatment as a crash.
                self._chunk_failed(flight.chunk, "exception", error)
        if broke:
            self._handle_pool_break()
        if self.policy.task_timeout_s is not None:
            self._check_deadlines(time.monotonic())

    # -- completion and failure paths ----------------------------------------

    def _harvest(self, shard, chunk, result):
        out, payload = result
        if payload is not None:
            self.payloads.append((shard, payload))
        items = {item[0]: item for item in chunk}
        for index, outcome in out:
            if outcome[0] == "ok":
                self._complete(index, outcome[1])
            else:
                self._charge(items[index], "exception", outcome[1])

    def _chunk_failed(self, chunk, kind, error):
        """A whole chunk was lost (crash, timeout, transport failure).

        Multi-task chunks are split in half and re-dispatched without
        charging anyone — repeated losses shrink the blast radius until
        the culprit stands alone and pays for its own failures.
        """
        if len(chunk) > 1:
            mid = (len(chunk) + 1) // 2
            self.queue.appendleft(chunk[mid:])
            self.queue.appendleft(chunk[:mid])
            self.stats.chunk_splits += 1
            if self.tel.enabled:
                self.tel.counter("exec.recovery.chunk_splits",
                                 kind=kind).inc()
                self.tel.event("exec.recovery.transition", action="split",
                               kind=kind, tasks=len(chunk))
            return
        self._charge(chunk[0], kind, error)

    def _charge(self, item, kind, error):
        index, fn_name = item[0], item[2]
        verdict = self.ledger.charge(index, kind, error)
        if verdict == "retry":
            self.stats.retries += 1
            failures = self.ledger.failures(index)
            if self.tel.enabled:
                self.tel.counter("exec.recovery.retries", kind=kind,
                                 fn=fn_name).inc()
                self.tel.event("exec.recovery.transition", action="retry",
                               kind=kind, task=index, attempt=failures)
            retry_item = item[:5] + (item[5] + 1,)
            heapq.heappush(self.delayed,
                           (time.monotonic() + self.ledger.delay_s(index),
                            next(self._seq), [retry_item]))
        else:
            self._give_up(index, fn_name)

    def _give_up(self, index, fn_name):
        if self.policy.quarantine_enabled:
            failure = self.ledger.failure_record(index, fn_name)
            self.stats.quarantined += 1
            if self.tel.enabled:
                self.tel.counter("exec.recovery.quarantined",
                                 fn=fn_name).inc()
                self.tel.event("exec.recovery.transition",
                               action="quarantine", task=index,
                               attempts=failure.attempts)
            self._quarantine_cb(failure)
        else:
            self._fatal[index] = self.ledger.final_error(index)

    # -- pool recovery ---------------------------------------------------------

    def _handle_pool_break(self):
        """Salvage, respawn (or degrade), re-dispatch — never die."""
        self.stats.worker_crashes += 1
        if self.tel.enabled:
            self.tel.counter("exec.recovery.worker_crashes").inc()
        leftovers = list(self.inflight.items())
        self.inflight.clear()
        if leftovers:
            # A broken pool settles every outstanding future promptly;
            # the timeout is a backstop, not an expectation.
            wait([future for future, _ in leftovers], timeout=5.0)
        for future, flight in leftovers:
            if (future.done() and not future.cancelled()
                    and future.exception() is None):
                self._harvest(flight.shard, flight.chunk, future.result())
            else:
                self._chunk_failed(flight.chunk, "worker-crash",
                                   "worker process died mid-chunk")
        self._discard_pool()
        self._breaks += 1
        if self._breaks >= self.policy.pool_break_budget:
            self._breaks = 0
            self._degrade("pool keeps breaking")
        else:
            self._note_respawn()

    def _note_respawn(self):
        self.stats.respawns += 1
        if self.tel.enabled:
            self.tel.counter("exec.recovery.respawns",
                             backend=self.backend).inc()
            self.tel.event("exec.recovery.transition", action="respawn",
                           backend=self.backend)

    def _degrade(self, reason):
        down = next_backend(self.backend)
        if down is None:
            # Already serial: nothing below — keep executing inline.
            return
        if self.tel.enabled:
            self.tel.counter("exec.recovery.backend_degraded",
                             **{"from": self.backend, "to": down}).inc()
            self.tel.event("exec.recovery.transition", action="degrade",
                           **{"from": self.backend, "to": down,
                              "reason": reason})
        self._discard_pool()
        self.backend = down
        self.stats.degraded_to = down

    def _check_deadlines(self, now):
        expired = {future: flight
                   for future, flight in self.inflight.items()
                   if flight.deadline is not None and now > flight.deadline
                   and not future.done()}
        if not expired:
            return
        self.stats.timeouts += len(expired)
        if self.tel.enabled:
            for flight in expired.values():
                self.tel.counter("exec.recovery.timeouts",
                                 backend=self.backend).inc()
                self.tel.event("exec.recovery.transition", action="timeout",
                               tasks=len(flight.chunk))
        if self.backend == "process":
            # Stuck workers cannot be preempted politely: kill the
            # pool, salvage what finished, charge the expired chunks
            # and re-dispatch the innocent bystanders uncharged.
            processes = getattr(self._pool, "_processes", None) or {}
            for process in list(processes.values()):
                try:
                    process.kill()
                except Exception:
                    pass
            leftovers = list(self.inflight.items())
            self.inflight.clear()
            wait([future for future, _ in leftovers], timeout=5.0)
            for future, flight in leftovers:
                if (future.done() and not future.cancelled()
                        and future.exception() is None):
                    self._harvest(flight.shard, flight.chunk,
                                  future.result())
                elif future in expired:
                    self._chunk_failed(
                        flight.chunk, "timeout",
                        f"exceeded {self.policy.task_timeout_s:.3g}s "
                        f"deadline")
                else:
                    self.queue.appendleft(flight.chunk)
            self._discard_pool()
            self._note_respawn()
        else:
            # Threads cannot be killed: write the future off (its late
            # result, if any, is discarded) and retry the task.  Once
            # every worker is wedged, leak the pool and start fresh.
            for future, flight in expired.items():
                del self.inflight[future]
                self.abandoned += 1
                self._chunk_failed(
                    flight.chunk, "timeout",
                    f"exceeded {self.policy.task_timeout_s:.3g}s deadline "
                    f"(thread abandoned)")
            if self.abandoned >= self.jobs and self._pool is not None:
                stale = self._pool
                self._pool = None
                self.abandoned = 0
                stale.shutdown(wait=False)
                self._note_respawn()

    # -- the serial rung -------------------------------------------------------

    def _drain_serial(self):
        while self.queue and not self._fatal:
            chunk = self.queue.popleft()
            shard = next(self._shard)
            out, payload = _run_chunk(chunk, self.collect, shard, self.chaos)
            if not self.payloads:
                # Serial shards finish in shard order: with nothing
                # earlier pending, merge now rather than hold every
                # shard's spans until the sweep ends.
                self.tel.merge(payload)
                payload = None
            self._harvest(shard, chunk, (out, payload))


def run_sweep(tasks, jobs=None, backend=None, cache=None, checkpoint=None,
              chunk_size=None, max_retries=None, task_timeout=None,
              quarantine=None, chaos=None, retry_policy=None):
    """Run ``tasks`` and return a :class:`SweepResult` in task order.

    ``jobs``/``backend``/``cache`` default from the environment (see
    module docstring).  ``checkpoint`` names a manifest file enabling
    resume; it implies the default cache when none is configured, since
    resumable results must be persisted somewhere.

    ``chunk_size`` is an explicit per-chunk task count, or ``None`` for
    the default layout (~4 chunks per worker).  Results are
    bit-identical whatever the chunk layout — only dispatch overhead
    changes.

    Fault tolerance: ``max_retries`` re-runs failing tasks with seeded
    exponential backoff (default ``REPRO_MAX_RETRIES`` or 0);
    ``task_timeout`` arms a per-task deadline in seconds (default
    ``REPRO_TASK_TIMEOUT`` or none — serial execution cannot preempt
    and does not enforce it); ``quarantine`` forces the
    give-up behaviour (default: quarantine exactly when any fault
    tolerance is configured, else raise as before); ``chaos`` takes a
    :class:`~repro.exec.chaos.ChaosPolicy` injecting seeded failures;
    ``retry_policy`` supplies a full :class:`RetryPolicy` overriding
    the granular knobs.  Worker-crash recovery is always on: a
    ``BrokenProcessPool`` salvages finished results, respawns the pool
    and re-dispatches lost chunks, degrading the backend
    (process -> thread -> serial) if pools keep breaking.
    """
    tasks = list(tasks)
    jobs = default_jobs() if jobs is None else int(jobs)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    backend = default_backend(jobs) if backend is None else str(backend)
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, "
                         f"got {backend!r}")
    cache = resolve_cache(cache)
    if checkpoint is not None and cache is None:
        cache = ResultCache(DEFAULT_CACHE_DIR)
    if retry_policy is not None:
        policy = retry_policy
        policy._configured = True
    else:
        policy = RetryPolicy.resolve(max_retries=max_retries,
                                     task_timeout=task_timeout,
                                     quarantine=quarantine, chaos=chaos)

    stats = SweepStats(total=len(tasks), jobs=jobs, backend=backend,
                       cache=cache)
    start = time.perf_counter()
    results = [None] * len(tasks)
    done = [False] * len(tasks)
    failures = []

    tel = current_collector()
    collect = tel.enabled

    keys = None
    if cache is not None:
        keys = [task.cache_key() for task in tasks]

    manifest = None
    if checkpoint is not None:
        manifest = SweepManifest.open(checkpoint, keys)
        for index, key in manifest.completed.items():
            if index >= len(tasks) or keys[index] != key:
                continue
            hit = cache.get(key, default=_MISSING)
            if hit is not _MISSING:
                results[index] = hit
                done[index] = True
                stats.resumed += 1

    if cache is not None:
        for index, task in enumerate(tasks):
            if done[index]:
                continue
            hit = cache.get(keys[index], default=_MISSING)
            if hit is not _MISSING:
                results[index] = hit
                done[index] = True
                stats.cache_hits += 1
                if manifest is not None:
                    manifest.record(index, keys[index])

    pending = []
    for index, task in enumerate(tasks):
        if done[index]:
            continue
        fn, _ = resolve_task_fn(task.fn)
        pending.append((index, fn.__module__, task.fn,
                        dict(task.params), task.seed, 0))

    def _complete(index, value):
        if done[index]:
            return
        results[index] = value
        done[index] = True
        stats.executed += 1
        if cache is not None:
            fn, version = resolve_task_fn(tasks[index].fn)
            cache.put(keys[index], value, fn=tasks[index].fn,
                      version=version)
        if manifest is not None:
            manifest.record(index, keys[index])

    def _quarantine(failure):
        # A quarantined task's slot holds the typed record; it is never
        # cached or checkpointed, so a rerun tries it afresh.
        if done[failure.index]:
            return
        results[failure.index] = failure
        done[failure.index] = True
        failures.append(failure)

    def _fn_of(index):
        return tasks[index].fn

    try:
        with tel.span("exec.sweep", backend=backend, jobs=jobs):
            if backend == "serial" or jobs == 1 or len(pending) <= 1:
                stats.backend = "serial" if jobs == 1 else backend
                dispatcher = _Dispatcher(
                    "serial", 1, policy, chaos, tel, collect, stats,
                    _complete, _quarantine, _fn_of)
                dispatcher.run([[item] for item in pending])
                stats.chunks = len(pending)
            else:
                size = _resolve_chunk_size(len(pending), jobs, chunk_size)
                stats.chunk_size = size
                chunks = _chunked(pending, size)
                stats.chunks = len(chunks)
                tel.gauge("exec.dispatch.chunk_size",
                          unit="layout").set(size)
                dispatcher = _Dispatcher(
                    backend, jobs, policy, chaos, tel, collect, stats,
                    _complete, _quarantine, _fn_of)
                dispatcher.run(chunks)
    finally:
        if manifest is not None:
            manifest.close()
        stats.wall_s = time.perf_counter() - start
        _record_sweep_telemetry(tel, stats, cache)
        if collect and (stats.retries or stats.timeouts
                        or stats.worker_crashes or stats.quarantined):
            tel.gauge("exec.recovery.degraded",
                      unit="layout").set(1.0 if stats.degraded_to else 0.0)
        _LAST_STATS.append(stats)
        del _LAST_STATS[:-1]

    failures.sort(key=lambda failure: failure.index)
    return SweepResult(results=results, stats=stats, failures=failures)
