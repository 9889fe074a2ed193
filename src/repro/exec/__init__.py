"""``repro.exec`` — the sharded parallel experiment engine.

The evaluation layer's Monte-Carlo sweeps (Figs. 12-18 and the coverage
heatmaps) decompose into pure, seeded work units.  This subpackage
provides the execution substrate they all share:

* :class:`Task` / :func:`task_fn` — the task model: registered
  functions plus canonicalised params plus a deterministic per-task
  seed, so shard layout never changes results;
* :func:`run_sweep` — the sharded executor (serial / process backends,
  chunked dispatch, ordered reassembly);
* :class:`ResultCache` — content-addressed on-disk result caching
  under ``.repro-cache/`` with hit/miss/invalidation stats;
* :class:`SweepManifest` — incremental checkpoints so interrupted
  sweeps resume from completed shards;
* :class:`RetryPolicy` / :class:`TaskFailure` — the fault-tolerance
  layer: bounded retries with seeded backoff, per-task deadlines,
  worker-crash recovery, quarantine and the serial fallback
  (:mod:`repro.exec.recovery`);
* :class:`ChaosPolicy` — deterministic failure injection at every
  executor boundary for testing the above (:mod:`repro.exec.chaos`).
"""

from repro.exec.cache import DEFAULT_CACHE_DIR, ResultCache, ResultCacheStats
from repro.exec.chaos import ChaosError, ChaosKill, ChaosPolicy
from repro.exec.executor import (
    BACKENDS,
    SweepResult,
    SweepStats,
    last_sweep_stats,
    resolve_cache,
    run_sweep,
)
from repro.exec.recovery import (
    FailureLedger,
    RetryPolicy,
    TaskTimeoutError,
    WorkerCrashError,
)
from repro.exec.hashing import canonicalize, digest
from repro.exec.manifest import SweepManifest, sweep_id
from repro.exec.task import (
    Task,
    TaskFailure,
    registered_task_fns,
    resolve_task_fn,
    spawn_seeds,
    task_fn,
)

__all__ = [
    "BACKENDS",
    "ChaosError",
    "ChaosKill",
    "ChaosPolicy",
    "DEFAULT_CACHE_DIR",
    "FailureLedger",
    "ResultCache",
    "ResultCacheStats",
    "RetryPolicy",
    "SweepManifest",
    "SweepResult",
    "SweepStats",
    "Task",
    "TaskFailure",
    "TaskTimeoutError",
    "WorkerCrashError",
    "canonicalize",
    "digest",
    "last_sweep_stats",
    "registered_task_fns",
    "resolve_cache",
    "resolve_task_fn",
    "run_sweep",
    "spawn_seeds",
    "sweep_id",
    "task_fn",
]
