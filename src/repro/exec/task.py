"""The task model: experiments decomposed into pure, seeded work units.

A sweep is a list of :class:`Task` objects.  Each task names a
*registered* function (so process workers can resolve it without
pickling code, and so the cache can key results by function identity
and version), carries a parameter mapping, and optionally a seed.  The
executor materialises the task's RNG as
``numpy.random.default_rng(SeedSequence(seed))`` — per-task streams are
fixed by the seed alone, so shard layout, backend and job count can
never change a result.

Registering a function::

    @task_fn("netsim.overall-client", version="1")
    def _overall_gains_client(scenario, testbed_seed, client, rng=None):
        ...

Bump ``version`` whenever the function's semantics change: the version
participates in the cache key, so stale cached results are never
returned for new code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional

import numpy as np

from repro.exec.hashing import digest, digests

_REGISTRY: dict = {}


def task_fn(name, version="1"):
    """Register a module-level function as a task target.

    ``name`` is the stable public identity used in cache keys and by
    process workers; keep it constant across refactors and bump
    ``version`` instead when behaviour changes.
    """
    def deco(fn: Callable):
        if name in _REGISTRY and _REGISTRY[name][0] is not fn:
            raise ValueError(f"task function {name!r} already registered")
        fn.__task_name__ = name
        fn.__task_version__ = str(version)
        _REGISTRY[name] = (fn, str(version))
        return fn
    return deco


def resolve_task_fn(name):
    """The ``(function, version)`` registered under ``name``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"no task function registered as {name!r}; task targets must "
            f"be declared with @task_fn at import time") from None


def registered_task_fns():
    """Snapshot of the registry: ``{name: version}``."""
    return {name: version for name, (_, version) in _REGISTRY.items()}


def spawn_seeds(root_seed, count):
    """``count`` independent child seeds from a root ``SeedSequence``.

    The canonical way for *new* sweeps to derive per-task seeds: the
    children are statistically independent and reproducible from the
    root alone.  (The netsim experiments keep their historical
    ``child_seeds`` derivation for bit-compatibility with the seed
    implementation's published numbers.)
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    root = np.random.SeedSequence(root_seed)
    return [int(child.generate_state(2, np.uint64)[0])
            for child in root.spawn(count)]


@dataclass(frozen=True)
class TaskFailure:
    """Typed record of a task the executor gave up on.

    When quarantine is enabled (see
    :class:`repro.exec.recovery.RetryPolicy`), a task whose retry
    budget is spent contributes one of these at its position in
    ``SweepResult.results`` — and in ``SweepResult.failures`` — instead
    of unwinding the whole sweep with an exception.  ``history`` keeps
    every failed attempt as ``(kind, message)`` pairs so a
    post-mortem can distinguish a poison task (same error every time)
    from plain bad luck (crash, then timeout, then success elsewhere).
    """

    index: int
    fn: str
    attempts: int
    kind: str            # final failure kind: exception/timeout/worker-crash
    error: str
    history: tuple = ()

    def __str__(self):
        return (f"task {self.index} ({self.fn}) quarantined after "
                f"{self.attempts} failed attempts; last: "
                f"[{self.kind}] {self.error}")


@dataclass(frozen=True)
class Task:
    """One pure, seeded unit of work.

    ``fn`` is a registered task-function name (see :func:`task_fn`);
    ``params`` are keyword arguments passed verbatim; ``seed`` (when
    not ``None``) is materialised by the executor as an ``rng`` keyword
    argument built with ``numpy.random.default_rng(seed)``.
    """

    fn: str
    params: Mapping[str, Any] = field(default_factory=dict)
    seed: Optional[int] = None

    def cache_key(self):
        """Content-addressed key: fn identity + version + params + seed."""
        return digest(self._key_fields())

    def _key_fields(self):
        _, version = resolve_task_fn(self.fn)
        return ["task", self.fn, version, dict(self.params), self.seed]

    def run(self):
        """Execute in the current process (the serial-backend path)."""
        fn, _ = resolve_task_fn(self.fn)
        if self.seed is None:
            return fn(**self.params)
        return fn(**self.params, rng=np.random.default_rng(self.seed))


def cache_keys(tasks):
    """Every task's :meth:`Task.cache_key`, canonicalising each parameter
    object the tasks share once."""
    return digests([task._key_fields() for task in tasks])
