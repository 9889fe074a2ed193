"""Fault-tolerance policy for the sweep executor.

The execution path gets the same self-healing treatment the signal
path received from :mod:`repro.supervision`: bounded remedies, applied
least-lossy first, every transition observable.

* **Retry with backoff** — a raising task is retried up to
  ``max_retries`` times with exponential backoff and *seeded* jitter
  (a :class:`~repro.faults.schedule.FaultSchedule`-style labelled
  stream, so two runs of the same sweep schedule identical delays);
* **Deadlines** — ``task_timeout_s`` bounds one task's wall time.  On
  the process backend an expired chunk's workers are killed and the
  chunk re-dispatched; the serial backend cannot preempt at all and
  does not enforce deadlines;
* **Quarantine** — a task that keeps failing is quarantined after its
  budget is spent: the sweep completes and a typed
  :class:`~repro.exec.task.TaskFailure` record takes the result's
  place instead of an exception unwinding the whole sweep;
* **Worker-crash recovery** — a ``BrokenProcessPool`` no longer kills
  the sweep: surviving results are salvaged, the pool is respawned and
  lost chunks are re-dispatched, *split in half* so repeated crashes
  isolate the culprit task before charging anyone's budget;
* **Serial fallback** — a pool that keeps breaking is abandoned and
  the rest of the sweep runs inline.

Everything here is pure bookkeeping (no pools, no futures) so the
policy is unit-testable and the executor stays the only place that
touches ``concurrent.futures``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.faults.schedule import FaultSchedule


class TaskTimeoutError(RuntimeError):
    """A task exceeded its deadline (``task_timeout_s``)."""


class WorkerCrashError(RuntimeError):
    """A task was charged with repeatedly crashing its worker."""


@dataclass
class RetryPolicy:
    """How the executor reacts to failing tasks and dying workers."""

    #: Failed attempts re-run per task (0 disables retries).
    max_retries: int = 0
    #: Per-task deadline in seconds (``None`` disables deadlines).
    task_timeout_s: Optional[float] = None
    #: Base backoff before the first retry; doubles per failure.
    backoff_base_s: float = 0.05
    #: Backoff ceiling.
    backoff_max_s: float = 2.0
    #: Fraction of the delay added as seeded jitter (0 disables).
    jitter: float = 0.5
    #: Seed for the jitter stream — same seed, same delays.
    seed: int = 0
    #: Quarantine a task whose budget is spent instead of raising.
    #: :meth:`resolve` turns it on exactly when fault tolerance is
    #: configured at all.
    quarantine: bool = True
    #: Chunks lost to worker crashes are re-dispatched this many times
    #: per task even with ``max_retries=0`` (transient crashes must not
    #: kill a sweep; a *deterministic* crasher still runs out).
    crash_retries: int = 2
    #: Consecutive pool breakages tolerated before the sweep falls back
    #: to inline serial execution.
    pool_break_budget: int = 3
    #: Extra wall-clock allowance on top of ``task_timeout_s * len(chunk)``
    #: covering worker spawn and import cost.
    timeout_grace_s: float = 1.0
    #: Poll interval of the dispatch loop while futures are in flight.
    poll_s: float = 0.05

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}")
        if self.task_timeout_s is not None and self.task_timeout_s <= 0:
            raise ValueError(
                f"task_timeout_s must be > 0, got {self.task_timeout_s}")
        if self.crash_retries < 0:
            raise ValueError(
                f"crash_retries must be >= 0, got {self.crash_retries}")

    @classmethod
    def resolve(cls, max_retries=None, task_timeout=None, quarantine=None,
                chaos=None, seed=None):
        """Build a policy from ``run_sweep`` keywords.

        Unset keywords mean no retries and no deadline.  ``quarantine``
        defaults to whether any of ``max_retries``, ``task_timeout`` or
        ``chaos`` was given; ``chaos`` only counts towards that, the
        chaos plan itself travels separately to the workers.
        """
        if quarantine is None:
            quarantine = (max_retries is not None
                          or task_timeout is not None or chaos is not None)
        policy = cls(
            max_retries=0 if max_retries is None else int(max_retries),
            task_timeout_s=None if task_timeout is None
            else float(task_timeout),
            quarantine=bool(quarantine),
        )
        if seed is not None:
            policy.seed = int(seed)
        return policy

    def budget(self, kinds):
        """Allowed retries for a task given its failure kinds so far.

        Crash-only histories draw from the (usually larger) crash
        budget: a transient worker death should not consume the
        caller's semantic retry budget.
        """
        if kinds and all(kind == "worker-crash" for kind in kinds):
            return max(self.max_retries, self.crash_retries)
        return self.max_retries

    def backoff_s(self, index, failures):
        """Deterministic backoff before attempt ``failures + 1``.

        Exponential in the failure count, capped, with seeded jitter
        drawn from a labelled stream keyed by (seed, task index,
        failure count) — reruns of the same sweep schedule the exact
        same delays.
        """
        if failures <= 0:
            return 0.0
        delay = min(self.backoff_base_s * 2.0 ** (failures - 1),
                    self.backoff_max_s)
        if self.jitter > 0.0:
            u = FaultSchedule(self.seed).stream(
                "exec-backoff", int(index), int(failures)).random()
            delay *= 1.0 + self.jitter * u
        return delay


@dataclass(frozen=True)
class FailureEvent:
    """One failed attempt of one task."""

    kind: str                   # "exception" | "timeout" | "worker-crash"
    error: str                  # message of the failed attempt


@dataclass
class _TaskRecord:
    events: list = field(default_factory=list)
    last_error: Optional[BaseException] = None


class FailureLedger:
    """Per-task failure accounting against a :class:`RetryPolicy`.

    ``charge`` records one failed attempt and answers what to do next:
    ``"retry"`` while budget remains, ``"give-up"`` once it is spent
    (the caller then quarantines or raises per the policy).
    """

    def __init__(self, policy: RetryPolicy):
        self.policy = policy
        self._records = {}
        self.retries_scheduled = 0

    def charge(self, index, kind, error):
        """Record a failed attempt; returns ``"retry"`` or ``"give-up"``."""
        record = self._records.setdefault(int(index), _TaskRecord())
        message = f"{type(error).__name__}: {error}" \
            if isinstance(error, BaseException) else str(error)
        record.events.append(FailureEvent(kind=kind, error=message))
        if isinstance(error, BaseException):
            record.last_error = error
        kinds = [event.kind for event in record.events]
        if len(record.events) <= self.policy.budget(kinds):
            self.retries_scheduled += 1
            return "retry"
        return "give-up"

    def failures(self, index):
        """Failed attempts recorded for task ``index``."""
        record = self._records.get(int(index))
        return len(record.events) if record is not None else 0

    def delay_s(self, index):
        """Backoff before the next attempt of task ``index``."""
        return self.policy.backoff_s(index, self.failures(index))

    def final_error(self, index):
        """The exception to raise for ``index`` when not quarantining."""
        record = self._records.get(int(index))
        if record is None:
            return RuntimeError(f"task {index} failed")
        if record.last_error is not None:
            return record.last_error
        event = record.events[-1]
        exc_cls = {"timeout": TaskTimeoutError,
                   "worker-crash": WorkerCrashError}.get(event.kind,
                                                         RuntimeError)
        return exc_cls(event.error)

    def failure_record(self, index, fn):
        """Typed :class:`TaskFailure` summarising task ``index``."""
        from repro.exec.task import TaskFailure

        record = self._records.get(int(index), _TaskRecord())
        events = tuple((event.kind, event.error)
                       for event in record.events)
        last = record.events[-1] if record.events else None
        return TaskFailure(index=int(index), fn=fn,
                           attempts=len(record.events),
                           kind=last.kind if last else "exception",
                           error=last.error if last else "unknown failure",
                           history=events)
