"""Deterministic chaos injection for the sweep executor.

The fault-tolerance layer (:mod:`repro.exec.recovery`) is only worth
trusting if it is exercised against the failures it claims to absorb.
This module injects them *deterministically*: every decision is a
seeded draw from a :class:`~repro.faults.schedule.FaultSchedule`
labelled stream keyed by (seed, fault kind, task index), so a chaos
run replays exactly — same kills, same hangs, same raises — and the
test suite can assert that a chaos-ridden sweep still completes with
results bit-identical to a clean serial run.

Worker-side injections (travel to workers inside the picklable
:class:`ChaosPolicy`):

* **worker kill** — ``SIGKILL`` to the worker process mid-chunk (the
  ``BrokenProcessPool`` path).  Outside a process worker, where a kill
  would take down the run itself, it degrades to a raised
  :class:`ChaosKill` so the serial rung stays exercisable;
* **task hang** — the task sleeps ``hang_s`` before computing (the
  deadline-timeout path);
* **raised exception** — the task raises :class:`ChaosError` (the
  retry path);
* **poison** — listed task indices raise on *every* attempt (the
  quarantine path; everything else is injected on the first
  ``max_injected_attempts`` attempts only, so retries succeed).

Storage-side helpers (called on the parent's filesystem, between
runs): :func:`corrupt_cache_entries` tears ``.npz`` cache entries and
:func:`truncate_manifest` cuts a checkpoint's trailing JSONL line
mid-write.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field

from repro.faults.schedule import FaultSchedule


class ChaosError(RuntimeError):
    """An injected task failure."""


class ChaosKill(ChaosError):
    """An injected worker kill, degraded to a raise outside a process
    worker (killing the parent would end the run, not test it)."""


def _in_process_worker():
    import multiprocessing

    return multiprocessing.parent_process() is not None


@dataclass(frozen=True)
class ChaosPolicy:
    """A seeded plan of executor-level failures (picklable).

    Rates are per-task probabilities drawn once per (kind, index) —
    *not* per attempt — so the set of afflicted tasks is a pure
    function of the seed.  Checked in fixed order (poison, error,
    kill, hang); the first match wins.
    """

    seed: int = 0
    #: Probability a task raises :class:`ChaosError`.
    error_rate: float = 0.0
    #: Probability a task SIGKILLs its process worker.
    kill_rate: float = 0.0
    #: Probability a task hangs ``hang_s`` before computing.
    hang_rate: float = 0.0
    #: How long a hanging task sleeps.
    hang_s: float = 5.0
    #: Attempts on which non-poison faults fire (1 = first attempt
    #: only, so a single retry rescues every afflicted task).
    max_injected_attempts: int = 1
    #: Task indices that fail on every attempt (quarantine fodder).
    poison: tuple = field(default=())

    def _draw(self, kind, index, rate):
        if rate <= 0.0:
            return False
        return FaultSchedule(self.seed).bernoulli(rate, "chaos", kind,
                                                  int(index))

    def plan(self, index, attempt):
        """The fault injected for (task ``index``, ``attempt``), if any."""
        if int(index) in set(int(i) for i in self.poison):
            return "poison"
        if attempt >= self.max_injected_attempts:
            return None
        for kind, rate in (("error", self.error_rate),
                           ("kill", self.kill_rate),
                           ("hang", self.hang_rate)):
            if self._draw(kind, index, rate):
                return kind
        return None

    def afflicted(self, kind, count):
        """Task indices in ``range(count)`` selected for ``kind``
        (attempt 0) — what a test should expect to see injected."""
        return tuple(index for index in range(count)
                     if self.plan(index, 0) == kind)

    @classmethod
    def parse(cls, spec):
        """Build a policy from a CLI spec string.

        A bare integer seeds a default mixed plan (``error=0.2,
        kill=0.1, hang=0.05``).  Otherwise a comma-separated list of
        ``key=value`` pairs: ``seed``, ``error``, ``kill``, ``hang``,
        ``hang_s``, ``attempts``, ``poison`` (colon-separated indices),
        e.g. ``"seed=7,error=0.3,kill=0.1,poison=2:5"``.
        """
        spec = str(spec).strip()
        if not spec:
            raise ValueError("empty chaos spec")
        try:
            return cls(seed=int(spec), error_rate=0.2, kill_rate=0.1,
                       hang_rate=0.05)
        except ValueError:
            pass
        keys = {"seed": ("seed", int),
                "error": ("error_rate", float),
                "kill": ("kill_rate", float),
                "hang": ("hang_rate", float),
                "hang_s": ("hang_s", float),
                "attempts": ("max_injected_attempts", int),
                "poison": ("poison", lambda v: tuple(
                    int(i) for i in v.split(":") if i))}
        kwargs = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, value = part.partition("=")
            if not sep or key.strip() not in keys:
                raise ValueError(
                    f"bad chaos spec field {part!r}; known fields: "
                    f"{', '.join(sorted(keys))}")
            name, cast = keys[key.strip()]
            kwargs[name] = cast(value.strip())
        return cls(**kwargs)


def maybe_inject(policy, index, attempt):
    """Apply ``policy``'s plan for (``index``, ``attempt``), if any.

    Runs in the worker immediately before the task function.  Kills
    only fire inside real process workers; elsewhere they degrade to a
    raised :class:`ChaosKill` (see module docstring).
    """
    if policy is None:
        return
    plan = policy.plan(index, attempt)
    if plan is None:
        return
    if plan == "poison":
        raise ChaosError(f"chaos: poisoned task {index} "
                         f"(attempt {attempt + 1})")
    if plan == "error":
        raise ChaosError(f"chaos: injected failure for task {index}")
    if plan == "kill":
        if _in_process_worker():
            os.kill(os.getpid(), signal.SIGKILL)
        raise ChaosKill(f"chaos: worker kill for task {index} "
                        f"(in-process backend)")
    if plan == "hang":
        time.sleep(policy.hang_s)


# ---------------------------------------------------------------------------
# Storage-side chaos: torn files a killed run leaves behind
# ---------------------------------------------------------------------------

def corrupt_cache_entries(cache_dir, seed=0, rate=1.0, mode="truncate"):
    """Tear ``.npz`` entries under ``cache_dir`` (seeded selection).

    ``mode="truncate"`` cuts each selected file in half (a kill
    mid-``os.replace`` cannot produce this — the writes are atomic —
    but disk corruption can); ``mode="garbage"`` overwrites the head
    with non-zip bytes.  Returns the corrupted paths.
    """
    from pathlib import Path

    schedule = FaultSchedule(seed)
    torn = []
    for i, path in enumerate(sorted(Path(cache_dir).glob("*/*.npz"))):
        if rate < 1.0 and not schedule.bernoulli(rate, "cache-corrupt", i):
            continue
        payload = path.read_bytes()
        if mode == "garbage":
            path.write_bytes(b"\x00chaos" + payload[6:])
        else:
            path.write_bytes(payload[:max(1, len(payload) // 2)])
        torn.append(path)
    return torn


def truncate_manifest(path, keep_fraction=0.5):
    """Cut a manifest's final JSONL line mid-write (kill-mid-append).

    Keeps every complete line but the last, then appends a
    ``keep_fraction`` prefix of that last line with no newline —
    exactly the torn tail a SIGKILL between ``write`` and ``flush``
    leaves.  Returns the number of bytes removed.
    """
    from pathlib import Path

    path = Path(path)
    raw = path.read_bytes()
    lines = raw.splitlines(keepends=True)
    if not lines:
        return 0
    tail = lines[-1].rstrip(b"\n")
    cut = tail[:max(1, int(len(tail) * keep_fraction))]
    torn = b"".join(lines[:-1]) + cut
    path.write_bytes(torn)
    return len(raw) - len(torn)
