"""Fault-tolerant dispatch: retry policy, ledger, backoff, quarantine."""

import numpy as np
import pytest

from repro.exec import (
    ChaosPolicy,
    FailureLedger,
    ResultCache,
    RetryPolicy,
    Task,
    TaskFailure,
    TaskTimeoutError,
    WorkerCrashError,
    run_sweep,
    task_fn,
)
from repro.telemetry.collector import TelemetryCollector, use_collector

_FLAKY_CALLS = {}


@task_fn("recovery-test.flaky", version="1")
def _flaky(x, fail_times=0):
    calls = _FLAKY_CALLS.get(x, 0)
    _FLAKY_CALLS[x] = calls + 1
    if calls < fail_times:
        raise RuntimeError(f"flaky task {x} attempt {calls}")
    return {"x": x}


@task_fn("recovery-test.poisoned", version="1")
def _poisoned(x, bad=()):
    if x in tuple(bad):
        raise ValueError(f"task {x} is poison")
    return {"x": x}


@task_fn("recovery-test.draw", version="1")
def _draw(n, rng=None):
    return {"v": rng.standard_normal(n)}


@pytest.fixture(autouse=True)
def _reset_flaky():
    _FLAKY_CALLS.clear()
    yield
    _FLAKY_CALLS.clear()


class TestPolicyResolution:
    def test_defaults_off(self):
        policy = RetryPolicy.resolve()
        assert policy.max_retries == 0
        assert policy.task_timeout_s is None
        assert not policy.quarantine

    def test_quarantine_override(self):
        assert not RetryPolicy.resolve(max_retries=2,
                                       quarantine=False).quarantine
        assert RetryPolicy.resolve(quarantine=True).quarantine
        # Any fault-tolerance keyword turns quarantine on ...
        assert RetryPolicy.resolve(max_retries=0).quarantine
        assert RetryPolicy.resolve(chaos=ChaosPolicy(seed=1)).quarantine
        # ... and so does building a policy directly.
        assert RetryPolicy().quarantine
        assert not RetryPolicy(quarantine=False).quarantine

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(task_timeout_s=0.0)


class TestBackoff:
    def test_deterministic_across_instances(self):
        a = RetryPolicy(max_retries=5, seed=7)
        b = RetryPolicy(max_retries=5, seed=7)
        delays = [(i, f, a.backoff_s(i, f))
                  for i in range(3) for f in range(1, 4)]
        for i, f, delay in delays:
            assert b.backoff_s(i, f) == delay

    def test_exponential_with_cap(self):
        policy = RetryPolicy(max_retries=8, backoff_base_s=0.1,
                             backoff_max_s=0.4, jitter=0.0)
        assert policy.backoff_s(0, 1) == pytest.approx(0.1)
        assert policy.backoff_s(0, 2) == pytest.approx(0.2)
        assert policy.backoff_s(0, 3) == pytest.approx(0.4)
        assert policy.backoff_s(0, 5) == pytest.approx(0.4)   # capped

    def test_jitter_bounded_and_seed_sensitive(self):
        jittered = RetryPolicy(max_retries=2, jitter=0.5, seed=1)
        base = RetryPolicy(max_retries=2, jitter=0.0)
        for index in range(5):
            lo = base.backoff_s(index, 1)
            assert lo <= jittered.backoff_s(index, 1) <= 1.5 * lo
        other = RetryPolicy(max_retries=2, jitter=0.5, seed=2)
        assert any(jittered.backoff_s(i, 1) != other.backoff_s(i, 1)
                   for i in range(5))


class TestLedger:
    def test_budget_then_give_up(self):
        ledger = FailureLedger(RetryPolicy(max_retries=2))
        err = RuntimeError("nope")
        assert ledger.charge(0, "exception", err) == "retry"
        assert ledger.charge(0, "exception", err) == "retry"
        assert ledger.charge(0, "exception", err) == "give-up"
        assert ledger.failures(0) == 3

    def test_crash_budget_separate(self):
        # max_retries=0 but crashes still get their own budget.
        ledger = FailureLedger(RetryPolicy(max_retries=0, crash_retries=2))
        assert ledger.charge(1, "worker-crash", "died") == "retry"
        assert ledger.charge(1, "worker-crash", "died") == "retry"
        assert ledger.charge(1, "worker-crash", "died") == "give-up"
        # ...while a plain exception gives up immediately.
        assert ledger.charge(2, "exception",
                             RuntimeError("x")) == "give-up"

    def test_final_error_prefers_original_exception(self):
        ledger = FailureLedger(RetryPolicy(max_retries=0))
        original = ValueError("the real problem")
        ledger.charge(0, "exception", original)
        assert ledger.final_error(0) is original
        ledger.charge(1, "timeout", "too slow")
        assert isinstance(ledger.final_error(1), TaskTimeoutError)
        ledger.charge(2, "worker-crash", "died")
        assert isinstance(ledger.final_error(2), WorkerCrashError)

    def test_failure_record_history(self):
        ledger = FailureLedger(RetryPolicy(max_retries=1))
        ledger.charge(3, "worker-crash", "died")
        ledger.charge(3, "exception", RuntimeError("then raised"))
        record = ledger.failure_record(3, "some.fn")
        assert isinstance(record, TaskFailure)
        assert record.index == 3 and record.attempts == 2
        assert record.kind == "exception"
        assert [kind for kind, _ in record.history] == ["worker-crash",
                                                        "exception"]
        assert "quarantined after 2" in str(record)


class TestRetrySweeps:
    def test_flaky_task_retried_to_success_serial(self):
        tasks = [Task("recovery-test.flaky",
                      {"x": i, "fail_times": 2 if i == 1 else 0})
                 for i in range(4)]
        policy = RetryPolicy(max_retries=3, backoff_base_s=0.001)
        out = run_sweep(tasks, jobs=1, cache=False, retry_policy=policy)
        assert out.ok
        assert [r["x"] for r in out.results] == [0, 1, 2, 3]
        assert out.stats.retries == 2
        assert _FLAKY_CALLS[1] == 3

    def test_flaky_task_retried_to_success_process(self):
        # Worker processes each count calls in their own copy of a
        # module global, so the flakiness comes from a chaos plan keyed
        # on (task index, attempt) instead.
        tasks = [Task("recovery-test.flaky", {"x": i}) for i in range(6)]
        chaos = ChaosPolicy(seed=3, error_rate=0.5)
        flaky = chaos.afflicted("error", 6)
        assert flaky
        policy = RetryPolicy(max_retries=2, backoff_base_s=0.001)
        out = run_sweep(tasks, jobs=3, backend="process", chunk_size=2,
                        cache=False, retry_policy=policy, chaos=chaos)
        assert out.ok
        assert [r["x"] for r in out.results] == list(range(6))
        assert out.stats.retries == len(flaky)

    def test_quarantine_records_in_results_and_failures(self):
        tasks = [Task("recovery-test.poisoned", {"x": i, "bad": (2,)})
                 for i in range(5)]
        policy = RetryPolicy(max_retries=1, backoff_base_s=0.001)
        out = run_sweep(tasks, jobs=1, cache=False, retry_policy=policy)
        assert not out.ok
        assert [f.index for f in out.failures] == [2]
        failure = out.results[2]
        assert isinstance(failure, TaskFailure)
        assert failure.attempts == 2 and "poison" in failure.error
        assert out.stats.quarantined == 1
        with pytest.raises(RuntimeError, match="quarantined"):
            out.raise_if_failed()

    def test_quarantined_task_never_cached(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        tasks = [Task("recovery-test.poisoned", {"x": i, "bad": (1,)})
                 for i in range(3)]
        policy = RetryPolicy(max_retries=0, backoff_base_s=0.001)
        out = run_sweep(tasks, jobs=1, cache=cache, retry_policy=policy)
        assert [f.index for f in out.failures] == [1]
        assert cache.stats.stores == 2   # only the two successes

    def test_default_behaviour_still_raises(self):
        tasks = [Task("recovery-test.poisoned", {"x": i, "bad": (1,)})
                 for i in range(3)]
        with pytest.raises(ValueError, match="task 1 is poison"):
            run_sweep(tasks, jobs=1, cache=False)
        with pytest.raises(ValueError, match="task 1 is poison"):
            run_sweep(tasks, jobs=2, backend="process", cache=False)

    def test_quarantine_off_raises_after_retries(self):
        tasks = [Task("recovery-test.poisoned", {"x": i, "bad": (0,)})
                 for i in range(3)]
        policy = RetryPolicy(max_retries=1, quarantine=False,
                             backoff_base_s=0.001)
        with pytest.raises(ValueError, match="task 0 is poison"):
            run_sweep(tasks, jobs=1, cache=False, retry_policy=policy)

    def test_caller_policy_left_unchanged(self):
        tasks = [Task("recovery-test.poisoned", {"x": i, "bad": (1,)})
                 for i in range(3)]
        policy = RetryPolicy(max_retries=1, backoff_base_s=0.001)
        before = dict(vars(policy))
        out = run_sweep(tasks, jobs=1, cache=False, retry_policy=policy)
        assert [f.index for f in out.failures] == [1]
        assert vars(policy) == before

    def test_retry_telemetry_counters(self):
        tasks = [Task("recovery-test.flaky", {"x": 9, "fail_times": 1}),
                 Task("recovery-test.flaky", {"x": 10})]
        tel = TelemetryCollector()
        policy = RetryPolicy(max_retries=2, backoff_base_s=0.001)
        with use_collector(tel):
            run_sweep(tasks, jobs=1, cache=False, retry_policy=policy)
        counts = tel.metrics.counter_values("exec.recovery.retries")
        assert sum(counts.values()) == 1
        actions = [e["labels"]["action"] for e in tel.events
                   if e["name"] == "exec.recovery.transition"]
        assert actions == ["retry"]

    def test_results_bit_identical_with_and_without_ft(self):
        tasks = [Task("recovery-test.draw", {"n": 5}, seed=40 + i)
                 for i in range(7)]
        plain = run_sweep(tasks, jobs=1, cache=False)
        policy = RetryPolicy(max_retries=3, task_timeout_s=30.0,
                             backoff_base_s=0.001)
        tolerant = run_sweep(tasks, jobs=3, backend="process", chunk_size=2,
                             cache=False, retry_policy=policy)
        for a, b in zip(plain.results, tolerant.results):
            assert np.array_equal(a["v"], b["v"])
