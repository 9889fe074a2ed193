"""The chaos harness: seeded kills/hangs/raises/corruption, survived.

The acceptance contract: a chaos-ridden sweep completes without
raising, quarantines exactly the poisoned tasks, and every
non-quarantined result is bit-identical to a clean serial run — with
all recovery transitions visible in ``exec.recovery.*`` telemetry and
the whole circus deterministic across reruns of the same seed.
"""

import numpy as np
import pytest

from repro.exec import (
    ChaosError,
    ChaosPolicy,
    ResultCache,
    RetryPolicy,
    Task,
    TaskFailure,
    run_sweep,
    task_fn,
)
from repro.exec import chaos as chaos_mod
from repro.telemetry.collector import TelemetryCollector, use_collector


@task_fn("chaos-test.draw", version="1")
def _draw(n, rng=None):
    return {"v": rng.standard_normal(n)}


def _tasks(n=6, size=4):
    return [Task("chaos-test.draw", {"n": size}, seed=1000 + i)
            for i in range(n)]


def _clean_results(tasks):
    return run_sweep(tasks, jobs=1, cache=False).results


def _assert_identical(chaotic, clean, skip=()):
    for index, (a, b) in enumerate(zip(chaotic, clean)):
        if index in skip:
            assert isinstance(a, TaskFailure)
        else:
            assert np.array_equal(a["v"], b["v"]), f"task {index} differs"


def _policy(**overrides):
    base = dict(max_retries=4, backoff_base_s=0.001, backoff_max_s=0.01,
                timeout_grace_s=0.5, pool_break_budget=3)
    base.update(overrides)
    return RetryPolicy(**base)


class TestChaosPolicy:
    def test_plan_deterministic_per_seed(self):
        policy = ChaosPolicy(seed=5, error_rate=0.4, kill_rate=0.2)
        again = ChaosPolicy(seed=5, error_rate=0.4, kill_rate=0.2)
        for index in range(20):
            assert policy.plan(index, 0) == again.plan(index, 0)

    def test_injection_stops_after_budgeted_attempts(self):
        policy = ChaosPolicy(seed=5, error_rate=1.0,
                             max_injected_attempts=2)
        assert policy.plan(0, 0) == "error"
        assert policy.plan(0, 1) == "error"
        assert policy.plan(0, 2) is None

    def test_poison_fires_every_attempt(self):
        policy = ChaosPolicy(seed=5, poison=(3,))
        for attempt in range(5):
            assert policy.plan(3, attempt) == "poison"

    def test_parse_specs(self):
        bare = ChaosPolicy.parse("42")
        assert bare.seed == 42 and bare.error_rate == 0.2
        full = ChaosPolicy.parse("seed=7,error=0.3,kill=0.1,poison=2:5")
        assert full.seed == 7 and full.poison == (2, 5)
        with pytest.raises(ValueError):
            ChaosPolicy.parse("bogus=1")

    def test_maybe_inject_raises_in_parent(self):
        with pytest.raises(ChaosError):
            chaos_mod.maybe_inject(ChaosPolicy(seed=0, error_rate=1.0),
                                   0, 0)
        # Kill degrades to a raise outside a process worker.
        with pytest.raises(chaos_mod.ChaosKill):
            chaos_mod.maybe_inject(ChaosPolicy(seed=0, kill_rate=1.0),
                                   0, 0)


class TestInjectedErrors:
    def test_serial_sweep_survives_error_storm(self):
        tasks = _tasks(8)
        chaos = ChaosPolicy(seed=3, error_rate=0.5)
        assert chaos.afflicted("error", 8)       # storm actually fires
        out = run_sweep(tasks, jobs=1, cache=False, retry_policy=_policy(),
                        chaos=chaos)
        assert out.ok and out.stats.retries >= 1
        _assert_identical(out.results, _clean_results(tasks))

    def test_process_sweep_survives_error_storm(self):
        tasks = _tasks(8)
        chaos = ChaosPolicy(seed=3, error_rate=0.5)
        out = run_sweep(tasks, jobs=3, backend="process", chunk_size=2,
                        cache=False, retry_policy=_policy(), chaos=chaos)
        assert out.ok
        _assert_identical(out.results, _clean_results(tasks))

    def test_same_seed_same_outcome(self):
        tasks = _tasks(8)
        chaos = ChaosPolicy(seed=11, error_rate=0.4, poison=(6,))
        runs = [run_sweep(tasks, jobs=2, backend="process", chunk_size=2,
                          cache=False, retry_policy=_policy(), chaos=chaos)
                for _ in range(2)]
        assert ([f.index for f in runs[0].failures]
                == [f.index for f in runs[1].failures] == [6])
        assert runs[0].stats.retries == runs[1].stats.retries
        _assert_identical(runs[0].results, runs[1].results, skip=(6,))


class TestQuarantine:
    def test_exactly_poisoned_tasks_quarantined(self):
        tasks = _tasks(6)
        chaos = ChaosPolicy(seed=0, poison=(1, 4))
        out = run_sweep(tasks, jobs=2, backend="process", chunk_size=2,
                        cache=False, retry_policy=_policy(max_retries=1),
                        chaos=chaos)
        assert [f.index for f in out.failures] == [1, 4]
        assert out.stats.quarantined == 2
        _assert_identical(out.results, _clean_results(tasks), skip=(1, 4))

    def test_quarantine_visible_in_telemetry(self):
        tasks = _tasks(4)
        chaos = ChaosPolicy(seed=0, poison=(2,))
        tel = TelemetryCollector()
        with use_collector(tel):
            run_sweep(tasks, jobs=1, cache=False,
                      retry_policy=_policy(max_retries=1), chaos=chaos)
        counts = tel.metrics.counter_values("exec.recovery.quarantined")
        assert sum(counts.values()) == 1
        actions = [e["labels"]["action"] for e in tel.events
                   if e["name"] == "exec.recovery.transition"]
        assert "quarantine" in actions and "retry" in actions


class TestWorkerKills:
    def test_process_sweep_survives_kill_storm(self):
        tasks = _tasks(8)
        chaos = ChaosPolicy(seed=1, kill_rate=0.4)
        assert chaos.afflicted("kill", 8)
        tel = TelemetryCollector()
        with use_collector(tel):
            out = run_sweep(tasks, jobs=2, backend="process", chunk_size=2,
                            cache=False, retry_policy=_policy(),
                            chaos=chaos)
        assert out.ok
        assert out.stats.worker_crashes >= 1
        assert out.stats.respawns + (1 if out.stats.degraded_to else 0) >= 1
        _assert_identical(out.results, _clean_results(tasks))
        names = {e["name"] for e in tel.events}
        assert "exec.recovery.transition" in names

    def test_chunk_splitting_isolates_culprit(self):
        tasks = _tasks(8)
        chaos = ChaosPolicy(seed=1, kill_rate=0.2)
        killed = chaos.afflicted("kill", 8)
        assert killed                       # seed chosen so someone dies
        out = run_sweep(tasks, jobs=2, backend="process", chunk_size=4,
                        cache=False, retry_policy=_policy(), chaos=chaos)
        assert out.ok and out.stats.chunk_splits >= 1
        _assert_identical(out.results, _clean_results(tasks))

    def test_pool_break_budget_degrades_backend(self):
        tasks = _tasks(4)
        # Every task kills its worker twice: the process pool can never
        # finish a chunk, so the sweep must fall back to serial, where
        # the kill degrades to a charged raise and retries succeed.
        chaos = ChaosPolicy(seed=0, kill_rate=1.0, max_injected_attempts=2)
        tel = TelemetryCollector()
        with use_collector(tel):
            out = run_sweep(tasks, jobs=2, backend="process", chunk_size=1,
                            cache=False,
                            retry_policy=_policy(max_retries=6,
                                                 pool_break_budget=2),
                            chaos=chaos)
        assert out.ok and out.stats.degraded_to == "serial"
        _assert_identical(out.results, _clean_results(tasks))
        degrades = [e["labels"] for e in tel.events
                    if e["name"] == "exec.recovery.transition"
                    and e["labels"]["action"] == "degrade"]
        assert len(degrades) == 1
        assert degrades[0]["from"] == "process"
        assert degrades[0]["to"] == "serial"


class TestHangsAndTimeouts:
    def test_process_hang_reclaimed_by_deadline(self):
        tasks = _tasks(6)
        chaos = ChaosPolicy(seed=2, hang_rate=0.3, hang_s=10.0)
        assert chaos.afflicted("hang", 6)
        out = run_sweep(tasks, jobs=2, backend="process", chunk_size=1,
                        cache=False,
                        retry_policy=_policy(task_timeout_s=0.5),
                        chaos=chaos)
        assert out.ok and out.stats.timeouts >= 1
        _assert_identical(out.results, _clean_results(tasks))


class TestStorageChaos:
    def test_corrupt_cache_entries_recomputed(self, tmp_path):
        cache_dir = tmp_path / "cache"
        tasks = _tasks(5)
        first = run_sweep(tasks, jobs=1, cache=ResultCache(cache_dir))
        torn = chaos_mod.corrupt_cache_entries(cache_dir, seed=0, rate=1.0)
        assert len(torn) == 5
        cache = ResultCache(cache_dir)
        again = run_sweep(tasks, jobs=1, cache=cache)
        assert again.stats.executed == 5      # every entry was evicted
        assert cache.stats.corrupt == 5
        _assert_identical(again.results, first.results)

    def test_garbage_cache_entries_recomputed(self, tmp_path):
        cache_dir = tmp_path / "cache"
        tasks = _tasks(3)
        run_sweep(tasks, jobs=1, cache=ResultCache(cache_dir))
        chaos_mod.corrupt_cache_entries(cache_dir, seed=0, rate=1.0,
                                        mode="garbage")
        cache = ResultCache(cache_dir)
        out = run_sweep(tasks, jobs=1, cache=cache)
        assert out.stats.executed == 3 and cache.stats.corrupt == 3

    def test_truncated_manifest_resumes_valid_prefix(self, tmp_path):
        manifest = tmp_path / "sweep.manifest"
        cache = ResultCache(tmp_path / "cache")
        tasks = _tasks(6)
        first = run_sweep(tasks, jobs=1, cache=cache,
                          checkpoint=manifest)
        assert first.stats.executed == 6
        removed = chaos_mod.truncate_manifest(manifest)
        assert removed > 0
        tel = TelemetryCollector()
        with use_collector(tel):
            again = run_sweep(tasks, jobs=1, cache=cache,
                              checkpoint=manifest)
        # The torn final line loses one completion record; its result
        # is still in the cache, so nothing re-executes.
        assert again.stats.resumed == 5
        assert again.stats.executed == 0 and again.stats.cache_hits == 1
        counts = tel.metrics.counter_values("exec.manifest.truncated")
        assert sum(counts.values()) == 1
        _assert_identical(again.results, first.results)


class TestFullCircus:
    def test_everything_at_once(self, tmp_path):
        """Kills + hangs + raises + poison + torn storage, one sweep."""
        tasks = _tasks(10)
        clean = _clean_results(tasks)
        chaos = ChaosPolicy(seed=4, error_rate=0.3, kill_rate=0.15,
                            hang_rate=0.1, hang_s=10.0, poison=(7,))
        cache = ResultCache(tmp_path / "cache")
        tel = TelemetryCollector()
        with use_collector(tel):
            out = run_sweep(tasks, jobs=2, backend="process", chunk_size=2,
                            cache=cache,
                            checkpoint=tmp_path / "sweep.manifest",
                            retry_policy=_policy(max_retries=5,
                                                 task_timeout_s=0.6),
                            chaos=chaos)
        assert [f.index for f in out.failures] == [7]
        _assert_identical(out.results, clean, skip=(7,))
        assert cache.stats.stores == 9       # the poison task never lands
        # Rerun resumes everything that survived, retries the poison.
        again = run_sweep(tasks, jobs=1, cache=cache,
                          checkpoint=tmp_path / "sweep.manifest")
        assert again.stats.resumed == 9 and again.stats.executed == 1
        _assert_identical(again.results, clean)
