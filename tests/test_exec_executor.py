"""The sharded executor: ordering, backends, chunking, cache wiring."""

import threading
import time

import numpy as np
import pytest

from repro.exec import ResultCache, Task, run_sweep, task_fn


@task_fn("test.exec.square", version="1")
def _square(x):
    return {"sq": x * x}


@task_fn("test.exec.draw", version="1")
def _draw(n, rng=None):
    return {"v": rng.standard_normal(n)}


@task_fn("test.exec.norm", version="1")
def _norm(vec, scale, rng=None):
    return float(np.dot(vec, vec)) * scale + rng.standard_normal()


@task_fn("test.exec.slow", version="1")
def _slow(x, delay=0.02):
    time.sleep(delay)
    return {"x": x, "thread": threading.current_thread().name}


@task_fn("test.exec.boom", version="1")
def _boom(x):
    if x == 3:
        raise RuntimeError("task 3 exploded")
    return {"x": x}


class _LockedError(Exception):
    """An exception carrying a lock, so it cannot be pickled."""

    def __init__(self, message):
        super().__init__(message)
        self.lock = threading.Lock()


@task_fn("test.exec.locked", version="1")
def _locked(x):
    if x == 2:
        raise _LockedError("task 2 holds a lock")
    return {"x": x}


def _squares(n):
    return [Task("test.exec.square", {"x": i}) for i in range(n)]


class TestOrderingAndBackends:
    def test_results_in_task_order(self):
        out = run_sweep(_squares(17), jobs=4, backend="thread")
        assert [r["sq"] for r in out.results] == [i * i for i in range(17)]

    def test_serial_equals_thread_equals_chunked(self):
        tasks = [Task("test.exec.draw", {"n": 6}, seed=100 + i)
                 for i in range(11)]
        serial = run_sweep(tasks, jobs=1)
        threaded = run_sweep(tasks, jobs=4, backend="thread")
        chunky = run_sweep(tasks, jobs=3, backend="thread", chunk_size=2)
        for a, b in zip(serial.results, threaded.results):
            assert np.array_equal(a["v"], b["v"])
        for a, b in zip(serial.results, chunky.results):
            assert np.array_equal(a["v"], b["v"])

    def test_process_backend_matches_serial(self):
        tasks = [Task("test.exec.draw", {"n": 4}, seed=i) for i in range(4)]
        serial = run_sweep(tasks, jobs=1)
        procs = run_sweep(tasks, jobs=2, backend="process")
        for a, b in zip(serial.results, procs.results):
            assert np.array_equal(a["v"], b["v"])
        # ndarray params (16 kB here) travel pickled inside each chunk.
        vec = np.arange(2000, dtype=float)
        tasks = [Task("test.exec.norm", {"vec": vec, "scale": i}, seed=i)
                 for i in range(8)]
        serial = run_sweep(tasks, jobs=1, cache=False)
        procs = run_sweep(tasks, jobs=2, backend="process", cache=False)
        assert procs.results == serial.results

    def test_threads_actually_used(self):
        out = run_sweep([Task("test.exec.slow", {"x": i}) for i in range(8)],
                        jobs=4, backend="thread", chunk_size=1)
        threads = {r["thread"] for r in out.results}
        assert len(threads) > 1

    def test_empty_sweep(self):
        out = run_sweep([])
        assert out.results == [] and out.stats.total == 0

    def test_invalid_backend_and_jobs(self):
        with pytest.raises(ValueError):
            run_sweep(_squares(2), backend="mpi")
        with pytest.raises(ValueError):
            run_sweep(_squares(2), jobs=0)

    def test_stats_accounting(self):
        out = run_sweep(_squares(10), jobs=2, backend="thread", chunk_size=3)
        assert out.stats.total == 10
        assert out.stats.executed == 10
        assert out.stats.chunks == 4
        assert "10 tasks" in out.stats.summary()


class TestErrors:
    def test_task_error_propagates(self):
        tasks = [Task("test.exec.boom", {"x": i}) for i in range(5)]
        with pytest.raises(RuntimeError, match="task 3 exploded"):
            run_sweep(tasks, jobs=1)
        with pytest.raises(RuntimeError, match="task 3 exploded"):
            run_sweep(tasks, jobs=2, backend="thread", chunk_size=1)

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_unpicklable_error_raised_as_runtime_error(self, backend):
        # Every backend hands task errors through the same capture path,
        # which swaps an exception pickle cannot carry for a summary.
        tasks = [Task("test.exec.locked", {"x": i}) for i in range(4)]
        with pytest.raises(RuntimeError,
                           match="^_LockedError: task 2 holds a lock$"):
            run_sweep(tasks, jobs=2, backend=backend, chunk_size=1,
                      cache=False)

    def test_completed_work_cached_despite_error(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        tasks = [Task("test.exec.boom", {"x": i}) for i in range(3)]
        with pytest.raises(RuntimeError):
            run_sweep(tasks + [Task("test.exec.boom", {"x": 3})],
                      jobs=1, cache=cache)
        # The three good tasks were stored before the failure surfaced.
        assert cache.stats.stores == 3


class TestCacheWiring:
    def test_second_run_all_hits(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        tasks = [Task("test.exec.draw", {"n": 5}, seed=i) for i in range(6)]
        cold = run_sweep(tasks, cache=cache)
        warm = run_sweep(tasks, cache=cache)
        assert cold.stats.executed == 6 and cold.stats.cache_hits == 0
        assert warm.stats.executed == 0 and warm.stats.cache_hits == 6
        for a, b in zip(cold.results, warm.results):
            assert np.array_equal(a["v"], b["v"])
            assert a["v"].dtype == b["v"].dtype

    def test_param_change_misses(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        run_sweep([Task("test.exec.draw", {"n": 5}, seed=1)], cache=cache)
        out = run_sweep([Task("test.exec.draw", {"n": 6}, seed=1)],
                        cache=cache)
        assert out.stats.executed == 1

    def test_cache_path_accepted(self, tmp_path):
        out = run_sweep(_squares(3), cache=tmp_path / "c2")
        assert out.stats.cache is not None
        assert (tmp_path / "c2").is_dir()

    def test_cache_false_disables(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "envcache"))
        out = run_sweep(_squares(3), cache=False)
        assert out.stats.cache is None


class TestEnvDefaults:
    def test_repro_jobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        out = run_sweep(_squares(6))
        assert out.stats.jobs == 3
        assert out.stats.backend == "thread"

    def test_repro_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2")
        monkeypatch.setenv("REPRO_BACKEND", "serial")
        out = run_sweep(_squares(6))
        assert out.stats.backend == "serial"

    def test_repro_cache_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "envcache"))
        out = run_sweep(_squares(3))
        assert out.stats.cache is not None
        assert (tmp_path / "envcache").is_dir()

    def test_bad_env_values(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "0")
        with pytest.raises(ValueError):
            run_sweep(_squares(2))
        monkeypatch.setenv("REPRO_JOBS", "1")
        monkeypatch.setenv("REPRO_BACKEND", "gpu")
        with pytest.raises(ValueError):
            run_sweep(_squares(2))
