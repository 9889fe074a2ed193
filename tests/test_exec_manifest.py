"""Checkpoint/resume: sweep manifests and interrupted-sweep recovery."""

import json
import os

import numpy as np
import pytest

from repro.exec import (
    ResultCache,
    SweepManifest,
    Task,
    last_sweep_stats,
    run_sweep,
    sweep_id,
    task_fn,
)


@task_fn("test.manifest.draw", version="1")
def _draw(n, rng=None):
    return {"v": rng.standard_normal(n)}


@task_fn("test.manifest.interrupt", version="1")
def _maybe_interrupt(i, arm, log, rng=None):
    # Count every execution (append-per-run), then simulate the user's
    # Ctrl-C landing while task ``i == trip`` is running: the arm file
    # exists only on the first pass, so the resume run sails through.
    with open(os.path.join(log, f"ran-{i}"), "a") as fh:
        fh.write("x")
    if os.path.exists(arm) and i == 5:
        raise KeyboardInterrupt
    return {"i": i}


def _tasks(count=8):
    return [Task("test.manifest.draw", {"n": 5}, seed=i)
            for i in range(count)]


class TestManifestFile:
    def test_records_survive_reopen(self, tmp_path):
        keys = [t.cache_key() for t in _tasks()]
        path = tmp_path / "m.jsonl"
        with SweepManifest.open(path, keys) as m:
            m.record(0, keys[0])
            m.record(3, keys[3])
        with SweepManifest.open(path, keys) as m:
            assert m.completed == {0: keys[0], 3: keys[3]}

    def test_different_sweep_restarts(self, tmp_path):
        keys_a = [t.cache_key() for t in _tasks(4)]
        keys_b = [t.cache_key() for t in _tasks(5)]
        path = tmp_path / "m.jsonl"
        with SweepManifest.open(path, keys_a) as m:
            m.record(1, keys_a[1])
        with SweepManifest.open(path, keys_b) as m:
            assert m.completed == {}
        header = json.loads(path.read_text().splitlines()[0])
        assert header["sweep"] == sweep_id(keys_b)

    def test_half_written_tail_ignored(self, tmp_path):
        keys = [t.cache_key() for t in _tasks(4)]
        path = tmp_path / "m.jsonl"
        with SweepManifest.open(path, keys) as m:
            m.record(0, keys[0])
            m.record(1, keys[1])
        with open(path, "a") as fh:
            fh.write('{"i": 2, "ke')           # the kill mid-write
        with SweepManifest.open(path, keys) as m:
            assert m.completed == {0: keys[0], 1: keys[1]}

    def test_duplicate_record_ignored(self, tmp_path):
        keys = [t.cache_key() for t in _tasks(2)]
        path = tmp_path / "m.jsonl"
        with SweepManifest.open(path, keys) as m:
            m.record(0, keys[0])
            m.record(0, keys[0])
        assert len(path.read_text().splitlines()) == 2   # header + 1


class TestResume:
    def test_full_resume_skips_execution(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        manifest = tmp_path / "m.jsonl"
        tasks = _tasks()
        first = run_sweep(tasks, cache=cache, checkpoint=manifest)
        again = run_sweep(tasks, cache=cache, checkpoint=manifest)
        assert again.stats.executed == 0
        assert again.stats.resumed == len(tasks)
        for a, b in zip(first.results, again.results):
            assert np.array_equal(a["v"], b["v"])

    def test_resume_after_kill_is_identical(self, tmp_path):
        # Simulate a sweep killed mid-flight: keep only a prefix of the
        # manifest, then rerun — output must be bit-identical.
        cache = ResultCache(tmp_path / "c")
        manifest = tmp_path / "m.jsonl"
        tasks = _tasks()
        first = run_sweep(tasks, cache=cache, checkpoint=manifest)

        lines = manifest.read_text().splitlines()
        manifest.write_text("\n".join(lines[:4]) + "\n")   # header + 3

        again = run_sweep(tasks, cache=ResultCache(tmp_path / "c"),
                          checkpoint=manifest)
        assert again.stats.resumed == 3
        for a, b in zip(first.results, again.results):
            assert np.array_equal(a["v"], b["v"])

    def test_resume_with_lost_cache_entry_reruns(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        manifest = tmp_path / "m.jsonl"
        tasks = _tasks(4)
        first = run_sweep(tasks, cache=cache, checkpoint=manifest)
        # Drop one cached result: the manifest says done, the cache
        # disagrees — the task must re-run, not return garbage.
        cache._path(tasks[2].cache_key()).unlink()
        again = run_sweep(tasks, cache=ResultCache(tmp_path / "c"),
                          checkpoint=manifest)
        assert again.stats.executed == 1
        for a, b in zip(first.results, again.results):
            assert np.array_equal(a["v"], b["v"])

    def test_checkpoint_implies_cache(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = run_sweep(_tasks(3), checkpoint=tmp_path / "m.jsonl")
        assert out.stats.cache is not None
        assert (tmp_path / ".repro-cache").is_dir()


class TestKeyboardInterrupt:
    """Ctrl-C mid-sweep must leave a resumable checkpoint behind."""

    @staticmethod
    def _interrupt_tasks(tmp_path, count=8):
        log = tmp_path / "log"
        log.mkdir(exist_ok=True)
        arm = tmp_path / "arm"
        return [Task("test.manifest.interrupt",
                     {"i": i, "arm": str(arm), "log": str(log)}, seed=i)
                for i in range(count)], arm, log

    @staticmethod
    def _manifest_indices(path):
        lines = path.read_text().splitlines()[1:]          # skip header
        return {json.loads(line)["i"] for line in lines}

    def test_serial_interrupt_then_resume_no_recompute(self, tmp_path):
        tasks, arm, log = self._interrupt_tasks(tmp_path)
        arm.touch()
        cache = ResultCache(tmp_path / "c")
        manifest = tmp_path / "m.jsonl"
        with pytest.raises(KeyboardInterrupt):
            run_sweep(tasks, cache=cache, checkpoint=manifest)
        # Tasks 0-4 finished before the interrupt; each is durably on
        # the manifest even though the sweep died, and the trip task is
        # not (it never completed).
        assert self._manifest_indices(manifest) == {0, 1, 2, 3, 4}
        arm.unlink()
        again = run_sweep(tasks, cache=ResultCache(tmp_path / "c"),
                          checkpoint=manifest)
        assert again.stats.resumed == 5
        assert again.stats.executed == 3
        assert [r["i"] for r in again.results] == list(range(8))
        # Checkpointed tasks ran exactly once across both sweeps.
        for i in range(5):
            assert (log / f"ran-{i}").read_text() == "x"

    def test_process_interrupt_salvages_inflight_results(self, tmp_path,
                                                         monkeypatch):
        # The interrupt lands in the dispatcher's wait(); completed
        # in-flight futures must still be banked to cache + manifest
        # before it propagates.
        from repro.exec import executor as executor_mod

        real_wait = executor_mod.wait
        calls = {"n": 0}

        def tripping_wait(fs, timeout=None, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                real_wait(fs, timeout=30)     # let the pool finish first
                raise KeyboardInterrupt
            return real_wait(fs, timeout=timeout, **kwargs)

        monkeypatch.setattr(executor_mod, "wait", tripping_wait)
        tasks = _tasks()
        cache = ResultCache(tmp_path / "c")
        manifest = tmp_path / "m.jsonl"
        with pytest.raises(KeyboardInterrupt):
            run_sweep(tasks, jobs=2, backend="process", chunk_size=1,
                      cache=cache, checkpoint=manifest)
        stats = last_sweep_stats()
        assert stats.interrupted is True
        # Every future had completed by the time the interrupt landed,
        # so the salvage pass banks all of them.
        assert self._manifest_indices(manifest) == set(range(len(tasks)))
        monkeypatch.setattr(executor_mod, "wait", real_wait)
        again = run_sweep(tasks, jobs=2, backend="process", chunk_size=1,
                          cache=ResultCache(tmp_path / "c"),
                          checkpoint=manifest)
        assert again.stats.executed == 0
        assert again.stats.resumed == len(tasks)

    def test_clean_sweep_not_marked_interrupted(self, tmp_path):
        run_sweep(_tasks(3), cache=ResultCache(tmp_path / "c"),
                  checkpoint=tmp_path / "m.jsonl")
        assert last_sweep_stats().interrupted is False


class TestTornTails:
    def test_truncated_lines_counted(self, tmp_path):
        keys = [t.cache_key() for t in _tasks(4)]
        path = tmp_path / "m.jsonl"
        with SweepManifest.open(path, keys) as m:
            m.record(0, keys[0])
            m.record(1, keys[1])
        with open(path, "a") as fh:
            fh.write('{"i": 2, "ke')
        with SweepManifest.open(path, keys) as m:
            assert m.completed == {0: keys[0], 1: keys[1]}
            assert m.truncated_lines == 1

    def test_truncation_counter_emitted(self, tmp_path):
        from repro.telemetry.collector import (
            TelemetryCollector,
            use_collector,
        )

        keys = [t.cache_key() for t in _tasks(3)]
        path = tmp_path / "m.jsonl"
        with SweepManifest.open(path, keys) as m:
            m.record(0, keys[0])
        with open(path, "a") as fh:
            fh.write('{"i": 1')
        tel = TelemetryCollector()
        with use_collector(tel):
            with SweepManifest.open(path, keys):
                pass
        counts = tel.metrics.counter_values("exec.manifest.truncated")
        assert sum(counts.values()) == 1

    def test_tail_torn_inside_multibyte_char(self, tmp_path):
        # A kill can cut a UTF-8 sequence in half; the resume must not
        # die on the decode.
        keys = [t.cache_key() for t in _tasks(2)]
        path = tmp_path / "m.jsonl"
        with SweepManifest.open(path, keys) as m:
            m.record(0, keys[0])
        with open(path, "ab") as fh:
            fh.write('{"i": 1, "key": "é'.encode()[:-1])
        with SweepManifest.open(path, keys) as m:
            assert m.completed == {0: keys[0]}
            assert m.truncated_lines == 1

    def test_clean_manifest_reports_zero_truncated(self, tmp_path):
        keys = [t.cache_key() for t in _tasks(2)]
        path = tmp_path / "m.jsonl"
        with SweepManifest.open(path, keys) as m:
            m.record(0, keys[0])
        with SweepManifest.open(path, keys) as m:
            assert m.truncated_lines == 0
