"""Parallel/cached/resumed/blocked sweeps are bit-identical to serial runs.

The contract of :mod:`repro.exec`: shard layout, worker count, cache
state, checkpoint recovery and the netsim client-block layout
(``block_size=``) must never change a published number.
These tests run each experiment family at a small scale and compare
every output array bit-for-bit across execution modes.
"""

import dataclasses

import numpy as np

from repro.netsim.experiments import (
    _block_rows,
    fault_sweep_experiment,
    latency_sweep_experiment,
    overall_gains_experiment,
    siso_gains_experiment,
)
from repro.netsim.heatmap import coverage_heatmap
from repro.netsim.testbed import Testbed, paper_scenarios


def _assert_same_tree(a, b, path=""):
    assert type(a) is type(b), f"{path}: {type(a)} != {type(b)}"
    if isinstance(a, dict):
        assert a.keys() == b.keys(), f"{path}: key mismatch"
        for key in a:
            _assert_same_tree(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), f"{path}: length mismatch"
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_same_tree(x, y, f"{path}[{i}]")
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype, f"{path}: dtype mismatch"
        assert np.array_equal(a, b, equal_nan=True), f"{path}: values differ"
    elif dataclasses.is_dataclass(a):
        _assert_same_tree(dataclasses.asdict(a), dataclasses.asdict(b), path)
    else:
        assert a == b, f"{path}: {a!r} != {b!r}"


class TestParallelMatchesSerial:
    def test_overall_gains(self):
        serial = overall_gains_experiment(num_clients=6, seed=3, jobs=1)
        parallel = overall_gains_experiment(num_clients=6, seed=3, jobs=4,
                                            backend="thread")
        _assert_same_tree(serial, parallel, "overall")

    def test_siso_gains(self):
        serial = siso_gains_experiment(num_clients=6, seed=5, jobs=1)
        parallel = siso_gains_experiment(num_clients=6, seed=5, jobs=3,
                                         backend="thread")
        _assert_same_tree(serial, parallel, "siso")

    def test_latency_sweep(self):
        serial = latency_sweep_experiment(latencies_ns=(0, 400),
                                          num_clients=4, seed=2, jobs=1)
        parallel = latency_sweep_experiment(latencies_ns=(0, 400),
                                            num_clients=4, seed=2, jobs=4,
                                            backend="thread")
        _assert_same_tree(serial, parallel, "latency")

    def test_fault_sweep(self):
        kwargs = dict(fault_rates=(0.0, 0.3), num_clients=3, num_steps=10,
                      seed=1)
        serial = fault_sweep_experiment(jobs=1, **kwargs)
        parallel = fault_sweep_experiment(jobs=4, backend="thread", **kwargs)
        _assert_same_tree(serial, parallel, "fault")

    def test_fault_sweep_process_backend(self):
        # Phase 2 tasks carry per-client channel arrays; on the process
        # backend they cross the boundary pickled inside each chunk.
        kwargs = dict(fault_rates=(0.0, 0.3), num_clients=4, num_steps=10,
                      seed=1)
        serial = fault_sweep_experiment(jobs=1, **kwargs)
        parallel = fault_sweep_experiment(jobs=2, backend="process",
                                          **kwargs)
        assert serial.keys() == parallel.keys()
        for key in serial:
            assert np.array_equal(serial[key], parallel[key]), key

    def test_coverage_heatmap(self):
        testbed = Testbed(paper_scenarios()[0], seed=7)
        serial = coverage_heatmap(testbed, spacing_m=6.0, seed=7, jobs=1)
        parallel = coverage_heatmap(testbed, spacing_m=6.0, seed=7, jobs=4,
                                    backend="thread")
        _assert_same_tree(serial, parallel, "heatmap")


class TestCacheTransparency:
    def test_cold_then_warm_identical(self, tmp_path):
        cache = tmp_path / "cache"
        cold = overall_gains_experiment(num_clients=5, seed=11, cache=cache)
        warm = overall_gains_experiment(num_clients=5, seed=11, cache=cache)
        _assert_same_tree(cold, warm, "cached")
        uncached = overall_gains_experiment(num_clients=5, seed=11)
        _assert_same_tree(cold, uncached, "uncached")

    def test_seed_change_defeats_cache(self, tmp_path):
        cache = tmp_path / "cache"
        a = overall_gains_experiment(num_clients=4, seed=1, cache=cache)
        b = overall_gains_experiment(num_clients=4, seed=2, cache=cache)
        assert not np.array_equal(a["fastforward"], b["fastforward"])


class TestCheckpointResume:
    def test_resume_after_kill_identical(self, tmp_path):
        # Run the sweep to completion, then throw away most of the
        # manifest — as if the process died mid-sweep — and rerun.
        cache = tmp_path / "cache"
        manifest = tmp_path / "sweep.jsonl"
        full = overall_gains_experiment(num_clients=5, seed=9, cache=cache,
                                        checkpoint=manifest)
        lines = manifest.read_text().splitlines()
        assert len(lines) > 4
        manifest.write_text("\n".join(lines[:4]) + "\n")   # header + 3 done

        resumed = overall_gains_experiment(num_clients=5, seed=9,
                                           cache=cache, checkpoint=manifest)
        _assert_same_tree(full, resumed, "resumed")

    def test_multi_phase_checkpoints(self, tmp_path):
        # fault_sweep runs two engine phases; each gets its own manifest.
        manifest = tmp_path / "faults.jsonl"
        kwargs = dict(fault_rates=(0.0, 0.3), num_clients=3, num_steps=8,
                      seed=4, cache=tmp_path / "cache")
        first = fault_sweep_experiment(checkpoint=manifest, **kwargs)
        assert (tmp_path / "faults.jsonl.probe").exists()
        assert (tmp_path / "faults.jsonl.run").exists()
        again = fault_sweep_experiment(checkpoint=manifest, **kwargs)
        _assert_same_tree(first, again, "fault-resume")


class TestClientBlocks:
    def test_blocked_experiment_bit_identical(self):
        base = siso_gains_experiment(num_clients=6, seed=3)
        blocked = siso_gains_experiment(num_clients=6, seed=3,
                                        block_size=4)
        for key in ("ap_only", "half_duplex", "fastforward"):
            assert np.array_equal(base[key], blocked[key])

    def test_block_rows_flattens_preserving_order(self):
        rows = _block_rows([[1, 2], [3], 4, [5, 6]])
        assert rows == [1, 2, 3, 4, 5, 6]
