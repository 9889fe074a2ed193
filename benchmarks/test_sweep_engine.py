"""The sweep engine's performance contract, at full experiment scale.

The acceptance bar for the execution layer: a warm-cache rerun of the
60-client overall-gains experiment must be at least 5x faster than the
cold run, with bit-identical output.  ``bench_sweep.py`` records the
same numbers to ``BENCH_sweep.json``.
"""

import time

import numpy as np

from benchmarks.conftest import print_table
from repro.exec import ResultCache
from repro.netsim.experiments import overall_gains_experiment


def test_warm_cache_speedup_full_scale(tmp_path):
    cache = ResultCache(tmp_path / "cache")

    start = time.perf_counter()
    cold = overall_gains_experiment(num_clients=60, seed=0, cache=cache)
    cold_s = time.perf_counter() - start

    start = time.perf_counter()
    warm = overall_gains_experiment(num_clients=60, seed=0, cache=cache)
    warm_s = time.perf_counter() - start

    for key in ("ap_only", "half_duplex", "fastforward"):
        assert np.array_equal(cold[key], warm[key])

    speedup = cold_s / warm_s
    print_table(
        "Sweep engine — warm-cache rerun (overall gains, 60 clients)",
        [
            ("cold run", f"{cold_s:7.2f} s"),
            ("warm-cache rerun", f"{warm_s:7.2f} s"),
            ("speedup", f"{speedup:7.1f} x"),
            ("cache", f"{cache.stats.hits} hits / "
                      f"{cache.stats.stores} stores"),
        ])
    assert speedup >= 5.0, (
        f"warm-cache rerun only {speedup:.1f}x faster than cold (need 5x)")


def test_parallel_matches_serial_full_scale():
    serial = overall_gains_experiment(num_clients=60, seed=0, jobs=1)
    parallel = overall_gains_experiment(num_clients=60, seed=0, jobs=4,
                                        backend="process")
    for key in serial:
        assert np.array_equal(np.asarray(serial[key]),
                              np.asarray(parallel[key])), key
