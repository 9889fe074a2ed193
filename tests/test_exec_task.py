"""The task model: registration, canonical hashing, seeded RNGs."""

import dataclasses

import numpy as np
import pytest

from repro.exec import (
    Task,
    canonicalize,
    digest,
    registered_task_fns,
    resolve_task_fn,
    spawn_seeds,
    task_fn,
)
from repro.exec.task import cache_keys


@task_fn("test.double", version="1")
def _double(x, rng=None):
    return {"x": 2 * x}


@task_fn("test.noise", version="3")
def _noise(n, rng=None):
    return rng.standard_normal(n)


@dataclasses.dataclass
class _Cfg:
    depth: float = 100.0
    label: str = "a"


class TestCanonicalize:
    def test_dict_order_irrelevant(self):
        assert digest({"a": 1, "b": 2.5}) == digest({"b": 2.5, "a": 1})

    def test_float_int_distinct(self):
        assert digest(1) != digest(1.0)

    def test_list_tuple_distinct(self):
        assert digest([1, 2]) != digest((1, 2))

    def test_array_value_sensitivity(self):
        a = np.arange(6.0)
        b = a.copy()
        assert digest(a) == digest(b)
        b[3] += 1e-12
        assert digest(a) != digest(b)

    def test_array_dtype_and_shape_matter(self):
        a = np.zeros(4)
        assert digest(a) != digest(np.zeros(4, dtype=np.float32))
        assert digest(a) != digest(np.zeros((2, 2)))

    def test_noncontiguous_array_equals_contiguous(self):
        a = np.arange(16.0).reshape(4, 4)
        assert digest(a.T) == digest(np.ascontiguousarray(a.T))

    def test_dataclass_fields(self):
        assert digest(_Cfg()) == digest(_Cfg())
        assert digest(_Cfg()) != digest(_Cfg(depth=101.0))

    def test_complex_and_bytes(self):
        assert canonicalize(1 + 2j)[0] == "c"
        assert digest(b"abc") != digest(b"abd")

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            canonicalize(object())   # no __dict__, no canonical form

    def test_testbed_canonicalises(self):
        from repro.netsim.testbed import Testbed, paper_scenarios

        t1 = Testbed(paper_scenarios()[0], seed=1)
        t2 = Testbed(paper_scenarios()[0], seed=1)
        assert digest(t1) == digest(t2)
        assert digest(t1) != digest(Testbed(paper_scenarios()[1], seed=1))


class TestRegistry:
    def test_resolution(self):
        fn, version = resolve_task_fn("test.double")
        assert fn is _double and version == "1"

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="task function"):
            resolve_task_fn("test.unregistered")

    def test_snapshot_contains_versions(self):
        snap = registered_task_fns()
        assert snap["test.double"] == "1"
        assert snap["test.noise"] == "3"

    def test_double_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            task_fn("test.double")(lambda: None)


class TestTask:
    def test_run_without_seed(self):
        assert Task("test.double", {"x": 21}).run() == {"x": 42}

    def test_run_with_seed_reproducible(self):
        a = Task("test.noise", {"n": 8}, seed=7).run()
        b = Task("test.noise", {"n": 8}, seed=7).run()
        assert np.array_equal(a, b)
        c = Task("test.noise", {"n": 8}, seed=8).run()
        assert not np.array_equal(a, c)

    def test_cache_key_depends_on_everything(self):
        base = Task("test.noise", {"n": 8}, seed=7).cache_key()
        assert Task("test.noise", {"n": 8}, seed=7).cache_key() == base
        assert Task("test.noise", {"n": 9}, seed=7).cache_key() != base
        assert Task("test.noise", {"n": 8}, seed=8).cache_key() != base
        assert Task("test.double", {"n": 8}, seed=7).cache_key() != base

    def test_seed_matches_child_rngs(self):
        # A task seed rebuilds exactly the generator child_rngs yields.
        from repro.utils.rng import child_rngs, child_seeds

        seeds = child_seeds(42, 3)
        rngs = child_rngs(42, 3)
        for seed, rng in zip(seeds, rngs):
            assert np.array_equal(np.random.default_rng(seed).random(5),
                                  rng.random(5))


class TestSpawnSeeds:
    def test_deterministic_and_independent(self):
        assert spawn_seeds(5, 4) == spawn_seeds(5, 4)
        assert spawn_seeds(5, 4) != spawn_seeds(6, 4)
        assert len(set(spawn_seeds(5, 100))) == 100

    def test_prefix_stability(self):
        # Growing the sweep must not reshuffle existing task seeds.
        assert spawn_seeds(5, 10)[:4] == spawn_seeds(5, 4)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_seeds(0, -1)


class _Captured(Exception):
    pass


def _swept_tasks(module, experiment, **kwargs):
    """The task list ``experiment`` hands to ``run_sweep``, unrun."""
    captured = []

    def capture(tasks, **_):
        captured.extend(tasks)
        raise _Captured

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "run_sweep", capture)
        with pytest.raises(_Captured):
            experiment(**kwargs)
    return captured


class TestCacheKeys:
    """``run_sweep`` keys a sweep with :func:`cache_keys`, which lowers
    each shared parameter object once; the keys must stay byte-identical
    to :meth:`Task.cache_key`, or existing caches would stop hitting."""

    @pytest.mark.parametrize("sweep", ["overall", "siso", "fleet"])
    def test_keys_equal_task_cache_keys(self, sweep):
        import repro.fleet.experiment as fleet
        import repro.netsim.experiments as netsim

        module, experiment, kwargs = {
            "overall": (netsim, netsim.overall_gains_experiment,
                        dict(num_clients=12, seed=3)),
            "siso": (netsim, netsim.siso_gains_experiment,
                     dict(num_clients=12, seed=3)),
            "fleet": (fleet, fleet.fleet_experiment,
                      dict(rows=3, cols=3, clients_per_home=2, seed=3)),
        }[sweep]
        tasks = _swept_tasks(module, experiment, **kwargs)
        assert len(tasks) >= 9
        assert cache_keys(tasks) == [task.cache_key() for task in tasks]

    def test_shared_and_equal_objects_key_alike(self):
        cfg = _Cfg(depth=3.0)
        tasks = [Task("test.double", {"x": cfg}), Task("test.double", {"x": cfg}),
                 Task("test.double", {"x": _Cfg(depth=3.0)}),
                 Task("test.double", {"x": _Cfg(depth=4.0)})]
        keys = cache_keys(tasks)
        assert keys == [task.cache_key() for task in tasks]
        assert keys[0] == keys[1] == keys[2] != keys[3]
