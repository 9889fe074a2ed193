"""The district sweep on the exec engine: identity, caching, bounds."""

import numpy as np
import pytest

from repro.exec import ChaosPolicy, last_sweep_stats
from repro.fleet import FleetReroutePolicy, fleet_experiment
from repro.telemetry.collector import TelemetryCollector, use_collector

#: Small but storm-heavy district: 9 relays, 18 clients, enough steps
#: for the supervision ladder to mute and recover several relays.
KW = {"rows": 3, "cols": 3, "clients_per_home": 2, "seed": 5,
      "storm": 0.5, "num_steps": 200}

COMPARE = ("throughput_mbps", "reroute_latency_intervals", "rescued",
           "relay_load")


@pytest.fixture(scope="module")
def serial():
    return fleet_experiment(**KW, jobs=1, backend="serial", cache=False)


class TestAggregates:
    def test_shapes_and_bookkeeping(self, serial):
        assert serial["num_relays"] == 9
        assert serial["num_clients"] == 18
        assert serial["throughput_mbps"].shape == (18,)
        assert int(serial["relay_load"].sum()) == 18
        assert serial["reroutes"] == serial["reroute_latency_intervals"].size
        assert serial["rescued"].size == serial["reroutes"]

    def test_storm_is_non_vacuous(self, serial):
        # The gate below is meaningless unless the storm actually
        # muted relays and forced reroutes.
        assert serial["outage_relays"] > 0
        assert serial["reroutes"] > 0
        assert serial["muted_clients"] > 0

    def test_every_reroute_within_policy_bound(self, serial):
        lat = serial["reroute_latency_intervals"]
        bound = serial["latency_bound_intervals"]
        assert bound == FleetReroutePolicy().max_reroute_intervals
        assert int(lat.min()) >= 1
        assert int(lat.max()) <= bound
        assert serial["max_latency_intervals"] <= bound

    def test_every_feasible_muted_client_rerouted(self, serial):
        # The fast-reroute acceptance criterion: a client whose primary
        # muted, who has a precomputed backup and whose switch window
        # fits the horizon, must actually have switched.
        assert serial["unrerouted_muted_clients"] == 0

    def test_cdf_summaries_consistent(self, serial):
        cdf = serial["throughput_cdf"]
        assert cdf["count"] == 18
        assert cdf["mean"] == pytest.approx(
            float(serial["throughput_mbps"].mean()))
        pcts = [cdf["percentiles"][p] for p in ("5", "50", "95")]
        assert pcts == sorted(pcts)
        assert serial["latency_cdf"]["count"] == serial["reroutes"]

    def test_calm_storm_has_no_reroutes(self):
        out = fleet_experiment(**{**KW, "storm": 0.0}, jobs=1,
                               backend="serial", cache=False)
        assert out["reroutes"] == 0
        assert out["outage_relays"] == 0
        assert out["rescue_rate"] == 1.0
        assert (out["throughput_mbps"] > 0).all()

    def test_storm_costs_throughput(self, serial):
        calm = fleet_experiment(**{**KW, "storm": 0.0}, jobs=1,
                                backend="serial", cache=False)
        assert serial["throughput_mbps"].mean() \
            < calm["throughput_mbps"].mean()


class TestBackendIdentity:
    def test_process_bit_identical_to_serial(self, serial):
        proc = fleet_experiment(**KW, jobs=2, backend="process",
                                cache=False)
        for key in COMPARE:
            assert np.array_equal(serial[key], proc[key]), key


class TestEngineIntegration:
    def test_warm_cache_replays_identically(self, serial, tmp_path):
        cache = str(tmp_path / "cache")
        cold = fleet_experiment(**KW, jobs=1, backend="serial", cache=cache)
        cold_stats = last_sweep_stats()
        warm = fleet_experiment(**KW, jobs=1, backend="serial", cache=cache)
        warm_stats = last_sweep_stats()
        assert cold_stats.cache_hits == 0
        assert warm_stats.executed == 0
        assert warm_stats.cache_hits == cold_stats.executed > 0
        for key in COMPARE:
            assert np.array_equal(serial[key], cold[key]), key
            assert np.array_equal(serial[key], warm[key]), key

    def test_checkpoint_resume(self, serial, tmp_path):
        manifest = str(tmp_path / "fleet.manifest.jsonl")
        cache = str(tmp_path / "cache")
        fleet_experiment(**KW, jobs=1, backend="serial", cache=cache,
                         checkpoint=manifest)
        resumed = fleet_experiment(**KW, jobs=1, backend="serial",
                                   cache=cache, checkpoint=manifest)
        stats = last_sweep_stats()
        assert stats.resumed > 0
        assert stats.executed == 0
        for key in COMPARE:
            assert np.array_equal(serial[key], resumed[key]), key

    def test_survives_chaos_bit_identically(self, serial):
        # PR 7 fault tolerance carries over: a kill/error storm inside
        # the workers must not change a single aggregate bit.
        chaos = ChaosPolicy(seed=3, error_rate=0.3, kill_rate=0.2)
        out = fleet_experiment(**KW, jobs=2, backend="process",
                               cache=False, max_retries=4, chaos=chaos)
        for key in COMPARE:
            assert np.array_equal(serial[key], out[key]), key

    def test_policy_kwargs_reach_the_policy(self, serial):
        # Widening the RSS margin turns every candidate equal-cost, so
        # the hash spreads clients off their home relays — visible in
        # the load vector, proving the kwargs reached the policy.
        out = fleet_experiment(**KW, policy="hashed-lb",
                               policy_kwargs={"rss_margin_db": 60.0,
                                              "salt": 1},
                               jobs=1, backend="serial", cache=False)
        assert not np.array_equal(serial["relay_load"], out["relay_load"])


class TestTelemetry:
    def test_fleet_metric_family_emitted(self):
        tel = TelemetryCollector(origin="fleet-test")
        with use_collector(tel):
            out = fleet_experiment(**KW, jobs=1, backend="serial",
                                   cache=False)
        assert tel.counter("fleet.clients").value == out["num_clients"]
        assert tel.counter("fleet.relays").value == out["num_relays"]
        assert tel.counter("fleet.reroute.events").value == out["reroutes"]
        assert tel.counter("fleet.reroute.rescued").value == \
            int(out["rescued"].sum())
        hist = tel.histogram("fleet.reroute.latency_intervals",
                             unit="intervals")
        assert hist.count == out["reroutes"]
        spans = [s["name"] for s in tel.spans]
        assert "fleet.experiment" in spans

    def test_deterministic_snapshot_backend_invariant(self):
        a = TelemetryCollector(origin="fleet")
        with use_collector(a):
            fleet_experiment(**KW, jobs=1, backend="serial", cache=False)
        b = TelemetryCollector(origin="fleet")
        with use_collector(b):
            fleet_experiment(**KW, jobs=2, backend="process", cache=False)
        assert a.deterministic_snapshot() == b.deterministic_snapshot()
