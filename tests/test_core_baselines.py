"""Baseline schemes: blind repeater and half-duplex mesh router."""

import numpy as np
import pytest

from repro.core import (
    AmplifyForwardRelay,
    FastForwardRelay,
    HalfDuplexMeshRouter,
    RelayConfig,
    half_duplex_throughput_mbps,
)
from repro.utils import make_rng


class TestAmplifyForward:
    def test_configuration_is_blind(self):
        af = AmplifyForwardRelay()
        assert not af.config.use_cnf
        assert not af.config.noise_safe

    def test_amplifies_to_cancellation_limit(self):
        rng = make_rng(0)
        h = 1e-4 * (rng.standard_normal(8) + 1j * rng.standard_normal(8))
        af = AmplifyForwardRelay().configure_siso_link(h, h, h)
        assert af.amplification_db == pytest.approx(
            af.config.cancellation_db - af.config.loop_margin_db)

    def test_hurts_strong_clients(self):
        # §5.5: blind amplification drowns good direct links in noise.
        rng = make_rng(1)
        strong = 3e-3 * np.exp(2j * np.pi * rng.random(8))  # ~20 dB direct
        weak_relay_paths = 1e-4 * np.exp(2j * np.pi * rng.random(8))
        af = AmplifyForwardRelay().configure_siso_link(
            strong, weak_relay_paths, weak_relay_paths)
        from repro.phy.rates import effective_snr_db

        direct_snr = effective_snr_db(
            10 * np.log10(np.abs(strong) ** 2 * 100.0 / 1e-9))
        with_af = effective_snr_db(af.destination_snr_db())
        assert with_af < direct_snr - 3.0

    def test_leaves_the_callers_config_alone(self):
        config = RelayConfig(cancellation_db=100.0)
        af = AmplifyForwardRelay(config)
        assert (config.use_cnf, config.noise_safe,
                config.use_decomposition) == (True, True, True)
        assert af.config is not config
        assert af.config.cancellation_db == 100.0
        ff = FastForwardRelay(config)
        assert ff.config.use_cnf and ff.config.noise_safe

    def test_is_a_fastforward_subclass(self):
        assert issubclass(AmplifyForwardRelay, FastForwardRelay)


class TestHalfDuplex:
    def test_harmonic_composition(self):
        # Two 60 Mbps hops time-share to 30 Mbps.
        assert half_duplex_throughput_mbps(0.0, 60.0, 60.0) == pytest.approx(30.0)

    def test_smart_ap_prefers_direct(self):
        assert half_duplex_throughput_mbps(50.0, 60.0, 60.0) == 50.0

    def test_relay_rescues_dead_spot(self):
        assert half_duplex_throughput_mbps(0.0, 40.0, 20.0) == pytest.approx(
            1.0 / (1.0 / 40.0 + 1.0 / 20.0))

    def test_dead_hop_means_direct_only(self):
        assert half_duplex_throughput_mbps(10.0, 0.0, 60.0) == 10.0
        assert half_duplex_throughput_mbps(10.0, 60.0, 0.0) == 10.0

    def test_never_worse_than_direct(self):
        rng = make_rng(2)
        for _ in range(100):
            d, r1, r2 = rng.uniform(0, 120, 3)
            assert half_duplex_throughput_mbps(d, r1, r2) >= d

    def test_two_hop_bounds(self):
        rng = make_rng(3)
        for _ in range(100):
            r1, r2 = rng.uniform(1, 120, 2)
            two_hop = half_duplex_throughput_mbps(0.0, r1, r2)
            # Strictly below the bottleneck hop; equal hops halve.
            assert two_hop < min(r1, r2)
            assert two_hop >= min(r1, r2) / 2.0 - 1e-9

    def test_router_object_wraps_function(self):
        router = HalfDuplexMeshRouter()
        assert router.throughput_mbps(10.0, 60.0, 60.0) == \
            half_duplex_throughput_mbps(10.0, 60.0, 60.0)

    def test_antenna_validation(self):
        with pytest.raises(ValueError):
            HalfDuplexMeshRouter(num_antennas=0)
