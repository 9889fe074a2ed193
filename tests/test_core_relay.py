"""The assembled FastForward relay (link-level behaviour)."""

import numpy as np
import pytest

from repro.channel import fig1_home, PropagationModel
from repro.core import FastForwardRelay, LatencyBudget, RelayConfig
from repro.netsim.throughput import (
    _multiplexing_stream_snrs,
    ap_only_mimo_rate,
    ff_mimo_rate,
    ff_siso_rate,
    usable_streams,
)
from repro.phy.params import WIFI_20MHZ
from repro.phy.rates import effective_snr_db
from repro.utils import make_rng


@pytest.fixture(scope="module")
def home_channels():
    plan, ap, relay_pos = fig1_home()
    pm = PropagationModel(plan, rms_delay_spread_s=30e-9)
    used = WIFI_20MHZ.used_subcarriers()
    rng = make_rng(0)
    client = np.array([1.5, 6.3])  # walled-off bedroom corner

    def draw(a, b, r):
        return pm.siso_channel(a, b, WIFI_20MHZ.sample_period_s,
                               num_taps=4, rng=r).frequency_response(used, 64)

    rngs = [make_rng(i) for i in (1, 2, 3)]
    return (draw(ap, client, rngs[0]), draw(ap, relay_pos, rngs[1]),
            draw(relay_pos, client, rngs[2]))


@pytest.fixture(scope="module")
def home_mimo():
    plan, ap, relay_pos = fig1_home()
    pm = PropagationModel(plan, rms_delay_spread_s=30e-9)
    used = WIFI_20MHZ.used_subcarriers()
    client = np.array([1.5, 6.3])
    rngs = [make_rng(i) for i in (4, 5, 6)]
    h_sd = pm.mimo_link(ap, client, WIFI_20MHZ.sample_period_s,
                        rng=rngs[0]).frequency_response(used, 64)
    h_sr = pm.mimo_link(ap, relay_pos, WIFI_20MHZ.sample_period_s,
                        rng=rngs[1]).frequency_response(used, 64)
    h_rd = pm.mimo_link(relay_pos, client, WIFI_20MHZ.sample_period_s,
                        rng=rngs[2]).frequency_response(used, 64)
    return h_sd, h_sr, h_rd


class TestSisoLink:
    def test_relay_boosts_edge_client(self, home_channels):
        h_sd, h_sr, h_rd = home_channels
        direct = effective_snr_db(
            10 * np.log10(np.abs(h_sd) ** 2 * 100.0 / 1e-9 + 1e-30))
        relay = FastForwardRelay().configure_siso_link(h_sd, h_sr, h_rd)
        boosted = effective_snr_db(relay.destination_snr_db())
        assert boosted > direct + 5.0

    def test_decomposition_costs_a_little(self, home_channels):
        h_sd, h_sr, h_rd = home_channels
        real = FastForwardRelay().configure_siso_link(h_sd, h_sr, h_rd)
        ideal_cfg = RelayConfig(use_decomposition=False)
        ideal = FastForwardRelay(ideal_cfg).configure_siso_link(h_sd, h_sr, h_rd)
        snr_real = effective_snr_db(real.destination_snr_db())
        snr_ideal = effective_snr_db(ideal.destination_snr_db())
        assert snr_real <= snr_ideal + 0.1
        assert snr_real >= snr_ideal - 8.0  # bounded approximation loss

    def test_amplification_respects_both_caps(self, home_channels):
        h_sd, h_sr, h_rd = home_channels
        relay = FastForwardRelay(RelayConfig(cancellation_db=95.0))
        relay.configure_siso_link(h_sd, h_sr, h_rd)
        rd_att = -10 * np.log10(np.mean(np.abs(h_rd) ** 2))
        assert relay.amplification_db <= 95.0 - 3.0 + 1e-9
        assert relay.amplification_db <= rd_att - 3.0 + 1e-9

    def test_cnf_off_is_identity_filter(self, home_channels):
        h_sd, h_sr, h_rd = home_channels
        cfg = RelayConfig(use_cnf=False)
        relay = FastForwardRelay(cfg).configure_siso_link(h_sd, h_sr, h_rd)
        assert np.allclose(relay.filter_response, 1.0)

    def test_latency_past_cp_degrades(self, home_channels):
        h_sd, h_sr, h_rd = home_channels
        fast = FastForwardRelay().configure_siso_link(h_sd, h_sr, h_rd)
        slow_cfg = RelayConfig(
            latency=LatencyBudget().with_extra_buffering(400e-9))
        slow = FastForwardRelay(slow_cfg).configure_siso_link(h_sd, h_sr, h_rd)
        assert effective_snr_db(slow.destination_snr_db()) < \
            effective_snr_db(fast.destination_snr_db()) - 3.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("link,rate", [
        ("zero-direct", 28.88888888888889),
        ("zero-source-relay", 0.0),
        ("zero-relay-destination", 0.0),
        ("all-zero", 0.0),
        ("relay-on-one-tone", 0.0),
    ])
    def test_degenerate_links_stay_finite(self, home_channels, link, rate):
        # A zero weighted analog basis (every singular value 0) must not
        # reach a 0/0 in the bounded analog-tap solve; rates are pinned
        # to the bisection solve's.
        h_sd, h_sr, h_rd = home_channels
        one_tone = np.zeros_like(h_sr)
        one_tone[7] = h_sr[7]
        channels = {
            "zero-direct": (0 * h_sd, h_sr, h_rd),
            "zero-source-relay": (h_sd, 0 * h_sr, h_rd),
            "zero-relay-destination": (h_sd, h_sr, 0 * h_rd),
            "all-zero": (0 * h_sd, 0 * h_sr, 0 * h_rd),
            "relay-on-one-tone": (h_sd, one_tone, h_rd),
        }[link]
        relay = FastForwardRelay().configure_siso_link(*channels)
        assert np.isfinite(relay.destination_snr_db()).all()
        assert np.isfinite(relay.filter_response).all()
        assert ff_siso_rate(relay) == rate

    def test_shape_mismatch_rejected(self):
        relay = FastForwardRelay()
        with pytest.raises(ValueError):
            relay.configure_siso_link(np.ones(4), np.ones(4), np.ones(5))

    def test_mode_enforced(self, home_channels):
        relay = FastForwardRelay()
        with pytest.raises(RuntimeError):
            relay.destination_snr_db()


def _stream_sinrs_db(relay):
    """Per-tone post-MMSE stream SINRs (dB) of a configured MIMO relay."""
    sinrs = _multiplexing_stream_snrs(*relay.mimo_effective_channels(),
                                      10.0 ** (relay.config.tx_power_dbm / 10.0))
    return 10.0 * np.log10(np.maximum(sinrs, 1e-30))


#: (FF rate, AP-only rate, usable streams with the relay) per degenerate
#: MIMO link on ``home_mimo``.
_DEGENERATE_MIMO_RATES = {
    "zero-direct": (28.88888888888889, 0.0, 1),
    "zero-source-relay": (7.222222222222222, 14.444444444444445, 1),
    "zero-relay-destination": (14.444444444444445, 14.444444444444445, 1),
    "all-zero": (0.0, 0.0, 0),
    "relay-on-one-tone": (7.222222222222222, 14.444444444444445, 1),
    "rank-one": (57.77777777777778, 14.444444444444445, 1),
    "one-antenna-relay-zero-direct": (43.333333333333336, 0.0, 1),
}


class TestMimoLink:
    def test_stream_sinrs_shape(self, home_mimo):
        relay = FastForwardRelay().configure_mimo_link(*home_mimo)
        sinrs = _stream_sinrs_db(relay)
        assert sinrs.shape == (56, 2)

    def test_relay_lifts_weak_stream(self, home_mimo):
        h_sd, h_sr, h_rd = home_mimo
        relay = FastForwardRelay().configure_mimo_link(h_sd, h_sr, h_rd)
        with_relay = _stream_sinrs_db(relay).mean(axis=0)

        off = FastForwardRelay(RelayConfig(use_cnf=False))
        off.configure_mimo_link(h_sd, h_sr, h_rd)
        off.amplification_db = 0.0  # relay silent
        without = _stream_sinrs_db(off).mean(axis=0)
        assert np.sort(with_relay)[0] > np.sort(without)[0] + 3.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("link", list(_DEGENERATE_MIMO_RATES))
    def test_degenerate_links_stay_finite(self, home_mimo, link):
        # Zero and rank-1 channels must not reach a 0/0 or a singular
        # solve anywhere on the stacked link path; rates and stream
        # counts are pinned to the per-tone loops'.
        h_sd, h_sr, h_rd = home_mimo
        one_tone = np.zeros_like(h_sr)
        one_tone[7] = h_sr[7]
        channels = {
            "zero-direct": (0 * h_sd, h_sr, h_rd),
            "zero-source-relay": (h_sd, 0 * h_sr, h_rd),
            "zero-relay-destination": (h_sd, h_sr, 0 * h_rd),
            "all-zero": (0 * h_sd, 0 * h_sr, 0 * h_rd),
            "relay-on-one-tone": (h_sd, one_tone, h_rd),
            "rank-one": tuple(np.repeat(h[:, :1, :], 2, axis=1)
                              for h in home_mimo),
            "one-antenna-relay-zero-direct": (0 * h_sd, h_sr[:, :1, :],
                                              h_rd[:, :, :1]),
        }[link]
        relay = FastForwardRelay().configure_mimo_link(*channels)
        h_eff, cov = relay.mimo_effective_channels()
        assert np.isfinite(h_eff).all() and np.isfinite(cov).all()
        assert (ff_mimo_rate(relay), ap_only_mimo_rate(channels[0]),
                usable_streams(h_eff, cov)) == _DEGENERATE_MIMO_RATES[link]

    def test_effective_channels_shapes(self, home_mimo):
        relay = FastForwardRelay().configure_mimo_link(*home_mimo)
        h_eff, cov = relay.mimo_effective_channels()
        assert h_eff.shape == (56, 2, 2)
        assert cov.shape == (56, 2, 2)
        # Noise covariance is Hermitian PSD.
        for s in (0, 20, 55):
            assert np.allclose(cov[s], cov[s].conj().T)
            assert np.all(np.linalg.eigvalsh(cov[s]) > 0)

    def test_dimensionality_check(self):
        relay = FastForwardRelay()
        with pytest.raises(ValueError):
            relay.configure_mimo_link(np.ones((4, 2)), np.ones((4, 2)),
                                      np.ones((4, 2)))


class TestSampleLevel:
    def test_process_applies_gain(self, home_channels):
        h_sd, h_sr, h_rd = home_channels
        relay = FastForwardRelay().configure_siso_link(h_sd, h_sr, h_rd)
        rng = make_rng(7)
        x = 1e-4 * (rng.standard_normal(512) + 1j * rng.standard_normal(512))
        out = relay.process(x)
        gain_db = 10 * np.log10(np.mean(np.abs(out) ** 2)
                                / np.mean(np.abs(x) ** 2))
        # Amplification minus the filter's sub-unity average response.
        assert gain_db == pytest.approx(relay.amplification_db, abs=6.0)

    def test_process_preserves_cfo(self, home_channels):
        from repro.phy.sync import apply_cfo, estimate_cfo

        h_sd, h_sr, h_rd = home_channels
        relay = FastForwardRelay().configure_siso_link(h_sd, h_sr, h_rd)
        n = np.arange(2048)
        periodic = 1e-4 * np.exp(2j * np.pi * (n % 16) / 16.0)
        with_cfo = apply_cfo(periodic, 45e3, 20e6)
        out = relay.process(with_cfo, cfo_hz=45e3)
        est = estimate_cfo(out[200:], 16, 20e6, num_repeats=64)
        assert est == pytest.approx(45e3, rel=0.05)

    def test_process_requires_siso(self, home_mimo):
        # A 1-D stream is SISO input: a MIMO relay refuses it.
        relay = FastForwardRelay().configure_mimo_link(*home_mimo)
        with pytest.raises(ValueError):
            relay.process(np.ones(64, dtype=complex))

    def test_siso_process_rejects_stacked_streams(self, home_channels):
        relay = FastForwardRelay().configure_siso_link(*home_channels)
        with pytest.raises(ValueError, match="1-D"):
            relay.process(np.ones((2, 64), dtype=complex))
