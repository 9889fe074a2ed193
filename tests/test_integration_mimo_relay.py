"""Sample-level MIMO integration: 2x2 PPDUs through the relay."""

import numpy as np
import pytest

from repro.channel import PropagationModel, fig1_home
from repro.core import FastForwardRelay, RelayConfig
from repro.phy import MimoReceiver, Transmitter, TxConfig, WIFI_20MHZ
from repro.utils import awgn_like, make_rng


@pytest.fixture(scope="module")
def scene():
    plan, ap, relay_pos = fig1_home()
    pm = PropagationModel(plan, rms_delay_spread_s=30e-9)
    p = WIFI_20MHZ
    used = p.used_subcarriers()
    client = np.array([4.5, 2.0])  # mid-home

    link = lambda a, b, s: pm.mimo_link(a, b, p.sample_period_s,
                                        num_taps=3, rng=make_rng(s))
    links = (link(ap, client, 30), link(ap, relay_pos, 31),
             link(relay_pos, client, 32))
    relay = FastForwardRelay(RelayConfig())
    relay.configure_mimo_link(*[l.frequency_response(used, 64)
                                for l in links])
    return links, relay


def _run(scene_links, relay, rng, with_relay, mcs=0, bits=None):
    p = WIFI_20MHZ
    L_sd, L_sr, L_rd = scene_links
    cfg = TxConfig(mcs_index=mcs, num_streams=2)
    if bits is None:
        bits = rng.integers(0, 2, 400)
    waves = Transmitter(cfg).transmit(bits) * 10.0  # 20 dBm
    direct = L_sd.apply(waves)
    parts = [direct]
    if with_relay:
        at_relay = L_sr.apply(waves)[:, : waves.shape[1]]
        fwd = relay.process(at_relay)
        lat = int(round(relay.latency_s() / p.sample_period_s))
        fwd = np.concatenate([np.zeros((2, lat), dtype=complex), fwd],
                             axis=1)
        parts.append(L_rd.apply(fwd))
    n = max(part.shape[1] for part in parts)
    rx = np.zeros((2, n), dtype=complex)
    for part in parts:
        rx[:, : part.shape[1]] += part
    rx = np.concatenate([np.zeros((2, 100), dtype=complex), rx], axis=1)
    rx = rx + awgn_like(rx, 1e-9, rng)
    return bits, MimoReceiver(detection_threshold=0.6).receive(rx)


class TestMimoRelayEndToEnd:
    def test_two_streams_decode_through_relay(self, scene):
        links, relay = scene
        rng = make_rng(1)
        bits, result = _run(links, relay, rng, with_relay=True)
        assert result.success, result.failure_reason
        assert np.array_equal(result.payload_bits, bits)

    def test_relay_improves_measured_snr(self, scene):
        links, relay = scene
        _, without = _run(links, relay, make_rng(2), with_relay=False)
        _, with_relay = _run(links, relay, make_rng(2), with_relay=True)
        assert with_relay.success
        if without.success:
            assert (with_relay.snr_estimate_db
                    > without.snr_estimate_db - 3.0)

    def test_higher_mcs_through_relay(self, scene):
        # The mid-home client supports a faster MCS once the relay's
        # second path firms up both streams.
        links, relay = scene
        rng = make_rng(3)
        bits, result = _run(links, relay, rng, with_relay=True, mcs=3)
        assert result.success, result.failure_reason
        assert np.array_equal(result.payload_bits, bits)

    def test_stream_count_validated(self, scene):
        _, relay = scene
        with pytest.raises(ValueError):
            relay.process(np.zeros((3, 64), dtype=complex))

    def test_requires_mimo_mode(self):
        relay = FastForwardRelay()
        with pytest.raises(RuntimeError):
            relay.process(np.zeros((2, 64), dtype=complex))
