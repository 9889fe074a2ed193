"""The stacked MIMO link evaluation against its per-subcarrier loops.

``FastForwardRelay.mimo_effective_channels`` and the throughput model's
stream-SINR and beamforming helpers evaluate every subcarrier in one
stacked expression; ``tests/link_oracle.py`` keeps the per-tone loops
they replaced.  On paper-scenario links with one- and two-antenna
relays, extra buffering past the CP and a cancellation low enough for
loop recirculation, the arrays agree to 1e-12 relative and the rates
and stream counts the figures use are exactly equal.
"""

import numpy as np
import pytest

from repro.core import FastForwardRelay, LatencyBudget, RelayConfig
from repro.netsim import throughput
from repro.netsim.testbed import Testbed, paper_scenarios
from repro.utils import make_rng
from tests import link_oracle

TX_POWER = 10.0 ** (20.0 / 10.0)


@pytest.fixture(scope="module")
def corpus():
    """(relay, extra path delay, direct channel) for every corpus link."""
    links = []
    for i, scenario in enumerate(paper_scenarios()):
        testbed = Testbed(scenario, seed=i)
        for j, client in enumerate(testbed.client_positions(2, rng=10 + i)):
            delay = testbed.extra_path_delay_s(client)
            for k in (2, 1):
                triple = testbed.mimo_triple(client, make_rng(100 * i + j),
                                             num_relay=k)
                for buffering in (0.0, 400e-9):
                    for cancellation in (110.0, 80.0):
                        cfg = RelayConfig(
                            params=testbed.params, cancellation_db=cancellation,
                            latency=LatencyBudget().with_extra_buffering(buffering))
                        relay = FastForwardRelay(cfg)
                        relay.configure_mimo_link(*triple)
                        links.append((relay, delay, triple[0]))
    return links


def _assert_close(got, want):
    """Each tone's matrix within 1e-12 of the oracle's, relative to its norm."""
    err = np.linalg.norm(got - want, axis=(-2, -1))
    assert np.all(err <= 1e-12 * np.linalg.norm(want, axis=(-2, -1)))


class TestAgainstLoops:
    def test_corpus_reaches_every_branch(self, corpus):
        assert {relay._h_sr.shape[1] for relay, _, _ in corpus} == {1, 2}
        assert any(relay._isi_fraction(delay) < 1.0
                   for relay, delay, _ in corpus)
        assert any(relay._recirculation_factor(delay) > 0.0
                   for relay, delay, _ in corpus)

    def test_effective_channels(self, corpus):
        for relay, delay, _ in corpus:
            h_eff, cov = relay.mimo_effective_channels(delay)
            h_ref, cov_ref = link_oracle.mimo_effective_channels(relay, delay)
            _assert_close(h_eff, h_ref)
            _assert_close(cov, cov_ref)

    def test_stream_sinrs_and_beamforming_snrs(self, corpus):
        for relay, delay, h_sd in corpus:
            links = [relay.mimo_effective_channels(delay),
                     (h_sd, throughput.direct_noise_cov(h_sd))]
            for h_eff, cov in links:
                cov = np.asarray(cov, dtype=complex)
                np.testing.assert_allclose(
                    throughput._multiplexing_stream_snrs(h_eff, cov, TX_POWER),
                    link_oracle.multiplexing_stream_snrs(h_eff, cov, TX_POWER),
                    rtol=1e-12, atol=0.0)
                np.testing.assert_allclose(
                    throughput._eigen_beamforming_snrs(h_eff, cov, TX_POWER),
                    link_oracle.eigen_beamforming_snrs(h_eff, cov, TX_POWER),
                    rtol=1e-12, atol=0.0)

    def test_rates_and_streams_exactly_equal(self, corpus, monkeypatch):
        def evaluate():
            out = []
            for relay, delay, h_sd in corpus:
                h_eff, cov = relay.mimo_effective_channels(delay)
                out.append((throughput.ff_mimo_rate(relay, delay),
                            throughput.ap_only_mimo_rate(h_sd),
                            throughput.usable_streams(h_eff, cov),
                            throughput.usable_streams(
                                h_sd, throughput.direct_noise_cov(h_sd))))
            return out

        stacked = evaluate()
        monkeypatch.setattr(FastForwardRelay, "mimo_effective_channels",
                            link_oracle.mimo_effective_channels)
        monkeypatch.setattr(throughput, "_multiplexing_stream_snrs",
                            link_oracle.multiplexing_stream_snrs)
        monkeypatch.setattr(throughput, "_eigen_beamforming_snrs",
                            link_oracle.eigen_beamforming_snrs)
        assert stacked == evaluate()
