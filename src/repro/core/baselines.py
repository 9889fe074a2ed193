"""The comparison schemes of §2 and §5.

* :class:`AmplifyForwardRelay` — the blind repeater: no constructive
  filtering, amplification pushed to the cancellation limit with no
  noise-safety rule (§5.5, Fig. 17).
* :class:`HalfDuplexMeshRouter` — the Apple-Airport-style decode-and-
  forward relay: receives a packet in one slot, retransmits in the
  next.  Evaluated exactly as the paper idealises it: perfect MAC
  scheduling, and an AP smart enough to bypass the router whenever the
  direct link is faster.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.relay import FastForwardRelay, RelayConfig


class AmplifyForwardRelay(FastForwardRelay):
    """A repeater: FastForward minus everything that makes it smart.

    Implemented as a configuration of the same device — `use_cnf` off
    (F = identity) and the §3.5 noise rule off ("simply amplify the
    received signal to the maximum extent, i.e. as much as the amount of
    cancellation").  The caller's ``config`` is copied, not changed.
    """

    def __init__(self, config: RelayConfig = None):
        super().__init__(dataclasses.replace(
            config or RelayConfig(), use_cnf=False, noise_safe=False,
            use_decomposition=False))


def half_duplex_throughput_mbps(direct_rate_mbps, first_hop_rate_mbps,
                                second_hop_rate_mbps):
    """PHY throughput of the half-duplex decode-and-forward scheme.

    The two hops time-share the channel perfectly, so the two-hop rate
    is the harmonic composition ``1 / (1/R1 + 1/R2)``; the smart AP
    routes directly whenever that is faster (§5: "AP is smart enough to
    figure out when it should use the half-duplex router").
    """
    r1 = max(float(first_hop_rate_mbps), 0.0)
    r2 = max(float(second_hop_rate_mbps), 0.0)
    if r1 > 0.0 and r2 > 0.0:
        two_hop = 1.0 / (1.0 / r1 + 1.0 / r2)
    else:
        two_hop = 0.0
    return max(float(direct_rate_mbps), two_hop)


class HalfDuplexMeshRouter:
    """Decode-and-forward mesh router at the relay's position.

    Unlike the Layer-1 schemes it decodes whole packets, so its inputs
    are the *rates* of the AP->router and router->client links rather
    than per-subcarrier channels.  Use with the throughput model:
    compute each hop's rate with the AP-only machinery, then combine
    with :func:`half_duplex_throughput_mbps`.
    """

    def __init__(self, num_antennas=2):
        if num_antennas < 1:
            raise ValueError(f"num_antennas must be >= 1, got {num_antennas}")
        self.num_antennas = num_antennas

    def throughput_mbps(self, direct_rate_mbps, first_hop_rate_mbps,
                        second_hop_rate_mbps):
        """Route-aware half-duplex throughput (see module docstring)."""
        return half_duplex_throughput_mbps(
            direct_rate_mbps, first_hop_rate_mbps, second_hop_rate_mbps)


class SampleLevelMeshRouter:
    """Sample-level decode-and-forward (the HD baseline, for real).

    Receives an actual PPDU with the stock receiver, and — in its own
    later time slot — re-encodes the payload and retransmits it.  Used
    by integration tests to show the two-slot cost the Layer-1 relay
    avoids.
    """

    def __init__(self, params=None, tx_power_dbm=20.0, mcs_index=None,
                 detection_threshold=0.7):
        from repro.phy.params import WIFI_20MHZ

        self.params = params or WIFI_20MHZ
        self.tx_power_dbm = float(tx_power_dbm)
        self.mcs_index = mcs_index
        self.detection_threshold = float(detection_threshold)

    def forward_packet(self, rx_samples):
        """Decode a packet; return ``(tx_waveform, rx_result)``.

        ``tx_waveform`` is None when decoding failed (nothing to
        forward).  The retransmission uses the router's own MCS (or the
        received one) and carries the payload bit-exactly.
        """
        from repro.phy.transceiver import Receiver, Transmitter, TxConfig

        result = Receiver(self.params,
                          detection_threshold=self.detection_threshold
                          ).receive(np.asarray(rx_samples, dtype=complex))
        if not result.success:
            return None, result
        mcs = self.mcs_index if self.mcs_index is not None \
            else result.frame.mcs_index
        tx = Transmitter(TxConfig(params=self.params, mcs_index=mcs,
                                  tx_power_dbm=self.tx_power_dbm))
        amp = 10.0 ** (self.tx_power_dbm / 20.0)
        wave = tx.transmit(result.payload_bits)[0] * amp
        return wave, result
