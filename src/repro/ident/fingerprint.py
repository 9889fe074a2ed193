"""Uplink sender identification from STF channel fingerprints (§6.1).

Clients cannot be modified, so the relay identifies an uplink
transmitter from physics: the known STF arrives transformed by the
client->relay channel, and the relay already holds fresh channel
estimates for every associated client (from the sounding protocol).
Matching the received STF's tone measurements against each client's
expected transformation — with a free scalar phase, since packet timing
and oscillator phase are arbitrary — names the sender.

Thresholding trades false negatives against false positives.  A false
negative merely skips constructive relaying for one packet; a false
positive applies the *wrong* filter and can hurt SNR, so the deployed
threshold is the aggressive one with ~zero false positives at ~5% false
negatives (Fig. 21).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dsp.iir import GoertzelBank
from repro.phy.params import OfdmParams, WIFI_20MHZ
from repro.phy.preamble import stf_time_symbol, stf_tone_indices

#: Normalised-distance acceptance thresholds (lower = stricter).
AGGRESSIVE_THRESHOLD = 0.26
PASSIVE_THRESHOLD = 0.5


@dataclass(frozen=True)
class FingerprintDecision:
    """Outcome of one identification attempt."""

    client_id: object            # None when rejected (false negative path)
    distance: float              # best normalised distance
    runner_up_distance: float    # second best (margin diagnostics)


class ChannelFingerprinter:
    """Minimum-distance STF matching against a channel database.

    The relay measures the complex amplitude of each STF tone with
    low-latency resonators (:class:`repro.dsp.iir.GoertzelBank`) and
    compares to ``h_client * stf_tone`` for every known client, after
    removing the best-fitting common scalar phase/gain (packet timing
    and AGC are arbitrary).
    """

    def __init__(self, params: OfdmParams = WIFI_20MHZ,
                 threshold=AGGRESSIVE_THRESHOLD):
        self.params = params
        self.threshold = float(threshold)
        self._tones = stf_tone_indices(params)
        freqs = np.asarray(self._tones, dtype=float) / params.fft_size
        self._bank = GoertzelBank(freqs)
        self._reference = self._measure(stf_time_symbol(params))
        self._database = {}

    def _measure(self, stf_samples):
        """Per-tone complex amplitudes of an STF period."""
        return self._bank.measure(np.asarray(stf_samples, dtype=complex))

    def enroll(self, client_id, channel_on_used_tones, used_tones=None):
        """Store a client's channel (from sounding) for matching.

        ``channel_on_used_tones`` is the per-subcarrier estimate on the
        PHY's used tones (sorted by signed index); the STF tones are a
        subset, extracted here.
        """
        if used_tones is None:
            used_tones = self.params.used_subcarriers()
        used_tones = list(used_tones)
        h = np.asarray(channel_on_used_tones, dtype=complex)
        if h.size != len(used_tones):
            raise ValueError(
                f"channel has {h.size} entries for {len(used_tones)} tones")
        idx = [used_tones.index(t) for t in self._tones]
        self._database[client_id] = h[idx]

    def expected_measurement(self, client_id):
        """What the relay should measure when this client transmits."""
        return self._database[client_id] * self._reference

    def identify(self, received_stf_period):
        """Name the transmitter of a received STF period.

        Returns a :class:`FingerprintDecision`; ``client_id`` is None
        when the best match is worse than the threshold.
        """
        if not self._database:
            raise RuntimeError("no clients enrolled")
        return self.match(self._measure(received_stf_period))

    def match(self, measured):
        """Name the transmitter of measured STF tone amplitudes.

        The matching half of :meth:`identify`, for a caller that
        already holds the per-tone measurement.
        """
        norm_m = np.linalg.norm(measured)
        distances = {}
        for client_id in self._database:
            expected = self.expected_measurement(client_id)
            norm_e = np.linalg.norm(expected)
            if norm_m == 0 or norm_e == 0:
                distances[client_id] = 1.0
                continue
            # Best common complex scalar: projection coefficient.
            alpha = np.vdot(expected, measured) / (norm_e ** 2)
            residual = measured - alpha * expected
            distances[client_id] = float(np.linalg.norm(residual) / norm_m)
        ranked = sorted(distances.items(), key=lambda kv: kv[1])
        best_id, best_d = ranked[0]
        runner_up = ranked[1][1] if len(ranked) > 1 else float("inf")
        accepted = best_d <= self.threshold
        return FingerprintDecision(
            client_id=best_id if accepted else None,
            distance=best_d,
            runner_up_distance=runner_up,
        )
