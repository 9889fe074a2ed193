"""Uplink STF channel fingerprinting (§6.1, Fig. 21)."""

import numpy as np
import pytest

from repro.ident import (
    AGGRESSIVE_THRESHOLD,
    ChannelFingerprinter,
    PASSIVE_THRESHOLD,
)
from repro.phy.params import WIFI_20MHZ
from repro.phy.preamble import stf_time_symbol
from repro.utils import make_rng


def _enrolled(rng, num_clients=4, threshold=AGGRESSIVE_THRESHOLD):
    finger = ChannelFingerprinter(WIFI_20MHZ, threshold=threshold)
    used = WIFI_20MHZ.used_subcarriers()
    channels = {}
    for c in range(num_clients):
        h = (rng.standard_normal(len(used))
             + 1j * rng.standard_normal(len(used)))
        h /= np.sqrt(np.mean(np.abs(h) ** 2))
        channels[c] = h
        finger.enroll(c, h, used)
    return finger, channels


class TestEnrollment:
    def test_channel_size_validated(self):
        finger = ChannelFingerprinter(WIFI_20MHZ)
        with pytest.raises(ValueError):
            finger.enroll(0, np.ones(10, dtype=complex))

    def test_identify_requires_enrollment(self):
        finger = ChannelFingerprinter(WIFI_20MHZ)
        with pytest.raises(RuntimeError):
            finger.identify(stf_time_symbol(WIFI_20MHZ))


class TestIdentification:
    def test_clean_measurement_identified(self):
        rng = make_rng(0)
        finger, channels = _enrolled(rng)
        for c in channels:
            decision = finger.identify(_stf_through_channel(channels[c]))
            assert decision.client_id == c

    def test_phase_rotation_ignored(self):
        rng = make_rng(1)
        finger, channels = _enrolled(rng)
        stf_rx = _stf_through_channel(channels[2]) * np.exp(1j * 2.2)
        decision = finger.identify(stf_rx)
        assert decision.client_id == 2

    def test_gain_scaling_ignored(self):
        rng = make_rng(2)
        finger, channels = _enrolled(rng)
        decision = finger.identify(0.01 * _stf_through_channel(channels[1]))
        assert decision.client_id == 1

    def test_unknown_channel_rejected(self):
        rng = make_rng(3)
        finger, channels = _enrolled(rng)
        stranger = (rng.standard_normal(56) + 1j * rng.standard_normal(56))
        decision = finger.identify(_stf_through_channel(stranger))
        # With the aggressive threshold a stranger should be rejected,
        # not mistaken for an enrolled client (false-negative over
        # false-positive, §6).
        assert decision.client_id is None

    def test_aggressive_stricter_than_passive(self):
        assert AGGRESSIVE_THRESHOLD < PASSIVE_THRESHOLD

    def test_decision_reports_margin(self):
        rng = make_rng(4)
        finger, channels = _enrolled(rng)
        decision = finger.identify(_stf_through_channel(channels[0]))
        assert decision.distance <= decision.runner_up_distance

    def test_identify_is_match_on_measured_tones(self):
        rng = make_rng(6)
        finger, channels = _enrolled(rng)
        stranger = rng.standard_normal(56) + 1j * rng.standard_normal(56)
        for h in [*channels.values(), stranger]:
            noisy = h + 0.3 * (rng.standard_normal(56)
                               + 1j * rng.standard_normal(56))
            stf = _stf_through_channel(noisy)
            assert finger.identify(stf) == finger.match(finger._measure(stf))


def _stf_through_channel(h_used):
    """One STF period transformed by a per-tone channel."""
    params = WIFI_20MHZ
    stf = stf_time_symbol(params)
    # Apply the channel on the STF's occupied tones via a 16-point FFT
    # equivalence: build from full-grid filtering for accuracy.
    from repro.phy.preamble import stf_tone_indices

    used = list(params.used_subcarriers())
    tones = stf_tone_indices(params)
    n = params.fft_size
    # Construct the STF's full-grid spectrum, apply channel, return one
    # period (the STF spectrum lives on every 4th tone).
    grid = np.fft.fft(np.tile(stf, 4))  # spectrum on the 64-grid
    h_full = np.ones(n, dtype=complex)
    for tone in tones:
        h_full[tone % n] = h_used[used.index(tone)]
    filtered = np.fft.ifft(grid * h_full)
    return filtered[:16]


class TestErrorRates:
    def test_fig21_style_rates(self):
        # Aggressive threshold: ~zero false positives, a few percent
        # false negatives under noise + drift.
        rng = make_rng(5)
        finger, channels = _enrolled(rng)
        fp = fn = total = 0
        for c, h in channels.items():
            for _ in range(60):
                noisy = h + 0.15 * (rng.standard_normal(56)
                                    + 1j * rng.standard_normal(56))
                decision = finger.identify(_stf_through_channel(noisy))
                total += 1
                if decision.client_id is None:
                    fn += 1
                elif decision.client_id != c:
                    fp += 1
        assert fp / total < 0.02
        assert fn / total < 0.5
