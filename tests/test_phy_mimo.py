"""MIMO detection, SINRs and rank measures."""

import numpy as np
import pytest

from repro.channel import iid_rayleigh_mimo, pinhole_mimo
from repro.phy import (
    condition_number_db,
    effective_rank,
    mimo_stream_sinrs,
    mmse_detect,
    water_filling,
    zf_detect,
)
from repro.utils import make_rng


class TestDetectors:
    def test_zf_inverts_clean_channel(self):
        rng = make_rng(0)
        h = iid_rayleigh_mimo(2, 2, rng)
        x = np.array([1.0 + 1j, -1.0 + 0.5j])
        assert np.allclose(zf_detect(h, h @ x), x)

    def test_mmse_approaches_zf_at_high_snr(self):
        rng = make_rng(1)
        h = iid_rayleigh_mimo(2, 2, rng)
        x = np.array([1.0, 1j])
        y = h @ x
        assert np.allclose(mmse_detect(h, y, 1e-9), x, atol=1e-3)

    def test_mmse_shrinks_at_low_snr(self):
        rng = make_rng(2)
        h = iid_rayleigh_mimo(2, 2, rng)
        x = np.array([1.0, 1.0])
        est = mmse_detect(h, h @ x, 10.0)
        assert np.linalg.norm(est) < np.linalg.norm(x)

    def test_mmse_rejects_bad_noise(self):
        with pytest.raises(ValueError):
            mmse_detect(np.eye(2), np.ones(2), 0.0)


class TestStreamSinrs:
    def test_identity_channel(self):
        sinrs = mimo_stream_sinrs(np.eye(2), 0.01)
        assert np.allclose(sinrs, 100.0, rtol=0.02)

    def test_rank_one_channel_interference_limited(self):
        # A rank-1 channel cannot separate two streams: MMSE SINRs pin
        # near 0 dB (each stream sees the other as interference) no
        # matter how low the noise is.
        h = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank 1
        sinrs = mimo_stream_sinrs(h, 0.01)
        assert sinrs.max() < 2.0
        full = mimo_stream_sinrs(np.eye(2), 0.01)
        assert full.min() > 50.0


class TestRank:
    def test_identity_full_rank(self):
        assert effective_rank(np.eye(2)) == 2

    def test_pure_pinhole_rank_one(self):
        rng = make_rng(4)
        h = pinhole_mimo(2, 2, leakage=0.0, rng=rng)
        assert effective_rank(h) == 1

    def test_rich_scattering_usually_full_rank(self):
        rng = make_rng(5)
        count = sum(effective_rank(iid_rayleigh_mimo(2, 2, rng)) == 2
                    for _ in range(50))
        assert count > 30

    def test_zero_channel(self):
        assert effective_rank(np.zeros((2, 2))) == 0

    def test_condition_number_identity(self):
        assert condition_number_db(np.eye(2)) == pytest.approx(0.0)

    def test_condition_number_pinhole_large(self):
        rng = make_rng(6)
        h = pinhole_mimo(2, 2, leakage=0.01, rng=rng)
        assert condition_number_db(h) > 15.0


class TestWaterFilling:
    def test_total_power_conserved(self):
        p = water_filling([1.0, 0.5, 0.1], 2.0)
        assert p.sum() == pytest.approx(2.0)

    def test_stronger_channel_gets_more(self):
        p = water_filling([1.0, 0.2], 1.0)
        assert p[0] > p[1]

    def test_weak_channel_dropped_at_low_power(self):
        p = water_filling([1.0, 0.01], 0.1)
        assert p[1] == 0.0

    def test_equal_channels_split_evenly(self):
        p = water_filling([1.0, 1.0], 2.0)
        assert np.allclose(p, [1.0, 1.0])

    def test_invalid_power(self):
        with pytest.raises(ValueError):
            water_filling([1.0], 0.0)
