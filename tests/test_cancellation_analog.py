"""The analog cancellation board."""

import numpy as np
import pytest

from repro.cancellation import AnalogCancellationBoard, SelfInterferenceChannel
from repro.utils import make_rng
from tests.decomposition_oracle import bisect_bounded_lstsq


def _grid(fs=160e6, frac=0.1016, n=65):
    half = frac / 2 * fs
    return np.linspace(-half, half, n)


class TestTuning:
    def test_cancels_typical_channel_30db_plus(self):
        for seed in range(5):
            si = SelfInterferenceChannel.typical(rng=make_rng(seed))
            board = AnalogCancellationBoard()
            grid = _grid()
            board.tune(si.frequency_response(grid), grid)
            assert board.cancellation_db(si.frequency_response(grid),
                                         grid) > 30.0

    def test_residual_returned_by_tune(self):
        si = SelfInterferenceChannel.typical(rng=make_rng(1))
        board = AnalogCancellationBoard()
        grid = _grid()
        resp = si.frequency_response(grid)
        residual = board.tune(resp, grid)
        assert np.mean(np.abs(residual) ** 2) < np.mean(np.abs(resp) ** 2)

    def test_cannot_cancel_long_delay_ripple(self):
        # A strong 30 ns reflection is outside the board's ~1.4 ns span;
        # the board must not pretend to cancel it.
        si = SelfInterferenceChannel([200e-12, 30e-9], [0.18, 0.05])
        board = AnalogCancellationBoard()
        grid = _grid()
        board.tune(si.frequency_response(grid), grid)
        # Total cancellation limited by the barely-cancellable long
        # reflection (the board's 1.4 ns span cannot track its ripple).
        canc = board.cancellation_db(si.frequency_response(grid), grid)
        assert canc < 28.0

    def test_shape_mismatch_rejected(self):
        board = AnalogCancellationBoard()
        with pytest.raises(ValueError):
            board.tune(np.ones(5, dtype=complex), np.ones(4))


class TestQuantisation:
    def test_quantised_gains_on_attenuator_grid(self):
        si = SelfInterferenceChannel.typical(rng=make_rng(2))
        board = AnalogCancellationBoard()
        grid = _grid()
        board.tune(si.frequency_response(grid), grid)
        mags = np.abs(board.line.gains)
        nz = mags > 0
        att_db = -20.0 * np.log10(mags[nz])
        steps = att_db / board.line.attenuation_step_db
        assert np.allclose(steps, np.round(steps), atol=1e-6)

    def test_attenuators_match_bisection_oracle(self):
        # The board's ideal solve used to bisect its ridge over
        # [1e-12, 1e3] x scale with np.linalg.solve; the SVD solve
        # searches [1e-12, 1e6] x scale and must program the same
        # attenuator steps on the typical channels.
        board = AnalogCancellationBoard()
        line, grid = board.line, _grid()
        basis = np.exp(-2j * np.pi * np.outer(line.carrier_hz + grid,
                                              line.tap_delays_s))
        for seed in range(5):
            si = SelfInterferenceChannel.typical(rng=make_rng(seed))
            target = -si.frequency_response(grid) / board.insertion_gain
            gains = line.solve_gains_for_response(grid, target, max_gain=1.0)
            ref, _ = bisect_bounded_lstsq(basis, target, hi_scale=1e3)
            assert np.allclose(np.abs(line.quantize_gains(gains)),
                               np.abs(line.quantize_gains(ref)),
                               rtol=1e-9, atol=0.0)

    def test_refinement_never_hurts(self):
        si = SelfInterferenceChannel.typical(rng=make_rng(3))
        grid = _grid()
        resp = si.frequency_response(grid)
        plain = AnalogCancellationBoard()
        plain.tune(resp, grid, refine_iterations=0)
        refined = AnalogCancellationBoard()
        refined.tune(resp, grid, refine_iterations=3)
        assert (refined.cancellation_db(resp, grid)
                >= plain.cancellation_db(resp, grid) - 1e-9)


class TestApply:
    def test_apply_matches_response(self):
        rng = make_rng(4)
        si = SelfInterferenceChannel.typical(rng=rng)
        board = AnalogCancellationBoard()
        grid = _grid()
        board.tune(si.frequency_response(grid), grid)
        fs = 160e6
        n = np.arange(8192)
        f0 = grid[10]
        tone = np.exp(2j * np.pi * f0 / fs * n)
        out = board.apply(tone, fs)
        expected = board.response(np.array([f0]))[0]
        ratio = out[2000:6000] / tone[2000:6000]
        assert np.allclose(ratio, expected, atol=2e-3)
