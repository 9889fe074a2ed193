"""Impairment stages: physics, counters, determinism under chunking."""

import numpy as np
import pytest

from repro.faults import (
    AdcSaturationStage,
    FaultSchedule,
    QuantizationStage,
    ResidualSiStage,
    SampleDropStage,
    TapDriftStage,
)


def _stream(stage, x, sizes):
    stage.reset()
    out, pos, i = [], 0, 0
    while pos < x.shape[-1]:
        step = min(sizes[i % len(sizes)], x.shape[-1] - pos)
        out.append(stage.process_block(x[..., pos:pos + step]))
        pos += step
        i += 1
    return np.concatenate(out, axis=-1)


@pytest.fixture
def noise():
    rng = np.random.default_rng(0)
    return rng.standard_normal(4096) + 1j * rng.standard_normal(4096)


class TestAdcSaturation:
    def test_clips_at_rails(self, noise):
        stage = AdcSaturationStage(full_scale=0.5)
        y = stage.process_block(noise)
        assert np.abs(y.real).max() <= 0.5 + 1e-12
        assert np.abs(y.imag).max() <= 0.5 + 1e-12

    def test_clip_fraction_counts(self, noise):
        stage = AdcSaturationStage(full_scale=0.5)
        stage.process_block(noise)
        expected = np.mean((np.abs(noise.real) > 0.5)
                           | (np.abs(noise.imag) > 0.5))
        assert stage.clip_fraction == pytest.approx(expected)

    def test_quiet_signal_untouched(self):
        x = 0.01 * np.ones(64, dtype=complex)
        stage = AdcSaturationStage(full_scale=1.0)
        assert np.array_equal(stage.process_block(x), x)
        assert stage.clip_fraction == 0.0

    def test_reset_clears_counters(self, noise):
        stage = AdcSaturationStage(full_scale=0.1)
        stage.process_block(noise)
        stage.reset()
        assert stage.clip_fraction == 0.0


class TestQuantization:
    def test_error_bounded_by_half_step(self, noise):
        stage = QuantizationStage(bits=8, full_scale=4.0)
        y = stage.process_block(noise)
        err = np.max(np.abs((y - noise).real))
        assert err <= stage.step / 2 + 1e-12

    def test_more_bits_less_error(self, noise):
        coarse = QuantizationStage(bits=4, full_scale=4.0).process_block(noise)
        fine = QuantizationStage(bits=12, full_scale=4.0).process_block(noise)
        assert (np.mean(np.abs(fine - noise) ** 2)
                < np.mean(np.abs(coarse - noise) ** 2) / 100)

    def test_rejects_zero_bits(self):
        with pytest.raises(ValueError):
            QuantizationStage(bits=0)


class TestTapDrift:
    def test_chunking_invariant_and_replayable(self, noise):
        sched = FaultSchedule(4)
        stage = TapDriftStage(sched, 20e6, 2.0, 2.0)
        whole = _stream(stage, noise, [4096])
        chunked = _stream(stage, noise, [1, 17, 251, 997])
        assert np.allclose(whole, chunked)

    def test_drift_accumulates(self, noise):
        stage = TapDriftStage(FaultSchedule(5), 20e6, 5.0, 5.0)
        stage.process_block(noise)
        assert stage.drift_db != 0.0
        assert stage.drift_phase_rad != 0.0

    def test_zero_sigma_is_identity(self, noise):
        stage = TapDriftStage(FaultSchedule(6), 20e6, 0.0, 0.0)
        assert np.allclose(stage.process_block(noise), noise)


class TestSampleDrop:
    def test_zero_mode_inserts_zeros(self, noise):
        stage = SampleDropStage(FaultSchedule(7), rate_per_sample=2e-3,
                                mean_burst_samples=16, mode="zero")
        y = stage.process_block(noise)
        assert stage.corrupted_fraction > 0
        assert np.isfinite(y).all()
        assert (y == 0).sum() >= stage.corrupted_fraction * noise.size

    def test_nan_mode_inserts_nans(self, noise):
        stage = SampleDropStage(FaultSchedule(8), rate_per_sample=2e-3,
                                mean_burst_samples=16, mode="nan")
        y = stage.process_block(noise)
        assert np.isnan(y.real).any()

    def test_chunking_invariant(self, noise):
        sched = FaultSchedule(9)
        stage = SampleDropStage(sched, 2e-3, 16, mode="zero")
        whole = _stream(stage, noise, [4096])
        chunked = _stream(stage, noise, [13, 301, 1999])
        assert np.array_equal(whole, chunked)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            SampleDropStage(FaultSchedule(1), mode="garbage")


class _TwoDrawResidualSi(ResidualSiStage):
    """The stage as it drew its residual before: ``np.mean``, two draws."""

    def process_block(self, x):
        x = np.asarray(x, dtype=complex)
        n = x.shape[-1]
        mask = self._jumps.mask(self._cursor, n)
        self._cursor += n
        if mask.any():
            self.jump_count += int(np.count_nonzero(mask))
            self._jumped = True
        if n == 0:
            return x
        power = float(np.mean(np.abs(x) ** 2))
        if power <= 0.0:
            return x
        level = power * 10.0 ** (self.residual_si_db / 10.0)
        scale = np.sqrt(level / 2.0)
        noise = scale * (self._noise_rng.standard_normal(x.shape)
                         + 1j * self._noise_rng.standard_normal(x.shape))
        return x + noise


class TestResidualSi:
    @pytest.mark.parametrize("rows", [None, 2])
    def test_one_draw_equals_the_two_draw_original(self, rows):
        shape = (4096,) if rows is None else (rows, 2048)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        x[..., 600:700] = 0.0           # one all-zero block below
        stages = [cls(FaultSchedule(13), jump_rate_per_sample=3e-3)
                  for cls in (ResidualSiStage, _TwoDrawResidualSi)]
        levels = set()
        pos, k = 0, 0
        for size in [1, 99, 500, 100, 0, 517, 1024, 3, 4096]:
            block = x[..., pos:pos + size]
            pos += block.shape[-1]
            outs = [stage.process_block(block) for stage in stages]
            assert np.array_equal(outs[0], outs[1])
            levels.add(stages[0].residual_si_db)
            k += 1
            if k % 3 == 0:               # re-tune: back to the baseline
                for stage in stages:
                    stage.retune()
        assert stages[0].jump_count == stages[1].jump_count >= 2
        assert levels == {-8.0, -50.0}

    def test_baseline_residual_is_small(self, noise):
        stage = ResidualSiStage(FaultSchedule(10), jump_rate_per_sample=0.0,
                                baseline_residual_db=-50.0)
        y = stage.process_block(noise)
        rel = np.mean(np.abs(y - noise) ** 2) / np.mean(np.abs(noise) ** 2)
        assert 10 * np.log10(rel) == pytest.approx(-50.0, abs=2.0)

    def test_jump_raises_residual_until_retune(self, noise):
        stage = ResidualSiStage(FaultSchedule(11), jump_rate_per_sample=2e-3,
                                jump_residual_db=-8.0)
        y = stage.process_block(noise)
        assert stage.jumped
        assert stage.jump_count >= 1
        rel = np.mean(np.abs(y - noise) ** 2) / np.mean(np.abs(noise) ** 2)
        assert rel > 0.01            # way above the -50 dB baseline
        assert stage.retune()
        assert not stage.jumped
        assert stage.residual_si_db == -50.0

    def test_reset_replays_jump_sequence(self, noise):
        sched = FaultSchedule(12)
        stage = ResidualSiStage(sched, jump_rate_per_sample=1e-3)
        first = _stream(stage, noise, [512])
        count = stage.jump_count
        second = _stream(stage, noise, [512])
        assert np.array_equal(first, second)
        assert stage.jump_count == count
