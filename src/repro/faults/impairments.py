"""Composable impairment models, implemented as runtime stages.

Each impairment is a :class:`repro.runtime.chain.Stage`, so faults
compose with the real processing exactly where they occur physically —
``Chain([AdcSaturationStage(...), relay_chain])`` clips at the receive
converter, before cancellation and filtering ever see the samples.  All
randomness comes from a :class:`repro.faults.schedule.FaultSchedule`
via labelled streams: a seed reproduces the full fault sequence, and
``reset()`` replays it (impairments are bit-deterministic under any
block chunking, like every other stage in the runtime).

The catalogue follows the failure modes the full-duplex literature
identifies as dominant — converter saturation and quantisation, analog
coefficient drift, burst corruption, and sudden self-interference
channel changes that void the tuned cancellation (Duarte et al., Sahai
et al.; paper §3.5 re-tunes when the residual rises).
"""

from __future__ import annotations

import numpy as np

from repro.faults.schedule import FaultSchedule
from repro.runtime.chain import Stage
from repro.utils.validation import ensure_positive


class AdcSaturationStage(Stage):
    """Ideal converter rails: clip I and Q at ``±full_scale``.

    Tracks the running clip fraction — the health metric a real
    front-end exports via its ADC overflow counter.  A relay driven
    into its rails produces correlated distortion the cancellation
    filters cannot model, which is why the supervisor treats a rising
    clip fraction as a first-class fault.
    """

    def __init__(self, full_scale=1.0, name="adc-clip"):
        self.full_scale = float(ensure_positive(full_scale, "full_scale"))
        self.name = name
        self.reset()

    def reset(self):
        self._samples = 0
        self._clipped = 0

    @property
    def clip_fraction(self):
        """Fraction of samples that hit either rail so far."""
        return self._clipped / self._samples if self._samples else 0.0

    def process_block(self, x):
        x = np.asarray(x, dtype=complex)
        fs = self.full_scale
        hit = (np.abs(x.real) > fs) | (np.abs(x.imag) > fs)
        self._samples += x.size
        self._clipped += int(np.count_nonzero(hit))
        if not hit.any():
            return x
        return np.clip(x.real, -fs, fs) + 1j * np.clip(x.imag, -fs, fs)


class QuantizationStage(Stage):
    """Uniform mid-rise I/Q quantisation to ``bits`` bits over ±full_scale.

    Models the converter's finite resolution: each of I and Q snaps to
    the nearest of ``2**bits`` levels; values beyond full scale clip to
    the outermost level (use :class:`AdcSaturationStage` upstream to
    track that clipping explicitly).
    """

    def __init__(self, bits=10, full_scale=1.0, name="adc-quantize"):
        bits = int(bits)
        if bits < 1:
            raise ValueError(f"bits must be >= 1, got {bits}")
        self.bits = bits
        self.full_scale = float(ensure_positive(full_scale, "full_scale"))
        self._step = 2.0 * self.full_scale / (2 ** bits)
        self.name = name

    @property
    def step(self):
        """Quantisation step size (per I/Q rail)."""
        return self._step

    def _quantize(self, v):
        level = np.floor(v / self._step) + 0.5
        max_level = 2 ** (self.bits - 1) - 0.5
        return np.clip(level, -max_level, max_level) * self._step

    def process_block(self, x):
        x = np.asarray(x, dtype=complex)
        return self._quantize(x.real) + 1j * self._quantize(x.imag)


class TapDriftStage(Stage):
    """Slow random-walk drift of an analog stage's realised coefficients.

    Attenuator and phase-shifter settings on boards like the
    :class:`repro.dsp.tapped_delay_line.AnalogTapDelayLine` drift with
    temperature and supply; to the stream this appears as a slowly
    varying multiplicative error.  Amplitude walks in dB and phase in
    radians, each a Wiener process with the given per-√second standard
    deviations, integrated per sample so the drift trajectory is
    independent of block chunking and replayed exactly on ``reset()``.
    """

    def __init__(self, schedule: FaultSchedule, sample_rate_hz,
                 amp_sigma_db_per_sqrt_s=0.5, phase_sigma_rad_per_sqrt_s=0.5,
                 label="tap-drift", name="tap-drift"):
        self.sample_rate_hz = float(ensure_positive(sample_rate_hz,
                                                    "sample_rate_hz"))
        self._schedule = schedule
        self._label = label
        dt = 1.0 / self.sample_rate_hz
        self._amp_step_db = float(amp_sigma_db_per_sqrt_s) * np.sqrt(dt)
        self._phase_step_rad = float(phase_sigma_rad_per_sqrt_s) * np.sqrt(dt)
        self.name = name
        self.reset()

    def reset(self):
        # Separate streams per walk: interleaved draws from one stream
        # would make the trajectory depend on the block chunking.
        self._amp_rng = self._schedule.stream(self._label, "amp")
        self._phase_rng = self._schedule.stream(self._label, "phase")
        self._amp_db = 0.0
        self._phase_rad = 0.0

    @property
    def drift_db(self):
        """Current amplitude drift in dB."""
        return self._amp_db

    @property
    def drift_phase_rad(self):
        """Current phase drift in radians."""
        return self._phase_rad

    def process_block(self, x):
        x = np.asarray(x, dtype=complex)
        n = x.shape[-1]
        if n == 0:
            return x
        amp_db = self._amp_db \
            + np.cumsum(self._amp_rng.standard_normal(n)) * self._amp_step_db
        phase = self._phase_rad \
            + np.cumsum(self._phase_rng.standard_normal(n)) \
            * self._phase_step_rad
        self._amp_db = float(amp_db[-1])
        self._phase_rad = float(phase[-1])
        gain = 10.0 ** (amp_db / 20.0) * np.exp(1j * phase)
        return x * gain          # broadcasts over MIMO rows


class SampleDropStage(Stage):
    """Burst sample corruption: zeros or NaNs in Poisson bursts.

    ``mode="zero"`` models dropped samples (a DMA underrun reads
    silence); ``mode="nan"`` models outright garbage — the case nothing
    downstream of the converters detects today, which is exactly what
    :class:`repro.supervision.guard.GuardedStage` exists to catch.
    """

    _MODES = ("zero", "nan")

    def __init__(self, schedule: FaultSchedule, rate_per_sample=1e-5,
                 mean_burst_samples=32, mode="zero", label="drops",
                 name=None):
        if mode not in self._MODES:
            raise ValueError(f"mode must be one of {self._MODES}, got {mode!r}")
        self._schedule = schedule
        self._label = label
        self._rate = float(rate_per_sample)
        self._mean_burst = float(mean_burst_samples)
        self.mode = mode
        self.name = name or f"drop-{mode}"
        self.reset()

    def reset(self):
        self._process = self._schedule.bursts(self._label, self._rate,
                                              self._mean_burst)
        self._cursor = 0
        self._samples = 0
        self._corrupted = 0

    @property
    def corrupted_fraction(self):
        """Fraction of stream samples corrupted so far."""
        return self._corrupted / self._samples if self._samples else 0.0

    def process_block(self, x):
        x = np.asarray(x, dtype=complex)
        n = x.shape[-1]
        mask = self._process.mask(self._cursor, n)
        self._cursor += n
        self._samples += n
        if not mask.any():
            return x
        self._corrupted += int(np.count_nonzero(mask)) \
            * (x.shape[0] if x.ndim == 2 else 1)
        y = x.copy()
        fill = 0.0 if self.mode == "zero" else complex(np.nan, np.nan)
        y[..., mask] = fill
        return y


class ResidualSiStage(Stage):
    """Residual self-interference with Poisson SI-channel jumps.

    While the cancellation tracks the channel, the residual rides
    ``baseline_residual_db`` below the relayed signal (dBc).  A jump —
    someone walks past the antenna, a cable flexes — changes the SI
    channel under the tuned filters and the residual rises to
    ``jump_residual_db`` until :meth:`retune` is called (the
    supervisor's :class:`repro.cancellation.tuning.NoiseInjectionTuner`
    pass), which restores the baseline.  The injected residual is
    white within the band — the worst case for the CNF filter.
    """

    def __init__(self, schedule: FaultSchedule, jump_rate_per_sample=0.0,
                 jump_residual_db=-8.0, baseline_residual_db=-50.0,
                 label="si-jump", name="si-residual"):
        self._schedule = schedule
        self._label = label
        self._rate = float(jump_rate_per_sample)
        self.jump_residual_db = float(jump_residual_db)
        self.baseline_residual_db = float(baseline_residual_db)
        self.name = name
        self.reset()

    def reset(self):
        self._jumps = self._schedule.bursts((self._label, "jumps"),
                                            self._rate, 1)
        self._noise_rng = self._schedule.stream(self._label, "noise")
        self._cursor = 0
        self._jumped = False
        self.jump_count = 0

    @property
    def jumped(self):
        """Whether an un-retuned SI jump is currently in effect."""
        return self._jumped

    @property
    def residual_si_db(self):
        """Current residual level in dBc (relative to the stream)."""
        return self.jump_residual_db if self._jumped \
            else self.baseline_residual_db

    def retune(self, now_s=None):
        """A successful re-tune: the filters track the new SI channel."""
        self._jumped = False
        return True

    def process_block(self, x):
        x = np.asarray(x, dtype=complex)
        n = x.shape[-1]
        mask = self._jumps.mask(self._cursor, n)
        self._cursor += n
        if mask.any():
            # Jump events are single-sample arrivals (duration 1).
            self.jump_count += int(np.count_nonzero(mask))
            self._jumped = True
        if n == 0:
            return x
        # np.mean's own sum and divide, without its dispatch.
        power = float(np.add.reduce(np.abs(x) ** 2, axis=None) / x.size)
        if power <= 0.0:
            return x
        level = power * 10.0 ** (self.residual_si_db / 10.0)
        scale = np.sqrt(level / 2.0)
        # One draw for both parts: the generator fills the real parts
        # first, exactly as two successive calls would.
        z = self._noise_rng.standard_normal((2,) + x.shape)
        noise = scale * (z[0] + 1j * z[1])
        return x + noise
