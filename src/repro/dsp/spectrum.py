"""Spectral analysis helpers (PSD, band power) for tests and diagnostics."""

from __future__ import annotations

import numpy as np

from repro.utils.validation import ensure_complex_1d


def apply_frequency_response(x, response_fn, sample_rate_hz,
                             flat_fraction=0.35, stop_fraction=0.48,
                             cache_key=None):
    """Filter a block through an analytically-known frequency response.

    ``response_fn(freqs_hz)`` returns the complex response on a baseband
    frequency grid.  The response is applied with a raised-cosine
    band-edge window (flat to ``flat_fraction * fs``, rolled off to zero
    at ``stop_fraction * fs``), which models the TX reconstruction / RX
    anti-alias filters every physical front end has.

    The window matters beyond realism: an *unwindowed* fractional-delay
    response has sinc-tail impulse content decaying only as 1/k, which
    pollutes block simulations at the -100 dB level — exactly where
    self-interference cancellation lives.  The tapered response decays
    fast enough to be compiled into a FIR kernel, so this is a thin
    one-shot wrapper over the streaming runtime
    (:class:`repro.runtime.spectral.FrequencyResponseStage`): the
    windowed kernel is built once, applied by overlap-save, and — when
    ``cache_key`` names a stable response identity — reused across
    calls instead of being recomputed per block.  Only the kernel taps
    within ``x.size - 1`` of the cursor can reach a sample of ``x``, so
    the stage is clipped to them.
    """
    from repro.runtime.spectral import FrequencyResponseStage

    x = ensure_complex_1d(x, "x")
    if x.size == 0:
        return x.copy()
    if not 0.0 < flat_fraction < stop_fraction <= 0.5:
        raise ValueError("need 0 < flat_fraction < stop_fraction <= 0.5")
    stage = FrequencyResponseStage(
        response_fn, sample_rate_hz, block_size=min(x.size, 8192),
        flat_fraction=flat_fraction, stop_fraction=stop_fraction,
        cache_key=cache_key, frame_samples=x.size)
    return stage.run(x)


def psd(x, sample_rate_hz, nfft=None):
    """Periodogram power spectral density of a complex baseband signal.

    Returns ``(freqs_hz, psd_linear)`` with frequencies spanning
    ``[-fs/2, fs/2)`` and the PSD in power per Hz, ordered by frequency.
    Bartlett averaging is applied when the signal is much longer than
    ``nfft``.
    """
    x = ensure_complex_1d(x, "x")
    if x.size == 0:
        raise ValueError("cannot compute the PSD of an empty signal")
    if nfft is None:
        nfft = min(x.size, 1024)
    if nfft < 1:
        raise ValueError(f"nfft must be >= 1, got {nfft}")
    num_segments = max(1, x.size // nfft)
    acc = np.zeros(nfft, dtype=float)
    for seg_idx in range(num_segments):
        seg = x[seg_idx * nfft : (seg_idx + 1) * nfft]
        if seg.size < nfft:
            seg = np.pad(seg, (0, nfft - seg.size))
        spec = np.fft.fft(seg) / nfft
        acc += np.abs(spec) ** 2
    acc /= num_segments
    freqs = np.fft.fftfreq(nfft, d=1.0 / sample_rate_hz)
    order = np.argsort(freqs)
    bin_width = sample_rate_hz / nfft
    return freqs[order], acc[order] / bin_width


def band_power(x, sample_rate_hz, f_low_hz, f_high_hz, nfft=None):
    """Power of ``x`` within the baseband band [f_low, f_high] Hz."""
    if f_high_hz <= f_low_hz:
        raise ValueError("f_high must exceed f_low")
    freqs, density = psd(x, sample_rate_hz, nfft=nfft)
    mask = (freqs >= f_low_hz) & (freqs <= f_high_hz)
    if not mask.any():
        return 0.0
    bin_width = freqs[1] - freqs[0]
    return float(np.sum(density[mask]) * bin_width)


def occupied_bandwidth(x, sample_rate_hz, fraction=0.99, nfft=None):
    """Bandwidth containing ``fraction`` of the total signal power (Hz)."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    freqs, density = psd(x, sample_rate_hz, nfft=nfft)
    power = density / density.sum()
    # Grow a window symmetrically from the power centroid outward.
    order = np.argsort(power)[::-1]
    cum = np.cumsum(power[order])
    needed = order[: int(np.searchsorted(cum, fraction)) + 1]
    return float(freqs[needed].max() - freqs[needed].min())
