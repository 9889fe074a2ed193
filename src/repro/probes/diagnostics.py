"""Streaming signal diagnostics computed at probe tap points.

Each probe turns raw IQ segments into the physics-grounded numbers a
full-duplex testbed lives by (§3, §5.4 of the paper):

* :class:`EvmProbe` — per-subcarrier and aggregate error-vector
  magnitude against a known reference frame, with a per-window
  least-squares one-tap equaliser so any LTI response (the CNF filter,
  amplification, the analog line) is absorbed and only *non-LTI*
  degradation — noise, residual SI, drift within the window, clipping,
  inter-symbol leakage of an over-long kernel — shows up as error.
* :class:`SpectrumProbe` — a Bartlett-averaged power spectrum over
  fixed ``fft_size`` segments, from which the residual-SI floor is
  read: white residual raises the unoccupied-bin floor, so the
  in-band-to-out-of-band ratio is a direct cancellation-depth proxy.
  Also spectral flatness, band occupancy, out-of-band leakage and an
  instantaneous/EWMA SNR track.
* :class:`PaprProbe` — peak-to-average power over analysed segments
  (clipping headroom).
* :class:`LatencyAccountant` — the cyclic-prefix ledger: cumulative
  processing delay per tap site against the CP budget, plus the
  realised DSP lookahead of each runtime stage.

Determinism contract: every published float is quantised to a dyadic
rational (:func:`repro.probes.taps.quantize`) so partial sums formed in
any chunk/backend layout are exact and associative — ``probes.*``
aggregates are bit-identical across the serial and process sweep
backends (the contract ``repro.telemetry`` inherits from ``repro.exec``).
All decimation is keyed to *absolute stream position*, never to block
boundaries, so block chunking cannot change a single published value.
"""

from __future__ import annotations

import math

from dataclasses import dataclass

import numpy as np

from repro.core.latency import LatencyBudget
from repro.phy.modulation import QPSK
from repro.phy.ofdm import OfdmModulator
from repro.phy.params import OfdmParams

#: Quantisation step exponent: published floats are multiples of 2**-20.
QUANT_BITS = 20
_QUANT_SCALE = float(1 << QUANT_BITS)

#: EVM floor (dB) so log of a numerically-zero error stays finite and
#: platform-independent.
EVM_FLOOR_DB = -160.0

#: Deferred-analysis watermark: probes buffer the segments the
#: decimation policy keeps and only run the FFT/statistics pass once at
#: least this many have accumulated (reads drain the remainder
#: automatically).  Small per-block batches would otherwise pay numpy
#: dispatch cost comparable to the entire cached-kernel relay chain;
#: batching at this scale amortises it to noise.  The watermark counts
#: *kept* segments — an absolute-stream-position quantity — so drain
#: contents never depend on block chunking.
FLUSH_SEGMENTS = 512

_TINY = 1e-30


def quantize(value, bits=QUANT_BITS):
    """Round ``value`` to the nearest multiple of ``2**-bits``.

    Dyadic rationals of bounded magnitude are exactly representable in
    binary floating point, so sums of quantised values are *exact* and
    therefore associative — the property that makes merged ``probes.*``
    histogram totals identical whatever order the executor adds chunk
    subtotals in.
    """
    scale = _QUANT_SCALE if bits == QUANT_BITS else float(1 << bits)
    value = float(value)
    if not math.isfinite(value):
        return value
    return round(value * scale) / scale


def _power_db(ratio):
    return 10.0 * math.log10(max(float(ratio), _TINY))


def _evm_db(evm):
    return max(20.0 * math.log10(max(float(evm), _TINY)), EVM_FLOOR_DB)


# ---------------------------------------------------------------------------
# Reference frames
# ---------------------------------------------------------------------------

@dataclass
class ReferenceFrame:
    """A known OFDM burst plus its transmitted used-tone grid.

    ``grid[s, j]`` is the frequency-domain symbol of OFDM symbol ``s``
    on the ``j``-th entry of ``params.used_subcarriers()`` (data tones
    carry constellation points, pilot tones the 802.11 polarity
    sequence).  ``iq`` is the matching time-domain waveform.  Probes
    index the grid by absolute symbol position modulo ``num_symbols``,
    so a frame may be looped to any stream length.
    """

    params: OfdmParams
    grid: np.ndarray
    iq: np.ndarray

    @property
    def num_symbols(self):
        return self.grid.shape[0]


def make_reference_frame(params, n_symbols=24, modulation=QPSK, rng=None):
    """A seeded QPSK (by default) reference burst for EVM probing."""
    rng = rng if isinstance(rng, np.random.Generator) \
        else np.random.default_rng(rng)
    modulator = OfdmModulator(params)
    used = params.used_subcarriers()
    pilot_set = set(params.pilot_subcarriers)
    data_pos = [j for j, k in enumerate(used) if k not in pilot_set]
    pilot_pos = [j for j, k in enumerate(used) if k in pilot_set]
    # Pilot order within the grid must match the modulator's pilot
    # index order (sorted ascending in both).
    n_data = params.num_data_subcarriers
    bits = rng.integers(0, 2, size=n_symbols * n_data
                        * modulation.bits_per_symbol)
    data = modulation.modulate(bits).reshape(n_symbols, n_data)
    grid = np.zeros((n_symbols, len(used)), dtype=complex)
    grid[:, data_pos] = data
    for s in range(n_symbols):
        grid[s, pilot_pos] = modulator.pilot_values(s)
    iq = modulator.modulate(data.ravel())
    return ReferenceFrame(params=params, grid=grid, iq=iq)


# ---------------------------------------------------------------------------
# Segment plumbing (absolute-position decimation)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecimationPolicy:
    """Analyse ``window`` consecutive segments out of every ``period``.

    Selection is by *absolute segment index* (``index % period <
    window``), so which samples get analysed is a property of the
    stream alone — independent of block sizes, chunk layout or how many
    calls delivered the stream.  The default (4 of every 1024) keeps
    always-on probing inside the repo's <5% instrumentation overhead
    budget: the cached-kernel relay chain is fast enough that even the
    batched FFT/statistics passes cost a meaningful fraction of the
    chain per analysed sample, so the default duty cycle is what keeps
    the probes cheap — windows of 4 consecutive symbols preserve a
    well-conditioned least-squares EVM fit at any sparsity.
    """

    window: int = 4
    period: int = 1024

    def __post_init__(self):
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.period < self.window:
            raise ValueError(f"period must be >= window, got "
                             f"{self.period} < {self.window}")

    def mask(self, indices):
        """Boolean analyse-mask for an array of segment indices."""
        return (np.asarray(indices, dtype=int) % self.period) < self.window

    def analyze(self, index):
        """Whether the segment at absolute ``index`` is analysed."""
        return (int(index) % self.period) < self.window


#: Analyse every segment (tests and short offline runs).
ALWAYS = DecimationPolicy(window=1, period=1)

#: The default always-on policy (1/256 duty cycle).
DEFAULT_POLICY = DecimationPolicy(window=4, period=1024)


class SegmentBuffer:
    """Carve a block stream into fixed-length segments with carry-over.

    Partial segments are carried across ``feed`` calls and the absolute
    segment index advances monotonically, so segmentation is invariant
    to how the stream was chunked into blocks.  MIMO ``(streams, n)``
    blocks are probed on stream 0.
    """

    def __init__(self, seg_len):
        self.seg_len = int(seg_len)
        if self.seg_len < 1:
            raise ValueError(f"seg_len must be >= 1, got {seg_len}")
        self._carry = np.zeros(0, dtype=complex)
        self._next_index = 0
        self._empty = (np.zeros(0, dtype=int),
                       np.zeros((0, self.seg_len), dtype=complex))
        self._empty_carry = np.zeros(0, dtype=complex)

    def feed(self, x):
        """Absorb a block; return ``(indices, segments)`` now complete."""
        x = np.asarray(x)
        if x.ndim == 2:
            x = x[0]
        x = np.asarray(x, dtype=complex).ravel()
        data = np.concatenate([self._carry, x]) if self._carry.size else x
        n_full = data.size // self.seg_len
        if n_full == 0:
            self._carry = data
            return (np.zeros(0, dtype=int),
                    np.zeros((0, self.seg_len), dtype=complex))
        split = n_full * self.seg_len
        segments = data[:split].reshape(n_full, self.seg_len)
        self._carry = data[split:].copy()
        indices = np.arange(self._next_index, self._next_index + n_full)
        self._next_index += n_full
        return indices, segments

    def feed_kept(self, x, policy):
        """Absorb a block; return only the segments ``policy`` keeps.

        Equivalent to :meth:`feed` followed by the policy mask, but
        built for the always-on tap hot path: kept bursts are
        enumerated with integer arithmetic (one iteration per policy
        period spanned, not per segment), segments come out of the
        block as contiguous-slice views, and nothing proportional to
        the stream length is copied or allocated — the cost scales
        with the duty cycle.  (The plain :meth:`feed` concatenates the
        carry with the whole block whenever the segment length does
        not divide it — a full-stream copy on every call.)
        """
        x = np.asarray(x)
        if x.ndim == 2:
            x = x[0]
        elif x.ndim != 1:
            x = x.ravel()
        carry = self._carry
        carry_n = carry.size
        seg = self.seg_len
        n_full = (carry_n + x.size) // seg
        if n_full == 0:
            if x.size:
                self._carry = np.concatenate([carry, x.astype(complex)]) \
                    if carry_n else x.astype(complex)
            return self._empty
        start = self._next_index
        end = start + n_full
        self._next_index = end
        tail = carry_n + x.size - n_full * seg
        # Kept bursts via integer arithmetic — one loop iteration per
        # policy period the block spans.
        window, period = policy.window, policy.period
        if window == period:                   # ALWAYS-style policies
            bursts = [(start, end)]
        else:
            bursts = []
            base = start - (start % period)
            while base < end:
                lo = max(base, start)
                hi = min(base + window, end)
                if lo < hi:
                    bursts.append((lo, hi))
                base += period
        if not bursts:
            self._carry = x[x.size - tail:].astype(complex) if tail \
                else self._empty_carry
            return self._empty
        idx_parts, seg_parts = [], []
        for lo, hi in bursts:
            idx_parts.append(np.arange(lo, hi))
            # Sample offsets into the virtual carry+block concatenation
            # (only the very first segment can straddle the carry).
            a = (lo - start) * seg - carry_n
            b = (hi - start) * seg - carry_n
            if a < 0:
                head = np.concatenate([carry, x[:seg - carry_n]])
                rows = head.reshape(1, seg) if hi - lo == 1 \
                    else np.concatenate(
                        [head, x[seg - carry_n:b]]).reshape(hi - lo, seg)
                seg_parts.append(rows.astype(complex, copy=False))
            else:
                seg_parts.append(np.asarray(
                    x[a:b].reshape(hi - lo, seg), dtype=complex))
        self._carry = x[x.size - tail:].astype(complex) if tail \
            else self._empty_carry
        if len(idx_parts) == 1:
            return idx_parts[0], seg_parts[0]
        return np.concatenate(idx_parts), np.concatenate(seg_parts)


# ---------------------------------------------------------------------------
# Probes
# ---------------------------------------------------------------------------

class EvmProbe:
    """Streaming decision-referenced EVM against a known frame.

    Buffers OFDM symbols, FFTs the post-CP samples of each analysed
    symbol, and — per window of ``policy.window`` (>= 2) analysed
    symbols — fits one least-squares tap per subcarrier before
    measuring the residual.  The fit absorbs any LTI response between
    transmitter and tap point; what remains is genuine degradation.
    """

    def __init__(self, params, reference, policy=None,
                 max_constellation=48):
        if reference.grid.shape[1] != params.num_used_subcarriers:
            raise ValueError(
                f"reference grid has {reference.grid.shape[1]} tones, "
                f"params use {params.num_used_subcarriers}")
        self.params = params
        self.reference = reference
        self.policy = policy or DEFAULT_POLICY
        self.window_symbols = max(2, int(self.policy.window))
        self._segments = SegmentBuffer(params.symbol_len)
        used = params.used_subcarriers()
        self._bins = np.asarray(used, dtype=int) % params.fft_size
        self._err_power = np.zeros(len(used))
        self._ref_power = np.zeros(len(used))
        self._pending_y = np.zeros((0, len(used)), dtype=complex)
        self._pending_x = np.zeros((0, len(used)), dtype=complex)
        self._raw_indices = []
        self._raw_segments = []
        self._raw_count = 0
        self._window_evm_db = []
        self._windows = 0
        self._symbols_analyzed = 0
        self._constellation = []
        self._max_constellation = int(max_constellation)

    def process(self, x):
        """Absorb a block; analysis is deferred to large batches.

        Kept symbols are buffered and only FFT'd once
        :data:`FLUSH_SEGMENTS` have accumulated (or a read drains the
        remainder) — the hot path per block is just segmentation and
        the decimation mask.
        """
        indices, segments = self._segments.feed_kept(x, self.policy)
        if not len(indices):
            return
        self._raw_indices.append(indices)
        self._raw_segments.append(segments)
        self._raw_count += len(indices)
        if self._raw_count >= FLUSH_SEGMENTS:
            self.drain()

    def drain(self):
        """Run the deferred analysis now (reads call this implicitly)."""
        if not self._raw_count:
            return
        indices = np.concatenate(self._raw_indices)
        segments = np.concatenate(self._raw_segments)
        self._raw_indices, self._raw_segments = [], []
        self._raw_count = 0
        spectra = np.fft.fft(segments[:, self.params.cp_len:], axis=1) \
            / np.sqrt(self.params.fft_size)
        tones = spectra[:, self._bins]
        refs = self.reference.grid[indices % self.reference.num_symbols]
        self._symbols_analyzed += len(indices)
        ys = np.concatenate([self._pending_y, tones]) \
            if self._pending_y.size else tones
        xs = np.concatenate([self._pending_x, refs]) \
            if self._pending_x.size else refs
        w = self.window_symbols
        n_win = ys.shape[0] // w
        if n_win:
            self._finalize_windows(
                ys[:n_win * w].reshape(n_win, w, -1),
                xs[:n_win * w].reshape(n_win, w, -1))
        self._pending_y = ys[n_win * w:].copy()
        self._pending_x = xs[n_win * w:].copy()

    @property
    def window_evm_db(self):
        """Per-window EVM (dB), quantised, in window order."""
        self.drain()
        return self._window_evm_db

    @property
    def windows(self):
        self.drain()
        return self._windows

    @property
    def symbols_analyzed(self):
        self.drain()
        return self._symbols_analyzed

    @property
    def constellation(self):
        """Decimated equalised ``(i, q)`` scatter points, quantised."""
        self.drain()
        return self._constellation

    def _finalize_windows(self, ys, xs):
        """LS-fit and measure every complete window in one batch.

        The heavy lifting is vectorised over windows (the per-window
        arithmetic is self-contained, so batching cannot change any
        value), but the running power accumulators are still updated
        one window at a time — the addition order must depend only on
        window sequence, never on how many windows one block delivered.
        """
        denom = np.sum(np.abs(xs) ** 2, axis=1)
        h = np.sum(ys * xs.conj(), axis=1) / np.maximum(denom, _TINY)
        fitted = h[:, None, :] * xs
        err = np.sum(np.abs(ys - fitted) ** 2, axis=1)
        ref = np.sum(np.abs(fitted) ** 2, axis=1)
        self._err_power += err.sum(axis=0)
        self._ref_power += ref.sum(axis=0)
        evms = np.sqrt(err.sum(axis=1)
                       / np.maximum(ref.sum(axis=1), _TINY))
        evm_db = np.maximum(20.0 * np.log10(np.maximum(evms, _TINY)),
                            EVM_FLOOR_DB)
        self._window_evm_db.extend(quantize(v) for v in evm_db)
        self._windows += ys.shape[0]
        for k in range(ys.shape[0]):
            if len(self._constellation) >= self._max_constellation:
                break
            safe_h = np.where(np.abs(h[k]) > 1e-12, h[k], 1.0)
            equalised = ys[k, 0] / safe_h
            step = max(1, equalised.size // 8)
            for value in equalised[::step]:
                if len(self._constellation) >= self._max_constellation:
                    break
                self._constellation.append(
                    (quantize(value.real), quantize(value.imag)))

    @property
    def evm_rms(self):
        """Aggregate RMS EVM (linear) over every finished window."""
        self.drain()
        total_ref = float(self._ref_power.sum())
        if total_ref <= 0.0:
            return 0.0
        return math.sqrt(float(self._err_power.sum()) / total_ref)

    @property
    def evm_rms_db(self):
        return _evm_db(self.evm_rms)

    def per_subcarrier_db(self):
        """EVM (dB) per used subcarrier, ``EVM_FLOOR_DB`` when empty."""
        self.drain()
        out = np.full(self._err_power.size, EVM_FLOOR_DB)
        live = self._ref_power > 0.0
        evm = np.sqrt(self._err_power[live]
                      / np.maximum(self._ref_power[live], _TINY))
        out[live] = np.maximum(20.0 * np.log10(np.maximum(evm, _TINY)),
                               EVM_FLOOR_DB)
        return out


class SpectrumProbe:
    """Bartlett power spectrum, residual-SI floor and band statistics.

    Accumulates ``|FFT|^2`` over analysed ``fft_size`` segments.  The
    in-band mean over used tones against the out-of-band floor over
    unoccupied bins (DC excluded) proxies the cancellation depth: white
    residual self-interference is the one contributor that lifts the
    unoccupied bins.
    """

    def __init__(self, params, ewma_alpha=0.125):
        self.params = params
        nfft = params.fft_size
        used_bins = np.asarray(params.used_subcarriers(), dtype=int) % nfft
        self._used = np.zeros(nfft, dtype=bool)
        self._used[used_bins] = True
        self._oob = ~self._used
        self._oob[0] = False            # DC carries no verdict either way
        self._psd = np.zeros(nfft)
        self.segments_analyzed = 0
        self._ewma_alpha = float(ewma_alpha)
        self.snr_ewma_db = None

    def accumulate(self, segments):
        """Fold already-selected analysed segments into the average."""
        if not len(segments):
            return
        power = np.abs(np.fft.fft(segments, axis=1)) ** 2 \
            / self.params.fft_size
        self._psd += power.sum(axis=0)
        self.segments_analyzed += len(segments)
        inband = power[:, self._used].mean(axis=1)
        floor = power[:, self._oob].mean(axis=1)
        # Instantaneous per-segment SNR vectorised; the EWMA recurrence
        # itself stays a sequential float loop so the track is exactly
        # chunk-layout invariant.
        inst_db = 10.0 * np.log10(np.maximum(inband, _TINY)
                                  / np.maximum(floor, _TINY))
        for inst in inst_db:
            inst = float(inst)
            if self.snr_ewma_db is None:
                self.snr_ewma_db = inst
            else:
                self.snr_ewma_db = (self._ewma_alpha * inst
                                    + (1.0 - self._ewma_alpha)
                                    * self.snr_ewma_db)

    def _mean_psd(self):
        if not self.segments_analyzed:
            return None
        return self._psd / self.segments_analyzed

    @property
    def cancellation_depth_db(self):
        """In-band power over the unoccupied-bin floor, in dB."""
        psd = self._mean_psd()
        if psd is None:
            return None
        return _power_db(max(psd[self._used].mean(), _TINY)
                         / max(psd[self._oob].mean(), _TINY))

    @property
    def oob_leakage_db(self):
        """Total out-of-band power relative to in-band, in dB."""
        psd = self._mean_psd()
        if psd is None:
            return None
        return _power_db(max(psd[self._oob].sum(), _TINY)
                         / max(psd[self._used].sum(), _TINY))

    @property
    def flatness(self):
        """Spectral flatness (geometric/arithmetic mean) over used bins."""
        psd = self._mean_psd()
        if psd is None:
            return None
        band = np.maximum(psd[self._used], _TINY)
        return float(np.exp(np.mean(np.log(band))) / band.mean())

    @property
    def occupancy(self):
        """Fraction of total power inside the used tones."""
        psd = self._mean_psd()
        if psd is None:
            return None
        total = float(psd.sum())
        if total <= 0.0:
            return 0.0
        return float(psd[self._used].sum() / total)

    def psd_db(self):
        """``(freqs_hz, psd_db)`` in ascending-frequency order."""
        psd = self._mean_psd()
        if psd is None:
            return None
        nfft = self.params.fft_size
        freqs = np.fft.fftshift(
            np.fft.fftfreq(nfft, d=self.params.sample_period_s))
        shifted = np.fft.fftshift(psd)
        return freqs, 10.0 * np.log10(np.maximum(shifted, _TINY))


class PaprProbe:
    """Peak-to-average power ratio over analysed segments."""

    def __init__(self):
        self.peak = 0.0
        self.energy = 0.0
        self.samples = 0

    def accumulate(self, segments):
        if not len(segments):
            return
        power = np.abs(segments) ** 2
        self.peak = max(self.peak, float(power.max()))
        self.energy += float(power.sum())
        self.samples += power.size

    @property
    def papr_db(self):
        if self.samples == 0 or self.energy <= 0.0:
            return None
        return _power_db(self.peak / (self.energy / self.samples))


# ---------------------------------------------------------------------------
# Latency-budget accounting
# ---------------------------------------------------------------------------

#: (component, LatencyBudget field, tap site) in signal-path order —
#: the CP ledger attributed to the relay tap site each delay sits
#: behind.
BUDGET_COMPONENTS = (
    ("adc-dac", "adc_dac_s", "post-si-cancellation"),
    ("digital-cancellation", "digital_cancellation_s",
     "post-si-cancellation"),
    ("analog-cancellation", "analog_cancellation_s",
     "post-si-cancellation"),
    ("cnf-digital", "cnf_digital_s", "post-cnf"),
    ("cnf-analog", "cnf_analog_s", "post-cnf"),
    ("extra-buffering", "extra_buffering_s", "post-amplification"),
)


class LatencyAccountant:
    """Cumulative group delay per tap site against the CP budget.

    The waterfall tracks the *configured* :class:`LatencyBudget` (the
    paper's ledger, §4.3) attributed to the three relay tap sites; the
    realised per-stage DSP lookahead of the running chain is reported
    alongside as a separate diagnostic (the sample-level filter model is
    not latency-constrained when the decomposition is disabled, so it
    must not be charged against the physical budget).
    """

    def __init__(self, params, budget=None):
        self.params = params
        self.budget = budget if budget is not None else LatencyBudget()
        self.realised_samples = {}
        self.sample_rate_hz = float(params.bandwidth_hz)

    def observe_chain(self, chain, sample_rate_hz=None):
        """Record the realised lookahead of each labelled stage."""
        if sample_rate_hz:
            self.sample_rate_hz = float(sample_rate_hz)
        for stage, label in zip(chain.stages, chain.labels):
            self.realised_samples[label] = int(stage.latency_samples)

    def waterfall(self):
        """Ordered rows of ``{component, site, ns, cumulative_ns}``."""
        rows = []
        cumulative = 0.0
        for order, (component, attr, site) in enumerate(BUDGET_COMPONENTS):
            ns = quantize(getattr(self.budget, attr) * 1e9)
            cumulative = quantize(cumulative + ns)
            rows.append({"component": component, "site": site, "ns": ns,
                         "cumulative_ns": cumulative, "order": order})
        return rows

    def cumulative_ns(self):
        """Cumulative delay (ns) reached at each tap site."""
        out = {}
        for row in self.waterfall():
            out[row["site"]] = row["cumulative_ns"]
        return out

    @property
    def total_ns(self):
        return quantize(self.budget.total_s() * 1e9)

    @property
    def cp_ns(self):
        return quantize(self.params.cp_duration_s * 1e9)

    @property
    def margin_ns(self):
        return quantize(self.cp_ns - self.total_ns)

    @property
    def fits_cp(self):
        return self.margin_ns >= 0.0

    def realised_ns(self):
        """Realised per-stage DSP lookahead converted to ns."""
        scale = 1e9 / self.sample_rate_hz
        return {label: quantize(samples * scale)
                for label, samples in self.realised_samples.items()}


__all__ = [
    "ALWAYS",
    "BUDGET_COMPONENTS",
    "DEFAULT_POLICY",
    "DecimationPolicy",
    "EVM_FLOOR_DB",
    "EvmProbe",
    "FLUSH_SEGMENTS",
    "LatencyAccountant",
    "PaprProbe",
    "QUANT_BITS",
    "ReferenceFrame",
    "SegmentBuffer",
    "SpectrumProbe",
    "make_reference_frame",
    "quantize",
]
