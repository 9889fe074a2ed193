"""Overlap-save streaming application of a cached spectral kernel.

:class:`FrequencyResponseStage` is the streaming replacement for the
seed's whole-signal zero-padded FFT: the windowed response is compiled
once into a short FIR kernel (see :mod:`repro.runtime.kernels`) and
applied block-by-block with the overlap-save method.  Because the kernel
is a *fixed* FIR, the output is exactly linear convolution regardless of
how the stream is chunked — pushing one sample at a time, prime-sized
blocks, or the whole frame in one call all produce identical samples to
machine precision.

The kernel's anticausal part (``precursor`` samples) is compensated
inside the stage: output samples are emitted ``precursor`` samples after
the corresponding input arrives, and :meth:`flush` drains the remainder,
so a full stream maps length-``n`` input to length-``n`` output aligned
exactly like the one-shot path.  The lookahead is reported through
:attr:`latency_samples` for the paper's CP latency budget.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.chain import Stage
from repro.runtime.kernels import (
    DEFAULT_GRID_SIZE,
    DEFAULT_TAIL_REL,
    cached_windowed_kernel,
)
from repro.utils.signal_ops import next_pow2


class FrequencyResponseStage(Stage):
    """Stream blocks through an analytically-known frequency response.

    Parameters
    ----------
    response_fn:
        ``response_fn(freqs_hz) -> complex`` on a baseband grid; return
        shape ``(F,)`` for a scalar (SISO) response or ``(F, K, K)`` for
        a per-bin MIMO matrix response (blocks are then ``(K, n)``).
    sample_rate_hz:
        Baseband sample rate.
    block_size:
        Expected push size — sizes the overlap-save FFT.  Any actual
        block size still works (the stage buffers internally); this is a
        throughput hint, not a contract.
    cache_key:
        Stable identity of the response for the process-wide kernel
        cache; ``None`` compiles a private kernel.
    flat_fraction / stop_fraction:
        Band-edge window shape (see
        :func:`repro.runtime.kernels.band_edge_window`).
    """

    def __init__(self, response_fn, sample_rate_hz, block_size=4096,
                 flat_fraction=0.35, stop_fraction=0.48, cache_key=None,
                 grid_size=DEFAULT_GRID_SIZE, tail_rel=DEFAULT_TAIL_REL,
                 name="freq-response"):
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        self.sample_rate_hz = float(sample_rate_hz)
        self.name = name
        self.kernel = cached_windowed_kernel(
            cache_key, response_fn, sample_rate_hz, flat_fraction,
            stop_fraction, grid_size, tail_rel)
        length = self.kernel.length
        # The FFT must hold history (L-1) plus a useful hop; 2*L keeps
        # the hop at least L+1 even for tiny block hints.
        self.fft_size = next_pow2(max(2 * length, length - 1 + block_size))
        self.hop = self.fft_size - (length - 1)
        self._spectrum = self.kernel.spectrum(self.fft_size)
        # Leading (non-sample) shape of every block: () for a scalar
        # response's 1-D stream, (streams,) for a matrix response.
        self._lead = (self._spectrum.shape[0],) if self.kernel.is_matrix \
            else ()
        self.reset()

    @property
    def latency_samples(self):
        """Lookahead: the kernel's anticausal (precursor) length."""
        return self.kernel.precursor

    def reset(self):
        """Clear history, buffers and sample counters."""
        self._history = None       # last L-1 input samples, allocated lazily
        self._pending = []         # input blocks awaiting a full hop
        self._pending_count = 0
        self._in_count = 0
        self._out_count = 0
        self._skip = self.kernel.precursor

    # -- internals --------------------------------------------------------

    def _coerce(self, x):
        x = np.asarray(x, dtype=complex)
        if x.ndim == 0 or x.shape[:-1] != self._lead:
            want = f"({self._lead[0]}, n)" if self._lead else "1-D"
            raise ValueError(f"expected {want} blocks, got shape {x.shape}")
        return x

    def _empty(self):
        return np.zeros(self._lead + (0,), dtype=complex)

    def _convolve_hop(self, chunk):
        """One overlap-save step: ``hop`` input -> ``hop`` output samples."""
        length = self.kernel.length
        if self._history is None:
            self._history = np.zeros(self._lead + (length - 1,),
                                     dtype=complex)
        segment = np.concatenate([self._history, chunk], axis=-1)
        spec = np.fft.fft(segment, axis=-1)
        if not self._lead:
            out_spec = self._spectrum * spec
        else:
            out_spec = np.einsum("rtm,tm->rm", self._spectrum, spec)
        y = np.fft.ifft(out_spec, axis=-1)[..., length - 1:]
        self._history = segment[..., -(length - 1):]
        return y

    def _drain(self, x, is_input):
        """Buffer ``x``, run full hops, and emit aligned output samples."""
        n = x.shape[-1]
        if is_input:
            self._in_count += n
        if n:
            self._pending.append(x)
            self._pending_count += n
        outs = []
        while self._pending_count >= self.hop:
            buf = np.concatenate(self._pending, axis=-1)
            chunk, rest = buf[..., : self.hop], buf[..., self.hop:]
            self._pending = [rest] if rest.shape[-1] else []
            self._pending_count = rest.shape[-1]
            outs.append(self._convolve_hop(chunk))
        if not outs:
            return self._empty()
        out = np.concatenate(outs, axis=-1)
        if self._skip:
            drop = min(self._skip, out.shape[-1])
            out = out[..., drop:]
            self._skip -= drop
        # Never emit beyond the samples actually ingested (zero padding
        # pushed by flush() must not lengthen the stream).
        allowed = self._in_count - self._out_count
        out = out[..., : max(allowed, 0)]
        self._out_count += out.shape[-1]
        return out

    # -- Stage interface --------------------------------------------------

    def process_block(self, x):
        """Push a block; return every output sample that is now ready."""
        x = self._coerce(x)
        if x.shape[-1] == 0:
            return self._empty()
        return self._drain(x, is_input=True)

    def flush(self):
        """Drain the tail so total output length equals total input."""
        outs = []
        zeros_shape = self._lead + (self.hop,)
        guard = 0
        while self._out_count < self._in_count:
            outs.append(self._drain(np.zeros(zeros_shape, dtype=complex),
                                    is_input=False))
            guard += 1
            if guard > 4 + (self.kernel.length // self.hop + 2):
                raise RuntimeError("overlap-save flush failed to converge")
        if not outs:
            return self._empty()
        return np.concatenate(outs, axis=-1)
