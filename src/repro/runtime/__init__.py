"""The streaming relay runtime: composable block-processing stages.

FastForward is a streaming device — samples flow through cancellation,
the CNF filter, amplification and CFO restore continuously, within a
latency budget far below the OFDM cyclic prefix.  This subpackage gives
the reproduction the same architecture:

* :mod:`repro.runtime.chain` — the :class:`Stage` contract
  (``process_block`` / ``reset`` / ``flush`` / ``latency_samples``),
  the :class:`Chain` composer and :class:`ChainTrace` per-stage
  instrumentation (wall time, throughput, in/out power);
* :mod:`repro.runtime.kernels` — windowed frequency responses compiled
  once into short FIR kernels and held in a process-wide LRU cache
  keyed on response identity, sample rate and window shape;
* :mod:`repro.runtime.spectral` — the overlap-save
  :class:`FrequencyResponseStage` applying a cached kernel block by
  block, bit-identical under any stream chunking;
* :mod:`repro.runtime.stage` — adapters wrapping the existing CFO
  restorer, streaming FIRs and the causal digital canceller as stages.

The one-shot entry points (:meth:`repro.core.relay.FastForwardRelay.
process` for SISO and MIMO links alike,
:func:`repro.dsp.spectrum.apply_frequency_response`) are thin wrappers
over this runtime, so every existing caller exercises the same code the
streaming path uses.
"""

from repro.runtime.chain import (
    Chain,
    ChainTrace,
    FunctionStage,
    GainStage,
    Stage,
    StageStats,
    concat_blocks,
)
from repro.runtime.kernels import (
    CacheStats,
    KernelCache,
    SpectralKernel,
    band_edge_window,
    cached_windowed_kernel,
    design_windowed_kernel,
    kernel_cache,
)
from repro.runtime.spectral import FrequencyResponseStage
from repro.runtime.stage import (
    CfoCorrectStage,
    CfoRestoreStage,
    DigitalCancellationStage,
    StreamingFirStage,
)

__all__ = [
    "Stage",
    "Chain",
    "ChainTrace",
    "StageStats",
    "FunctionStage",
    "GainStage",
    "concat_blocks",
    "SpectralKernel",
    "KernelCache",
    "CacheStats",
    "band_edge_window",
    "design_windowed_kernel",
    "cached_windowed_kernel",
    "kernel_cache",
    "FrequencyResponseStage",
    "CfoCorrectStage",
    "CfoRestoreStage",
    "DigitalCancellationStage",
    "StreamingFirStage",
]
