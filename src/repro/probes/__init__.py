"""Signal-domain PHY observability: IQ tap probes and link health.

Where :mod:`repro.telemetry` sees counters and spans, this package sees
the *waveform*.  Transparent :class:`TapStage` observers attach at any
:class:`repro.runtime.chain.Chain` stage boundary — and at the relay's
three named sites (``post-si-cancellation``, ``post-cnf``,
``post-amplification``) via ``relay.process(..., probes=...)`` — and
stream IQ into physics-grounded diagnostics: per-subcarrier/aggregate
EVM, residual-SI spectrum and cancellation depth, spectral
flatness/occupancy/OOB leakage, EWMA SNR, PAPR, and a cyclic-prefix
latency ledger.

Aggregates publish as deterministic ``probes.*`` telemetry families
(bit-identical across exec backends and chunk layouts), feed the
versioned :class:`ProbeBaseline` drift gate
(:func:`compare_to_baseline`, ``python -m repro.probes.baseline``) and
render into the self-contained HTML link-health report
(:func:`write_html_report`, ``repro report --html``).
"""

from repro.probes.diagnostics import (
    ALWAYS,
    BUDGET_COMPONENTS,
    DEFAULT_POLICY,
    DecimationPolicy,
    EVM_FLOOR_DB,
    EvmProbe,
    LatencyAccountant,
    PaprProbe,
    QUANT_BITS,
    ReferenceFrame,
    SegmentBuffer,
    SpectrumProbe,
    make_reference_frame,
    quantize,
)
from repro.probes.html_report import render_html_report, write_html_report
from repro.probes.taps import (
    DEFAULT_SITE_LABELS,
    ProbeSet,
    SITES,
    SiteProbes,
    TapStage,
)

__all__ = [
    "ALWAYS",
    "BASELINE_VERSION",
    "BUDGET_COMPONENTS",
    "CANONICAL_CONFIG",
    "DEFAULT_POLICY",
    "DEFAULT_SITE_LABELS",
    "DEFAULT_TOLERANCES",
    "DecimationPolicy",
    "DriftReport",
    "DriftVerdict",
    "EVM_FLOOR_DB",
    "EvmProbe",
    "LatencyAccountant",
    "PaprProbe",
    "ProbeBaseline",
    "ProbeSet",
    "QUANT_BITS",
    "ReferenceFrame",
    "SITES",
    "SegmentBuffer",
    "SiteProbes",
    "SpectrumProbe",
    "TapStage",
    "canonical_summary",
    "compare_to_baseline",
    "make_reference_frame",
    "metric_tolerance",
    "quantize",
    "render_html_report",
    "write_html_report",
]

#: Served from :mod:`repro.probes.baseline` on first use, so that
#: ``python -m repro.probes.baseline`` runs that module once, as
#: ``__main__``, and not a second time under its own name.
_BASELINE_NAMES = frozenset({
    "BASELINE_VERSION", "CANONICAL_CONFIG", "DEFAULT_TOLERANCES",
    "DriftReport", "DriftVerdict", "ProbeBaseline", "canonical_summary",
    "compare_to_baseline", "metric_tolerance",
})


def __getattr__(name):
    if name in _BASELINE_NAMES:
        from repro.probes import baseline

        return getattr(baseline, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
