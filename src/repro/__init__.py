"""FastForward: fast and constructive full-duplex relays (SIGCOMM 2014).

A from-scratch Python reproduction of the FastForward (FF) system: a
Layer-1 in-band full-duplex relay that filters and amplifies OFDM
signals so they combine *constructively* with the direct path at the
destination, raising SNR and MIMO rank without any client changes.

Subpackages
-----------
``repro.utils``
    Units, RNG and signal-math helpers.
``repro.dsp``
    FIR/IIR filters, fractional delays, analog tap-delay-line models.
``repro.phy``
    A complete 802.11-style OFDM PHY (coding, modulation, preambles,
    sync, MIMO, rate tables, full transmit/receive chains).
``repro.channel``
    Propagation: path loss, multipath, floor plans, pinhole MIMO.
``repro.cancellation``
    Full-duplex self-interference cancellation (analog + causal
    digital) and the noise-injection tuning algorithm.
``repro.core``
    The paper's contribution: construct-and-forward filtering, the
    digital/analog filter decomposition, amplification control, the
    relay device, baselines, and the closed full-duplex loop.
``repro.ident``
    Source/destination identification: PN signatures, STF channel
    fingerprints, sounding, CSI feedback, and the relay control plane.
``repro.runtime``
    The streaming relay runtime: composable block-processing stages,
    chains, cached spectral kernels, per-stage instrumentation.
``repro.faults`` / ``repro.supervision``
    Fault injection (seeded schedules, impairment stages) and the
    self-healing relay supervisor with its degradation ladder.
``repro.exec``
    The sharded sweep executor: serial/process backends, a
    content-addressed result cache, checkpoint/resume.
``repro.telemetry``
    Unified metrics, tracing and profiling: an ambient collector,
    deterministic cross-worker merging, JSONL / summary-table /
    Chrome-trace export.
``repro.probes``
    Signal-domain observability: IQ tap probes at stage boundaries,
    EVM / residual-SI / latency-budget diagnostics, baseline drift
    gates, and the static HTML link-health report.
``repro.netsim``
    Testbeds, throughput models, per-figure experiment runners, and
    design-choice ablations.
``repro.fleet``
    District-scale multi-relay deployments: seeded home-grid
    generation, client→relay association policies with precomputed
    backups, fast reroute off the supervisor's typed event log, and
    district sweeps on the exec engine.
``repro.service``
    The always-on relay service: session lifecycle over seeded
    traffic, weighted-DRR scheduling with typed backpressure, shared
    memoised relay chains under per-chain supervisors, live health
    snapshots, and open-loop load testing (``repro serve``).
``repro.cli``
    ``python -m repro.cli`` — the headline experiments from a shell.
"""

__version__ = "1.0.0"

from repro.phy.params import LTE_10MHZ, WIFI_20MHZ, WIFI_20MHZ_LONG_CP

__all__ = ["WIFI_20MHZ", "WIFI_20MHZ_LONG_CP", "LTE_10MHZ", "__version__"]
