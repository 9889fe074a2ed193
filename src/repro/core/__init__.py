"""The paper's contribution: construct-and-forward full-duplex relaying.

* :mod:`repro.core.cnf_filter` — the constructive filter: per-subcarrier
  phase alignment (SISO, Eq. 1) and unitary det-maximisation (MIMO,
  Eq. 2);
* :mod:`repro.core.decomposition` — splitting the ideal response between
  the 4-tap digital pre-filter and the 4-tap/100 ps analog filter
  (§3.4) by alternating least squares (sequential convex programming);
* :mod:`repro.core.amplification` — the two amplification caps:
  cancellation minus loop margin, and relay->destination attenuation
  minus 3 dB so relayed noise lands under the destination floor (§3.5);
* :mod:`repro.core.cfo_restore` — correct-process-restore CFO handling
  (§4.1);
* :mod:`repro.core.latency` — the processing-latency budget against the
  OFDM CP, and the ISI penalty model when it is blown (§5.4);
* :mod:`repro.core.relay` — :class:`FastForwardRelay`, the assembled
  device (link-level model + sample-level processing);
* :mod:`repro.core.baselines` — amplify-and-forward, half-duplex
  decode-and-forward mesh, and AP-only comparators (§2, §5).
"""

from repro.core.cnf_filter import siso_cnf_phase, mimo_cnf_filter
from repro.core.decomposition import CnfFilterDecomposition, decompose_cnf_filter
from repro.core.amplification import (
    cancellation_cap_db,
    noise_safe_cap_db,
    select_amplification_db,
)
from repro.core.cfo_restore import CfoRestorer
from repro.core.latency import LatencyBudget, isi_useful_fraction, isi_effective_snr
from repro.core.full_duplex import FullDuplexRelaySession, FullDuplexRunResult
from repro.core.relay import FastForwardRelay, RelayConfig
from repro.core.baselines import (
    AmplifyForwardRelay,
    HalfDuplexMeshRouter,
    SampleLevelMeshRouter,
    half_duplex_throughput_mbps,
)

__all__ = [
    "siso_cnf_phase",
    "mimo_cnf_filter",
    "CnfFilterDecomposition",
    "decompose_cnf_filter",
    "cancellation_cap_db",
    "noise_safe_cap_db",
    "select_amplification_db",
    "CfoRestorer",
    "LatencyBudget",
    "isi_useful_fraction",
    "isi_effective_snr",
    "FullDuplexRelaySession",
    "FullDuplexRunResult",
    "FastForwardRelay",
    "RelayConfig",
    "AmplifyForwardRelay",
    "HalfDuplexMeshRouter",
    "SampleLevelMeshRouter",
    "half_duplex_throughput_mbps",
]
