"""MCS tables and the SNR -> PHY-rate mapping.

This is the paper's throughput metric (§5): "PHY layer throughput ...
the optimal bitrate that can be used at any location given the SNR and
the MIMO rank", deliberately free of MAC and rate-adaptation artefacts.
The MCS table mirrors 802.11n HT-20 with the short guard interval (the
numerology of :data:`repro.phy.params.WIFI_20MHZ`), extended with the
256-QAM entries 802.11ac added, since the paper argues FF lifts clients
from BPSK/16-QAM up to 64/256-QAM (§5.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from repro.utils.units import db_to_power, power_to_db


@dataclass(frozen=True)
class McsEntry:
    """One modulation-and-coding-scheme row.

    ``min_snr_db`` is the per-stream SNR needed to sustain ~10% PER at
    this MCS — standard receiver-sensitivity-derived thresholds.
    ``rate_mbps`` is the single-stream HT-20 short-GI data rate.
    """

    index: int
    modulation_name: str
    bits_per_symbol: int
    code_rate: Fraction
    rate_mbps: float
    min_snr_db: float


def _rate(bits_per_symbol, code_rate):
    """Single-stream HT-20 SGI rate: 52 data tones / 3.6 us symbols."""
    return 52 * bits_per_symbol * float(code_rate) / 3.6


#: HT-20 short-GI MCS 0-7 plus the two VHT 256-QAM extensions.
MCS_TABLE = (
    McsEntry(0, "bpsk", 1, Fraction(1, 2), _rate(1, Fraction(1, 2)), 2.0),
    McsEntry(1, "qpsk", 2, Fraction(1, 2), _rate(2, Fraction(1, 2)), 5.0),
    McsEntry(2, "qpsk", 2, Fraction(3, 4), _rate(2, Fraction(3, 4)), 9.0),
    McsEntry(3, "16qam", 4, Fraction(1, 2), _rate(4, Fraction(1, 2)), 11.0),
    McsEntry(4, "16qam", 4, Fraction(3, 4), _rate(4, Fraction(3, 4)), 15.0),
    McsEntry(5, "64qam", 6, Fraction(2, 3), _rate(6, Fraction(2, 3)), 18.0),
    McsEntry(6, "64qam", 6, Fraction(3, 4), _rate(6, Fraction(3, 4)), 20.0),
    McsEntry(7, "64qam", 6, Fraction(5, 6), _rate(6, Fraction(5, 6)), 25.0),
    McsEntry(8, "256qam", 8, Fraction(3, 4), _rate(8, Fraction(3, 4)), 28.0),
    McsEntry(9, "256qam", 8, Fraction(5, 6), _rate(8, Fraction(5, 6)), 31.0),
)


def highest_mcs_for_snr(snr_db):
    """The fastest MCS whose threshold the SNR meets, or None."""
    best = None
    for entry in MCS_TABLE:
        if snr_db >= entry.min_snr_db:
            best = entry
    return best


def phy_rate_mbps(snr_db):
    """Single-stream PHY rate (Mbps) at a given post-detection SNR.

    Zero below the lowest MCS threshold — these are the paper's "dead
    spots" where AP-only throughput is literally zero.
    """
    entry = highest_mcs_for_snr(snr_db)
    return entry.rate_mbps if entry is not None else 0.0


def mimo_phy_rate_mbps(stream_snrs_db):
    """Total PHY rate over spatial streams with per-stream MCS.

    ``stream_snrs_db`` are the post-detection SINRs of each stream
    (e.g. from :func:`repro.phy.mimo.mimo_stream_sinrs`).  Streams whose
    SINR cannot support MCS0 contribute nothing — this is how MIMO rank
    deficiency manifests as throughput loss.
    """
    sinrs = np.atleast_1d(np.asarray(stream_snrs_db, dtype=float))
    return float(sum(phy_rate_mbps(s) for s in sinrs))


def shannon_rate_mbps(snr_db, bandwidth_hz=20e6, gap_db=3.0, max_bits_per_hz=10.0):
    """Gap-to-capacity Shannon rate, for analytic comparisons.

    ``B log2(1 + SNR/gap)`` clipped at a spectral-efficiency ceiling.
    Used in sanity tests to check the MCS ladder tracks capacity shape
    (concave in SNR — the diminishing-returns argument of §5.2).
    """
    snr_lin = db_to_power(np.asarray(snr_db, dtype=float)) / db_to_power(gap_db)
    bits = np.minimum(np.log2(1.0 + snr_lin), max_bits_per_hz)
    return bandwidth_hz * bits / 1e6


def snr_required_for_rate(rate_mbps):
    """Minimum SNR (dB) to reach at least ``rate_mbps`` single-stream."""
    for entry in MCS_TABLE:
        if entry.rate_mbps >= rate_mbps:
            return entry.min_snr_db
    return float("inf")


def effective_snr_db(subcarrier_snrs_db, beta_db=5.0):
    """Exponential effective SNR mapping (EESM) across subcarriers.

    Collapses a frequency-selective set of per-subcarrier SNRs into the
    single scalar that predicts coded performance: strong tones cannot
    fully compensate deeply faded ones, which EESM captures via an
    exponential average with parameter beta.
    """
    snrs = np.atleast_1d(np.asarray(subcarrier_snrs_db, dtype=float))
    if snrs.size == 0:
        raise ValueError("need at least one subcarrier SNR")
    beta = db_to_power(beta_db)
    lin = db_to_power(snrs)
    # log-mean-exp computed stably: at high SNR exp(-lin/beta)
    # underflows, which would falsely cap the result around 33 dB.
    a = -lin / beta
    m = a.max()
    log_mean = m + np.log(np.mean(np.exp(a - m)))
    eesm_lin = -beta * log_mean
    return float(power_to_db(max(eesm_lin, 1e-30)))
