"""Test support: per-subcarrier loop oracles for the MIMO link evaluation.

These are the loops the package ran before every subcarrier of a link
was evaluated in one stacked expression: the relay's effective channels
and noise covariances, the whiten-then-MMSE stream SINRs, the
eigen-beamforming SNRs, and the single-matrix MMSE SINR they call.  The
stacked path is held to them (see ``tests/test_link_oracle.py``).
"""

from __future__ import annotations

import numpy as np

from repro.core.latency import ISI_ICI_FACTOR
from repro.utils.units import db_to_linear, db_to_power


def mmse_stream_sinrs(h, noise_var):
    """Post-MMSE SINR of each stream of one (num_rx, num_tx) channel."""
    num_tx = h.shape[1]
    gram = h.conj().T @ h
    inv = np.linalg.inv(np.eye(num_tx) + gram / noise_var)
    diag = np.clip(np.real(np.diag(inv)), 1e-15, 1.0)
    return 1.0 / diag - 1.0


def mimo_effective_channels(relay, extra_path_delay_s=0.0):
    """``FastForwardRelay.mimo_effective_channels``, one tone at a time."""
    cfg = relay.config
    h_sd, h_sr, h_rd = relay._h_sd, relay._h_sr, relay._h_rd
    rho = relay._isi_fraction(extra_path_delay_s)
    a = db_to_linear(relay.amplification_db)
    a2 = db_to_power(relay.amplification_db)
    sigma_d2 = 10.0 ** (cfg.noise_floor_dbm / 10.0)
    sigma_r2 = 10.0 ** (cfg.relay_noise_floor_dbm / 10.0)
    p_per_stream = 10.0 ** (cfg.tx_power_dbm / 10.0) / h_sd.shape[2]
    n_sc, n_rx, _ = h_sd.shape
    h_eff = np.empty_like(h_sd)
    noise_cov = np.empty((n_sc, n_rx, n_rx), dtype=complex)
    eye = np.eye(n_rx)
    recirc = relay._recirculation_factor(extra_path_delay_s)
    for s in range(n_sc):
        f = np.exp(1j * relay._mimo_phases[s]) * relay._mimo_f0[s]
        relay_term = h_rd[s] @ f @ (a * h_sr[s])
        h_eff[s] = h_sd[s] + np.sqrt(rho) * relay_term
        relay_mix = h_rd[s] @ f
        cov = sigma_d2 * eye \
            + a2 * sigma_r2 * (relay_mix @ relay_mix.conj().T)
        if rho < 1.0:
            lost = (ISI_ICI_FACTOR * (1.0 - rho) * p_per_stream
                    * np.mean(np.abs(relay_term) ** 2)
                    * h_sd.shape[2])
            cov = cov + lost * eye
        if recirc > 0.0:
            cov = cov + recirc * p_per_stream \
                * (relay_term @ relay_term.conj().T)
        noise_cov[s] = cov
    return h_eff, noise_cov


def multiplexing_stream_snrs(h_eff, noise_cov, tx_power):
    """Per-tone whiten-then-MMSE stream SINRs, equal power split."""
    n_sc, _, n_streams = h_eff.shape
    p_stream = tx_power / n_streams
    out = np.empty((n_sc, n_streams))
    for s in range(n_sc):
        vals, vecs = np.linalg.eigh(noise_cov[s])
        whiten = (vecs / np.sqrt(np.maximum(vals.real, 1e-30))) @ vecs.conj().T
        h_white = whiten @ h_eff[s] * np.sqrt(p_stream)
        out[s] = mmse_stream_sinrs(h_white, 1.0)
    return out


def eigen_beamforming_snrs(h_eff, noise_cov, tx_power):
    """Per-tone dominant generalised eigenvalue of ``H^H R^-1 H``."""
    n_sc = h_eff.shape[0]
    out = np.empty(n_sc)
    for s in range(n_sc):
        r_inv = np.linalg.inv(noise_cov[s])
        gram = h_eff[s].conj().T @ r_inv @ h_eff[s]
        vals = np.linalg.eigvalsh(gram)
        out[s] = tx_power * max(float(vals[-1].real), 0.0)
    return out
