"""Test support: a Nelder-Mead oracle for the Eq. 2 MIMO CNF solve.

This is the solver :func:`repro.core.mimo_cnf_filter` used before the
exact 2 x 2 reduction: a unitary parametrised as ``exp(jH)`` (H
Hermitian, through ``eigh``) times an SVD-aligned start, refined by
scipy's Nelder-Mead.  :func:`single_start_solve` repeats that solve with
its original options; :func:`multistart_oracle` adds random starts and
tight tolerances on a normalised objective, as the reference the exact
solve is held to.  Only tests import ``scipy.optimize``.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize

from repro.utils.units import db_to_linear


def objective(h_sd, h_sr, h_rd, f, amplification_db):
    """``|det(H_sd + H_rd F A H_sr)|`` through ``np.linalg.det``."""
    a = db_to_linear(amplification_db)
    return abs(np.linalg.det(h_sd + h_rd @ f @ (a * h_sr)))


def unitary_from_params(theta, k):
    """Map k*k real parameters to a unitary matrix via exp(j * Hermitian)."""
    theta = np.asarray(theta, dtype=float)
    herm = np.zeros((k, k), dtype=complex)
    idx = 0
    for i in range(k):
        herm[i, i] = theta[idx]
        idx += 1
    for i in range(k):
        for j in range(i + 1, k):
            herm[i, j] = theta[idx] + 1j * theta[idx + 1]
            herm[j, i] = np.conj(herm[i, j])
            idx += 2
    vals, vecs = np.linalg.eigh(herm)
    return (vecs * np.exp(1j * vals)) @ vecs.conj().T


def svd_aligned_init(h_sr, h_rd):
    """F0 = V_rd @ U_sr^H: route H_sr's strong output directions into
    H_rd's strong input directions."""
    u_sr, _, _ = np.linalg.svd(h_sr)
    _, _, vh_rd = np.linalg.svd(h_rd)
    return vh_rd.conj().T @ u_sr.conj().T


def _nelder_mead(h_sd, h_sr, h_rd, amplification_db, f_start, x0, scale,
                 options):
    k = h_sr.shape[0]

    def neg_det(theta):
        f = unitary_from_params(theta, k) @ f_start
        return -objective(h_sd, h_sr, h_rd, f, amplification_db) / scale

    best = minimize(neg_det, x0, method="Nelder-Mead", options=options)
    return unitary_from_params(best.x, k) @ f_start


def single_start_solve(h_sd, h_sr, h_rd, amplification_db):
    """The previous package solve: SVD start, one Nelder-Mead run."""
    f0 = svd_aligned_init(h_sr, h_rd)
    k = h_sr.shape[0]
    return _nelder_mead(h_sd, h_sr, h_rd, amplification_db, f0,
                        np.zeros(k * k), 1.0,
                        {"maxiter": 400, "xatol": 1e-4, "fatol": 1e-8})


def multistart_oracle(h_sd, h_sr, h_rd, amplification_db, starts=6,
                      seed=0):
    """Best unitary over ``starts`` tightly converged Nelder-Mead runs.

    The first run starts at the SVD-aligned filter, the others at random
    points of the parametrisation around it.  The objective is divided
    by its value at the SVD start (or by the largest channel product
    when that is zero), so the tolerances are relative.
    """
    k = h_sr.shape[0]
    f0 = svd_aligned_init(h_sr, h_rd)
    scale = objective(h_sd, h_sr, h_rd, f0, amplification_db)
    if scale == 0.0:
        scale = max(np.abs(h_sd).max() ** 2,
                    (db_to_linear(amplification_db) * np.abs(h_rd).max()
                     * np.abs(h_sr).max()) ** 2, 1e-300)
    rng = np.random.default_rng(seed)
    options = {"maxiter": 2000, "xatol": 1e-8, "fatol": 1e-12}
    best, best_val = f0, -1.0
    for i in range(starts):
        x0 = np.zeros(k * k) if i == 0 else rng.uniform(-np.pi, np.pi, k * k)
        f = _nelder_mead(h_sd, h_sr, h_rd, amplification_db, f0, x0, scale,
                         options)
        val = objective(h_sd, h_sr, h_rd, f, amplification_db)
        if val > best_val:
            best, best_val = f, val
    return best


def band_phase_alignment_loop(h_sd, h_sr, h_rd, f0, amplification_db):
    """Per-tone ``np.linalg.det`` phase search, one tone at a time.

    Returns the 64-point grid and, per tone, the |det| at every grid
    phase, so a caller can compare argmaxes and spot near-ties.
    """
    a = db_to_linear(amplification_db)
    f0 = np.broadcast_to(f0, (h_sd.shape[0],) + np.shape(f0)[-2:])
    phis = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    dets = np.empty((h_sd.shape[0], phis.size))
    for s in range(h_sd.shape[0]):
        relay_term = h_rd[s] @ f0[s] @ (a * h_sr[s])
        dets[s] = [abs(np.linalg.det(h_sd[s] + np.exp(1j * p) * relay_term))
                   for p in phis]
    return phis, dets
