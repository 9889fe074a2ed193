"""Construct-and-forward filter computation (paper §3.2).

SISO, per subcarrier (Eq. 1): the destination receives

    SNR_d = |h_sd + h_rd * F * A * h_sr|^2 * P / N_d,
    N_d   = sigma_d^2 + |h_rd * F * A|^2 * sigma_r^2

The filter response ``F`` carries unit magnitude (amplification is A's
job), so the optimum simply rotates the relayed path onto the direct
path: ``F = exp(j(angle(h_sd) - angle(h_rd * h_sr)))``.

MIMO (Eq. 2): maximise ``|det(H_sd + H_rd F A H_sr)|`` over a unitary
K x K filter ``F``.  The paper solves it numerically; for the 2 x 2
WiFi link it relays (K = 1 or 2 relay antennas) it reduces exactly.
For 2 x 2 matrices ``det(X + Y) = det X + det Y + tr(adj(X) Y)``, so
with ``B = A H_rd`` and ``C = H_sr`` the objective is

    |d0 + tr(P F) + d2 det F|,   d0 = det H_sd,  P = C adj(H_sd) B,
                                 d2 = det B det C.

K = 2: write ``F = e^{j phi} Q`` with ``Q = [[a, -b*], [b, a*]]``,
``a = q0 + j q1``, ``b = q2 + j q3`` and ``|q| = 1``.  Then
``tr(P Q) = w . q`` with ``w = (P00 + P11, j(P00 - P11), P01 - P10,
j(P01 + P10))`` and the objective is
``|d0 e^{-j phi} + w . q + d2 e^{j phi}|``.  A complex number's modulus
is its largest projection on a unit direction ``u = e^{j psi}``, and
for a fixed ``u`` both ``phi`` and ``q`` maximise their share of that
projection in closed form, so

    max |det| = max_psi  |u d0* + u* d2| + |Re(u* w)|,
    phi = -arg(u d0* + u* d2),    q = Re(u* w) / |Re(u* w)|.

One smooth angle is left; it is found on a grid and refined, for every
subcarrier group of a link in one array expression.  K = 1: ``det F``
drops out and the optimum rotates ``tr(P F)`` onto ``d0``, the SISO
rule.  The per-subcarrier scalar phase on top of each group's filter
(:func:`band_phase_alignment`) uses the same identity: ``det(H_sd +
zR)`` is a quadratic in ``z``.
"""

from __future__ import annotations

import numpy as np

from repro.utils.units import db_to_linear


def siso_cnf_phase(h_sd, h_sr, h_rd):
    """Per-subcarrier unit-modulus constructive filter (SISO optimum).

    All inputs are arrays of per-subcarrier channel gains; the returned
    ``F`` rotates the relayed path into phase alignment with the direct
    path at every subcarrier.  Subcarriers where the relayed path
    vanishes get F = 1.
    """
    h_sd = np.asarray(h_sd, dtype=complex)
    h_sr = np.asarray(h_sr, dtype=complex)
    h_rd = np.asarray(h_rd, dtype=complex)
    relay_path = h_rd * h_sr
    out = np.ones(np.broadcast(h_sd, relay_path).shape, dtype=complex)
    nz = np.abs(relay_path) > 0
    # When the direct path is zero any phase works; align to real axis.
    direct_phase = np.where(np.abs(h_sd) > 0, np.angle(h_sd), 0.0)
    out[nz] = np.exp(1j * (direct_phase[nz] - np.angle(relay_path[nz])))
    return out


def _det2(x):
    """Determinants of a stack of 2 x 2 matrices, shape (..., 2, 2)."""
    return x[..., 0, 0] * x[..., 1, 1] - x[..., 0, 1] * x[..., 1, 0]


def _adj2(x):
    """Adjugates of a stack of 2 x 2 matrices: ``adj(X) X = det(X) I``."""
    out = np.empty_like(x)
    out[..., 0, 0] = x[..., 1, 1]
    out[..., 1, 1] = x[..., 0, 0]
    out[..., 0, 1] = -x[..., 0, 1]
    out[..., 1, 0] = -x[..., 1, 0]
    return out


#: The support bound has period pi in psi.  Its stationarity condition is
#: a degree-3 trigonometric polynomial in 2 psi, so it has at most three
#: local maxima per period: refining the three best peaks of this grid
#: finds the global one.
_PSI_GRID = np.linspace(0.0, np.pi, 256, endpoint=False)
_PEAKS = 3
#: Each refinement round evaluates 2 * _SHRINK + 1 points across the
#: bracket and shrinks it _SHRINK-fold; 12 rounds take the grid step
#: (pi/256) below 1e-9 rad.
_SHRINK = 4
_REFINE_STEPS = np.linspace(-1.0, 1.0, 2 * _SHRINK + 1)
_REFINE_ROUNDS = 12


def _support(psi, d0, d2, w):
    """``|u d0* + u* d2| + |Re(u* w)|`` at ``u = e^{j psi}``.

    ``psi`` has one more trailing axis than ``d0``/``d2``; ``w`` is
    ``d0``'s shape plus a trailing axis of 4.
    """
    u = np.exp(1j * psi)
    s = u * np.conj(d0)[..., None] + np.conj(u) * d2[..., None]
    r = (np.conj(u)[..., None] * w[..., None, :]).real
    return np.abs(s) + np.linalg.norm(r, axis=-1)


def _max_support_angle(d0, d2, w):
    """The psi maximising :func:`_support`, for every problem at once."""
    vals = _support(_PSI_GRID, d0, d2, w)
    peak = ((vals >= np.roll(vals, 1, axis=-1))
            & (vals >= np.roll(vals, -1, axis=-1)))
    starts = np.argsort(np.where(peak, vals, -np.inf), axis=-1)[..., -_PEAKS:]
    psi = _PSI_GRID[starts]
    d0, d2, w = d0[..., None], d2[..., None], w[..., None, :]
    half = _PSI_GRID[1]
    for _ in range(_REFINE_ROUNDS):
        cand = psi[..., None] + half * _REFINE_STEPS
        vals = _support(cand, d0, d2, w)
        best = vals.argmax(axis=-1)[..., None]
        psi = np.take_along_axis(cand, best, axis=-1)[..., 0]
        half /= _SHRINK
    top = np.take_along_axis(vals, best, axis=-1).argmax(axis=-2)
    return np.take_along_axis(psi, top, axis=-1)[..., 0]


def _solve_k2(d0, p, d2):
    """Eq. 2 for a 2-antenna relay: the unitary maximising
    ``|d0 + tr(P F) + d2 det F|`` (see the module docstring)."""
    w = np.stack([p[..., 0, 0] + p[..., 1, 1],
                  1j * (p[..., 0, 0] - p[..., 1, 1]),
                  p[..., 0, 1] - p[..., 1, 0],
                  1j * (p[..., 0, 1] + p[..., 1, 0])], axis=-1)
    u = np.exp(1j * _max_support_angle(d0, d2, w))
    phi = -np.angle(u * np.conj(d0) + np.conj(u) * d2)
    r = (np.conj(u)[..., None] * w).real
    norm = np.linalg.norm(r, axis=-1, keepdims=True)
    # Re(u* w) = 0 leaves q free: take the identity.
    q = (np.where(norm > 0, r, [1.0, 0.0, 0.0, 0.0])
         / np.where(norm > 0, norm, 1.0))
    alpha = q[..., 0] + 1j * q[..., 1]
    beta = q[..., 2] + 1j * q[..., 3]
    f = np.stack([np.stack([alpha, -np.conj(beta)], axis=-1),
                  np.stack([beta, np.conj(alpha)], axis=-1)], axis=-2)
    return np.exp(1j * phi)[..., None, None] * f


def mimo_cnf_filter(h_sd, h_sr, h_rd, amplification_db):
    """Eq. 2: unitary F maximising |det(H_sd + H_rd F A H_sr)|.

    ``h_*`` are stacks of single-subcarrier (or subcarrier-group mean)
    matrices: H_sd is (..., 2, 2), H_sr is (..., K, 2) and H_rd is
    (..., 2, K) with K = 1 or 2, the 2 x 2 WiFi client and AP with a
    one- or two-antenna relay.  Leading axes broadcast; every problem in
    the stack is solved in one array expression.  Returns the
    (..., K, K) unitaries.

    The solve is the exact 2 x 2 reduction of the module docstring: K =
    2 maximises a one-angle bound on a grid refined to ~1e-9 rad, and
    K = 1 is closed form (a unit phase rotating ``tr(P F)`` onto
    ``det H_sd``; 1 when ``tr(P F)`` vanishes).  Zero or rank-deficient
    channels give finite unitaries.
    """
    h_sd = np.asarray(h_sd, dtype=complex)
    h_sr = np.asarray(h_sr, dtype=complex)
    h_rd = np.asarray(h_rd, dtype=complex)
    k = h_sr.shape[-2]
    if h_rd.shape[-1] != k:
        raise ValueError(
            f"H_sr has {k} relay antennas but H_rd expects {h_rd.shape[-1]}")
    if (h_sd.shape[-2:] != (2, 2) or h_sr.shape[-1] != 2
            or h_rd.shape[-2] != 2 or k not in (1, 2)):
        raise ValueError(
            "mimo_cnf_filter supports H_sd (..., 2, 2), H_sr (..., K, 2) "
            f"and H_rd (..., 2, K) with K in (1, 2); got {h_sd.shape}, "
            f"{h_sr.shape} and {h_rd.shape}")
    b = db_to_linear(amplification_db) * h_rd
    p = h_sr @ _adj2(h_sd) @ b
    lead = p.shape[:-2]
    d0 = np.broadcast_to(_det2(h_sd), lead)
    if k == 1:
        return siso_cnf_phase(d0, p[..., 0, 0], 1.0)[..., None, None]
    d2 = np.broadcast_to(_det2(b) * _det2(h_sr), lead)
    return _solve_k2(d0, p, d2)


def band_phase_alignment(h_sd, h_sr, h_rd, f0, amplification_db):
    """Per-subcarrier scalar phase on top of the group-level unitaries.

    ``h_*`` are arrays of per-subcarrier 2 x 2-link matrices, shapes
    (n_sc, 2, 2), (n_sc, K, 2) and (n_sc, 2, K); ``f0`` is one K x K
    unitary for the whole band or one per subcarrier, (n_sc, K, K).
    For each subcarrier the ``phi`` maximising ``|det(H_sd + e^{j phi}
    R)|``, ``R = H_rd F0 A H_sr``, is picked from a 64-point grid.  For
    2 x 2 matrices that det is the quadratic ``det H_sd + z tr(adj(H_sd)
    R) + z^2 det R`` in ``z = e^{j phi}``, so every tone and grid point
    is one array expression.  Returns the phase array ``phi``.
    """
    h_sd = np.asarray(h_sd, dtype=complex)
    h_sr = np.asarray(h_sr, dtype=complex)
    h_rd = np.asarray(h_rd, dtype=complex)
    if h_sd.shape[-2:] != (2, 2):
        raise ValueError(
            f"band_phase_alignment supports 2 x 2 links; H_sd is {h_sd.shape}")
    relay_term = h_rd @ np.asarray(f0, dtype=complex) \
        @ (db_to_linear(amplification_db) * h_sr)
    linear = np.einsum("sij,sji->s", _adj2(h_sd), relay_term)
    phis = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    z = np.exp(1j * phis)
    dets = (_det2(h_sd)[:, None] + z * linear[:, None]
            + z ** 2 * _det2(relay_term)[:, None])
    return phis[np.argmax(np.abs(dets), axis=1)]
