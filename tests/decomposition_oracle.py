"""Test support: the bisection oracle for the bounded analog-tap solve.

This is how :func:`repro.core.decompose_cnf_filter` bounded the analog
taps before :func:`repro.dsp.tapped_delay_line.bounded_lstsq` took the
solve into one SVD: ``np.linalg.lstsq`` first, and when a gain exceeded
the bound, a 60-step geometric bisection of the ridge ``lam``, each step
an ``np.linalg.solve`` of the regularised normal equations.
:func:`bisect_bounded_lstsq` is that solve and :func:`decompose` the
alternating-LS split around it, kept as the reference the SVD solve is
held to.
"""

from __future__ import annotations

import numpy as np

from repro.core.decomposition import CnfFilterDecomposition
from repro.dsp.tapped_delay_line import AnalogTapDelayLine


def bisect_bounded_lstsq(basis, target, max_gain=1.0, hi_scale=1e6):
    """``(g, lam)``: the LS gains, or the bisected ridge ones and their lam.

    ``lam`` is 0 when the unconstrained solution already fits.  The
    bracket is [1e-12, ``hi_scale``] x the gram's mean diagonal; the
    decomposition used ``hi_scale`` 1e6, the analog board's tuner 1e3.
    """
    g = np.linalg.lstsq(basis, target, rcond=None)[0]
    if np.abs(g).max() <= max_gain:
        return g, 0.0
    gram = basis.conj().T @ basis
    rhs = basis.conj().T @ target
    scale = np.real(np.trace(gram)) / gram.shape[0]
    lo, hi = 1e-12 * scale, hi_scale * scale
    for _ in range(60):
        lam = np.sqrt(lo * hi)
        g = np.linalg.solve(gram + lam * np.eye(gram.shape[0]), rhs)
        if np.abs(g).max() > max_gain:
            lo = lam
        else:
            hi = lam
    return np.linalg.solve(gram + hi * np.eye(gram.shape[0]), rhs), hi


def decompose(freqs_hz, desired_response, carrier_hz=2.45e9,
              delay_slack_s=None, weights=None, problems=None):
    """The prototype-sized split (4 + 4 taps, 80 Msps, 100 ps, 12
    alternations, quantised), as :func:`repro.core.decompose_cnf_filter`.

    Every bounded analog solve's ``(basis, target)`` is appended to
    ``problems`` when given.
    """
    freqs = np.asarray(freqs_hz, dtype=float)
    target = np.asarray(desired_response, dtype=complex)
    if delay_slack_s:
        target = target * np.exp(-2j * np.pi * freqs * float(delay_slack_s))
    w = (np.ones_like(freqs) if weights is None
         else np.sqrt(np.maximum(np.asarray(weights, dtype=float), 0.0)))
    line = AnalogTapDelayLine(np.arange(4) * 100e-12, carrier_hz=carrier_hz)
    h_p = np.zeros(4, dtype=complex)
    h_p[0] = 1.0
    digital_basis = np.exp(-2j * np.pi * np.outer(freqs / 80e6, np.arange(4)))
    analog_basis = np.exp(-2j * np.pi * np.outer(carrier_hz + freqs,
                                                 line.tap_delays_s))

    def solve_digital():
        weighted = digital_basis * ((analog_basis @ line.gains) * w)[:, None]
        return np.linalg.lstsq(weighted, target * w, rcond=None)[0]

    for _ in range(12):
        weighted = analog_basis * ((digital_basis @ h_p) * w)[:, None]
        if problems is not None:
            problems.append((weighted, target * w))
        g, _ = bisect_bounded_lstsq(weighted, target * w)
        peak = np.abs(g).max()
        if 0 < peak < 1.0:
            g = g / peak
        line.set_gains(g)
        h_p = solve_digital()
    line.set_gains(line.quantize_gains(line.gains))
    h_p = solve_digital()

    realised = (digital_basis @ h_p) * (analog_basis @ line.gains)
    target_power = np.mean((np.abs(target) * w) ** 2)
    err = np.mean((np.abs(realised - target) * w) ** 2) / max(target_power, 1e-30)
    return CnfFilterDecomposition(
        digital_taps=h_p, digital_rate_hz=80e6, analog_line=line,
        target_freqs_hz=freqs, target_response=target,
        fit_error_db=float(10.0 * np.log10(max(err, 1e-30))))
