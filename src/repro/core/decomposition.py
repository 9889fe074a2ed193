"""Splitting the CNF response between digital and analog stages (§3.4).

The ideal constructive response ``H_c(f_i)`` needs sub-nanosecond phase
control (100 ps rotates 2.45 GHz by 90 degrees), far finer than the
digital sample grid.  The paper's split:

* a **digital pre-filter** ``h_p`` — at most 4 taps within a 50 ns
  delay budget — handles the coarse, frequency-*selective* part
  (different subcarriers need different rotations);
* the **analog CNF filter** ``H_a`` — 4 taps spaced 100 ps (quarter
  wavelength at 2.45 GHz) — applies the fine common rotation.

The joint problem  ``min sum_i |H_a(f_i) * H_p(f_i) - H_c(f_i)|^2``  is
biconvex: fixing either stage makes the other a linear least-squares
solve.  Alternating those two solves is the textbook sequential-convex-
programming recipe the paper cites [7].

The analog solve is bounded: the step attenuators cap every tap at
``|g| <= 1`` (the constrained analog filter design of Xu, Duan and
Zhang, arXiv:1607.00510).  With ``W`` the weighted analog basis and
``b`` the weighted target, the ridge solution minimises
``|W g - b|^2 + lam |g|^2``, i.e. solves ``(Wᴴ W + lam I) g = Wᴴ b``.
One SVD ``W = U diag(s) Vᴴ`` diagonalises both sides:
``Wᴴ W + lam I = V diag(s² + lam) Vᴴ`` and ``Wᴴ b = V diag(s) β`` with
``β = Uᴴ b``, so for every ``lam``::

    g(lam) = V (s β / (s² + lam))

and ``lam -> 0`` leaves the min-norm least-squares solution
``V (β / s)`` over the non-zero ``s``.  The bounded solve is ``g(lam)``
at the ``lam`` where ``max|g|`` falls to 1, which
:func:`repro.dsp.tapped_delay_line.bounded_lstsq` brackets on log grids
of ``lam`` with no linear solve per candidate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dsp.fir import fir_frequency_response
from repro.dsp.tapped_delay_line import AnalogTapDelayLine, bounded_lstsq


@dataclass
class CnfFilterDecomposition:
    """Result of the digital/analog split.

    ``digital_taps`` run at ``digital_rate_hz``; ``analog_line`` holds
    the tuned 4-tap delay line.  ``response(freqs)`` evaluates the
    realised cascade; ``fit_error_db`` is the band mean-square deviation
    from the ideal response (0 dB means the approximation is as large as
    the target itself — good fits are -20 dB and below).
    """

    digital_taps: np.ndarray
    digital_rate_hz: float
    analog_line: AnalogTapDelayLine
    target_freqs_hz: np.ndarray
    target_response: np.ndarray
    fit_error_db: float

    def digital_response(self, freqs_hz):
        """Pre-filter response at baseband frequencies."""
        return fir_frequency_response(
            self.digital_taps, np.asarray(freqs_hz, dtype=float) / self.digital_rate_hz)

    def analog_response(self, freqs_hz):
        """Analog CNF filter response at baseband frequencies."""
        return self.analog_line.frequency_response(freqs_hz)

    def response(self, freqs_hz):
        """The realised cascade response H_a(f) * H_p(f)."""
        return self.digital_response(freqs_hz) * self.analog_response(freqs_hz)

    def digital_group_delay_s(self):
        """Energy-weighted pre-filter delay in seconds (latency input)."""
        energy = np.abs(self.digital_taps) ** 2
        total = energy.sum()
        if total == 0:
            return 0.0
        mean_tap = float(np.dot(np.arange(self.digital_taps.size), energy) / total)
        return mean_tap / self.digital_rate_hz

    def worst_case_digital_delay_s(self):
        """Last-tap delay — the conservative latency bound."""
        return (self.digital_taps.size - 1) / self.digital_rate_hz


def decompose_cnf_filter(freqs_hz, desired_response, digital_taps=4,
                         digital_rate_hz=80e6, analog_taps=4,
                         analog_spacing_s=100e-12, carrier_hz=2.45e9,
                         iterations=12, quantize=True,
                         delay_slack_s=None, weights=None):
    """Alternating-LS split of ``desired_response`` into the two stages.

    Parameters mirror the prototype: a 4-tap pre-filter at 80 Msps
    (12.5 ns/tap, 50 ns budget) and a 4-tap/100 ps analog line spanning
    the full 360 degrees at 2.45 GHz.  ``quantize`` applies the analog
    board's 0.25 dB attenuator grid on the final pass.

    The ideal constructive response often contains an *advance* ramp
    (the via-relay path is longer than the direct one, and perfect
    alignment would need negative delay) that no causal filter can
    realise.  ``weights`` let the caller emphasise the subcarriers that
    matter (where the relayed path is strong); ``delay_slack_s`` is kept
    for callers that sweep slid variants of the target and select by a
    downstream figure of merit (see
    :meth:`repro.core.relay.FastForwardRelay.configure_siso_link`).
    """
    freqs = np.asarray(freqs_hz, dtype=float)
    target = np.asarray(desired_response, dtype=complex)
    if freqs.shape != target.shape:
        raise ValueError("freqs and desired response must have equal shapes")
    if digital_taps < 1 or analog_taps < 1:
        raise ValueError("both stages need at least one tap")
    if delay_slack_s:
        target = target * np.exp(-2j * np.pi * freqs * float(delay_slack_s))
    return _decompose_once(freqs, target, digital_taps, digital_rate_hz,
                           analog_taps, analog_spacing_s, carrier_hz,
                           iterations, quantize, weights)


def _decompose_once(freqs, target, digital_taps, digital_rate_hz,
                    analog_taps, analog_spacing_s, carrier_hz,
                    iterations, quantize, weights=None):
    """One alternating-LS decomposition against a fixed target."""
    if weights is None:
        w = np.ones_like(freqs)
    else:
        w = np.sqrt(np.maximum(np.asarray(weights, dtype=float), 0.0))
        if w.shape != freqs.shape:
            raise ValueError("weights must match the frequency grid")

    line = AnalogTapDelayLine(np.arange(analog_taps) * analog_spacing_s,
                              carrier_hz=carrier_hz)
    # Initialise the digital stage as a pure pass-through.
    h_p = np.zeros(digital_taps, dtype=complex)
    h_p[0] = 1.0

    k = np.arange(digital_taps)
    digital_basis = np.exp(-2j * np.pi * np.outer(freqs / digital_rate_hz, k))
    total_freq = carrier_hz + freqs
    analog_basis = np.exp(-2j * np.pi * np.outer(total_freq, line.tap_delays_s))

    for _ in range(max(1, iterations)):
        # Solve the bounded analog gains given the digital response.
        hp_resp = digital_basis @ h_p
        g, _ = bounded_lstsq(analog_basis * (hp_resp * w)[:, None],
                             target * w, 1.0)
        # Move any headroom into the digital taps so the attenuators
        # operate near the top of their range (best quantisation SNR);
        # the digital solve below takes up the scale.
        peak = np.abs(g).max()
        if 0 < peak < 1.0:
            g = g / peak
        line.set_gains(g)
        # Solve the digital taps given the analog response.
        ha_resp = analog_basis @ line.gains
        weighted = digital_basis * (ha_resp * w)[:, None]
        h_p, *_ = np.linalg.lstsq(weighted, target * w, rcond=None)

    if quantize:
        line.set_gains(line.quantize_gains(line.gains))
        ha_resp = analog_basis @ line.gains
        weighted = digital_basis * (ha_resp * w)[:, None]
        h_p, *_ = np.linalg.lstsq(weighted, target * w, rcond=None)

    realised = (digital_basis @ h_p) * (analog_basis @ line.gains)
    target_power = np.mean((np.abs(target) * w) ** 2)
    err = np.mean((np.abs(realised - target) * w) ** 2) / max(target_power, 1e-30)
    fit_error_db = float(10.0 * np.log10(max(err, 1e-30)))
    return CnfFilterDecomposition(
        digital_taps=h_p,
        digital_rate_hz=float(digital_rate_hz),
        analog_line=line,
        target_freqs_hz=freqs,
        target_response=target,
        fit_error_db=fit_error_db,
    )
