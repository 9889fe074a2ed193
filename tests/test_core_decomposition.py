"""The §3.4 digital/analog CNF filter split."""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.relay as relay_module
from repro.core import FastForwardRelay, RelayConfig, decompose_cnf_filter
from repro.dsp.tapped_delay_line import AnalogTapDelayLine, bounded_lstsq
from repro.phy.params import WIFI_20MHZ
from repro.utils import make_rng
from tests.decomposition_oracle import bisect_bounded_lstsq, decompose


@pytest.fixture
def freqs():
    return WIFI_20MHZ.subcarrier_freqs_hz()


class TestStructure:
    def test_prototype_dimensions(self, freqs):
        target = np.exp(1j * 0.3) * np.ones_like(freqs, dtype=complex)
        d = decompose_cnf_filter(freqs, target)
        assert d.digital_taps.size == 4
        assert d.analog_line.num_taps == 4
        assert d.digital_rate_hz == 80e6

    def test_latency_budget_respected(self, freqs):
        target = np.exp(-2j * np.pi * freqs * 10e-9)
        d = decompose_cnf_filter(freqs, target)
        # 4 taps at 80 Msps: worst-case 37.5 ns, within the 50 ns budget.
        assert d.worst_case_digital_delay_s() <= 50e-9
        assert d.digital_group_delay_s() <= d.worst_case_digital_delay_s()

    def test_analog_spacing_100ps(self, freqs):
        target = np.ones_like(freqs, dtype=complex)
        d = decompose_cnf_filter(freqs, target)
        assert np.allclose(np.diff(d.analog_line.tap_delays_s), 100e-12)


class TestFitQuality:
    def test_constant_rotation_fits_exactly(self, freqs):
        # The analog stage alone realises a common rotation.
        for phase in (0.3, -1.2, 2.9):
            target = np.exp(1j * phase) * np.ones_like(freqs, dtype=complex)
            d = decompose_cnf_filter(freqs, target)
            assert d.fit_error_db < -25.0

    def test_smooth_ramp_fits_well(self, freqs):
        target = np.exp(-2j * np.pi * freqs * 20e-9)
        d = decompose_cnf_filter(freqs, target)
        assert d.fit_error_db < -15.0

    def test_response_evaluates_cascade(self, freqs):
        rng = make_rng(0)
        target = np.exp(2j * np.pi * rng.random(freqs.size))
        d = decompose_cnf_filter(freqs, target)
        cascade = d.digital_response(freqs) * d.analog_response(freqs)
        assert np.allclose(d.response(freqs), cascade)

    def test_quantisation_costs_little(self, freqs):
        target = np.exp(-2j * np.pi * freqs * 15e-9 + 0.4j)
        ideal = decompose_cnf_filter(freqs, target, quantize=False)
        quant = decompose_cnf_filter(freqs, target, quantize=True)
        assert quant.fit_error_db <= ideal.fit_error_db + 6.0

    def test_weights_prioritise_subcarriers(self, freqs):
        # A 150 ns ramp is far beyond the filter's span, so it cannot be
        # matched everywhere; heavy weights on the first quarter of the
        # band must pull the fit there.
        target = np.exp(-2j * np.pi * freqs * 150e-9)
        quarter = freqs.size // 4
        weights = np.ones(freqs.size)
        weights[:quarter] = 1000.0
        d = decompose_cnf_filter(freqs, target, weights=weights)
        resp = d.response(freqs)
        err_weighted = np.abs(resp[:quarter] - target[:quarter]).mean()
        err_rest = np.abs(resp[quarter:] - target[quarter:]).mean()
        assert err_weighted < err_rest


class TestValidation:
    def test_shape_mismatch(self, freqs):
        with pytest.raises(ValueError):
            decompose_cnf_filter(freqs, np.ones(3, dtype=complex))

    def test_needs_taps(self, freqs):
        with pytest.raises(ValueError):
            decompose_cnf_filter(freqs, np.ones_like(freqs, dtype=complex),
                                 digital_taps=0)

    def test_delay_slack_slides_target(self, freqs):
        base = np.exp(-2j * np.pi * freqs * 5e-9)
        plain = decompose_cnf_filter(freqs, base)
        slid = decompose_cnf_filter(freqs, base, delay_slack_s=10e-9)
        # The slid decomposition approximates a different (more delayed)
        # response; both should fit their own targets decently.
        assert plain.fit_error_db < -10.0
        assert slid.fit_error_db < -10.0


@pytest.fixture(scope="module")
def oracle_corpus():
    """One SISO testbed link per paper scenario, configured twice.

    Each run records every candidate ``_best_decomposition`` builds (11
    delay slides x 2 reweighting passes) and the one it picks, once
    through :func:`decompose_cnf_filter` and once through the bisection
    oracle, plus every bounded analog solve the oracle posed.
    """
    from repro.netsim.testbed import Testbed, paper_scenarios

    runs, problems = [], []
    for i, scenario in enumerate(paper_scenarios()):
        testbed = Testbed(scenario, seed=5 + i)
        client = testbed.client_positions(1, rng=5 + i)[0]
        channels = testbed.siso_triple(client, make_rng(15 + i))
        picks = []
        for solve in (decompose_cnf_filter, partial(decompose, problems=problems)):
            candidates = []

            def record(*args, solve=solve, candidates=candidates, **kwargs):
                candidates.append(solve(*args, **kwargs))
                return candidates[-1]

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(relay_module, "decompose_cnf_filter", record)
                relay = FastForwardRelay(RelayConfig(params=testbed.params))
                relay.configure_siso_link(*channels)
            picks.append((candidates, next(
                k for k, c in enumerate(candidates) if c is relay.decomposition)))
        runs.append(picks)
    return runs, problems


class TestAgainstBisectionOracle:
    """The SVD solve against the lstsq + 60-step bisection it replaced
    (``tests/decomposition_oracle.py``)."""

    def test_bound_holds_and_lambda_matches(self, oracle_corpus):
        _, problems = oracle_corpus
        checked = 0
        for basis, target in problems:
            gains, lam = bounded_lstsq(basis, target, 1.0)
            _, lam_ref = bisect_bounded_lstsq(basis, target)
            assert np.abs(gains).max() <= 1.0
            assert lam > 0 and lam_ref > 0          # the bound binds
            # The oracle's np.linalg.solve of the regularised normal
            # equations is accurate to ~cond * eps; compare lam where
            # that is far below the 1e-9 tolerance.
            s = np.linalg.svd(basis, compute_uv=False)
            if (s[0] ** 2 + lam_ref) / (s[-1] ** 2 + lam_ref) <= 1e5:
                assert abs(lam - lam_ref) <= 1e-9 * lam_ref
                checked += 1
        assert checked >= len(problems) // 2

    def test_unconstrained_fit_is_lstsq(self, oracle_corpus):
        _, problems = oracle_corpus
        rng = make_rng(3)
        cases = [(basis, target * 0.5 / np.abs(np.linalg.lstsq(
            basis, target, rcond=None)[0]).max())
            for basis, target in problems[::12]]
        for _ in range(20):
            basis = rng.standard_normal((52, 4)) + 1j * rng.standard_normal((52, 4))
            cases.append((basis, basis @ (0.2 * rng.standard_normal(4))))
        # The analog line's full-circle rotations (5 tones, condition
        # ~2e8): min-norm solutions of two backward-stable solvers differ
        # by up to cond * eps there.
        line = AnalogTapDelayLine(np.arange(4) * 100e-12)
        freqs = np.linspace(-10e6, 10e6, 5)
        basis = np.exp(-2j * np.pi * np.outer(line.carrier_hz + freqs,
                                              line.tap_delays_s))
        for phase in np.linspace(-np.pi, np.pi, 8, endpoint=False):
            cases.append((basis, 0.5 * np.exp(1j * phase) * np.ones(5)))
        for basis, target in cases:
            gains, lam = bounded_lstsq(basis, target, 1.0)
            ref = np.linalg.lstsq(basis, target, rcond=None)[0]
            s = np.linalg.svd(basis, compute_uv=False)
            tol = max(1e-12, np.finfo(float).eps * s[0] / s[-1])
            assert lam == 0.0
            assert np.abs(gains - ref).max() <= tol * np.abs(ref).max()

    def test_candidates_fit_alike(self, oracle_corpus):
        runs, _ = oracle_corpus
        for (new, _), (old, _) in runs:
            assert len(new) == len(old) == 22
            for a, b in zip(new, old):
                assert a.fit_error_db == pytest.approx(b.fit_error_db, abs=0.01)

    def test_same_slide_and_pass_selected(self, oracle_corpus):
        runs, _ = oracle_corpus
        for (_, pick), (_, pick_ref) in runs:
            assert pick == pick_ref

    def test_kept_response_is_the_evaluated_cascade(self, oracle_corpus):
        # The relay scores each candidate by the response its solve
        # formed; it must be the cascade response() evaluates, bit for
        # bit, as the candidates were scored when they rebuilt it.
        runs, _ = oracle_corpus
        for (candidates, _), _ in runs:
            for cand in candidates:
                assert np.array_equal(cand.realised_response,
                                      cand.response(cand.target_freqs_hz))


def _ridge_gains(basis, target, lam):
    """The ridge solution at ``lam``, from its own SVD."""
    u, s, vh = np.linalg.svd(basis, full_matrices=False)
    return vh.conj().T @ (s * (u.conj().T @ target) / (s ** 2 + lam))


def _bound_is_tight(basis, target):
    """``bounded_lstsq``'s gains fit |g| <= 1 and are the ridge gains at its
    ``lam``; 1e-9 below that ``lam`` they do not fit.  False when the
    min-norm solution fits (``lam`` 0)."""
    gains, lam = bounded_lstsq(basis, target, 1.0)
    assert np.abs(gains).max() <= 1.0
    if lam == 0.0:
        return False
    assert np.abs(gains - _ridge_gains(basis, target, lam)).max() <= 1e-10
    assert np.abs(_ridge_gains(basis, target, lam * (1 - 1e-9))).max() > 1.0
    return True


class TestRidgeRoot:
    """The Newton root-find stops on the feasible side of max|g(lam)| = 1,
    within 1e-9 of it, including where the oracle's lam is too inexact to
    compare (condition > 1e5)."""

    def test_rejects_a_non_positive_bound(self):
        basis = np.exp(-2j * np.pi * np.outer(np.arange(5) * 1e6,
                                              np.arange(4) * 100e-12))
        for max_gain in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError):
                bounded_lstsq(basis, np.ones(5), max_gain)

    def test_tight_on_the_corpus(self, oracle_corpus):
        _, problems = oracle_corpus
        assert all(_bound_is_tight(basis, target) for basis, target in problems)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), taps=st.integers(2, 8),
           tones=st.integers(5, 56))
    def test_tight_on_random_lines(self, seed, taps, tones):
        # A tap line with 100-200 ps gaps, weighted per tone as the
        # decomposition weights its analog basis.
        rng = np.random.default_rng(seed)
        delays = np.concatenate(
            [[0.0], np.cumsum(rng.uniform(100e-12, 200e-12, taps - 1))])
        line = AnalogTapDelayLine(delays)
        freqs = np.sort(rng.uniform(-10e6, 10e6, tones))
        weights = 10.0 ** rng.uniform(-1.0, 1.0, tones) \
            * np.exp(2j * np.pi * rng.random(tones))
        basis = np.exp(-2j * np.pi * np.outer(line.carrier_hz + freqs, delays))
        target = rng.standard_normal(tones) + 1j * rng.standard_normal(tones)
        _bound_is_tight(basis * weights[:, None], target * weights)
