"""Construct-and-forward filter math (Eq. 1 and Eq. 2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FastForwardRelay, RelayConfig, mimo_cnf_filter, siso_cnf_phase
from repro.core.cnf_filter import _adj2, _det2, band_phase_alignment
from repro.netsim.throughput import _multiplexing_stream_snrs, direct_noise_cov
from repro.utils import make_rng
from repro.utils.units import db_to_linear
from tests.cnf_oracle import (
    band_phase_alignment_loop,
    multistart_oracle,
    objective,
    single_start_solve,
    svd_aligned_init,
    unitary_from_params,
)


def _random_channels(rng, n=16):
    h = lambda: rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return h(), h(), h()


class TestSisoPhase:
    def test_unit_modulus(self):
        rng = make_rng(0)
        f = siso_cnf_phase(*_random_channels(rng))
        assert np.allclose(np.abs(f), 1.0)

    def test_aligns_relay_path_with_direct(self):
        rng = make_rng(1)
        h_sd, h_sr, h_rd = _random_channels(rng)
        f = siso_cnf_phase(h_sd, h_sr, h_rd)
        combined = h_rd * f * h_sr
        # Relayed term now points along the direct term everywhere.
        phase_error = np.angle(combined * np.conj(h_sd))
        assert np.abs(phase_error).max() < 1e-9

    def test_is_the_optimum(self):
        rng = make_rng(2)
        h_sd, h_sr, h_rd = _random_channels(rng, n=8)
        f_opt = siso_cnf_phase(h_sd, h_sr, h_rd)
        best = np.abs(h_sd + h_rd * f_opt * h_sr)
        for _ in range(50):
            f_rand = np.exp(2j * np.pi * rng.random(8))
            other = np.abs(h_sd + h_rd * f_rand * h_sr)
            assert np.all(best >= other - 1e-9)

    def test_zero_relay_path_defaults_to_one(self):
        f = siso_cnf_phase(np.ones(4), np.zeros(4), np.ones(4))
        assert np.allclose(f, 1.0)


class TestSisoSnr:
    """Eq. 1 through the relay's one SISO evaluator, ``destination_snr_db``,
    with the ideal (undecomposed) filter."""

    @staticmethod
    def _snr(h_sd, h_sr, h_rd, **config):
        relay = FastForwardRelay(RelayConfig(use_decomposition=False, **config))
        return relay.configure_siso_link(h_sd, h_sr, h_rd).destination_snr_db()

    def test_constructive_beats_blind(self):
        rng = make_rng(3)
        h_sd, h_sr, h_rd = [0.001 * h for h in _random_channels(rng)]
        snr_cnf = self._snr(h_sd, h_sr, h_rd)
        snr_blind = self._snr(h_sd, h_sr, h_rd, use_cnf=False)
        assert np.mean(snr_cnf) > np.mean(snr_blind)

    def test_relay_noise_counted(self):
        h = np.ones(4) * 1e-4
        quiet = self._snr(h, h, h, relay_noise_floor_dbm=-120.0)
        noisy = self._snr(h, h, h, relay_noise_floor_dbm=-80.0)
        assert np.all(quiet > noisy)

    def test_zero_filter_recovers_direct_only(self):
        # A zero relayed path H_rd F forwards neither signal nor relay
        # noise: the direct link's SNR is all that is left.
        rng = make_rng(4)
        h_sd, h_sr, h_rd = [0.001 * h for h in _random_channels(rng)]
        snr = self._snr(h_sd, h_sr, np.zeros_like(h_rd))
        direct = 10 * np.log10(np.abs(h_sd) ** 2 * 100.0 / 1e-9)
        assert np.allclose(snr, direct, atol=1e-9)


class TestUnitaryParametrisation:
    """The oracle's exp(jH) parametrisation (tests/cnf_oracle.py)."""

    def test_produces_unitary(self):
        rng = make_rng(5)
        for _ in range(10):
            u = unitary_from_params(rng.standard_normal(4), 2)
            assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-10)

    def test_zero_params_is_identity(self):
        assert np.allclose(unitary_from_params(np.zeros(4), 2), np.eye(2))


class TestMimoCnf:
    def _draw(self, rng, scale=1e-3):
        g = lambda: scale * (rng.standard_normal((2, 2))
                             + 1j * rng.standard_normal((2, 2)))
        return g(), g(), g()

    def test_returns_unitary(self):
        rng = make_rng(6)
        h_sd, h_sr, h_rd = self._draw(rng)
        f = mimo_cnf_filter(h_sd, h_sr, h_rd, 40.0)
        assert np.allclose(f @ f.conj().T, np.eye(2), atol=1e-8)

    def test_beats_identity_filter(self):
        rng = make_rng(7)
        wins = 0
        for _ in range(10):
            h_sd, h_sr, h_rd = self._draw(rng)
            f = mimo_cnf_filter(h_sd, h_sr, h_rd, 40.0)
            det_opt = objective(h_sd, h_sr, h_rd, f, 40.0)
            det_eye = objective(h_sd, h_sr, h_rd, np.eye(2), 40.0)
            wins += det_opt >= det_eye - 1e-12
        assert wins == 10

    def test_beats_svd_aligned_start(self):
        rng = make_rng(8)
        h_sd, h_sr, h_rd = self._draw(rng)
        f0 = svd_aligned_init(h_sr, h_rd)
        f1 = mimo_cnf_filter(h_sd, h_sr, h_rd, 40.0)
        d0 = objective(h_sd, h_sr, h_rd, f0, 40.0)
        d1 = objective(h_sd, h_sr, h_rd, f1, 40.0)
        assert d1 >= d0 - 1e-12

    def test_antenna_count_mismatch(self):
        with pytest.raises(ValueError):
            mimo_cnf_filter(np.eye(2), np.ones((3, 2)), np.ones((2, 2)), 40.0)

    @pytest.mark.parametrize("shapes", [
        ((3, 3), (2, 3), (3, 2)),      # 3x3 link
        ((2, 2), (3, 2), (2, 3)),      # three relay antennas
        ((2, 3), (2, 3), (2, 2)),      # non-square direct channel
    ])
    def test_unsupported_shapes_name_the_supported_ones(self, shapes):
        with pytest.raises(ValueError, match=r"H_sd \(\.\.\., 2, 2\)"):
            mimo_cnf_filter(*(np.ones(shape) for shape in shapes), 40.0)

    @pytest.mark.parametrize("k", [1, 2])
    def test_all_zero_channels_give_identity(self, k):
        f = mimo_cnf_filter(np.zeros((2, 2)), np.zeros((k, 2)),
                            np.zeros((2, k)), 40.0)
        assert np.array_equal(f, np.eye(k))

    def test_stack_matches_single_problems(self):
        rng = make_rng(12)
        stack = [np.stack(h) for h in zip(*(self._draw(rng) for _ in range(5)))]
        batched = mimo_cnf_filter(*stack, 45.0)
        assert batched.shape == (5, 2, 2)
        for i in range(5):
            problem = [h[i] for h in stack]
            single = mimo_cnf_filter(*problem, 45.0)
            assert objective(*problem, batched[i], 45.0) == pytest.approx(
                objective(*problem, single, 45.0), rel=1e-12)

    def test_rank_expansion_through_pinhole(self):
        # The flagship effect: direct channel rank-1, relay adds an
        # independent path, the combined channel supports two streams.
        from repro.channel import pinhole_mimo
        from repro.phy.mimo import effective_rank

        rng = make_rng(9)
        h_sd = 1e-3 * pinhole_mimo(2, 2, leakage=0.0, rng=rng)
        h_sr = 1e-2 * (rng.standard_normal((2, 2))
                       + 1j * rng.standard_normal((2, 2)))
        h_rd = 1e-2 * (rng.standard_normal((2, 2))
                       + 1j * rng.standard_normal((2, 2)))
        relay = FastForwardRelay().configure_mimo_link(
            h_sd[None], h_sr[None], h_rd[None])
        h_eff = relay.mimo_effective_channels()[0][0]
        assert effective_rank(h_sd, threshold_db=40.0) == 1
        assert effective_rank(h_eff, threshold_db=40.0) == 2
        # The pinhole's second singular value is exactly zero; the relay
        # path reopens it.
        sv_direct = np.linalg.svd(h_sd, compute_uv=False)
        sv_eff = np.linalg.svd(h_eff, compute_uv=False)
        assert sv_direct[1] < 1e-12
        assert sv_eff[1] > 1e-4


class TestStreamSinrs:
    def test_relay_lifts_both_streams(self):
        from repro.channel import pinhole_mimo

        rng = make_rng(10)
        h_sd = 3e-4 * pinhole_mimo(2, 2, leakage=0.02, rng=rng)
        h_sr = 1e-2 * (rng.standard_normal((2, 2))
                       + 1j * rng.standard_normal((2, 2)))
        h_rd = 1e-2 * (rng.standard_normal((2, 2))
                       + 1j * rng.standard_normal((2, 2)))
        relay = FastForwardRelay().configure_mimo_link(
            h_sd[None], h_sr[None], h_rd[None])
        with_relay = _multiplexing_stream_snrs(
            *relay.mimo_effective_channels(), 100.0)[0]
        without = _multiplexing_stream_snrs(
            h_sd[None], direct_noise_cov(h_sd[None]), 100.0)[0]
        assert np.sort(with_relay)[0] > np.sort(without)[0]

    def test_band_phase_alignment_shape(self):
        rng = make_rng(11)
        n_sc = 7
        h = lambda: 1e-3 * (rng.standard_normal((n_sc, 2, 2))
                            + 1j * rng.standard_normal((n_sc, 2, 2)))
        h_sd, h_sr, h_rd = h(), h(), h()
        f0 = np.eye(2, dtype=complex)
        phases = band_phase_alignment(h_sd, h_sr, h_rd, f0, 30.0)
        assert phases.shape == (n_sc,)
        assert np.all((phases >= 0) & (phases < 2 * np.pi))


def _cn(rng, shape, scale):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _rank1(rng, shape, scale):
    return scale * np.outer(_cn(rng, shape[0], 1.0), _cn(rng, shape[1], 1.0))


def _testbed_groups(seed, clients=3):
    """Subcarrier-group problems exactly as ``configure_mimo_link`` poses
    them: 8-tone means of testbed channels at the relay's amplification."""
    from repro.netsim.testbed import Testbed, paper_scenarios

    problems = []
    for i, scenario in enumerate(paper_scenarios()[:clients]):
        testbed = Testbed(scenario, seed=seed + i)
        client = testbed.client_positions(1, rng=seed + i)[0]
        h_sd, h_sr, h_rd = testbed.mimo_triple(client, make_rng(seed + 10 + i))
        relay = FastForwardRelay(RelayConfig(params=testbed.params))
        relay.configure_mimo_link(h_sd, h_sr, h_rd)
        for start in range(0, h_sd.shape[0], 8):
            group = slice(start, start + 8)
            problems.append((h_sd[group].mean(axis=0), h_sr[group].mean(axis=0),
                             h_rd[group].mean(axis=0), relay.amplification_db))
    return problems


def _random_problems(seed, count):
    rng = make_rng(seed)
    problems = []
    for _ in range(count):
        s_sd, s_sr, s_rd = 10.0 ** rng.uniform(-5.0, -2.0, 3)
        problems.append((_cn(rng, (2, 2), s_sd), _cn(rng, (2, 2), s_sr),
                         _cn(rng, (2, 2), s_rd), rng.uniform(20.0, 90.0)))
    return problems


class TestAgainstOracle:
    """The exact solve against a six-start Nelder-Mead multistart, the
    previous single-start solve, the identity and the SVD-aligned start."""

    def test_matches_multistart_oracle(self):
        problems = _testbed_groups(seed=11) + _random_problems(seed=13, count=15)
        assert len(problems) >= 30
        for i, (h_sd, h_sr, h_rd, amp) in enumerate(problems):
            new = objective(h_sd, h_sr, h_rd,
                            mimo_cnf_filter(h_sd, h_sr, h_rd, amp), amp)
            oracle = objective(h_sd, h_sr, h_rd, multistart_oracle(
                h_sd, h_sr, h_rd, amp, starts=6, seed=i), amp)
            others = [single_start_solve(h_sd, h_sr, h_rd, amp), np.eye(2),
                      svd_aligned_init(h_sr, h_rd)]
            assert new >= (1.0 - 1e-9) * oracle, (i, new, oracle)
            for f in others:
                assert new >= (1.0 - 1e-12) * objective(h_sd, h_sr, h_rd, f, amp)


_SEED = st.integers(0, 2**32 - 1)
_LOG_SCALE = st.floats(-6.0, -1.0)
_AMP = st.floats(0.0, 90.0)


class TestMimoCnfProperties:
    @settings(max_examples=60, deadline=None)
    @given(seed=_SEED, k=st.sampled_from([1, 2]),
           scales=st.tuples(_LOG_SCALE, _LOG_SCALE, _LOG_SCALE), amp=_AMP)
    def test_output_is_unitary(self, seed, k, scales, amp):
        rng = np.random.default_rng(seed)
        s_sd, s_sr, s_rd = 10.0 ** np.asarray(scales)
        f = mimo_cnf_filter(_cn(rng, (2, 2), s_sd), _cn(rng, (k, 2), s_sr),
                            _cn(rng, (2, k), s_rd), amp)
        assert f.shape == (k, k)
        assert np.abs(f @ f.conj().T - np.eye(k)).max() <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(seed=_SEED, scales=st.tuples(_LOG_SCALE, _LOG_SCALE))
    def test_det_expansion(self, seed, scales):
        # det(X + Y) = det X + det Y + tr(adj(X) Y): the identity behind
        # both the group solve and the per-tone phase alignment.
        rng = np.random.default_rng(seed)
        x = _cn(rng, (2, 2), 10.0 ** scales[0])
        y = _cn(rng, (2, 2), 10.0 ** scales[1])
        size = (np.abs(x).max() + np.abs(y).max()) ** 2
        expanded = _det2(x) + _det2(y) + np.trace(_adj2(x) @ y)
        assert abs(np.linalg.det(x + y) - expanded) <= 1e-12 * size
        assert abs(np.linalg.det(x) - _det2(x)) <= 1e-12 * size

    @settings(max_examples=40, deadline=None)
    @given(seed=_SEED, scales=st.tuples(_LOG_SCALE, _LOG_SCALE, _LOG_SCALE),
           amp=_AMP)
    def test_single_antenna_relay_beats_phase_grid(self, seed, scales, amp):
        rng = np.random.default_rng(seed)
        s_sd, s_sr, s_rd = 10.0 ** np.asarray(scales)
        h_sd, h_sr, h_rd = (_cn(rng, (2, 2), s_sd), _cn(rng, (1, 2), s_sr),
                            _cn(rng, (2, 1), s_rd))
        f = mimo_cnf_filter(h_sd, h_sr, h_rd, amp)
        relay_term = h_rd @ (db_to_linear(amp) * h_sr)
        phases = np.exp(2j * np.pi * np.arange(4096) / 4096)
        grid = np.abs(np.linalg.det(h_sd + phases[:, None, None] * relay_term))
        # np.linalg.det rounds at eps times the squared entry size.
        size = (np.abs(h_sd).max() + np.abs(relay_term).max()) ** 2
        assert objective(h_sd, h_sr, h_rd, f, amp) >= grid.max() - 1e-12 * size

    @settings(max_examples=60, deadline=None)
    @given(seed=_SEED, k=st.sampled_from([1, 2]),
           sd=st.sampled_from(["zero", "random"]),
           sr=st.sampled_from(["zero", "rank1", "random"]),
           rd=st.sampled_from(["zero", "rank1", "random"]), amp=_AMP)
    def test_degenerate_channels_give_finite_unitaries(self, seed, k, sd, sr,
                                                       rd, amp):
        rng = np.random.default_rng(seed)
        draw = {"zero": lambda shape: np.zeros(shape, dtype=complex),
                "rank1": lambda shape: _rank1(rng, shape, 1e-3),
                "random": lambda shape: _cn(rng, shape, 1e-3)}
        f = mimo_cnf_filter(draw[sd]((2, 2)), draw[sr]((k, 2)),
                            draw[rd]((2, k)), amp)
        assert np.all(np.isfinite(f))
        assert np.abs(f @ f.conj().T - np.eye(k)).max() <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(seed=_SEED, k=st.sampled_from([1, 2]), per_tone=st.booleans(),
           amp=_AMP)
    def test_phase_alignment_matches_per_tone_det_loop(self, seed, k,
                                                       per_tone, amp):
        rng = np.random.default_rng(seed)
        n_sc = 9
        h_sd = _cn(rng, (n_sc, 2, 2), 1e-3)
        h_sr = _cn(rng, (n_sc, k, 2), 1e-2)
        h_rd = _cn(rng, (n_sc, 2, k), 1e-3)
        f0 = np.linalg.qr(_cn(rng, (n_sc, k, k) if per_tone else (k, k),
                              1.0))[0]
        phases = band_phase_alignment(h_sd, h_sr, h_rd, f0, amp)
        grid, dets = band_phase_alignment_loop(h_sd, h_sr, h_rd, f0, amp)
        picked = dets[np.arange(n_sc), np.searchsorted(grid, phases)]
        ties = picked >= (1.0 - 1e-12) * dets.max(axis=1)
        assert np.all((phases == grid[dets.argmax(axis=1)]) | ties)


class TestConfigureMimoLink:
    def test_one_solve_and_one_alignment_per_link(self, monkeypatch):
        import repro.core.relay as relay_module

        calls = []

        def counting(fn):
            def wrapper(*args, **kwargs):
                calls.append((fn.__name__, args[0].shape))
                return fn(*args, **kwargs)
            return wrapper

        for name in ("mimo_cnf_filter", "band_phase_alignment"):
            monkeypatch.setattr(relay_module, name,
                                counting(getattr(relay_module, name)))
        rng = make_rng(14)
        h = lambda k_rx, k_tx: _cn(rng, (52, k_rx, k_tx), 1e-3)
        relay = FastForwardRelay(RelayConfig())
        relay.configure_mimo_link(h(2, 2), h(2, 2), h(2, 2), group_size=5)
        assert calls == [("mimo_cnf_filter", (11, 2, 2)),
                         ("band_phase_alignment", (52, 2, 2))]

    def test_group_filters_solve_each_group_mean(self):
        rng = make_rng(15)
        h_sd, h_sr, h_rd = (_cn(rng, (52, 2, 2), 1e-3) for _ in range(3))
        relay = FastForwardRelay(RelayConfig())
        relay.configure_mimo_link(h_sd, h_sr, h_rd)
        amp = relay.amplification_db
        for start in range(0, 52, 8):
            group = slice(start, start + 8)
            means = [h[group].mean(axis=0) for h in (h_sd, h_sr, h_rd)]
            installed = relay._mimo_f0[group]
            assert np.all(installed == installed[0])
            # The argmax is only defined to ~sqrt(eps) where the optimum
            # is flat, so compare objective values.
            alone = objective(*means, mimo_cnf_filter(*means, amp), amp)
            assert objective(*means, installed[0], amp) == pytest.approx(
                alone, rel=1e-12)
