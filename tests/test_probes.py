"""Signal-domain probes: diagnostics, taps and the latency ledger.

The contracts under test:

* quantisation makes published floats dyadic (exact, associative sums);
* decimation keys to absolute stream position, so block chunking never
  changes a published value;
* taps are transparent — the relay output is bit-identical with and
  without probes attached;
* all three relay tap sites report EVM, cancellation depth and their
  cumulative latency against the CP budget;
* the probes *localize* degradation (the demo doubles as the test).
"""

import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import FastForwardRelay, RelayConfig
from repro.phy.params import WIFI_20MHZ
from repro.netsim import Testbed, paper_scenarios
from repro.probes import (
    ALWAYS,
    BUDGET_COMPONENTS,
    DEFAULT_POLICY,
    DecimationPolicy,
    EVM_FLOOR_DB,
    EvmProbe,
    LatencyAccountant,
    PaprProbe,
    ProbeSet,
    SITES,
    SegmentBuffer,
    SpectrumProbe,
    make_reference_frame,
    quantize,
)


def _relay_and_frame(seed=5, n_symbols=24):
    testbed = Testbed(paper_scenarios()[0], seed=seed)
    rng = np.random.default_rng(42)
    client = testbed.client_positions(1, rng=rng)[0]
    cfg = RelayConfig(params=testbed.params, use_decomposition=False)
    relay = FastForwardRelay(cfg)
    relay.configure_siso_link(*testbed.siso_triple(client, rng))
    frame = make_reference_frame(testbed.params, n_symbols=n_symbols, rng=7)
    return relay, frame, testbed.params, cfg


class TestQuantize:
    def test_dyadic_multiple(self):
        q = quantize(1 / 3)
        assert q * (1 << 20) == round(q * (1 << 20))
        assert abs(q - 1 / 3) <= 2.0 ** -21

    def test_sums_are_exact_in_any_order(self):
        rng = np.random.default_rng(0)
        values = [quantize(v) for v in rng.normal(size=64)]
        forward = 0.0
        for v in values:
            forward += v
        backward = 0.0
        for v in reversed(values):
            backward += v
        assert forward == backward          # bitwise, not approx

    def test_non_finite_passthrough(self):
        assert quantize(float("inf")) == float("inf")
        assert np.isnan(quantize(float("nan")))

    def test_custom_bits(self):
        assert quantize(0.3, bits=2) == 0.25


class TestDecimationPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            DecimationPolicy(window=0, period=4)
        with pytest.raises(ValueError):
            DecimationPolicy(window=8, period=4)

    def test_mask_is_absolute_position(self):
        policy = DecimationPolicy(window=2, period=5)
        mask = policy.mask(np.arange(10))
        assert mask.tolist() == [True, True, False, False, False,
                                 True, True, False, False, False]
        assert policy.analyze(6) and not policy.analyze(7)

    def test_always_analyses_everything(self):
        assert ALWAYS.mask(np.arange(100)).all()

    def test_default_duty_cycle(self):
        mask = DEFAULT_POLICY.mask(np.arange(1024 * 10))
        assert mask.mean() == pytest.approx(4 / 1024)


class TestSegmentBuffer:
    def test_chunking_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=1000) + 1j * rng.normal(size=1000)
        whole = SegmentBuffer(64)
        idx_a, seg_a = whole.feed(x)

        chunked = SegmentBuffer(64)
        parts = []
        for i in range(0, x.size, 37):
            parts.append(chunked.feed(x[i:i + 37]))
        idx_b = np.concatenate([p[0] for p in parts])
        seg_b = np.concatenate([p[1] for p in parts])
        np.testing.assert_array_equal(idx_a, idx_b)
        np.testing.assert_array_equal(seg_a, seg_b)

    def test_carry_across_calls(self):
        buf = SegmentBuffer(8)
        idx, seg = buf.feed(np.ones(5, dtype=complex))
        assert idx.size == 0 and seg.shape == (0, 8)
        idx, seg = buf.feed(np.ones(11, dtype=complex))
        assert idx.tolist() == [0, 1] and seg.shape == (2, 8)

    def test_mimo_blocks_probe_stream_zero(self):
        buf = SegmentBuffer(4)
        block = np.stack([np.arange(8), 100 + np.arange(8)]).astype(complex)
        _, seg = buf.feed(block)
        np.testing.assert_array_equal(seg.ravel(), np.arange(8))

    def test_validation(self):
        with pytest.raises(ValueError):
            SegmentBuffer(0)

    def test_feed_kept_matches_feed_plus_mask(self):
        # The copy-free path must select exactly what feed() + the
        # policy mask would, at any chunk layout (61 ∤ 7 exercises the
        # kept-carry-segment branch repeatedly).
        rng = np.random.default_rng(9)
        x = rng.normal(size=997) + 1j * rng.normal(size=997)
        policy = DecimationPolicy(window=2, period=5)
        idx_all, seg_all = SegmentBuffer(7).feed(x)
        keep = policy.mask(idx_all)
        buf = SegmentBuffer(7)
        parts = [buf.feed_kept(x[i:i + 61], policy)
                 for i in range(0, x.size, 61)]
        got_i = np.concatenate([p[0] for p in parts])
        got_s = np.concatenate([p[1] for p in parts])
        np.testing.assert_array_equal(got_i, idx_all[keep])
        np.testing.assert_array_equal(got_s, seg_all[keep])


class TestEvmProbe:
    def test_clean_reference_sits_on_the_floor(self):
        frame = make_reference_frame(WIFI_20MHZ, n_symbols=8, rng=1)
        probe = EvmProbe(WIFI_20MHZ, frame, policy=ALWAYS)
        probe.process(frame.iq)
        assert probe.windows > 0
        assert probe.evm_rms_db == EVM_FLOOR_DB
        assert (probe.per_subcarrier_db() == EVM_FLOOR_DB).all()

    def test_noise_raises_evm_monotonically(self):
        frame = make_reference_frame(WIFI_20MHZ, n_symbols=8, rng=1)
        levels = []
        for sigma in (0.01, 0.1):
            rng = np.random.default_rng(9)
            noisy = frame.iq + sigma * (
                rng.normal(size=frame.iq.size)
                + 1j * rng.normal(size=frame.iq.size))
            probe = EvmProbe(WIFI_20MHZ, frame, policy=ALWAYS)
            probe.process(noisy)
            levels.append(probe.evm_rms_db)
        assert EVM_FLOOR_DB < levels[0] < levels[1] < 0.0

    def test_scalar_gain_is_absorbed_by_the_equaliser(self):
        frame = make_reference_frame(WIFI_20MHZ, n_symbols=8, rng=1)
        probe = EvmProbe(WIFI_20MHZ, frame, policy=ALWAYS)
        probe.process(3.7j * frame.iq)       # pure LTI: gain and rotation
        assert probe.evm_rms_db == EVM_FLOOR_DB

    def test_reference_shape_mismatch_rejected(self):
        frame = make_reference_frame(WIFI_20MHZ, n_symbols=4, rng=1)
        bad = type(frame)(params=frame.params, grid=frame.grid[:, :10],
                          iq=frame.iq)
        with pytest.raises(ValueError, match="tones"):
            EvmProbe(WIFI_20MHZ, bad, policy=ALWAYS)

    def test_constellation_points_are_quantised(self):
        frame = make_reference_frame(WIFI_20MHZ, n_symbols=8, rng=1)
        probe = EvmProbe(WIFI_20MHZ, frame, policy=ALWAYS)
        probe.process(frame.iq)
        assert probe.constellation
        for i, q in probe.constellation:
            assert i == quantize(i) and q == quantize(q)


class TestSpectrumAndPapr:
    def test_empty_probe_reports_none(self):
        probe = SpectrumProbe(WIFI_20MHZ)
        assert probe.cancellation_depth_db is None
        assert probe.oob_leakage_db is None
        assert probe.flatness is None
        assert probe.occupancy is None
        assert probe.psd_db() is None
        assert PaprProbe().papr_db is None

    def test_ofdm_signal_concentrates_in_band(self):
        frame = make_reference_frame(WIFI_20MHZ, n_symbols=16, rng=2)
        buf = SegmentBuffer(WIFI_20MHZ.fft_size)
        probe = SpectrumProbe(WIFI_20MHZ)
        _, segments = buf.feed(frame.iq)
        probe.accumulate(segments)
        assert probe.cancellation_depth_db > 5.0
        assert probe.occupancy > 0.8
        assert probe.snr_ewma_db is not None

    def test_white_residual_si_shrinks_the_depth(self):
        frame = make_reference_frame(WIFI_20MHZ, n_symbols=16, rng=2)
        rng = np.random.default_rng(4)
        noisy = frame.iq + 0.3 * (rng.normal(size=frame.iq.size)
                                  + 1j * rng.normal(size=frame.iq.size))
        depths = []
        for signal in (frame.iq, noisy):
            buf = SegmentBuffer(WIFI_20MHZ.fft_size)
            probe = SpectrumProbe(WIFI_20MHZ)
            probe.accumulate(buf.feed(signal)[1])
            depths.append(probe.cancellation_depth_db)
        assert depths[1] < depths[0] - 3.0

    def test_constant_envelope_papr_is_zero(self):
        probe = PaprProbe()
        probe.accumulate(np.ones((4, 64), dtype=complex))
        assert probe.papr_db == pytest.approx(0.0, abs=1e-9)


class TestLatencyAccountant:
    def test_ledger_fits_the_wifi_cp(self):
        acct = LatencyAccountant(WIFI_20MHZ)
        assert acct.cp_ns == pytest.approx(400.0)
        assert acct.total_ns < acct.cp_ns
        assert acct.fits_cp
        assert acct.margin_ns == pytest.approx(acct.cp_ns - acct.total_ns)

    def test_waterfall_is_cumulative_and_ordered(self):
        acct = LatencyAccountant(WIFI_20MHZ)
        rows = acct.waterfall()
        assert [r["component"] for r in rows] == \
            [c for c, _, _ in BUDGET_COMPONENTS]
        running = 0.0
        for row in rows:
            running = quantize(running + row["ns"])
            assert row["cumulative_ns"] == running
        assert rows[-1]["cumulative_ns"] == pytest.approx(acct.total_ns)

    def test_every_site_reaches_a_cumulative_delay(self):
        cumulative = LatencyAccountant(WIFI_20MHZ).cumulative_ns()
        assert set(cumulative) == set(SITES)
        assert cumulative["post-si-cancellation"] \
            <= cumulative["post-cnf"] \
            <= cumulative["post-amplification"]

    def test_realised_lookahead_observed_from_chain(self):
        relay, _, params, _ = _relay_and_frame()
        acct = LatencyAccountant(params)
        acct.observe_chain(relay.make_chain(),
                           sample_rate_hz=params.bandwidth_hz)
        realised = acct.realised_ns()
        assert "cnf-filter" in realised
        assert all(v >= 0.0 for v in realised.values())


class TestProbeSetOnRelay:
    def test_taps_are_transparent(self):
        relay, frame, params, cfg = _relay_and_frame()
        plain = relay.process(frame.iq)
        probes = ProbeSet(params, reference=frame, policy=ALWAYS,
                          budget=cfg.latency)
        probed = relay.process(frame.iq, probes=probes)
        np.testing.assert_array_equal(plain, probed)

    def test_all_three_sites_report(self):
        relay, frame, params, cfg = _relay_and_frame()
        probes = ProbeSet(params, reference=frame, policy=ALWAYS,
                          budget=cfg.latency)
        relay.process(frame.iq, probes=probes)
        summary = probes.summary()
        for site in SITES:
            assert f"{site}.evm_rms_db" in summary
            assert f"{site}.cancellation_depth_db" in summary
            assert f"latency.cumulative_ns.{site}" in summary
        assert summary["latency.cp_ns"] == pytest.approx(400.0)
        assert summary["latency.margin_ns"] > 0.0

    def test_summary_is_block_size_invariant(self):
        relay, frame, params, cfg = _relay_and_frame()
        summaries = []
        for block_size in (512, 4096, None):
            probes = ProbeSet(params, reference=frame, policy=ALWAYS,
                              budget=cfg.latency)
            chain = relay.make_chain(block_size=block_size) \
                if block_size else relay.make_chain()
            probed = probes.instrument(chain,
                                       sample_rate_hz=params.bandwidth_hz)
            probed.reset()
            if block_size:
                for i in range(0, frame.iq.size, block_size):
                    probed.process_block(frame.iq[i:i + block_size])
                probed.flush()
            else:
                probed.run(frame.iq)
            summaries.append(probes.summary())
        assert summaries[0] == summaries[1] == summaries[2]

    def test_accumulators_survive_chain_reset(self):
        relay, frame, params, cfg = _relay_and_frame()
        probes = ProbeSet(params, reference=frame, policy=ALWAYS,
                          budget=cfg.latency)
        relay.process(frame.iq, probes=probes)
        first = probes.site("post-cnf").samples
        relay.process(frame.iq, probes=probes)   # process() resets the chain
        assert probes.site("post-cnf").samples == 2 * first
        probes.reset()
        assert probes.site("post-cnf").samples == 0

    def test_unknown_tap_label_rejected(self):
        relay, _, _, _ = _relay_and_frame()
        chain = relay.make_chain()
        with pytest.raises(ValueError, match="no-such-stage"):
            chain.with_taps({"no-such-stage": object()})

    def test_instrument_skips_labels_absent_from_chain(self):
        relay, frame, params, cfg = _relay_and_frame()
        probes = ProbeSet(params, reference=frame, policy=ALWAYS,
                          budget=cfg.latency)
        probed = probes.instrument(
            relay.make_chain(), sample_rate_hz=params.bandwidth_hz,
            site_labels={"cnf-filter": "post-cnf",
                         "not-a-stage": "nowhere"})
        assert any(label.startswith("probe:") for label in probed.labels)


def test_link_health_demo_localizes_the_fault(capsys):
    """The example is the integration test: probes must point at the
    stage the drift was spliced behind."""
    demo = Path(__file__).resolve().parent.parent / "examples" \
        / "link_health_demo.py"
    argv = sys.argv
    sys.argv = [str(demo)]
    try:
        runpy.run_path(str(demo), run_name="__main__")
    finally:
        sys.argv = argv
    out = capsys.readouterr().out
    assert "degradation enters here" in out
    assert "probes localize the drift" in out
