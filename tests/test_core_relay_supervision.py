"""Relay <-> faults/supervision wiring at the sample level."""

import numpy as np
import pytest

from repro.core.relay import FastForwardRelay, RelayConfig
from repro.faults import (
    AdcSaturationStage,
    FaultSchedule,
    ResidualSiStage,
    SampleDropStage,
)
from repro.supervision import (
    RelayHealthMonitor,
    RelaySupervisor,
    SupervisorEventKind as K,
)
from repro.utils import make_rng

FS = 20e6


def _siso_relay(seed=0):
    cfg = RelayConfig()
    relay = FastForwardRelay(cfg)
    rng = make_rng(seed)
    n = len(cfg.params.used_subcarriers())

    def h(scale=1.0):
        return scale * (rng.standard_normal(n)
                        + 1j * rng.standard_normal(n)) / np.sqrt(2)

    relay.configure_siso_link(h(0.05), h(), h())
    return relay


@pytest.fixture
def relay():
    return _siso_relay()


@pytest.fixture
def burst():
    rng = make_rng(42)
    return 0.1 * (rng.standard_normal(4096) + 1j * rng.standard_normal(4096))


class TestInputValidation:
    def test_rejects_nonfinite_input(self, relay, burst):
        bad = burst.copy()
        bad[10] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            relay.process(bad, FS)

    def test_supervised_sanitises_instead(self, relay, burst):
        bad = burst.copy()
        bad[10] = np.nan
        sup = RelaySupervisor()
        y = relay.process(bad, FS, supervisor=sup)
        assert np.isfinite(y).all()

    def test_mimo_rejects_nonfinite(self):
        cfg = RelayConfig()
        relay = FastForwardRelay(cfg)
        rng = make_rng(3)
        n = len(cfg.params.used_subcarriers())
        m = (rng.standard_normal((n, 2, 2))
             + 1j * rng.standard_normal((n, 2, 2)))
        relay.configure_mimo_link(0.05 * m, m, m)
        x = np.zeros((2, 1024), dtype=complex)
        x[0, 5] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            relay.process(x, FS)


class TestFaultComposition:
    def test_faults_keyword_applies_impairments(self, relay, burst):
        clean = relay.process(burst, FS)
        clip = AdcSaturationStage(full_scale=0.05)
        faulty = relay.process(burst, FS, faults=[clip])
        assert clip.clip_fraction > 0.2
        assert not np.allclose(clean, faulty)

    def test_fault_schedules_continue_across_calls(self, relay, burst):
        sched = FaultSchedule(5)
        drop = SampleDropStage(sched, rate_per_sample=5e-4,
                               mean_burst_samples=64, mode="zero")
        relay.process(burst, FS, faults=[drop])
        first = drop.corrupted_fraction
        relay.process(burst, FS, faults=[drop])
        # The burst process advanced, not replayed: the cursor moved on.
        assert drop._cursor == 2 * burst.size
        assert drop.corrupted_fraction != pytest.approx(0.0) or first == 0.0

    def test_unfaulted_output_reproducible_after_faulted_call(self, relay,
                                                              burst):
        clean = relay.process(burst, FS)
        relay.process(burst, FS,
                      faults=[AdcSaturationStage(full_scale=0.01)])
        again = relay.process(burst, FS)
        assert np.allclose(clean, again)


class TestSupervisedProcessing:
    def test_nan_bursts_are_contained(self, relay, burst):
        sched = FaultSchedule(6)
        drop = SampleDropStage(sched, rate_per_sample=2e-3,
                               mean_burst_samples=32, mode="nan")
        sup = RelaySupervisor()
        y = relay.process(burst, FS, faults=[drop], supervisor=sup)
        assert np.isfinite(y).all()
        assert K.BLOCK_SANITISED in sup.event_kinds()

    def test_clip_fraction_reaches_monitor(self, relay, burst):
        sup = RelaySupervisor(monitor=RelayHealthMonitor(alpha=1.0))
        clip = AdcSaturationStage(full_scale=0.02)
        relay.process(burst, FS, faults=[clip], supervisor=sup)
        assert sup.monitor.value("clip_fraction") == pytest.approx(
            clip.clip_fraction)

    def test_si_jump_reaches_monitor(self, relay, burst):
        sup = RelaySupervisor(monitor=RelayHealthMonitor(alpha=1.0))
        si = ResidualSiStage(FaultSchedule(7), jump_rate_per_sample=2e-3)
        relay.process(burst, FS, faults=[si], supervisor=sup)
        assert si.jumped
        assert sup.monitor.value("residual_si_db") == pytest.approx(
            si.jump_residual_db)

    def test_supervisor_advances_time_with_stream(self, relay, burst):
        sup = RelaySupervisor()
        relay.process(burst, FS, supervisor=sup)
        assert sup.now_s == pytest.approx(burst.size / FS)

    def test_muted_supervisor_silences_output(self, relay, burst):
        sup = RelaySupervisor()
        for i in range(20):                 # drive the ladder to fallback
            sup.monitor.observe(clip_fraction=0.5)
            sup.step(i * 0.2)
        assert not sup.relaying
        y = relay.process(burst, FS, supervisor=sup)
        assert np.all(y == 0)


class TestStaleChannelEvaluation:
    def test_channels_override_matches_configured(self, relay):
        base = relay.destination_snr_db()
        same = relay.destination_snr_db(
            channels=(relay._h_sd, relay._h_sr, relay._h_rd))
        assert np.allclose(base, same)

    def test_drifted_channels_change_snr(self, relay):
        n = relay._h_sr.size
        rng = make_rng(9)
        drifted = relay._h_sr * np.exp(1j * rng.uniform(0, np.pi, n))
        moved = relay.destination_snr_db(
            channels=(relay._h_sd, drifted, relay._h_rd))
        assert not np.allclose(relay.destination_snr_db(), moved)
