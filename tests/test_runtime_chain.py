"""The streaming runtime: Stage/Chain contract and block invariance.

The load-bearing property: a chain fed a stream in *any* block sizes —
including size 1 and primes — produces exactly the output of one whole-
signal call, and ``reset()`` returns it to a reusable pristine state.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cfo_restore import CfoRestorer
from repro.core.relay import FastForwardRelay, RelayConfig
from repro.phy.params import WIFI_20MHZ
from repro.runtime import (
    CfoCorrectStage,
    CfoRestoreStage,
    Chain,
    FrequencyResponseStage,
    FunctionStage,
    GainStage,
    Stage,
)
from repro.utils.signal_ops import next_pow2

FS = WIFI_20MHZ.bandwidth_hz


def _chunks(x, sizes):
    """Split ``x`` along its last axis into blocks drawn from ``sizes``."""
    out, pos, i = [], 0, 0
    n = x.shape[-1]
    while pos < n:
        step = min(sizes[i % len(sizes)], n - pos)
        out.append(x[..., pos:pos + step])
        pos += step
        i += 1
    return out


def _stream(chain, x, sizes):
    parts = [chain.process_block(b) for b in _chunks(x, sizes)]
    parts.append(chain.flush())
    parts = [p for p in parts if p.shape[-1]]
    return np.concatenate(parts, axis=-1)


def _rms(a, b):
    return float(np.sqrt(np.mean(np.abs(a - b) ** 2)))


def _siso_relay(seed=7, use_decomposition=True):
    rng = np.random.default_rng(seed)
    freqs = WIFI_20MHZ.subcarrier_freqs_hz()

    def draw():
        return (rng.normal(size=freqs.size)
                + 1j * rng.normal(size=freqs.size))

    relay = FastForwardRelay(RelayConfig(use_decomposition=use_decomposition))
    relay.configure_siso_link(draw(), draw(), draw())
    return relay


def _mimo_k1_relay(seed):
    """A MIMO link through a one-antenna relay: (2,2), (1,2), (2,1)."""
    rng = np.random.default_rng(seed)
    freqs = WIFI_20MHZ.subcarrier_freqs_hz()

    def draw(rows, cols):
        return (rng.normal(size=(freqs.size, rows, cols))
                + 1j * rng.normal(size=(freqs.size, rows, cols)))

    relay = FastForwardRelay(RelayConfig())
    relay.configure_mimo_link(draw(2, 2), draw(1, 2), draw(2, 1))
    return relay


def _mimo_relay(k=2, seed=11):
    rng = np.random.default_rng(seed)
    freqs = WIFI_20MHZ.subcarrier_freqs_hz()

    def draw():
        return (rng.normal(size=(freqs.size, k, k))
                + 1j * rng.normal(size=(freqs.size, k, k)))

    relay = FastForwardRelay(RelayConfig())
    relay.configure_mimo_link(draw(), draw(), draw())
    return relay


class TestStageContract:
    def test_base_stage_defaults(self):
        s = Stage()
        assert s.latency_samples == 0
        assert s.flush().size == 0
        s.reset()  # no-op, must not raise
        with pytest.raises(NotImplementedError):
            s.process_block(np.zeros(4, dtype=complex))

    def test_function_stage_applies(self):
        s = FunctionStage(lambda x: 2.0 * x, name="double")
        out = s.process_block(np.ones(5, dtype=complex))
        assert np.allclose(out, 2.0)
        assert s.name == "double"

    def test_gain_stage_db(self):
        s = GainStage(20.0)
        out = s.process_block(np.ones(3, dtype=complex))
        assert np.allclose(out, 10.0)

    def test_chain_dedups_stage_labels(self):
        chain = Chain([GainStage(0.0), GainStage(0.0)])
        assert len(set(chain.labels)) == 2

    def test_chain_latency_is_sum(self):
        relay = _siso_relay()
        chain = relay.make_chain()
        stage = [s for s in chain.stages
                 if isinstance(s, FrequencyResponseStage)][0]
        assert chain.latency_samples == stage.latency_samples > 0


class TestBlockInvariance:
    """Streaming in arbitrary block sizes matches one-shot <= 1e-8 RMS."""

    @settings(max_examples=20, deadline=None)
    @given(sizes=st.lists(st.sampled_from([1, 2, 3, 7, 13, 64, 97, 1000]),
                          min_size=1, max_size=6),
           cfo_hz=st.sampled_from([0.0, 312.5, 4300.0]))
    def test_siso_chain_any_chunking(self, sizes, cfo_hz):
        relay = _siso_relay()
        rng = np.random.default_rng(3)
        x = rng.normal(size=2500) + 1j * rng.normal(size=2500)
        one_shot = relay.process(x, cfo_hz=cfo_hz)
        chain = relay.make_chain(cfo_hz=cfo_hz, block_size=512)
        chain.reset()
        assert _rms(_stream(chain, x, sizes), one_shot) <= 1e-8

    @settings(max_examples=10, deadline=None)
    @given(sizes=st.lists(st.sampled_from([1, 5, 17, 128, 311]),
                          min_size=1, max_size=4))
    def test_mimo_chain_any_chunking(self, sizes):
        relay = _mimo_relay()
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 1800)) + 1j * rng.normal(size=(2, 1800))
        one_shot = relay.process(x, cfo_hz=700.0)
        chain = relay.make_chain(cfo_hz=700.0, block_size=256)
        chain.reset()
        assert _rms(_stream(chain, x, sizes), one_shot) <= 1e-8

    def test_long_ppdu_prime_blocks(self):
        # A frame-sized stream pumped in prime-length blocks.
        relay = _siso_relay()
        rng = np.random.default_rng(9)
        x = rng.normal(size=16000) + 1j * rng.normal(size=16000)
        one_shot = relay.process(x, cfo_hz=1250.0)
        chain = relay.make_chain(cfo_hz=1250.0)
        chain.reset()
        assert _rms(_stream(chain, x, [101, 1, 499, 7]), one_shot) <= 1e-8

    def test_reset_makes_chain_reusable(self):
        relay = _siso_relay()
        rng = np.random.default_rng(13)
        x = rng.normal(size=3000) + 1j * rng.normal(size=3000)
        chain = relay.make_chain(cfo_hz=950.0)
        chain.reset()
        first = _stream(chain, x, [64])
        chain.reset()
        second = _stream(chain, x, [251])
        assert _rms(first, second) <= 1e-12

    def test_cfo_stages_roundtrip_phase_continuously(self):
        restorer = CfoRestorer(1500.0, FS)
        chain = Chain([CfoCorrectStage(restorer), CfoRestoreStage(restorer)])
        rng = np.random.default_rng(17)
        x = rng.normal(size=900) + 1j * rng.normal(size=900)
        chain.reset()
        out = _stream(chain, x, [37, 5])
        # correct then restore with a shared oscillator is the identity
        assert _rms(out, x) <= 1e-12


class TestFrequencyResponseStage:
    def test_preserves_length_and_reports_latency(self):
        stage = FrequencyResponseStage(
            lambda f: np.exp(-2j * np.pi * f * 25e-9), FS, block_size=256)
        rng = np.random.default_rng(19)
        x = rng.normal(size=1111) + 1j * rng.normal(size=1111)
        out = stage.run(x)
        assert out.shape == x.shape
        assert stage.latency_samples > 0

    def test_flat_response_is_near_identity_in_band(self):
        stage = FrequencyResponseStage(
            lambda f: np.ones_like(np.asarray(f, dtype=float), dtype=complex),
            FS)
        rng = np.random.default_rng(23)
        # In-band tone: flat response with band-edge window passes it.
        n = np.arange(4096)
        x = np.exp(2j * np.pi * 2e6 * n / FS)
        out = stage.run(x)
        mid = slice(600, 3400)
        assert _rms(out[mid], x[mid]) <= 1e-3

    def test_rejects_wrong_rank(self):
        # A scalar response filters one 1-D stream; stacks are refused.
        stage = FrequencyResponseStage(lambda f: np.ones(np.size(f)), FS)
        for shape in [(2, 2, 2), (2, 64), ()]:
            with pytest.raises(ValueError):
                stage.process_block(np.zeros(shape, dtype=complex))


class _TrippingStage(Stage):
    """Raises on the Nth processed block while armed; counts resets."""

    def __init__(self, trip_on=2):
        self.name = "tripwire"
        self.trip_on = trip_on
        self.armed = False
        self.calls = 0
        self.resets = 0

    def reset(self):
        self.resets += 1
        self.calls = 0

    def process_block(self, x):
        self.calls += 1
        if self.armed and self.calls >= self.trip_on:
            raise RuntimeError("injected mid-chain failure")
        return x


class TestChainFailureRecovery:
    """A chain must be fully reusable after a mid-chain stage raises."""

    def _chain(self, trip_on=2):
        tripwire = _TrippingStage(trip_on)
        stage = FrequencyResponseStage(
            lambda f: np.exp(-2j * np.pi * f * 50e-9), FS, block_size=256)
        return Chain([stage, tripwire, GainStage(3.0)]), tripwire

    def test_reset_after_midchain_raise_restores_output(self):
        chain, tripwire = self._chain(trip_on=2)
        rng = np.random.default_rng(29)
        x = rng.normal(size=1500) + 1j * rng.normal(size=1500)
        chain.reset()
        reference = _stream(chain, x, [1500])

        chain.reset()
        tripwire.armed = True
        with pytest.raises(RuntimeError, match="injected"):
            for block in _chunks(x, [300]):     # trips on second block
                chain.process_block(block)

        tripwire.armed = False
        chain.reset()                           # must clear stale state
        again = _stream(chain, x, [1500])
        assert _rms(again, reference) <= 1e-12

    def test_reset_reaches_every_stage_past_the_failure(self):
        chain, tripwire = self._chain(trip_on=1)
        tripwire.armed = True
        with pytest.raises(RuntimeError):
            chain.process_block(np.ones(64, dtype=complex))
        resets_before = tripwire.resets
        chain.reset()
        assert tripwire.resets == resets_before + 1

    def test_flush_after_failed_run_does_not_leak_old_samples(self):
        chain, tripwire = self._chain(trip_on=2)
        rng = np.random.default_rng(31)
        x = rng.normal(size=600) + 1j * rng.normal(size=600)
        chain.reset()
        tripwire.armed = True
        with pytest.raises(RuntimeError):
            for block in _chunks(x, [300]):
                chain.process_block(block)
        tripwire.armed = False
        chain.reset()
        # A pristine chain flushes to (at most) pure zeros — any energy
        # here is state leaked from the failed run.
        tail = chain.flush()
        assert np.all(tail == 0)

    def test_interrupted_chain_is_reusable_for_new_stream(self):
        chain, tripwire = self._chain(trip_on=3)
        rng = np.random.default_rng(37)
        a = rng.normal(size=900) + 1j * rng.normal(size=900)
        b = rng.normal(size=900) + 1j * rng.normal(size=900)
        chain.reset()
        ref_b = _stream(chain, b, [900])
        chain.reset()
        tripwire.armed = True
        with pytest.raises(RuntimeError):
            for block in _chunks(a, [300]):
                chain.process_block(block)
        tripwire.armed = False
        chain.reset()
        assert _rms(_stream(chain, b, [900]), ref_b) <= 1e-12


# -- one-shot reach: frames meet only the kernel taps that reach them ------

@pytest.fixture(scope="module")
def links():
    """One relay per link kind: kind -> (relay, full-kernel half-width).

    ``ideal`` is a SISO link without the §3.4 decomposition, whose
    linearly interpolated response keeps ~8,000 kernel taps.
    """
    relays = {"ideal": _siso_relay(seed=43, use_decomposition=False),
              "decomposed": _siso_relay(seed=43),
              "mimo": _mimo_relay(seed=41),
              "mimo-k1": _mimo_k1_relay(seed=41)}
    out = {}
    for kind, relay in relays.items():
        kernel = _cnf_stage(relay.make_chain()).kernel
        out[kind] = (relay, max(kernel.precursor, kernel.postcursor))
    return out


def _cnf_stage(chain):
    return next(s for s in chain.stages
                if isinstance(s, FrequencyResponseStage))


def _frame_length(draw, half_width):
    """1..3000, the 256 edges, or a length beside the kernel half-width."""
    return draw(st.one_of(
        st.integers(1, 3000),
        st.sampled_from([255, 256, 257]),
        st.integers(half_width - 1, half_width + 2)))


def _max_rel_err(y, ref):
    return float(np.max(np.abs(y - ref)) / np.max(np.abs(ref)))


class TestOneShotReach:
    """``process`` clips the kernel to a frame's reach; output is unchanged.

    The oracle is the full-kernel streaming chain of :meth:`make_chain`,
    pumped block by block: an ``n``-sample frame, zero outside, only
    meets taps at lags ``|k| <= n - 1``, so the clipped one-shot chain
    must agree with it to round-off.
    """

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(),
           kind=st.sampled_from(["ideal", "decomposed", "mimo"]),
           cfo_hz=st.sampled_from([0.0, 1.3e3]),
           block=st.sampled_from([256, 1024, 4096]))
    def test_process_matches_full_kernel_stream(self, links, data, kind,
                                                cfo_hz, block):
        relay, half_width = links[kind]
        n = _frame_length(data.draw, half_width)
        rng = np.random.default_rng(n)
        shape = (2, n) if kind == "mimo" else (n,)
        x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        chain = relay.make_chain(cfo_hz=cfo_hz, block_size=block)
        chain.reset()
        reference = _stream(chain, x, [block])
        assert _max_rel_err(relay.process(x, cfo_hz=cfo_hz),
                            reference) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_apply_frequency_response_matches_full_kernel(self, links, data):
        from repro.dsp.spectrum import apply_frequency_response

        relay, half_width = links["ideal"]
        response_fn = relay._siso_response_fn()
        n = _frame_length(data.draw, half_width)
        rng = np.random.default_rng(n)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        key = ("one-shot-reach", id(relay))
        reference = FrequencyResponseStage(
            response_fn, FS, block_size=min(n, 8192), cache_key=key).run(x)
        assert _max_rel_err(
            apply_frequency_response(x, response_fn, FS, cache_key=key),
            reference) <= 1e-12

    def test_short_frame_runs_a_frame_sized_fft(self, links, monkeypatch):
        relay, half_width = links["ideal"]
        assert 2 * half_width + 1 > 4000          # the full kernel
        seen = []
        push = FrequencyResponseStage.process_block

        def spy(stage, x):
            seen.append((stage.fft_size, stage.latency_samples))
            return push(stage, x)

        monkeypatch.setattr(FrequencyResponseStage, "process_block", spy)
        rng = np.random.default_rng(47)
        relay.process(rng.normal(size=256) + 1j * rng.normal(size=256))
        assert seen and all(fft <= 1024 and lookahead <= 255
                            for fft, lookahead in seen)

    def test_frame_stage_refuses_a_longer_stream(self, links):
        relay, _ = links["ideal"]
        stage = FrequencyResponseStage(relay._siso_response_fn(), FS,
                                       frame_samples=300)
        assert stage.latency_samples <= 299
        x = np.ones(301, dtype=complex)
        stage.process_block(x[:300])
        with pytest.raises(ValueError, match="300-sample frames"):
            stage.process_block(x[300:])
        stage.reset()
        with pytest.raises(ValueError, match="300-sample frames"):
            stage.process_block(x)
        stage.reset()
        assert stage.run(x[:300]).shape == (300,)


class TestWholeFrameTransform:
    """A one-shot frame runs one circular convolution when it is smaller.

    ``process`` builds its spectral stage for frames of up to
    ``N = next_pow2(n)`` samples; the stage runs the frame as one
    ``next_pow2(N + max(precursor, postcursor))``-point circular
    convolution whenever that is no larger than its overlap-save
    transform.  The oracle is the full-kernel overlap-save streaming
    chain, as in :class:`TestOneShotReach`.  The frames run from one
    sample to 4,096, so the ideal and MIMO kernels (~8,000 taps) are
    longer than every frame and the decomposed kernel (~500 taps)
    shorter than most.
    """

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(),
           kind=st.sampled_from(["ideal", "decomposed", "mimo", "mimo-k1"]),
           cfo_hz=st.sampled_from([0.0, 1.3e3]))
    def test_matches_full_kernel_stream(self, links, data, kind, cfo_hz):
        relay, _ = links[kind]
        frame = data.draw(st.sampled_from([1, 2, 64, 256, 1024, 4096]))
        n = data.draw(st.integers(frame // 2 + 1, frame))    # bucket
        stage = _cnf_stage(relay._memoised_chain(FS, cfo_hz, n))
        kernel = stage.kernel
        assert (stage.fft_size, stage.hop) == (
            next_pow2(frame + max(kernel.precursor, kernel.postcursor)),
            frame)
        rng = np.random.default_rng(n)
        shape = (n,) if kind in ("ideal", "decomposed") \
            else (relay._mimo_f0.shape[1], n)
        x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        chain = relay.make_chain(cfo_hz=cfo_hz, block_size=1024)
        chain.reset()
        reference = _stream(chain, x, [1024])
        assert _max_rel_err(relay.process(x, cfo_hz=cfo_hz),
                            reference) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(pre=st.integers(0, 40), post=st.integers(0, 40),
           n=st.integers(1, 60), seed=st.integers(0, 2**16),
           pow2=st.booleans())
    def test_circular_layout_is_aligned_linear_convolution(
            self, pre, post, n, seed, pow2):
        # The layout behind the rule, on asymmetric kernels (the
        # designed ones are symmetric, so the relay cannot tell max
        # from min): an n-sample frame comes out of one circular
        # convolution aligned and unaliased once the transform holds
        # n + max(precursor, postcursor) points.
        from repro.runtime.kernels import SpectralKernel

        rng = np.random.default_rng(seed)
        fir = rng.normal(size=pre + post + 1) \
            + 1j * rng.normal(size=pre + post + 1)
        kernel = SpectralKernel(fir=fir, precursor=pre, sample_rate_hz=FS)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        size = max(n + max(pre, post), kernel.length)
        if pow2:
            size = next_pow2(size)
        y = np.fft.ifft(np.fft.fft(x, size)
                        * kernel.circular_spectrum(size))[:n]
        reference = np.convolve(x, fir)[pre:pre + n]
        assert np.max(np.abs(y - reference)) \
            <= 1e-12 * np.max(np.abs(reference))

    def test_any_chunking_of_the_frame(self, links):
        relay, _ = links["ideal"]
        response_fn = relay._siso_response_fn()
        stage = FrequencyResponseStage(response_fn, FS, block_size=300,
                                       frame_samples=300)
        assert stage.hop == 300
        rng = np.random.default_rng(5)
        x = rng.normal(size=300) + 1j * rng.normal(size=300)
        whole = stage.run(x)
        stage.reset()
        parts = [stage.process_block(b) for b in _chunks(x, [1, 7, 97])]
        assert all(p.shape == (0,) for p in parts)
        assert np.array_equal(stage.flush(), whole)
        assert stage.flush().shape == (0,)

    def test_service_bucket_runs_a_512_point_transform(self):
        from repro.service.scheduler import ChainPool

        relay = ChainPool(seed=2014).entry("chain-0").relay
        assert relay._decomposition is None          # an ideal SISO link
        stage = _cnf_stage(relay._memoised_chain(FS, 0.0, 256))
        assert (stage.fft_size, stage.hop) == (512, 256)

    def test_long_decomposed_frame_keeps_overlap_save(self, links):
        relay, _ = links["decomposed"]
        stage = _cnf_stage(relay._memoised_chain(FS, 0.0, 16384))
        length = stage.kernel.length
        assert length < 2000
        assert stage.fft_size == next_pow2(max(2 * length,
                                               length - 1 + 4096))
        assert stage.hop == stage.fft_size - (length - 1)
        rng = np.random.default_rng(3)
        x = rng.normal(size=16384) + 1j * rng.normal(size=16384)
        chain = relay.make_chain(block_size=4096)
        chain.reset()
        assert _max_rel_err(relay.process(x),
                            _stream(chain, x, [4096])) <= 1e-12
