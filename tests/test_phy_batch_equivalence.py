"""Batched PHY fast path vs per-packet references — bit-identity.

The batched paths (`OfdmModulator.modulate`, `demodulate_symbols`,
`ViterbiDecoder.decode`/`decode_batch`, the MMSE multi-RHS solve,
`Receiver.receive_batch`) are optimisations, not approximations: every
test here asserts ``array_equal`` (exact bits), never ``allclose``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy import Receiver, Transmitter, TxConfig, WIFI_20MHZ
from repro.phy.coding.scrambler import Scrambler
from repro.phy.coding.viterbi import ViterbiDecoder
from repro.phy.frame import crc32
from repro.phy.ofdm import OfdmDemodulator, OfdmModulator
from repro.phy.transceiver import MimoReceiver
from repro.utils import awgn_like, make_rng
from tests.phy_oracle import equalized_streams_reference, viterbi_decode_reference


class TestViterbiBatched:
    @given(seed=st.integers(0, 2**32 - 1), n_info=st.integers(1, 80),
           terminated=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_decode_matches_reference(self, seed, n_info, terminated):
        rng = np.random.default_rng(seed)
        llrs = rng.normal(size=2 * (n_info + 6))
        dec = ViterbiDecoder()
        fast = dec.decode(llrs, terminated=terminated)
        ref = viterbi_decode_reference(dec, llrs, terminated=terminated)
        assert np.array_equal(fast, ref)

    @given(seed=st.integers(0, 2**32 - 1),
           lengths=st.lists(st.integers(1, 60), min_size=1, max_size=6),
           terminated=st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_decode_batch_matches_per_packet(self, seed, lengths,
                                             terminated):
        rng = np.random.default_rng(seed)
        llr_list = [rng.normal(size=2 * (n + 6)) for n in lengths]
        dec = ViterbiDecoder()
        batch = dec.decode_batch(llr_list, terminated=terminated)
        assert len(batch) == len(llr_list)
        for out, llrs in zip(batch, llr_list):
            assert np.array_equal(out,
                                  dec.decode(llrs, terminated=terminated))

    def test_decode_batch_mixed_lengths_grouped(self):
        # Equal-length packets share one stacked trellis pass; different
        # lengths fall into different groups — order must be preserved.
        rng = np.random.default_rng(7)
        lengths = [10, 40, 10, 25, 40, 10]
        llr_list = [rng.normal(size=2 * (n + 6)) for n in lengths]
        dec = ViterbiDecoder()
        batch = dec.decode_batch(llr_list)
        for out, llrs in zip(batch, llr_list):
            assert np.array_equal(out, dec.decode(llrs))


class TestOfdmBatched:
    @given(seed=st.integers(0, 2**32 - 1), n_syms=st.integers(1, 6),
           start=st.integers(0, 200))
    @settings(max_examples=25, deadline=None)
    def test_modulate_matches_per_symbol(self, seed, n_syms, start):
        rng = np.random.default_rng(seed)
        mod = OfdmModulator(WIFI_20MHZ)
        n_data = WIFI_20MHZ.num_data_subcarriers
        syms = rng.normal(size=n_syms * n_data) \
            + 1j * rng.normal(size=n_syms * n_data)
        batched = mod.modulate(syms, start_symbol_index=start)
        per_symbol = np.concatenate([
            mod.modulate_symbol(syms[i * n_data:(i + 1) * n_data],
                                symbol_index=start + i)
            for i in range(n_syms)])
        assert np.array_equal(batched, per_symbol)

    @given(seed=st.integers(0, 2**32 - 1), n_syms=st.integers(1, 6),
           extra=st.integers(0, 79))
    @settings(max_examples=25, deadline=None)
    def test_demodulate_symbols_matches_per_symbol(self, seed, n_syms,
                                                   extra):
        rng = np.random.default_rng(seed)
        demod = OfdmDemodulator(WIFI_20MHZ)
        sym_len = WIFI_20MHZ.symbol_len
        n = n_syms * sym_len + extra
        samples = rng.normal(size=n) + 1j * rng.normal(size=n)
        batched = demod.demodulate_symbols(samples, n_syms)
        for i in range(n_syms):
            one = demod.demodulate_symbol(
                samples[i * sym_len:(i + 1) * sym_len])
            assert np.array_equal(batched[i], one)

    def test_pilot_values_many_matches_scalar(self):
        mod = OfdmModulator(WIFI_20MHZ)
        indices = np.arange(0, 300, 7)
        many = mod.pilot_values_many(indices)
        for row, idx in zip(many, indices):
            assert np.array_equal(row, mod.pilot_values(int(idx)))


class TestMimoEqualizerBatched:
    @given(seed=st.integers(0, 2**32 - 1), n_syms=st.integers(1, 5),
           shape=st.sampled_from([(2, 2), (3, 2), (2, 1), (4, 3)]))
    @settings(max_examples=20, deadline=None)
    def test_matches_reference_loop(self, seed, n_syms, shape):
        num_rx, num_streams = shape
        rng = np.random.default_rng(seed)
        rx = MimoReceiver(num_streams=num_streams)
        p = WIFI_20MHZ
        n = n_syms * p.symbol_len
        body = rng.normal(size=(num_rx, n)) \
            + 1j * rng.normal(size=(num_rx, n))
        n_used = p.num_used_subcarriers
        h_used = rng.normal(size=(n_used, num_rx, num_streams)) \
            + 1j * rng.normal(size=(n_used, num_rx, num_streams))
        noise_var = float(10.0 ** rng.uniform(-4, 0))
        fast = rx._equalized_streams(body, h_used, noise_var, n_syms)
        ref = equalized_streams_reference(rx, body, h_used, noise_var, n_syms)
        assert np.array_equal(fast, ref)


def _noisy_wave(tx, rng, num_bits, snr_db, prefix=130):
    bits = rng.integers(0, 2, num_bits)
    wave = tx.transmit(bits)[0]
    wave = np.concatenate([np.zeros(prefix, dtype=complex), wave,
                           np.zeros(40, dtype=complex)])
    return bits, wave + awgn_like(wave, 10.0 ** (-snr_db / 10.0), rng)


def _assert_same_result(got, want):
    assert got.success == want.success
    assert got.failure_reason == want.failure_reason
    if want.payload_bits is None:
        assert got.payload_bits is None
    else:
        assert np.array_equal(got.payload_bits, want.payload_bits)
    # NaN-aware: failed detections report the SNR as nan on both paths.
    assert np.array_equal(np.asarray(got.snr_estimate_db, dtype=float),
                          np.asarray(want.snr_estimate_db, dtype=float),
                          equal_nan=True)


class TestReceiveBatch:
    @given(seed=st.integers(0, 2**32 - 1),
           mcs_list=st.lists(st.sampled_from([0, 2, 4, 7]),
                             min_size=1, max_size=3),
           snr_db=st.sampled_from([8.0, 18.0, 30.0]))
    @settings(max_examples=8, deadline=None)
    def test_matches_per_packet_receive(self, seed, mcs_list, snr_db):
        rng = make_rng(seed)
        waves = []
        for mcs in mcs_list:
            tx = Transmitter(TxConfig(mcs_index=mcs))
            _, wave = _noisy_wave(tx, rng, 160, snr_db)
            waves.append(wave)
        rx = Receiver()
        batched = rx.receive_batch(waves)
        for got, wave in zip(batched, waves):
            _assert_same_result(got, rx.receive(wave))

    def test_handles_undetectable_and_truncated_streams(self):
        rng = make_rng(99)
        tx = Transmitter(TxConfig(mcs_index=2))
        _, good = _noisy_wave(tx, rng, 200, 30.0)
        garbage = (rng.normal(size=600) + 1j * rng.normal(size=600)) * 0.01
        truncated = good[: good.size // 3]
        streams = [good, garbage, truncated, good]
        rx = Receiver()
        batched = rx.receive_batch(streams)
        assert len(batched) == len(streams)
        for got, wave in zip(batched, streams):
            _assert_same_result(got, rx.receive(wave))

    def test_empty_batch(self):
        assert Receiver().receive_batch([]) == []


class TestCodingReferences:
    """The tuned helpers vs straightforward bit-level references."""

    @given(seed=st.integers(0, 2**32 - 1), n_bits=st.integers(0, 120))
    @settings(max_examples=30, deadline=None)
    def test_crc32_matches_bitwise_reference(self, seed, n_bits):
        bits = np.random.default_rng(seed).integers(0, 2, n_bits)
        reg = 0xFFFFFFFF
        for b in bits:
            reg ^= int(b) << 31
            reg = ((reg << 1) ^ 0x04C11DB7) & 0xFFFFFFFF \
                if reg & 0x80000000 else (reg << 1) & 0xFFFFFFFF
        reg ^= 0xFFFFFFFF
        want = np.array([(reg >> (31 - i)) & 1 for i in range(32)],
                        dtype=int)
        assert np.array_equal(crc32(bits), want)

    @given(seed=st.integers(1, 0x7F), length=st.integers(0, 400))
    @settings(max_examples=30, deadline=None)
    def test_scrambler_sequence_matches_lfsr(self, seed, length):
        state = seed
        want = np.empty(length, dtype=int)
        for i in range(length):
            out = ((state >> 6) ^ (state >> 3)) & 1
            state = ((state << 1) | out) & 0x7F
            want[i] = out
        assert np.array_equal(Scrambler(seed=seed).sequence(length), want)
