"""End-to-end transmitter and receiver over the OFDM PHY.

These are the "AP" and "client" of the paper's experiments: the
transmitter produces sample-level PPDU waveforms (optionally with a
prepended PN signature for relay identification), and the receiver runs
the full chain — detection, CFO correction, channel estimation,
equalisation, demapping, deinterleaving, depuncturing, Viterbi decoding,
descrambling and CRC check.

Crucially, the receiver has *no idea* a FastForward relay exists: any
relayed energy arriving within the CP simply changes the channel
estimate it measures from the LTF, which is the whole point (§3.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.phy.channel_est import estimate_channel_ls, estimate_mimo_channel
from repro.phy.coding import (
    BlockInterleaver,
    ViterbiDecoder,
    depuncture,
    coded_length,
    descramble,
)
from repro.phy.frame import (
    HEADER_INFO_BITS,
    HEADER_SYMBOLS,
    build_ppdu,
    crc32,
    interleaver_columns,
    parse_ppdu_header,
)
from repro.phy.modulation import modulation_by_name
from repro.phy.ofdm import OfdmDemodulator, OfdmModulator
from repro.phy.params import OfdmParams, WIFI_20MHZ
from repro.phy.preamble import Preamble
from repro.phy.rates import MCS_TABLE
from repro.phy.sync import PacketDetector, apply_cfo, fine_cfo_from_ltf
from repro.utils.validation import ensure_complex_1d


@dataclass
class TxConfig:
    """Transmitter configuration."""

    # default_factory: dataclass class-attribute defaults are shared
    # across instances, which is safe only because OfdmParams is frozen;
    # a factory keeps each config independent regardless.
    params: OfdmParams = field(default_factory=lambda: WIFI_20MHZ)
    mcs_index: int = 0
    num_streams: int = 1
    scrambler_seed: int = 0x5D
    tx_power_dbm: float = 20.0

    def __post_init__(self):
        if not 0 <= self.mcs_index < len(MCS_TABLE):
            raise ValueError(f"mcs_index out of range: {self.mcs_index}")
        if self.num_streams < 1:
            raise ValueError(f"num_streams must be >= 1, got {self.num_streams}")
        if not 1 <= self.scrambler_seed <= 0x7F:
            raise ValueError("scrambler_seed must be a non-zero 7-bit value")


@dataclass
class RxResult:
    """Receiver output for one packet attempt."""

    success: bool
    payload_bits: np.ndarray = field(default_factory=lambda: np.array([], dtype=int))
    frame: object = None
    cfo_hz: float = 0.0
    channel: np.ndarray = None
    snr_estimate_db: float = float("nan")
    failure_reason: str = ""


class Transmitter:
    """Builds sample-level PPDU waveforms from payload bits."""

    def __init__(self, config: TxConfig = None):
        self.config = config or TxConfig()
        self.params = self.config.params
        self.preamble = Preamble(self.params, num_streams=self.config.num_streams)
        self.modulator = OfdmModulator(self.params)

    def transmit(self, payload_bits, signature=None):
        """Produce the transmit waveform(s) for one packet.

        Returns shape ``(num_streams, n_samples)``.  ``signature`` is an
        optional complex sequence prepended ahead of the preamble on
        stream 0 (the paper's downlink PN identifier, §6); legacy
        receivers ignore it because decoding starts at the STF.

        For multi-stream configs the payload is split round-robin across
        streams, each independently framed (header carries the stream
        count so the receiver reassembles in order).
        """
        payload_bits = np.asarray(payload_bits, dtype=int).ravel()
        cfg = self.config
        n_streams = cfg.num_streams
        pre_waves = self.preamble.per_stream_waveforms()

        chunks = [payload_bits[s::n_streams] for s in range(n_streams)]
        bodies = []
        for s, chunk in enumerate(chunks):
            wave, _ = build_ppdu(chunk, self.params, cfg.mcs_index,
                                 scrambler_seed=cfg.scrambler_seed,
                                 modulator=self.modulator)
            bodies.append(wave)
        body_len = max(b.size for b in bodies)
        out_len = pre_waves.shape[1] + body_len
        sig = np.asarray(signature, dtype=complex) if signature is not None else None
        offset = sig.size if sig is not None else 0
        waves = np.zeros((n_streams, out_len + offset), dtype=complex)
        if sig is not None:
            waves[0, : sig.size] = sig
        for s in range(n_streams):
            waves[s, offset : offset + pre_waves.shape[1]] = pre_waves[s]
            start = offset + pre_waves.shape[1]
            waves[s, start : start + bodies[s].size] = bodies[s]
        return waves

    def header_is_multistream_aware(self):
        """True — stream count travels in each per-stream header."""
        return True


class MimoReceiver:
    """Receive chain for two-stream spatial-multiplexing PPDUs.

    Detection and synchronisation run on the legacy preamble (carried on
    stream 0); the per-stream channels come from the time-orthogonal
    HT-LTFs; data symbols are separated per subcarrier with a linear
    MMSE detector and each stream's PPDU is decoded independently, then
    the round-robin payload split of :meth:`Transmitter.transmit` is
    reassembled.

    CFO correction uses the preamble estimates applied to both antennas
    (one oscillator per device); pilot-based CPE tracking is not
    available in this mode because both streams transmit the same pilot
    values, so residual CFO tolerance is lower than the SISO chain's.
    """

    def __init__(self, params: OfdmParams = WIFI_20MHZ,
                 detection_threshold=0.8, num_streams=2):
        if num_streams < 1:
            raise ValueError(f"num_streams must be >= 1, got {num_streams}")
        self.params = params
        self.num_streams = num_streams
        self.detector = PacketDetector(params, threshold=detection_threshold)
        self.demod = OfdmDemodulator(params)
        self.preamble = Preamble(params, num_streams=num_streams)
        self._inner = Receiver(params, detection_threshold=detection_threshold)

    def _equalized_streams(self, body, h_used, noise_var, num_symbols):
        """Per-stream equalised data symbols, shape (streams, syms, 52).

        All symbols are FFT'd in one batched pass and the linear MMSE
        solve runs once per data tone over every symbol at once (the
        Gram matrix is symbol-independent).  The stacked matmul and
        multi-RHS solve are bitwise identical to the original
        per-symbol gemv/solve, which the equivalence tests keep as
        their oracle (``tests/phy_oracle.py``).
        """
        p = self.params
        used = np.asarray(p.used_subcarriers())
        data_pos = np.searchsorted(used, np.asarray(p.data_subcarriers))
        tone_scale = np.sqrt(p.fft_size / p.num_used_subcarriers)
        n_streams = self.num_streams
        out = np.empty((n_streams, num_symbols, len(p.data_subcarriers)),
                       dtype=complex)
        eye = np.eye(n_streams)
        # (num_rx, num_symbols, fft) grids in one batched FFT per antenna.
        grids = np.stack([self.demod.demodulate_symbols(body[r], num_symbols)
                          for r in range(body.shape[0])])
        used_vals = grids[:, :, used % p.fft_size] / tone_scale
        for d_idx, pos in enumerate(data_pos):
            h = h_used[pos]              # (num_rx, num_streams)
            hc = h.conj().T
            gram = hc @ h + noise_var * eye
            y = used_vals[:, :, pos]     # (num_rx, num_symbols)
            # Stacked gemv (one matmul slice per symbol) == per-symbol
            # ``hc @ y_i`` bitwise; a plain gemm would not be.
            rhs = np.matmul(np.broadcast_to(hc, (num_symbols, *hc.shape)),
                            y.T[:, :, None])[..., 0]
            out[:, :, d_idx] = np.linalg.solve(gram, rhs.T)
        return out

    def receive(self, samples, correct_cfo=True):
        """Receive one multi-stream packet from (num_rx, n) samples."""
        samples = np.atleast_2d(np.asarray(samples, dtype=complex))
        num_rx = samples.shape[0]
        p = self.params
        det = self.detector.detect(samples[0])
        if det is None:
            return RxResult(success=False, failure_reason="no packet detected")
        x = samples[:, det.start:]
        cfo_total = 0.0
        if correct_cfo:
            x = np.stack([apply_cfo(row, -det.coarse_cfo_hz, p.bandwidth_hz)
                          for row in x])
            cfo_total += det.coarse_cfo_hz
        stf_len = self.preamble.stf_samples
        try:
            fine = fine_cfo_from_ltf(x[0], p, stf_len) if correct_cfo else 0.0
        except ValueError:
            return RxResult(success=False, failure_reason="truncated LTF",
                            cfo_hz=cfo_total)
        if correct_cfo:
            x = np.stack([apply_cfo(row, -fine, p.bandwidth_hz) for row in x])
            cfo_total += fine

        # Noise estimate from the two identical L-LTF bodies on rx 0.
        ltf_start = stf_len + 2 * p.cp_len
        body1 = x[0, ltf_start : ltf_start + p.fft_size]
        body2 = x[0, ltf_start + p.fft_size : ltf_start + 2 * p.fft_size]
        if body2.size < p.fft_size:
            return RxResult(success=False, failure_reason="truncated LTF",
                            cfo_hz=cfo_total)
        noise_var = float(np.mean(np.abs(body1 - body2) ** 2) / 2.0)
        noise_var = max(noise_var, 1e-12)

        ht_start = stf_len + self.preamble.ltf_samples
        ht = x[:, ht_start : ht_start + self.preamble.ht_ltf_samples]
        if ht.shape[1] < self.preamble.ht_ltf_samples:
            return RxResult(success=False, failure_reason="truncated HT-LTF",
                            cfo_hz=cfo_total)
        h_used = estimate_mimo_channel(ht, p, self.num_streams)

        body = x[:, ht_start + self.preamble.ht_ltf_samples:]
        if body.shape[1] < HEADER_SYMBOLS * p.symbol_len:
            return RxResult(success=False, failure_reason="truncated header",
                            cfo_hz=cfo_total, channel=h_used)
        hdr = self._equalized_streams(body, h_used, noise_var, HEADER_SYMBOLS)

        # Header Viterbi runs once for all streams (batched ACS).
        hdr_bits = self._inner._viterbi.decode_batch(
            [self._inner._header_llrs(hdr[s], noise_var)
             for s in range(self.num_streams)], terminated=True)
        frames = []
        max_payload_syms = 0
        for s in range(self.num_streams):
            frame = self._inner._header_from_bits(hdr_bits[s])
            if frame is None:
                return RxResult(success=False,
                                failure_reason=f"stream {s} header CRC failed",
                                cfo_hz=cfo_total, channel=h_used)
            frames.append(frame)
            max_payload_syms = max(max_payload_syms,
                                   self._inner.payload_symbol_count(frame))
        payload_body = body[:, HEADER_SYMBOLS * p.symbol_len:]
        if payload_body.shape[1] < max_payload_syms * p.symbol_len:
            return RxResult(success=False, failure_reason="truncated payload",
                            cfo_hz=cfo_total, channel=h_used)
        eq = self._equalized_streams(payload_body, h_used, noise_var,
                                     max_payload_syms)
        # Payload Viterbi likewise decodes every stream in one batch.
        softs = [self._inner._payload_soft(
                     eq[s][: self._inner.payload_symbol_count(frame)],
                     noise_var, frame)
                 for s, frame in enumerate(frames)]
        decoded = iter(self._inner._viterbi.decode_batch(
            [s for s in softs if s is not None], terminated=True))
        payloads = []
        for s, frame in enumerate(frames):
            bits = None if softs[s] is None else \
                self._inner._payload_from_bits(next(decoded), frame)
            if bits is None:
                return RxResult(success=False,
                                failure_reason=f"stream {s} payload CRC failed",
                                cfo_hz=cfo_total, channel=h_used,
                                frame=frame)
            payloads.append(bits)

        total = sum(b.size for b in payloads)
        out = np.empty(total, dtype=int)
        for s, bits in enumerate(payloads):
            out[s::self.num_streams] = bits
        snr_db = float(10.0 * np.log10(1.0 / noise_var))
        return RxResult(success=True, payload_bits=out, frame=frames[0],
                        cfo_hz=cfo_total, channel=h_used,
                        snr_estimate_db=snr_db)


class Receiver:
    """Full receive chain for single- and dual-stream PPDUs."""

    def __init__(self, params: OfdmParams = WIFI_20MHZ, detection_threshold=0.8):
        self.params = params
        self.detector = PacketDetector(params, threshold=detection_threshold)
        self.demod = OfdmDemodulator(params)
        self.preamble = Preamble(params)
        self._viterbi = ViterbiDecoder()

    # -- pipeline pieces -------------------------------------------------

    def _equalize_symbols(self, samples, channel_used, num_symbols,
                          start_symbol_index=0):
        """Equalise data tones of ``num_symbols`` OFDM symbols.

        Also applies pilot-based common-phase-error correction per
        symbol.  ``channel_used`` holds the channel on used tones sorted
        by signed subcarrier index.

        All symbols are FFT'd and zero-forced in one batched pass; only
        the tiny pilot CPE estimate (a 4-element ``vdot`` whose pairwise
        summation order matters for bit-identity) stays per-symbol.
        """
        p = self.params
        used = np.asarray(p.used_subcarriers())
        data_pos = np.searchsorted(used, np.asarray(p.data_subcarriers))
        pilot_pos = np.searchsorted(used, np.asarray(p.pilot_subcarriers))
        mod = OfdmModulator(p)
        tone_scale = np.sqrt(p.fft_size / p.num_used_subcarriers)

        grids = self.demod.demodulate_symbols(samples, num_symbols)
        used_vals = grids[:, used % p.fft_size] / tone_scale
        h = channel_used
        ok = np.abs(h) > 1e-12
        eq_used = np.where(ok, used_vals / np.where(ok, h, 1.0), 0.0)
        expected = mod.pilot_values_many(
            start_symbol_index + np.arange(num_symbols))
        got = eq_used[:, pilot_pos]
        cpes = np.empty(num_symbols, dtype=complex)
        noise_acc = np.empty(num_symbols, dtype=float)
        for i in range(num_symbols):
            ref = np.vdot(expected[i], got[i])
            cpe = ref / abs(ref) if abs(ref) > 0 else 1.0
            cpes[i] = cpe
            noise_acc[i] = np.mean(np.abs(got[i] / cpe - expected[i]) ** 2)
        eq = eq_used[:, data_pos] / cpes[:, None] if num_symbols else \
            eq_used[:, data_pos]
        noise_var = float(np.mean(noise_acc)) if num_symbols else 1e-3
        return eq, max(noise_var, 1e-9)

    def _header_llrs(self, eq_symbols, noise_var):
        """Soft header metrics (deinterleaved LLRs) from equalised symbols."""
        p = self.params
        n_data = p.num_data_subcarriers
        bpsk = modulation_by_name("bpsk")
        interleaver = BlockInterleaver(n_data, 1,
                                       num_columns=interleaver_columns(n_data))
        sym_llrs = bpsk.demodulate_llr(
            np.asarray(eq_symbols)[:HEADER_SYMBOLS].reshape(-1), noise_var)
        llrs = interleaver.deinterleave_block(
            sym_llrs.reshape(HEADER_SYMBOLS, n_data)).reshape(-1)
        # Wide tone plans zero-fill the header symbols; only the first
        # 2*(info+tail) coded bits carry the header.
        return llrs[: 2 * (HEADER_INFO_BITS + 6)]

    @staticmethod
    def _header_from_bits(bits):
        """Viterbi output -> PhyFrame or None."""
        if bits.size < HEADER_INFO_BITS:
            return None
        return parse_ppdu_header(bits[:HEADER_INFO_BITS])

    def _decode_header(self, eq_symbols, noise_var):
        """Decode the two BPSK header symbols -> PhyFrame or None."""
        llrs = self._header_llrs(eq_symbols, noise_var)
        bits = self._viterbi.decode(llrs, terminated=True)
        return self._header_from_bits(bits)

    def _payload_soft(self, eq_symbols, noise_var, frame):
        """Depunctured payload soft metrics, or None if truncated.

        The demap runs over every payload symbol in one call (the LLR
        computation is elementwise per constellation point) and the
        deinterleave is one block scatter — both bitwise identical to
        the per-symbol loop they replace.
        """
        entry = frame.mcs
        p = self.params
        n_data = p.num_data_subcarriers
        n_cbps = n_data * entry.bits_per_symbol
        modulation = modulation_by_name(entry.modulation_name)
        interleaver = BlockInterleaver(n_cbps, entry.bits_per_symbol,
                                       num_columns=interleaver_columns(n_data))
        llr = modulation.demodulate_llr(
            np.asarray(eq_symbols).reshape(-1), noise_var)
        llrs = interleaver.deinterleave_block(
            llr.reshape(-1, n_cbps)).reshape(-1)

        from repro.phy.frame import payload_padding
        pad = payload_padding(frame.length_bits, frame.mcs_index, n_cbps)
        info_len = frame.length_bits + 32 + pad
        mother_len = 2 * (info_len + 6)
        expected = coded_length(info_len, entry.code_rate)
        if llrs.size < expected:
            return None
        return depuncture(llrs[:expected], entry.code_rate, mother_len)

    @staticmethod
    def _payload_from_bits(decoded, frame):
        """Viterbi output -> descrambled, CRC-checked payload or None."""
        descrambled = descramble(decoded, seed=frame.scrambler_seed)
        payload = descrambled[: frame.length_bits]
        check = descrambled[frame.length_bits : frame.length_bits + 32]
        if not np.array_equal(crc32(payload), check):
            return None
        return payload

    def _decode_payload(self, eq_symbols, noise_var, frame):
        """Decode payload symbols using header info -> bits or None."""
        soft = self._payload_soft(eq_symbols, noise_var, frame)
        if soft is None:
            return None
        decoded = self._viterbi.decode(soft, terminated=True)
        return self._payload_from_bits(decoded, frame)

    def payload_symbol_count(self, frame):
        """Number of payload OFDM symbols implied by a header."""
        entry = frame.mcs
        n_cbps = self.params.num_data_subcarriers * entry.bits_per_symbol
        from repro.phy.frame import payload_padding
        pad = payload_padding(frame.length_bits, frame.mcs_index, n_cbps)
        return coded_length(frame.length_bits + 32 + pad, entry.code_rate) // n_cbps

    # -- staged receive --------------------------------------------------
    #
    # The receive chain is split at its two Viterbi calls so that
    # ``receive_batch`` can run the decoder once per *batch* of packets
    # (vectorised ACS across packets) while ``receive`` threads the same
    # stages with single-packet decodes.  Both paths therefore produce
    # bitwise-identical results by construction.

    def _receive_front(self, samples, correct_cfo):
        """Sync + channel estimate + header soft metrics for one stream.

        Returns a state dict on success or a terminal :class:`RxResult`
        for early failures (no packet, truncated preamble/header).
        """
        samples = ensure_complex_1d(samples, "samples")
        det = self.detector.detect(samples)
        if det is None:
            return RxResult(success=False, failure_reason="no packet detected")
        p = self.params
        x = samples[det.start:]
        cfo_total = 0.0
        if correct_cfo:
            x = apply_cfo(x, -det.coarse_cfo_hz, p.bandwidth_hz)
            cfo_total += det.coarse_cfo_hz

        stf_len = self.preamble.stf_samples
        try:
            fine = fine_cfo_from_ltf(x, p, stf_len) if correct_cfo else 0.0
        except ValueError:
            return RxResult(success=False, failure_reason="truncated LTF",
                            cfo_hz=cfo_total)
        if correct_cfo:
            x = apply_cfo(x, -fine, p.bandwidth_hz)
            cfo_total += fine

        ltf = x[stf_len : stf_len + self.preamble.ltf_samples]
        if ltf.size < self.preamble.ltf_samples:
            return RxResult(success=False, failure_reason="truncated LTF",
                            cfo_hz=cfo_total)
        channel = estimate_channel_ls(ltf, p)

        body = x[stf_len + self.preamble.ltf_samples + self.preamble.ht_ltf_samples:]
        if body.size < HEADER_SYMBOLS * p.symbol_len:
            return RxResult(success=False, failure_reason="truncated header",
                            cfo_hz=cfo_total, channel=channel)
        hdr_eq, hdr_noise = self._equalize_symbols(
            body, channel, HEADER_SYMBOLS, start_symbol_index=0)
        return {
            "body": body,
            "channel": channel,
            "cfo": cfo_total,
            "header_soft": self._header_llrs(hdr_eq, hdr_noise),
        }

    def _payload_stage(self, state, frame):
        """Equalise + demap the payload once the header is known.

        Returns the depunctured soft metrics, ``None`` when the demapped
        stream is shorter than the coded length (decoded as a CRC
        failure, matching the legacy path), or a terminal
        :class:`RxResult` for truncated sample streams.
        """
        p = self.params
        n_payload = self.payload_symbol_count(frame)
        payload_samples = state["body"][HEADER_SYMBOLS * p.symbol_len:]
        if payload_samples.size < n_payload * p.symbol_len:
            return RxResult(success=False, failure_reason="truncated payload",
                            cfo_hz=state["cfo"], channel=state["channel"],
                            frame=frame)
        pay_eq, pay_noise = self._equalize_symbols(
            payload_samples, state["channel"], n_payload,
            start_symbol_index=HEADER_SYMBOLS)
        state["pay_noise"] = pay_noise
        return self._payload_soft(pay_eq, pay_noise, frame)

    def _finish_payload(self, state, frame, decoded):
        """CRC-check decoded payload bits and build the final RxResult."""
        pay_noise = state["pay_noise"]
        snr_db = float(10.0 * np.log10(1.0 / pay_noise)) \
            if pay_noise > 0 else float("inf")
        payload = self._payload_from_bits(decoded, frame) \
            if decoded is not None else None
        if payload is None:
            return RxResult(success=False, failure_reason="payload CRC failed",
                            cfo_hz=state["cfo"], channel=state["channel"],
                            frame=frame, snr_estimate_db=snr_db)
        return RxResult(success=True, payload_bits=payload, frame=frame,
                        cfo_hz=state["cfo"], channel=state["channel"],
                        snr_estimate_db=snr_db)

    # -- public API ------------------------------------------------------

    def receive(self, samples, correct_cfo=True):
        """Receive one SISO packet from a raw sample stream."""
        state = self._receive_front(samples, correct_cfo)
        if isinstance(state, RxResult):
            return state
        hdr_bits = self._viterbi.decode(state["header_soft"], terminated=True)
        frame = self._header_from_bits(hdr_bits)
        if frame is None:
            return RxResult(success=False, failure_reason="header CRC failed",
                            cfo_hz=state["cfo"], channel=state["channel"])
        soft = self._payload_stage(state, frame)
        if isinstance(soft, RxResult):
            return soft
        decoded = self._viterbi.decode(soft, terminated=True) \
            if soft is not None else None
        return self._finish_payload(state, frame, decoded)

    def receive_batch(self, streams, correct_cfo=True):
        """Receive many independent SISO packets in one batched pass.

        ``streams`` is a sequence of raw sample arrays, one packet
        attempt per entry.  Front-end sync and equalisation run per
        stream (streams have independent lengths and channels) but the
        two Viterbi decodes — the dominant cost — run batched across
        every packet of the block via
        :meth:`~repro.phy.coding.viterbi.ViterbiDecoder.decode_batch`.

        Returns a list of :class:`RxResult`, one per input stream,
        bitwise identical to ``[self.receive(s) for s in streams]``.
        """
        states = [self._receive_front(s, correct_cfo) for s in streams]
        results = [s if isinstance(s, RxResult) else None for s in states]

        live = [i for i, s in enumerate(states) if results[i] is None]
        hdr_bits = self._viterbi.decode_batch(
            [states[i]["header_soft"] for i in live], terminated=True)

        payload_jobs = []   # (stream index, frame, soft metrics)
        for i, bits in zip(live, hdr_bits):
            state = states[i]
            frame = self._header_from_bits(bits)
            if frame is None:
                results[i] = RxResult(
                    success=False, failure_reason="header CRC failed",
                    cfo_hz=state["cfo"], channel=state["channel"])
                continue
            soft = self._payload_stage(state, frame)
            if isinstance(soft, RxResult):
                results[i] = soft
            elif soft is None:
                results[i] = self._finish_payload(state, frame, None)
            else:
                payload_jobs.append((i, frame, soft))

        decoded = self._viterbi.decode_batch(
            [soft for _, _, soft in payload_jobs], terminated=True)
        for (i, frame, _), bits in zip(payload_jobs, decoded):
            results[i] = self._finish_payload(states[i], frame, bits)
        return results
