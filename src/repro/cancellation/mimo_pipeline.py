"""MIMO self-interference cancellation (paper Fig. 8, §4.3).

A K-antenna full-duplex relay leaks every TX chain into every RX chain:
K direct (circulator) paths plus K*(K-1) cross-talk paths between
antennas.  The prototype cancels them with one analog board per
(TX, RX) pair — "we require four of them for implementing MIMO full
duplex" for the 2x2 — plus a matrix of causal digital filters.

Tuning uses the same noise-injection idea as the SISO chain, with one
twist: each TX chain injects its *own independent* Gaussian probe, so
the per-pair responses separate statistically even though all chains
transmit simultaneously.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cancellation.analog import AnalogCancellationBoard
from repro.cancellation.digital import CausalDigitalCanceller
from repro.cancellation.pipeline import ConverterFrontEnd, bandlimited_gaussian
from repro.cancellation.si_channel import SelfInterferenceChannel
from repro.channel.noise import DEFAULT_NOISE_FLOOR_DBM
from repro.utils.rng import child_rngs, make_rng
from repro.utils.units import db_to_linear, power_to_db


class MimoSelfInterference:
    """The K x K matrix of TX->RX leakage channels.

    Diagonal entries are full circulator + reflection channels;
    off-diagonal entries are antenna cross-talk — similar delay
    structure, ``crosstalk_extra_db`` weaker.
    """

    def __init__(self, channels):
        self.channels = channels
        k = len(channels)
        if any(len(row) != k for row in channels):
            raise ValueError("channel matrix must be square")
        self.k = k

    @classmethod
    def typical(cls, k=2, crosstalk_extra_db=15.0, rng=None):
        """Draw a typical K x K SI matrix."""
        rng = make_rng(rng)
        rngs = iter(child_rngs(rng, k * k))
        rows = []
        for i in range(k):
            row = []
            for j in range(k):
                chan = SelfInterferenceChannel.typical(rng=next(rngs))
                if i != j:
                    chan = SelfInterferenceChannel(
                        chan.delays_s,
                        chan.gains * db_to_linear(-crosstalk_extra_db),
                        carrier_hz=chan.carrier_hz)
                row.append(chan)
            rows.append(row)
        return cls(rows)

    def apply(self, tx_streams, sample_rate_hz):
        """RX leakage for (K, n) TX streams -> (K, n)."""
        tx = np.atleast_2d(np.asarray(tx_streams, dtype=complex))
        if tx.shape[0] != self.k:
            raise ValueError(f"expected {self.k} TX streams, got {tx.shape[0]}")
        out = np.zeros_like(tx)
        for i in range(self.k):
            for j in range(self.k):
                out[i] += self.channels[i][j].apply(tx[j], sample_rate_hz)
        return out


@dataclass
class MimoCancellationReport:
    """Per-RX-chain cancellation results."""

    per_chain_total_db: np.ndarray
    per_chain_residual_dbm: np.ndarray

    def worst_chain_db(self):
        """The weakest chain's total cancellation."""
        return float(self.per_chain_total_db.min())

    def __str__(self):
        chains = ", ".join(f"rx{i}: {v:.1f} dB"
                           for i, v in enumerate(self.per_chain_total_db))
        return f"MIMO cancellation [{chains}]"


class MimoCancellationPipeline(ConverterFrontEnd):
    """Fig. 8's architecture: K*K analog boards + K*K digital filters.

    The public surface mirrors the SISO pipeline: construct, `tune()`,
    then `cancel()` blocks or `measure()` the achieved cancellation.
    """

    def __init__(self, si: MimoSelfInterference = None, k=2,
                 signal_bandwidth_hz=20e6, oversample=8,
                 converter_delay_s=50e-9,
                 noise_floor_dbm=DEFAULT_NOISE_FLOOR_DBM, rng=None):
        super().__init__(signal_bandwidth_hz, oversample, converter_delay_s,
                         noise_floor_dbm)
        rng = make_rng(rng)
        self.si = si or MimoSelfInterference.typical(k=k, rng=rng)
        self.k = self.si.k
        self.boards = [[AnalogCancellationBoard(
            carrier_hz=self.si.channels[i][j].carrier_hz)
            for j in range(self.k)] for i in range(self.k)]
        self.digital = [[CausalDigitalCanceller(num_taps=160)
                         for _ in range(self.k)] for _ in range(self.k)]
        self._rng = rng
        self._tuned = False

    def _board_wave(self, tx_streams):
        """Combined analog-board injection per RX chain (digital view)."""
        tx = np.atleast_2d(np.asarray(tx_streams, dtype=complex))
        out = np.zeros_like(tx)
        for i in range(self.k):
            for j in range(self.k):
                out[i] += self._rf_to_digital(
                    self.boards[i][j].apply(tx[j], self.sample_rate_hz))
        return out

    def rx_with_si(self, tx_streams, rng=None):
        """What the K RX chains see: leakage + noise (digital view)."""
        tx = np.atleast_2d(np.asarray(tx_streams, dtype=complex))
        rng = make_rng(rng if rng is not None else self._rng)
        si = self.si.apply(tx, self.sample_rate_hz)
        out = np.stack([self._rf_to_digital(row) for row in si])
        for i in range(self.k):
            out[i] += bandlimited_gaussian(tx.shape[1],
                                           self.noise_floor_dbm,
                                           self.occupied_fraction, rng)
        return out

    def tune(self, tx_power_dbm=20.0, training_samples=131072, rng=None):
        """Tune all K*K analog boards and digital filters.

        Analog: each TX chain transmits its own probe alone (quiet
        bring-up, §3.3), per-pair responses estimated by correlation
        and the boards retargeted.  Digital: all chains transmit
        independent traffic simultaneously; each RX chain's residual is
        jointly regressed on every TX chain (block least squares per
        pair, separable because the streams are independent).
        """
        rng = make_rng(rng if rng is not None else self._rng)
        grid = self._tuning_grid()

        # --- analog: one TX chain at a time (quiet bring-up) -----------
        for j in range(self.k):
            probe = bandlimited_gaussian(training_samples,
                                         tx_power_dbm - 30.0,
                                         self.occupied_fraction, rng)
            tx = np.zeros((self.k, training_samples), dtype=complex)
            tx[j] = probe
            rx = self.rx_with_si(tx, rng=rng)
            board_wave = self._board_wave(tx)
            for i in range(self.k):
                si_estimate = self._rf_response_on_grid(
                    probe, rx[i] + board_wave[i], grid) \
                    - self.boards[i][j].response(grid)
                self.boards[i][j].tune(si_estimate, grid)

        # --- digital: all chains at once, independent traffic ----------
        tx = np.stack([bandlimited_gaussian(training_samples, tx_power_dbm,
                                            self.occupied_fraction, rng)
                       for _ in range(self.k)])
        rx = self.rx_with_si(tx, rng=rng)
        board_wave = self._board_wave(tx)
        for i in range(self.k):
            residual = rx[i] + board_wave[i]
            # Sequential per-pair fits: streams are independent, so each
            # regression sees the other pairs' leftovers as noise; two
            # passes converge.
            predictions = np.zeros((self.k, training_samples), dtype=complex)
            for _ in range(3):
                for j in range(self.k):
                    others = residual - (predictions.sum(axis=0)
                                         - predictions[j])
                    self.digital[i][j].train(tx[j], others)
                    predictions[j] = self.digital[i][j].predict(tx[j])
        self._tuned = True

    def cancel(self, rx_streams, tx_streams):
        """Cancel all leakage from the K RX chains."""
        if not self._tuned:
            raise RuntimeError("call tune() first")
        rx = np.atleast_2d(np.asarray(rx_streams, dtype=complex))
        tx = np.atleast_2d(np.asarray(tx_streams, dtype=complex))
        board_wave = self._board_wave(tx)
        out = rx + board_wave
        for i in range(self.k):
            for j in range(self.k):
                out[i] = out[i] - self.digital[i][j].predict(tx[j])
        return out

    def measure(self, tx_power_dbm=20.0, num_samples=32768, rng=None):
        """Per-chain total cancellation with all chains transmitting."""
        if not self._tuned:
            self.tune(tx_power_dbm=tx_power_dbm, rng=rng)
        rng = make_rng(rng if rng is not None else self._rng)
        tx = np.stack([bandlimited_gaussian(num_samples, tx_power_dbm,
                                            self.occupied_fraction, rng)
                       for _ in range(self.k)])
        rx = self.rx_with_si(tx, rng=rng)
        cleaned = self.cancel(rx, tx)
        skip = 256
        totals = np.empty(self.k)
        residuals = np.empty(self.k)
        for i in range(self.k):
            p_res = np.mean(np.abs(cleaned[i, skip:]) ** 2)
            residuals[i] = power_to_db(max(p_res, 1e-30))
            totals[i] = tx_power_dbm - residuals[i]
        return MimoCancellationReport(per_chain_total_db=totals,
                                      per_chain_residual_dbm=residuals)
