"""Soft-decision Viterbi decoder for the K=7 convolutional code.

:meth:`ViterbiDecoder.decode` / :meth:`ViterbiDecoder.decode_batch` run
a vectorised add-compare-select.  The trellis structure is exploited
directly: state ``t`` is reached from exactly two predecessors ``t >>
1`` and ``(t >> 1) + S/2`` (the shift register drops its oldest bit),
always with input bit ``t & 1``, so the per-step update is one
``(batch, states, 2)`` gather-compare instead of a scatter-max, and
whole packet bursts decode in a single trellis pass.

Branch metrics are computed with the exact expression (and operation
order) of the original per-step scatter-max decoder, which the tests
keep as their oracle (``tests/phy_oracle.py``), so surviving path
metrics are bitwise identical and both return the same bits whenever
the maximum-likelihood path is unique (ties between equal-metric paths
are measure-zero for noisy soft inputs).
"""

from __future__ import annotations

import numpy as np

from repro.phy.coding.convolutional import ConvolutionalEncoder


class ViterbiDecoder:
    """Maximum-likelihood sequence decoder (soft or hard input).

    Input metrics are per-coded-bit LLR-like values where *positive*
    favours bit 0 (matching :meth:`Modulation.demodulate_llr`).  Hard
    bits can be decoded by mapping ``bit -> (1 - 2*bit)``.
    """

    def __init__(self, encoder=None):
        self.encoder = encoder or ConvolutionalEncoder()
        self._next_state, self._outputs = self.encoder.transitions()
        self.num_states = self._next_state.shape[0]
        # Precompute the two coded bits for each (state, input).
        self._out_g0 = (self._outputs >> 1) & 1
        self._out_g1 = self._outputs & 1
        # Predecessor formulation: target t is reached from the two
        # states in pred[t] with input bit t & 1; the branch weights are
        # the (1 - 2*coded_bit) signs of those transitions.
        half = self.num_states // 2
        targets = np.arange(self.num_states)
        pred = np.stack([targets >> 1, (targets >> 1) + half], axis=1)
        in_bit = targets & 1
        if not np.array_equal(self._next_state[pred, in_bit[:, None]],
                              np.broadcast_to(targets[:, None], pred.shape)):
            raise AssertionError("trellis predecessor table inconsistent "
                                 "with encoder transitions")
        self._pred = pred                                     # (S, 2)
        self._pred_w0 = 1.0 - 2.0 * self._out_g0[pred, in_bit[:, None]]
        self._pred_w1 = 1.0 - 2.0 * self._out_g1[pred, in_bit[:, None]]

    # -- vectorised fast path ---------------------------------------------

    def _coerce_llrs(self, llrs):
        llrs = np.asarray(llrs, dtype=float).ravel()
        if llrs.size % 2:
            raise ValueError(f"LLR count must be even, got {llrs.size}")
        return llrs

    def _decode_stack(self, llr_stack, terminated):
        """ACS + backtrace over a ``(batch, 2*steps)`` metric stack."""
        batch, width = llr_stack.shape
        num_steps = width // 2
        half = self.num_states // 2
        pred = self._pred
        w0, w1 = self._pred_w0, self._pred_w1

        # Same branch-metric expression (and float op order) as the
        # reference scatter-max path: path + (1-2*g0)*(l0/2) + (1-2*g1)*(l1/2).
        l0 = llr_stack[:, 0::2] / 2.0
        l1 = llr_stack[:, 1::2] / 2.0

        path = np.full((batch, self.num_states), -np.inf)
        path[:, 0] = 0.0
        choices = np.empty((num_steps, batch, self.num_states), dtype=bool)
        for t in range(num_steps):
            cand = (path[:, pred]
                    + w0 * l0[:, t, None, None]
                    + w1 * l1[:, t, None, None])
            choice = cand[:, :, 1] > cand[:, :, 0]
            path = np.where(choice, cand[:, :, 1], cand[:, :, 0])
            choices[t] = choice

        if terminated:
            state = np.zeros(batch, dtype=np.int64)
        else:
            state = np.argmax(path, axis=1)
        bits = np.empty((batch, num_steps), dtype=int)
        rows = np.arange(batch)
        for t in range(num_steps - 1, -1, -1):
            bits[:, t] = state & 1
            state = (state >> 1) + half * choices[t, rows, state]
        return bits

    def _strip_tail(self, bits, terminated):
        if terminated:
            tail = self.encoder.num_tail_bits
            if bits.size > tail:
                return bits[:-tail]
        return bits

    def decode(self, llrs, terminated=True):
        """Decode coded-bit LLRs back to information bits.

        ``llrs`` has even length (pairs of g0, g1 metrics; use 0.0 for
        punctured positions).  When ``terminated``, the trellis is
        forced to end in state 0 and the tail bits are stripped.
        """
        llrs = self._coerce_llrs(llrs)
        if llrs.size == 0:
            return np.array([], dtype=int)
        bits = self._decode_stack(llrs[None, :], terminated)[0]
        return self._strip_tail(bits, terminated)

    def decode_batch(self, llr_list, terminated=True):
        """Decode many coded sequences in vectorised trellis passes.

        ``llr_list`` is a sequence of 1-D LLR arrays (lengths may
        differ; equal-length sequences share one ACS pass).  Returns a
        list of decoded bit arrays in input order, each identical to
        ``decode(llrs)`` on the corresponding element.
        """
        coerced = [self._coerce_llrs(llrs) for llrs in llr_list]
        results = [None] * len(coerced)
        by_length = {}
        for idx, llrs in enumerate(coerced):
            if llrs.size == 0:
                results[idx] = np.array([], dtype=int)
            else:
                by_length.setdefault(llrs.size, []).append(idx)
        for size, indices in by_length.items():
            stack = np.stack([coerced[i] for i in indices])
            bits = self._decode_stack(stack, terminated)
            for row, idx in enumerate(indices):
                results[idx] = self._strip_tail(bits[row], terminated)
        return results

    def decode_hard(self, coded_bits, terminated=True):
        """Decode hard coded bits by mapping them onto +-1 metrics."""
        coded_bits = np.asarray(coded_bits, dtype=int).ravel()
        return self.decode(1.0 - 2.0 * coded_bits, terminated=terminated)
