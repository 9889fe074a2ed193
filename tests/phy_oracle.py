"""Test support: the per-step PHY loops the batched receive path replaced.

:func:`viterbi_decode_reference` is the original per-step scatter-max
Viterbi decoder and :func:`equalized_streams_reference` the original
per-symbol, per-tone MMSE equaliser.  Each takes the production object
whose tables it reads.  ``tests/test_phy_batch_equivalence.py`` holds
the batched paths bit-identical to them, and
``benchmarks/bench_phy.py`` times them as its reference.
"""

from __future__ import annotations

import numpy as np


def viterbi_decode_reference(decoder, llrs, terminated=True):
    """``decoder.decode`` as the original per-step scatter-max loop."""
    llrs = decoder._coerce_llrs(llrs)
    num_steps = llrs.size // 2
    if num_steps == 0:
        return np.array([], dtype=int)

    ns = decoder._next_state
    g0 = decoder._out_g0
    g1 = decoder._out_g1
    num_states = decoder.num_states

    # Branch metric: correlation of expected bits with LLRs.  A
    # coded bit of 0 earns +llr/2, of 1 earns -llr/2; constant
    # offsets cancel so we use (1-2b)*llr.
    path = np.full(num_states, -np.inf)
    path[0] = 0.0
    decisions = np.empty((num_steps, num_states), dtype=np.int8)
    prev_state = np.empty((num_steps, num_states), dtype=np.int32)

    states = np.arange(num_states)
    for t in range(num_steps):
        l0, l1 = llrs[2 * t], llrs[2 * t + 1]
        new_path = np.full(num_states, -np.inf)
        new_prev = np.zeros(num_states, dtype=np.int32)
        new_dec = np.zeros(num_states, dtype=np.int8)
        for bit in (0, 1):
            metric = path + (1 - 2 * g0[:, bit]) * (l0 / 2.0) \
                          + (1 - 2 * g1[:, bit]) * (l1 / 2.0)
            targets = ns[:, bit]
            # Scatter-max: sort ascending so that with duplicate
            # targets numpy's last-write-wins keeps the best metric.
            order = np.argsort(metric)
            tgt = targets[order]
            better = metric[order] > new_path[tgt]
            upd = tgt[better]
            new_path[upd] = metric[order][better]
            new_prev[upd] = states[order][better]
            new_dec[upd] = bit
        path = new_path
        prev_state[t] = new_prev
        decisions[t] = new_dec

    end_state = 0 if terminated else int(np.argmax(path))
    bits = np.empty(num_steps, dtype=int)
    state = end_state
    for t in range(num_steps - 1, -1, -1):
        bits[t] = decisions[t, state]
        state = prev_state[t, state]
    return decoder._strip_tail(bits, terminated)


def equalized_streams_reference(receiver, body, h_used, noise_var,
                                num_symbols):
    """``receiver._equalized_streams`` as the original per-symbol,
    per-tone MMSE loop."""
    p = receiver.params
    used = np.asarray(p.used_subcarriers())
    data_pos = np.searchsorted(used, np.asarray(p.data_subcarriers))
    tone_scale = np.sqrt(p.fft_size / p.num_used_subcarriers)
    n_streams = receiver.num_streams
    out = np.empty((n_streams, num_symbols, len(p.data_subcarriers)),
                   dtype=complex)
    eye = np.eye(n_streams)
    for i in range(num_symbols):
        grids = np.stack([
            receiver.demod.demodulate_symbol(
                body[r, i * p.symbol_len:(i + 1) * p.symbol_len])
            for r in range(body.shape[0])])
        used_vals = grids[:, used % p.fft_size] / tone_scale
        for d_idx, pos in enumerate(data_pos):
            h = h_used[pos]          # (num_rx, num_streams)
            y = used_vals[:, pos]
            gram = h.conj().T @ h + noise_var * eye
            x_hat = np.linalg.solve(gram, h.conj().T @ y)
            out[:, i, d_idx] = x_hat
    return out
