"""The assembled FastForward relay device.

Two views of the same machine:

* **link level** — given the three per-subcarrier channels (source->
  destination, source->relay, relay->destination) the relay computes its
  constructive filter, its amplification, and what the destination
  sees, including relayed noise and (when its latency budget is blown)
  the ISI penalty: per-tone SNRs on a SISO link
  (:meth:`FastForwardRelay.destination_snr_db`), per-tone effective
  channels and noise covariances on a MIMO link
  (:meth:`FastForwardRelay.mimo_effective_channels`).  There is one
  stacked link evaluator per mode; the throughput experiments turn its
  output into rates through :mod:`repro.netsim.throughput`.
* **sample level** — :meth:`FastForwardRelay.process` pushes an IQ
  stream through the realised CNF filter, amplification and CFO
  restore, producing the waveform the relay would transmit.
  Integration tests run real PPDUs through it.

The sample-level path runs on the streaming runtime
(:mod:`repro.runtime`): a configured relay *is* a
:class:`repro.runtime.chain.Chain` of stages — CFO correct, an
overlap-save spectral stage with a cached kernel, amplification, CFO
restore — that fixed-size blocks are pumped through with state
carry-over.  :meth:`FastForwardRelay.process` is a thin one-shot
wrapper over that chain and :meth:`FastForwardRelay.make_chain` hands
the chain itself to streaming callers.  The configured link fixes the
stream shape both take: a 1-D stream on a SISO link, ``(K, n)`` on a
K-antenna MIMO link.
"""

from __future__ import annotations

import itertools
import weakref

from dataclasses import dataclass, field

import numpy as np

from repro.core.amplification import select_amplification_db
from repro.core.cfo_restore import CfoRestorer
from repro.core.cnf_filter import (
    band_phase_alignment,
    mimo_cnf_filter,
    siso_cnf_phase,
)
from repro.core.decomposition import decompose_cnf_filter
from repro.core.latency import ISI_ICI_FACTOR, LatencyBudget, isi_useful_fraction
from repro.phy.params import OfdmParams, WIFI_20MHZ
from repro.telemetry.collector import current_collector
from repro.utils.signal_ops import next_pow2
from repro.utils.units import db_to_linear, db_to_power, power_to_db
from repro.utils.validation import ensure_finite

#: Monotone link tokens keying the spectral-kernel cache (one token per
#: configured link, so reconfiguring never reuses a stale kernel).
_LINK_TOKENS = itertools.count()


@dataclass
class RelayConfig:
    """Operating configuration of a FastForward relay.

    ``params`` uses a ``default_factory`` so no mutable state is ever
    shared between configs (``OfdmParams`` is frozen as well — belt and
    braces against one relay's numerology leaking into another).
    """

    params: OfdmParams = field(default_factory=lambda: WIFI_20MHZ)
    cancellation_db: float = 110.0
    loop_margin_db: float = 3.0
    noise_margin_db: float = 3.0
    #: Disable to get the blind amplify-and-forward repeater of §5.5.
    use_cnf: bool = True
    #: Disable the §3.5 noise rule (the blind repeater ignores it).
    noise_safe: bool = True
    #: Realise the SISO filter through the digital/analog decomposition
    #: (adds the §3.4 approximation error) instead of using the ideal F.
    use_decomposition: bool = True
    latency: LatencyBudget = field(default_factory=LatencyBudget)
    #: Delay spread of the over-the-air channels; it consumes CP budget
    #: alongside processing latency (the CP must cover latency + extra
    #: path delay + the tail of the multipath spread).
    channel_delay_spread_s: float = 150e-9
    tx_power_dbm: float = 20.0
    noise_floor_dbm: float = -90.0
    relay_noise_floor_dbm: float = -90.0


class FastForwardRelay:
    """A construct-and-forward full-duplex relay.

    Call :meth:`configure_siso_link` or :meth:`configure_mimo_link`
    with per-subcarrier channels (from estimation or a channel model),
    then query :meth:`destination_snr_db` (SISO) or
    :meth:`mimo_effective_channels` (MIMO), each evaluating every
    subcarrier in one stacked expression.
    """

    def __init__(self, config: RelayConfig = None):
        self.config = config or RelayConfig()
        self._mode = None
        self._h_sd = None
        self._h_sr = None
        self._h_rd = None
        self._filter_response = None   # SISO: per-subcarrier complex
        self._mimo_f0 = None           # MIMO: band unitary
        self._mimo_phases = None       # MIMO: per-subcarrier scalar phase
        self._decomposition = None
        self.amplification_db = 0.0
        # Streaming runtime state: a fresh token per configured link
        # keys the spectral-kernel cache; built chains are memoised per
        # (sample rate, CFO, block size) until the link changes.
        self._link_token = None
        self._chains = {}
        # Auto-wired telemetry traces, one per live collector: the
        # trace (and its resolved metric points) is reused across
        # process() calls, so per-call instrumentation setup stays off
        # the streaming path.
        self._auto_traces = weakref.WeakKeyDictionary()

    def _invalidate_chains(self):
        """A new link means new kernels: drop memoised chains."""
        self._link_token = f"ff-relay-{next(_LINK_TOKENS)}"
        self._chains = {}

    # -- configuration ---------------------------------------------------

    def _rd_attenuation_db(self, h_rd):
        """Band-mean relay->destination attenuation in dB."""
        power = np.mean(np.abs(h_rd) ** 2)
        if power <= 0:
            return float("inf")
        return float(-power_to_db(power))

    def configure_siso_link(self, h_sd, h_sr, h_rd):
        """Install per-subcarrier SISO channels and compute the filter."""
        h_sd = np.asarray(h_sd, dtype=complex)
        h_sr = np.asarray(h_sr, dtype=complex)
        h_rd = np.asarray(h_rd, dtype=complex)
        if not h_sd.shape == h_sr.shape == h_rd.shape:
            raise ValueError("per-subcarrier channel arrays must match")
        self._mode = "siso"
        self._h_sd, self._h_sr, self._h_rd = h_sd, h_sr, h_rd
        self._invalidate_chains()
        cfg = self.config
        self.amplification_db = select_amplification_db(
            cfg.cancellation_db, self._rd_attenuation_db(h_rd),
            loop_margin_db=cfg.loop_margin_db,
            noise_margin_db=cfg.noise_margin_db,
            noise_safe=cfg.noise_safe)
        if not cfg.use_cnf:
            self._filter_response = np.ones_like(h_sd)
            self._decomposition = None
            return self
        ideal = siso_cnf_phase(h_sd, h_sr, h_rd)
        if cfg.use_decomposition:
            self._decomposition, self._filter_response = \
                self._best_decomposition(ideal)
        else:
            self._decomposition = None
            self._filter_response = ideal
        return self

    def _best_decomposition(self, ideal):
        """Decompose the ideal SISO filter, selecting by realised gain.

        The ideal response usually contains a linear-phase ramp no
        causal 4-tap stage can follow (perfect alignment of a longer
        via-path needs an advance).  Sweeping slid variants of the
        target and scoring each candidate by the *constructive gain it
        actually achieves* finds the best realisable compromise — the
        practical counterpart of the paper's SCP solve.
        """
        cfg = self.config
        freqs = cfg.params.subcarrier_freqs_hz()
        a = db_to_linear(self.amplification_db)
        relay_mag = np.abs(self._h_rd * self._h_sr)
        direct_mag = np.abs(self._h_sd)
        base_weights = relay_mag * (direct_mag + 0.05 * direct_mag.max() + 1e-30)
        p_tx = 10.0 ** (cfg.tx_power_dbm / 10.0)
        sigma_d2 = 10.0 ** (cfg.noise_floor_dbm / 10.0)

        def capacity_metric(resp):
            # Sum-log-SNR punishes the per-subcarrier dips a plain power
            # sum would forgive — matching how coded OFDM actually pays
            # for deeply faded tones.
            h_eff = self._h_sd + self._h_rd * resp * a * self._h_sr
            snr = np.abs(h_eff) ** 2 * p_tx / sigma_d2
            return float(np.sum(np.log2(1.0 + snr)))

        best = None
        best_metric = -np.inf
        best_resp = None
        for tau in np.linspace(-25e-9, 75e-9, 11):
            weights = base_weights
            for _ in range(2):
                cand = decompose_cnf_filter(
                    freqs, ideal, carrier_hz=cfg.params.carrier_hz,
                    delay_slack_s=tau, weights=weights)
                resp = cand.response(freqs)
                # The filter's gain is bounded by unity (extra gain
                # belongs to the capped amplification); scale so the
                # strongest subcarrier uses the full budget.
                peak = np.abs(resp).max()
                if peak > 0:
                    resp = resp / peak
                metric = capacity_metric(resp)
                if metric > best_metric:
                    best, best_metric, best_resp = cand, metric, resp
                # Constant-modulus reweighting: pull up the dips.
                weights = base_weights / np.maximum(np.abs(resp), 0.25) ** 2
        return best, best_resp

    def configure_mimo_link(self, h_sd, h_sr, h_rd, group_size=8):
        """Install per-subcarrier MIMO channels, shapes (n_sc, ., .).

        ``h_sd``: (n_sc, 2, 2); ``h_sr``: (n_sc, K, 2); ``h_rd``:
        (n_sc, 2, K) with K = 1 or 2 (the shapes
        :func:`repro.core.cnf_filter.mimo_cnf_filter` solves).  One
        unitary is chosen per group of ``group_size`` adjacent
        subcarriers from the group's mean channels (channels are
        correlated across neighbouring tones, so group-level solves
        capture most of the per-tone optimum at a fraction of the cost);
        per-subcarrier scalar phases then refine each group's filter
        (see :func:`repro.core.cnf_filter.band_phase_alignment`).  All
        groups are solved in one ``mimo_cnf_filter`` call and all tones
        aligned in one ``band_phase_alignment`` call.
        """
        h_sd = np.asarray(h_sd, dtype=complex)
        h_sr = np.asarray(h_sr, dtype=complex)
        h_rd = np.asarray(h_rd, dtype=complex)
        if h_sd.ndim != 3 or h_sr.ndim != 3 or h_rd.ndim != 3:
            raise ValueError("MIMO channels must be (n_sc, rx, tx) arrays")
        if group_size < 1:
            raise ValueError(f"group_size must be >= 1, got {group_size}")
        self._mode = "mimo"
        self._h_sd, self._h_sr, self._h_rd = h_sd, h_sr, h_rd
        self._invalidate_chains()
        cfg = self.config
        self.amplification_db = select_amplification_db(
            cfg.cancellation_db, self._rd_attenuation_db(h_rd),
            loop_margin_db=cfg.loop_margin_db,
            noise_margin_db=cfg.noise_margin_db,
            noise_safe=cfg.noise_safe)
        k = h_sr.shape[1]
        n_sc = h_sd.shape[0]
        if not cfg.use_cnf:
            self._mimo_f0 = np.broadcast_to(
                np.eye(k, dtype=complex), (n_sc, k, k)).copy()
            self._mimo_phases = np.zeros(n_sc)
            return self
        starts = np.arange(0, n_sc, group_size)
        sizes = np.diff(np.append(starts, n_sc))
        f_groups = mimo_cnf_filter(
            *(np.add.reduceat(h, starts, axis=0) / sizes[:, None, None]
              for h in (h_sd, h_sr, h_rd)),
            self.amplification_db)
        self._mimo_f0 = np.repeat(f_groups, sizes, axis=0)
        self._mimo_phases = band_phase_alignment(
            h_sd, h_sr, h_rd, self._mimo_f0, self.amplification_db)
        return self

    # -- link-level results ----------------------------------------------

    def _recirculation_factor(self, extra_path_delay_s, max_copies=12):
        """Power factor of loop-recirculated copies that land past the CP.

        Amplifying within ``loop_margin`` of the cancellation leaves a
        residual that re-circulates: copy ``k`` is ``k * (A - C)`` dB
        down and ``k`` loop-latencies further delayed.  Copies still
        inside the CP are more (weak) multipath; the rest is
        interference.  Returns ``sum_k r^k * (1 - rho_k)`` relative to
        the relayed signal's power — the cost of the blind repeater's
        "amplify as much as the cancellation" policy (§5.5).
        """
        cfg = self.config
        r = db_to_power(self.amplification_db - cfg.cancellation_db)
        if r <= 1e-6:
            return 0.0
        base = (cfg.latency.total_s() + max(extra_path_delay_s, 0.0)
                + cfg.channel_delay_spread_s)
        total = 0.0
        for k in range(1, max_copies + 1):
            delay = base + k * cfg.latency.total_s()
            excess = max(delay - cfg.params.cp_duration_s, 0.0)
            rho_k = isi_useful_fraction(excess, cfg.params)
            total += (r ** k) * (1.0 - rho_k)
        return total

    def _isi_fraction(self, extra_path_delay_s):
        """Useful-power fraction of the relayed copy (1.0 inside CP).

        The CP must absorb processing latency, the via-path's extra
        flight time *and* the multipath delay spread already riding on
        the channels.
        """
        total = (self.config.latency.total_s()
                 + max(extra_path_delay_s, 0.0)
                 + self.config.channel_delay_spread_s)
        excess = total - self.config.params.cp_duration_s
        return isi_useful_fraction(max(excess, 0.0), self.config.params)

    def destination_snr_db(self, extra_path_delay_s=0.0, *, channels=None):
        """Per-subcarrier destination SNR (dB), SISO mode.

        ``extra_path_delay_s`` is the additional over-the-air delay of
        the source->relay->destination route relative to the direct
        path; it eats into the CP budget alongside processing latency.

        ``channels`` optionally supplies a ``(h_sd, h_sr, h_rd)`` triple
        to evaluate against while keeping the *configured* filter and
        amplification — i.e. what a relay tuned on old sounding reports
        actually delivers once the air has moved on.  Omit it to
        evaluate on the configured link.
        """
        if self._mode != "siso":
            raise RuntimeError("configure_siso_link first")
        cfg = self.config
        if channels is None:
            h_sd, h_sr, h_rd = self._h_sd, self._h_sr, self._h_rd
        else:
            h_sd, h_sr, h_rd = (np.asarray(h, dtype=complex)
                                for h in channels)
        a = db_to_linear(self.amplification_db)
        p_tx = 10.0 ** (cfg.tx_power_dbm / 10.0)
        sigma_d2 = 10.0 ** (cfg.noise_floor_dbm / 10.0)
        sigma_r2 = 10.0 ** (cfg.relay_noise_floor_dbm / 10.0)

        relay_path = h_rd * self._filter_response * a * h_sr
        rho = self._isi_fraction(extra_path_delay_s)
        if rho >= 1.0:
            h_eff = h_sd + relay_path
            isi = 0.0
        else:
            # Past the CP the copies no longer combine coherently and
            # the lost fraction interferes twice (ISI + ICI).
            h_eff = np.sqrt(np.abs(h_sd) ** 2
                            + rho * np.abs(relay_path) ** 2)
            isi = (ISI_ICI_FACTOR * (1.0 - rho)
                   * np.abs(relay_path) ** 2 * p_tx)
        relay_noise = np.abs(h_rd * self._filter_response * a) ** 2 * sigma_r2
        recirc = (self._recirculation_factor(extra_path_delay_s)
                  * np.abs(relay_path) ** 2 * p_tx)
        denom = sigma_d2 + relay_noise + isi + recirc
        snr = np.abs(h_eff) ** 2 * p_tx / denom
        with np.errstate(divide="ignore"):
            return 10.0 * np.log10(np.maximum(snr, 1e-30))

    def mimo_effective_channels(self, extra_path_delay_s=0.0):
        """Per-subcarrier (H_eff, noise_cov) with the relay active.

        Returns ``(h_eff, noise_cov)`` of shapes (n_sc, N, M) and
        (n_sc, N, N), all tones stacked.  The noise is the destination
        floor plus the relay's receiver noise arriving through ``H_rd
        F``.  The relayed copy's ISI loss (when the latency budget is
        blown) shrinks its useful part and adds the lost power to the
        noise, exactly as in :meth:`destination_snr_db`; loop
        recirculation adds power along the relayed path.  Stream SINRs
        and rates come from :func:`repro.netsim.throughput.mimo_rate_mbps`.
        """
        if self._mode != "mimo":
            raise RuntimeError("configure_mimo_link first")
        cfg = self.config
        rho = self._isi_fraction(extra_path_delay_s)
        a = db_to_linear(self.amplification_db)
        a2 = db_to_power(self.amplification_db)
        sigma_d2 = 10.0 ** (cfg.noise_floor_dbm / 10.0)
        sigma_r2 = 10.0 ** (cfg.relay_noise_floor_dbm / 10.0)
        n_tx = self._h_sd.shape[2]
        p_per_stream = 10.0 ** (cfg.tx_power_dbm / 10.0) / n_tx
        eye = np.eye(self._h_sd.shape[1])
        f = np.exp(1j * self._mimo_phases)[:, None, None] * self._mimo_f0
        relay_mix = self._h_rd @ f
        relay_term = relay_mix @ (a * self._h_sr)
        h_eff = self._h_sd + np.sqrt(rho) * relay_term
        noise_cov = sigma_d2 * eye \
            + a2 * sigma_r2 * (relay_mix @ relay_mix.conj().swapaxes(1, 2))
        if rho < 1.0:
            lost = (ISI_ICI_FACTOR * (1.0 - rho) * p_per_stream
                    * np.mean(np.abs(relay_term) ** 2, axis=(1, 2)) * n_tx)
            noise_cov = noise_cov + lost[:, None, None] * eye
        recirc = self._recirculation_factor(extra_path_delay_s)
        if recirc > 0.0:
            noise_cov = noise_cov + recirc * p_per_stream \
                * (relay_term @ relay_term.conj().swapaxes(1, 2))
        return h_eff, noise_cov

    @property
    def decomposition(self):
        """The §3.4 digital/analog split of the current SISO filter."""
        return self._decomposition

    @property
    def filter_response(self):
        """Per-subcarrier realised SISO filter response."""
        return self._filter_response

    def latency_s(self):
        """Total processing latency of the device."""
        return self.config.latency.total_s()

    # -- sample-level processing ------------------------------------------

    def _siso_response_fn(self):
        """The realised SISO filter as a baseband frequency response."""
        if self._decomposition is not None:
            # The pre-filter runs at its own (higher) rate; at the
            # signal rate its in-band response is what matters, so apply
            # it spectrally on the subcarrier grid.
            decomposition = self._decomposition
            return lambda f: decomposition.response(f)
        freqs_grid = self.config.params.subcarrier_freqs_hz()
        resp = self._filter_response

        def interp_response(f):
            real = np.interp(f, freqs_grid, resp.real,
                             left=resp.real[0], right=resp.real[-1])
            imag = np.interp(f, freqs_grid, resp.imag,
                             left=resp.imag[0], right=resp.imag[-1])
            return real + 1j * imag

        return interp_response

    def _mimo_response_fn(self):
        """Per-bin K x K matrix response interpolated from the filters.

        Linearly interpolated between subcarriers (out-of-grid bins
        clamp to the band-edge filter) — a continuous response whose
        impulse content decays fast enough to cache as a short kernel.
        """
        grid_freqs = self.config.params.subcarrier_freqs_hz()
        order = np.argsort(grid_freqs)
        gf = grid_freqs[order]
        filt = (np.exp(1j * self._mimo_phases)[:, None, None]
                * self._mimo_f0)[order]
        k = filt.shape[1]

        def matrix_response(f):
            out = np.empty((np.asarray(f).size, k, k), dtype=complex)
            for r in range(k):
                for t in range(k):
                    out[:, r, t] = (
                        np.interp(f, gf, filt[:, r, t].real)
                        + 1j * np.interp(f, gf, filt[:, r, t].imag))
            return out

        return matrix_response

    def _sample_mode(self):
        """The configured link's mode; sample-level calls need one."""
        if self._mode is None:
            raise RuntimeError(
                "sample-level processing requires a configured link")
        return self._mode

    def _build_chain(self, mode, sample_rate_hz, cfo_hz, block_size,
                     frame_samples=None):
        from repro.runtime.chain import Chain, GainStage
        from repro.runtime.spectral import FrequencyResponseStage
        from repro.runtime.stage import CfoCorrectStage, CfoRestoreStage

        response_fn = self._siso_response_fn() if mode == "siso" \
            else self._mimo_response_fn()
        stages = []
        restorer = CfoRestorer(cfo_hz, sample_rate_hz) if cfo_hz else None
        if restorer is not None:
            stages.append(CfoCorrectStage(restorer))
        stages.append(FrequencyResponseStage(
            response_fn, sample_rate_hz, block_size=block_size,
            cache_key=(self._link_token, mode), frame_samples=frame_samples,
            name="cnf-filter"))
        stages.append(GainStage(self.amplification_db, name="amplify"))
        if restorer is not None:
            stages.append(CfoRestoreStage(restorer))
        return Chain(stages, name=f"ff-relay-{mode}")

    def make_chain(self, sample_rate_hz=None, cfo_hz=0.0, block_size=4096):
        """The relay as a streaming :class:`repro.runtime.chain.Chain`.

        Stages, in order: CFO correct (when ``cfo_hz`` is nonzero), the
        realised CNF filter as one cached overlap-save kernel,
        amplification, CFO restore.  On a SISO link the filter is the
        digital pre-filter cascaded with the analog line and blocks are
        1-D.  On a K-antenna MIMO link it applies the per-bin
        ``exp(j*phi_i) * F0_i`` matrix filters as one streaming matrix
        convolution over ``(K, n)`` blocks, and the CFO stages rotate
        all K chains with a single broadcast multiply (the relay has one
        oscillator).  Pump blocks through ``process_block`` and
        ``flush`` at end of stream; ``reset`` makes the chain reusable
        for the next frame.  The spectral kernel is cached per
        configured link, so building many chains (or short-lived ones
        per frame) stays cheap.
        """
        mode = self._sample_mode()
        sample_rate_hz = sample_rate_hz or self.config.params.bandwidth_hz
        return self._build_chain(mode, sample_rate_hz, cfo_hz, block_size)

    def _memoised_chain(self, sample_rate_hz, cfo_hz, n):
        """The one-shot chain for an ``n``-sample frame (memoised).

        Built for frames of up to ``next_pow2(n)`` samples, so its
        spectral stage applies only the kernel taps such a frame can
        reach; the power-of-two bucket keeps the memo small.  The FFT
        hint is the bucket capped at 4096, fixed per key so the chain
        does not depend on which frame length built it.
        """
        # Reconfiguring clears the memo, so the key needs no link mode.
        frame = next_pow2(n)
        key = (float(sample_rate_hz), float(cfo_hz), frame)
        chain = self._chains.get(key)
        if chain is None:
            chain = self._build_chain(self._mode, sample_rate_hz, cfo_hz,
                                      min(frame, 4096), frame_samples=frame)
            self._chains[key] = chain
        return chain

    def _coerce_stream(self, iq_stream):
        """The received samples, shaped as the configured link expects."""
        if self._mode == "siso":
            x = np.asarray(iq_stream, dtype=complex)
            if x.ndim != 1:
                raise ValueError(
                    f"a SISO relay takes a 1-D stream, got shape {x.shape}")
            return x
        x = np.atleast_2d(np.asarray(iq_stream, dtype=complex))
        k = self._mimo_f0.shape[1]
        if x.shape[0] != k:
            raise ValueError(
                f"expected {k} receive streams, got {x.shape[0]}")
        return x

    @staticmethod
    def _admit_stream(x, supervisor):
        """Validate (or, supervised, sanitise) the received samples.

        Unsupervised relays refuse non-finite input outright — garbage
        in would silently become amplified garbage on the air.  With a
        supervisor attached the contract flips: survive it, zero the
        bad samples and let the supervisor's guard statistics record
        the hit.
        """
        if supervisor is None:
            ensure_finite(x, "iq_stream")
            return x
        finite = np.isfinite(x)
        if finite.all():
            return x
        return np.where(finite, x, 0.0)

    @staticmethod
    def _run_with_faults(chain, faults, x, trace):
        """Reset the relay chain and run, with fault stages prepended.

        Fault stages are deliberately *not* reset: their burst and
        drift processes advance in absolute stream position, so a
        multi-frame experiment sees one continuous fault timeline
        rather than the same opening faults replayed every frame.
        """
        chain.reset()
        if not faults:
            return chain.run(x, trace=trace)
        from repro.runtime.chain import Chain

        run_chain = Chain([*faults, chain], name=f"faulty-{chain.name}")
        return run_chain.run(x, trace=trace)

    def _auto_trace(self, tel):
        """The memoised telemetry-fed trace for a live collector.

        Auto-wired traces feed ``runtime.stage.*`` metric points that
        are resolved once per stage; reusing the trace across calls
        keeps that resolution off the per-call path.  The trace itself
        only writes into the collector, so sharing it between calls is
        observationally identical to a fresh one.
        """
        trace = self._auto_traces.get(tel)
        if trace is None:
            from repro.runtime.chain import ChainTrace

            trace = ChainTrace(collector=tel, energy=False)
            self._auto_traces[tel] = trace
        return trace

    @staticmethod
    def _harvest_health(faults):
        """Pull the health signals the fault stages expose, if any."""
        clip = [s.clip_fraction for s in faults or ()
                if hasattr(s, "clip_fraction")]
        residual = [s.residual_si_db for s in faults or ()
                    if hasattr(s, "residual_si_db")]
        return (max(clip) if clip else None,
                max(residual) if residual else None)

    def process(self, iq_stream, sample_rate_hz=None, cfo_hz=0.0, *,
                trace=None, faults=None, supervisor=None, telemetry=None,
                probes=None):
        """Produce the relay's transmit waveform for a received stream.

        The configured link fixes the input shape: a SISO relay takes a
        1-D stream, a K-antenna MIMO relay a ``(K, n)`` array of its K
        receive streams (any other shape raises ``ValueError``; an
        unconfigured relay raises ``RuntimeError``).  Applies, in
        order: CFO correction, the realised CNF filter, amplification,
        and CFO restore.  On a SISO link the filter is the digital
        pre-filter cascaded with the analog line; on a MIMO link it is
        the per-subcarrier unitaries ``exp(j*phi_i) * F0_i`` applied as
        a streaming matrix convolution.  Self-interference is assumed
        cancelled (the cancellation subpackage demonstrates that
        separately); the processing delay is represented by the
        configured latency budget, which callers convert to channel
        delay when composing paths.

        Note: the MIMO filters are the *ideal* per-subcarrier filters —
        no latency-constrained decomposition is applied, so tone-to-tone
        filter variation lengthens the effective channel.  The
        prototype bounds this with the same 4-tap structure; here it is
        a functional model, fine away from the deepest dead spots.

        A thin one-shot wrapper over the chain :meth:`make_chain`
        builds: the chain (and its cached spectral kernel) is reused
        across calls, so repeated frames skip the per-call response-grid
        recomputation entirely.  The input is one whole frame, zero
        outside it, so the chain's CNF stage applies only the kernel
        taps within ``next_pow2(n) - 1`` samples of the cursor — the
        only ones an ``n``-sample frame can meet — and its output
        equals the full-kernel streaming chain's to round-off.
        Pass a :class:`repro.runtime.chain.ChainTrace` as ``trace`` to
        collect per-stage wall time, throughput and in/out power.

        ``faults`` optionally prepends impairment stages from
        :mod:`repro.faults` (applied in order at the relay's receive
        side; their schedules continue across calls rather than
        replaying).  ``supervisor`` hands the output to a
        :class:`repro.supervision.RelaySupervisor`, which sanitises
        non-finite blocks, folds the fault stages' clip/residual
        readings into its health monitor, and applies the current
        remedy — gain backoff or half-duplex muting.  Without a
        supervisor, non-finite *input* raises ``ValueError``.

        ``telemetry`` optionally names the
        :class:`repro.telemetry.TelemetryCollector` to record into;
        by default the ambient collector is used, which is the
        zero-cost null collector unless one is installed.  When a live
        collector is in effect and no explicit ``trace`` was given, a
        telemetry-fed :class:`~repro.runtime.chain.ChainTrace` is
        created so per-stage counters and wall-time histograms flow
        without the caller wiring anything.

        ``probes`` optionally attaches a
        :class:`repro.probes.ProbeSet`: transparent IQ taps are spliced
        in at the named sites (``post-si-cancellation`` at the chain
        input — i.e. after the fault stages, which model receive-side
        impairments — ``post-cnf`` and ``post-amplification`` after the
        matching stages), and the set's ``probes.*`` aggregates are
        published to the telemetry collector after the run.  MIMO
        blocks are probed on stream 0.
        """
        mode = self._sample_mode()
        sample_rate_hz = sample_rate_hz or self.config.params.bandwidth_hz
        tel = telemetry if telemetry is not None else current_collector()
        if tel.enabled and trace is None:
            trace = self._auto_trace(tel)
        x = self._admit_stream(self._coerce_stream(iq_stream), supervisor)
        n = x.shape[-1]
        chain = self._memoised_chain(sample_rate_hz, cfo_hz, n)
        run_chain = chain if probes is None else probes.instrument(
            chain, sample_rate_hz=sample_rate_hz)
        with tel.span("relay.process", mode=mode):
            y = self._run_with_faults(run_chain, faults, x, trace)
            if supervisor is not None:
                clip_fraction, residual_si_db = self._harvest_health(faults)
                y = supervisor.guard_block(
                    y, duration_s=n / sample_rate_hz,
                    clip_fraction=clip_fraction,
                    residual_si_db=residual_si_db)
        tel.counter("relay.samples", mode=mode).inc(int(n))
        if probes is not None:
            probes.publish(tel)
        return y
