"""IQ tap probes: transparent stages that watch a stream flow past.

A :class:`TapStage` sits between two runtime stages, hands every block
to a :class:`SiteProbes` bundle (EVM, spectrum, PAPR — see
:mod:`repro.probes.diagnostics`) and returns the block untouched, so
taps never perturb the signal path.  A :class:`ProbeSet` owns the
bundles for the relay's named tap sites and turns any
:class:`repro.runtime.chain.Chain` into its probed twin via
:meth:`ProbeSet.instrument` (which uses the runtime's generic
``Chain.with_taps`` attachment point — probes can therefore attach at
*any* stage boundary, not just the relay's).

The three named relay sites:

``post-si-cancellation``
    The chain input — what the relay sees after self-interference
    cancellation (fault stages, which model receive-side impairments,
    land before this tap).
``post-cnf``
    After the realised CNF filter stage (label ``cnf-filter``).
``post-amplification``
    After the power amplifier stage (label ``amplify``).

Probe accumulators deliberately survive ``Chain.reset()`` — like the
fault stages, they integrate over absolute stream position so a
multi-frame experiment reads as one continuous observation; call
:meth:`ProbeSet.reset` for a fresh start.  Publication goes through
``repro.telemetry`` as ``probes.*`` metric families with every float
dyadic-quantised, keeping aggregates bit-identical across executor
backends and chunk layouts.
"""

from __future__ import annotations

import numpy as np

from repro.probes.diagnostics import (
    DEFAULT_POLICY,
    FLUSH_SEGMENTS,
    EvmProbe,
    LatencyAccountant,
    PaprProbe,
    SegmentBuffer,
    SpectrumProbe,
    quantize,
)
from repro.runtime.chain import Stage
from repro.telemetry.collector import current_collector

#: The relay's named tap sites, in signal-path order.
SITES = ("post-si-cancellation", "post-cnf", "post-amplification")

#: Default chain-label -> tap-site mapping for the relay chains.
DEFAULT_SITE_LABELS = {
    "cnf-filter": "post-cnf",
    "amplify": "post-amplification",
}


class TapStage(Stage):
    """A transparent pass-through stage feeding a probe bundle.

    ``reset()`` is intentionally a no-op on the probe state: the chain
    reset that precedes every relay run must not wipe diagnostics that
    integrate across frames (mirroring how fault schedules advance in
    absolute stream position).
    """

    latency_samples = 0

    def __init__(self, probes):
        self.probes = probes
        self.name = f"probe:{probes.site}"

    def process_block(self, x):
        x = np.asarray(x, dtype=complex)
        self.probes.process(x)
        return x


class SiteProbes:
    """The diagnostics bundle observed at one tap site."""

    def __init__(self, site, params, policy=None, reference=None,
                 ewma_alpha=0.125):
        self.site = site
        self.params = params
        self.policy = policy or DEFAULT_POLICY
        self.samples = 0
        self._segments = SegmentBuffer(params.fft_size)
        self._raw = []
        self._raw_count = 0
        self.spectrum = SpectrumProbe(params, ewma_alpha=ewma_alpha)
        self.papr = PaprProbe()
        self.evm = EvmProbe(params, reference, policy=self.policy) \
            if reference is not None else None

    def process(self, x):
        """Fold one block into every probe (absolute-position keyed).

        The hot path never copies the stream: segmentation works on
        views (:meth:`SegmentBuffer.feed_kept`), only the segments the
        decimation policy keeps are materialised, and the FFT passes
        over them are deferred into batches of
        :data:`~repro.probes.diagnostics.FLUSH_SEGMENTS` (reads drain
        the remainder), so both the copy volume and the analysis cost
        scale with the duty cycle rather than the stream length.
        """
        x = np.asarray(x)
        self.samples += int(x.shape[-1]) if x.ndim else 0
        _, analysed = self._segments.feed_kept(x, self.policy)
        if len(analysed):
            self._raw.append(analysed)
            self._raw_count += len(analysed)
            if self._raw_count >= FLUSH_SEGMENTS:
                self.drain()
        if self.evm is not None:
            self.evm.process(x)

    def drain(self):
        """Run any deferred analysis now (reads call this implicitly)."""
        if self._raw_count:
            batch = self._raw[0] if len(self._raw) == 1 \
                else np.concatenate(self._raw)
            self._raw, self._raw_count = [], 0
            self.spectrum.accumulate(batch)
            self.papr.accumulate(batch)
        if self.evm is not None:
            self.evm.drain()

    def summary(self):
        """Quantised site metrics as a flat dict (None-free)."""
        self.drain()
        out = {}
        if self.evm is not None and self.evm.windows:
            out["evm_rms_db"] = quantize(self.evm.evm_rms_db)
        depth = self.spectrum.cancellation_depth_db
        if depth is not None:
            out["cancellation_depth_db"] = quantize(depth)
            out["oob_leakage_db"] = quantize(self.spectrum.oob_leakage_db)
            out["flatness"] = quantize(self.spectrum.flatness)
            out["occupancy"] = quantize(self.spectrum.occupancy)
            out["snr_ewma_db"] = quantize(self.spectrum.snr_ewma_db)
        papr = self.papr.papr_db
        if papr is not None:
            out["papr_db"] = quantize(papr)
        return out


class ProbeSet:
    """Probe bundles for a set of tap sites plus the latency ledger.

    Construct once per observed device (``reference`` enables the EVM
    probe), hand it to ``relay.process(..., probes=probe_set)`` — or
    instrument any chain directly — then read :meth:`summary` or let
    :meth:`publish` push ``probes.*`` metrics into the ambient
    collector.
    """

    SITES = SITES

    def __init__(self, params, reference=None, policy=None, budget=None,
                 sites=None, ewma_alpha=0.125):
        self.params = params
        self.reference = reference
        self.policy = policy or DEFAULT_POLICY
        self._ewma_alpha = ewma_alpha
        self.latency = LatencyAccountant(params, budget=budget)
        self._sites = {}
        for site in (sites if sites is not None else SITES):
            self.site(site)
        # Publication bookkeeping: counters are monotonic, so repeated
        # publish() calls emit deltas; constellation events are emitted
        # once per point.
        self._published_counts = {}
        self._published_points = {}

    def site(self, name):
        """The :class:`SiteProbes` bundle for ``name`` (created lazily)."""
        if name not in self._sites:
            self._sites[name] = SiteProbes(
                name, self.params, policy=self.policy,
                reference=self.reference, ewma_alpha=self._ewma_alpha)
        return self._sites[name]

    @property
    def sites(self):
        return dict(self._sites)

    def reset(self):
        """Drop every accumulator (fresh observation window)."""
        names = list(self._sites)
        self._sites = {}
        for name in names:
            self.site(name)
        self.latency.realised_samples = {}
        self._published_counts = {}
        self._published_points = {}

    # -- attachment --------------------------------------------------------

    def instrument(self, chain, sample_rate_hz=None, site_labels=None):
        """The probed twin of ``chain`` (same stage objects, plus taps).

        A tap for ``post-si-cancellation`` is placed at the chain
        input; ``site_labels`` maps stage labels to site names for the
        interior taps (default: the relay's ``cnf-filter`` /
        ``amplify`` stages).  Labels absent from the chain are skipped,
        so the same probe set instruments SISO and MIMO chains alike.
        Also snapshots each stage's realised DSP lookahead for the
        latency ledger.
        """
        mapping = DEFAULT_SITE_LABELS if site_labels is None \
            else dict(site_labels)
        taps = {"": TapStage(self.site("post-si-cancellation"))}
        for label, site in mapping.items():
            if label in chain.labels:
                taps[label] = TapStage(self.site(site))
        self.latency.observe_chain(chain, sample_rate_hz=sample_rate_hz)
        return chain.with_taps(taps, name=f"probed-{chain.name}")

    # -- results -----------------------------------------------------------

    def summary(self):
        """Every probe metric as one flat ``{key: float}`` dict.

        Keys are ``"<site>.<metric>"`` plus the ``latency.*`` ledger —
        the exact shape :mod:`repro.probes.baseline` stores and
        compares.  Sites that saw no samples are omitted.
        """
        out = {}
        for site in sorted(self._sites):
            bundle = self._sites[site]
            for key, value in bundle.summary().items():
                out[f"{site}.{key}"] = value
        out["latency.total_ns"] = self.latency.total_ns
        out["latency.cp_ns"] = self.latency.cp_ns
        out["latency.margin_ns"] = self.latency.margin_ns
        for site, cumulative in self.latency.cumulative_ns().items():
            out[f"latency.cumulative_ns.{site}"] = cumulative
        return out

    def _inc_to(self, tel, name, current, **labels):
        key = (name, tuple(sorted(labels.items())))
        last = self._published_counts.get(key, 0)
        if current > last:
            tel.counter(name, **labels).inc(int(current - last))
            self._published_counts[key] = current

    def publish(self):
        """Push ``probes.*`` metrics into the ambient collector.

        Gauges carry the current aggregates (quantised), counters the
        monotonic analysed-work totals, one histogram the per-window
        EVM distribution, and ``probes.constellation`` events the
        decimated equalised scatter — everything the HTML link-health
        report renders.
        """
        tel = current_collector()
        if not tel.enabled:
            return
        for site in sorted(self._sites):
            bundle = self._sites[site]
            bundle.drain()
            self._inc_to(tel, "probes.samples", bundle.samples, site=site)
            self._inc_to(tel, "probes.segments_analyzed",
                         bundle.spectrum.segments_analyzed, site=site)
            for key, value in bundle.summary().items():
                tel.gauge(f"probes.{self._family(key)}", site=site).set(value)
            psd = bundle.spectrum.psd_db()
            if psd is not None:
                freqs, levels = psd
                for idx, (freq, level) in enumerate(zip(freqs, levels)):
                    tel.gauge("probes.spectrum.psd_db", site=site, bin=idx,
                              freq_khz=quantize(freq / 1e3)
                              ).set(quantize(level))
            if bundle.evm is not None:
                self._publish_evm(tel, site, bundle.evm)
        self._publish_latency(tel)

    @staticmethod
    def _family(key):
        """Map a summary key to its ``probes.*`` metric family."""
        if key.startswith("evm"):
            return f"evm.{key[4:]}" if key != "evm_rms_db" else "evm.rms_db"
        if key in ("cancellation_depth_db", "oob_leakage_db", "flatness",
                   "occupancy"):
            return f"spectrum.{key}"
        if key == "snr_ewma_db":
            return "snr.ewma_db"
        if key == "papr_db":
            return "papr.db"
        return key

    def _publish_evm(self, tel, site, evm):
        self._inc_to(tel, "probes.symbols_analyzed", evm.symbols_analyzed,
                     site=site)
        self._inc_to(tel, "probes.evm.windows", evm.windows, site=site)
        if not evm.windows:
            return
        used = self.params.used_subcarriers()
        for subcarrier, level in zip(used, evm.per_subcarrier_db()):
            tel.gauge("probes.evm.subcarrier_db", site=site,
                      subcarrier=int(subcarrier)).set(quantize(level))
        hist = tel.histogram("probes.evm.window_db", unit="db", site=site)
        key = ("probes.evm.window_db.observed", (("site", site),))
        start = self._published_counts.get(key, 0)
        for value in evm.window_evm_db[start:]:
            hist.observe(value)
        self._published_counts[key] = len(evm.window_evm_db)
        published = self._published_points.get(site, 0)
        for i, q in evm.constellation[published:]:
            tel.event("probes.constellation", site=site, i=i, q=q)
        self._published_points[site] = len(evm.constellation)

    def _publish_latency(self, tel):
        for row in self.latency.waterfall():
            tel.gauge("probes.latency.component_ns", component=row["component"],
                      site=row["site"], order=row["order"]).set(row["ns"])
        for site, cumulative in self.latency.cumulative_ns().items():
            tel.gauge("probes.latency.cumulative_ns", site=site).set(cumulative)
        tel.gauge("probes.latency.total_ns").set(self.latency.total_ns)
        tel.gauge("probes.latency.cp_ns").set(self.latency.cp_ns)
        tel.gauge("probes.latency.margin_ns").set(self.latency.margin_ns)
        tel.gauge("probes.latency.fits_cp").set(
            1 if self.latency.fits_cp else 0)
        for label, ns in self.latency.realised_ns().items():
            tel.gauge("probes.latency.realised_ns", stage=label).set(ns)
            tel.gauge("probes.latency.realised_samples", stage=label).set(
                self.latency.realised_samples[label])


__all__ = [
    "DEFAULT_SITE_LABELS",
    "ProbeSet",
    "SITES",
    "SiteProbes",
    "TapStage",
]
