"""Coverage heatmaps: the Fig. 1 (SNR) and Fig. 2 (MIMO streams) maps.

The grid sweep runs through :mod:`repro.exec` — one task per grid
point, seeded exactly as the historical serial loop — so it shards
across workers and caches per-point results like every other sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.relay import FastForwardRelay, RelayConfig
from repro.exec import Task, run_sweep, task_fn
from repro.netsim.testbed import Testbed
from repro.netsim.throughput import snr_field_db, usable_streams
from repro.telemetry.collector import current_collector
from repro.phy.rates import effective_snr_db
from repro.utils.rng import child_seeds


@dataclass
class HeatmapResult:
    """Gridded coverage fields for one scenario."""

    positions: np.ndarray          # (n_points, 2)
    snr_ap_only_db: np.ndarray     # (n_points,)
    snr_with_ff_db: np.ndarray     # (n_points,)
    streams_ap_only: np.ndarray    # (n_points,) ints
    streams_with_ff: np.ndarray    # (n_points,) ints

    def median_improvement_db(self):
        """Median SNR lift the relay provides across the grid."""
        return float(np.median(self.snr_with_ff_db - self.snr_ap_only_db))

    def fraction_full_rank(self, with_ff, num_streams=2):
        """Fraction of the grid supporting ``num_streams`` streams."""
        field = self.streams_with_ff if with_ff else self.streams_ap_only
        return float(np.mean(field >= num_streams))


@task_fn("netsim.coverage-point", version="2")
def _coverage_point(testbed, point, rng=None):
    """Both coverage fields (SNR and streams) at one grid point."""
    h_sd, h_sr, h_rd = testbed.siso_triple(point, rng)
    snr_ap = snr_field_db(h_sd)
    relay = FastForwardRelay(RelayConfig(params=testbed.params))
    relay.configure_siso_link(h_sd, h_sr, h_rd)
    delay = testbed.extra_path_delay_s(point)
    snr_ff = effective_snr_db(relay.destination_snr_db(delay))

    m_sd, m_sr, m_rd = testbed.mimo_triple(point, rng)
    noise = 10.0 ** (-90.0 / 10.0)
    n_rx = m_sd.shape[1]
    direct_cov = np.broadcast_to(noise * np.eye(n_rx),
                                 (m_sd.shape[0], n_rx, n_rx)).copy()
    streams_ap = usable_streams(m_sd, direct_cov)
    mrelay = FastForwardRelay(RelayConfig(params=testbed.params))
    mrelay.configure_mimo_link(m_sd, m_sr, m_rd)
    h_eff, noise_cov = mrelay.mimo_effective_channels(delay)
    streams_ff = usable_streams(h_eff, noise_cov)
    return {"snr_ap": float(snr_ap), "snr_ff": float(snr_ff),
            "streams_ap": int(streams_ap), "streams_ff": int(streams_ff)}


def coverage_heatmap(testbed: Testbed, spacing_m=1.0, seed=0, jobs=None,
                     cache=None, backend=None, checkpoint=None,
                     max_retries=None, task_timeout=None, chaos=None):
    """Sweep a grid of client positions; compute both coverage fields.

    For each point: the AP-only effective SNR and usable MIMO stream
    count, and the same with a FastForward relay configured for that
    client.
    """
    with current_collector().span("netsim.experiment",
                                  experiment="coverage"):
        return _coverage_heatmap(testbed, spacing_m=spacing_m, seed=seed,
                                 jobs=jobs, cache=cache, backend=backend,
                                 checkpoint=checkpoint,
                                 max_retries=max_retries,
                                 task_timeout=task_timeout, chaos=chaos)


def _coverage_heatmap(testbed, spacing_m, seed, jobs, cache, backend,
                      checkpoint, max_retries=None, task_timeout=None,
                      chaos=None):
    grid = testbed.scenario.floorplan.grid(spacing_m=spacing_m)
    seeds = child_seeds(seed, len(grid))
    tasks = [Task("netsim.coverage-point",
                  {"testbed": testbed, "point": point}, seed=point_seed)
             for point, point_seed in zip(grid, seeds)]
    rows = run_sweep(tasks, jobs=jobs, backend=backend, cache=cache,
                     checkpoint=checkpoint, max_retries=max_retries,
                     task_timeout=task_timeout, chaos=chaos).results

    return HeatmapResult(
        positions=grid,
        snr_ap_only_db=np.asarray([r["snr_ap"] for r in rows]),
        snr_with_ff_db=np.asarray([r["snr_ff"] for r in rows]),
        streams_ap_only=np.asarray([r["streams_ap"] for r in rows],
                                   dtype=int),
        streams_with_ff=np.asarray([r["streams_ff"] for r in rows],
                                   dtype=int),
    )
