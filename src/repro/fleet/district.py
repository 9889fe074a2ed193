"""District generation: Fig. 1 homes tiled into a multi-relay deployment.

A *district* is a seeded grid of homes, each the paper's Fig. 1 floor
plan (:func:`repro.channel.floorplan.fig1_home`) translated to its tile
origin, with one AP and one FastForward relay per home (their positions
jittered per home so no two homes are identical) and a configurable
number of clients drawn inside each home.

Link quality uses a *link-budget* RSS model rather than the full
per-subcarrier ray tracer: log-distance path loss
(:func:`repro.channel.pathloss.log_distance_path_loss_db`) plus the
penetration loss of every wall the straight ray crosses — the same wall
geometry :class:`repro.channel.raytrace.PropagationModel` uses, but
evaluated in vectorised batches: a bounding-box test over all ~9 walls
x homes picks the few walls near each ray, and only those meet the
orientation test, so a thousand-client district plans in well under a
second.  The scalar SNRs feed the repo's MCS table
(:func:`repro.phy.rates.phy_rate_mbps`), keeping fleet-scale
throughput on the same rate axis as the per-home experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.channel.floorplan import fig1_home
from repro.channel.pathloss import log_distance_path_loss_db

#: Interior margin (m) client draws keep from a home's outer walls.
CLIENT_MARGIN_M = 0.5

#: Relative margin by which wall bounding boxes are widened before the
#: crossing test (see :meth:`District.wall_losses_db`).
WALL_BOX_SLACK = 1e-9


@dataclass(frozen=True)
class HomeCell:
    """One home in the district grid (positions in district coordinates)."""

    index: int
    row: int
    col: int
    origin: tuple          # (x, y) of the tile's lower-left corner
    ap: tuple              # AP position
    relay: tuple           # relay position


@dataclass(frozen=True)
class DistrictConfig:
    """Shape, density and link-budget parameters of a district."""

    #: Home grid dimensions: ``rows x cols`` homes, one relay each.
    rows: int = 4
    cols: int = 4
    #: Clients drawn uniformly inside each home.
    clients_per_home: int = 4
    #: Root seed: every placement derives from it deterministically.
    seed: int = 0
    #: AP transmit power.  The defaults put the district's SNRs across
    #: the whole MCS table (a hot 20 dBm budget saturates every client
    #: at the top rate and the throughput CDF degenerates).
    tx_power_dbm: float = 5.0
    #: Relay transmit power (the forwarded copy's budget).
    relay_tx_power_dbm: float = 5.0
    noise_floor_dbm: float = -85.0
    #: Log-distance exponent (~3.5 suits cluttered indoor/inter-home).
    path_loss_exponent: float = 3.5
    frequency_hz: float = 2.45e9
    #: Amplify-and-forward noise penalty on the relayed hop (dB).
    relay_noise_penalty_db: float = 3.0
    #: Candidate relays considered per client (nearest-first).
    max_candidate_relays: int = 4
    #: Candidate search radius; relays beyond it never serve a client.
    neighbor_radius_m: float = 20.0

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("district needs at least a 1x1 home grid")
        if self.clients_per_home < 1:
            raise ValueError("clients_per_home must be >= 1")
        if self.max_candidate_relays < 1:
            raise ValueError("max_candidate_relays must be >= 1")

    @property
    def num_homes(self):
        return self.rows * self.cols

    @property
    def num_clients(self):
        return self.num_homes * self.clients_per_home


def _orient(a, b, c):
    """Broadcast signed-area orientation for arrays of 2-D points."""
    return ((b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1])
            - (b[..., 1] - a[..., 1]) * (c[..., 0] - a[..., 0]))


@dataclass
class District:
    """A generated district: homes, relays, clients and the RSS model.

    Everything is fixed by ``config`` (including its seed): two
    districts built from equal configs are identical, so association
    plans and sweep task parameters derived from one reproduce
    bit-for-bit in any worker process.
    """

    config: DistrictConfig
    homes: tuple = field(init=False)
    client_positions: np.ndarray = field(init=False)
    client_home: np.ndarray = field(init=False)

    def __post_init__(self):
        cfg = self.config
        plan, base_ap, base_relay = fig1_home()
        self._tile_w, self._tile_d = plan.width_m, plan.depth_m

        homes, walls_a, walls_b, losses = [], [], [], []
        clients, client_home = [], []
        base_a = np.array([w.a for w in plan.walls], dtype=float)
        base_b = np.array([w.b for w in plan.walls], dtype=float)
        base_loss = np.array([w.loss_db for w in plan.walls], dtype=float)
        for row in range(cfg.rows):
            for col in range(cfg.cols):
                index = row * cfg.cols + col
                origin = np.array([col * self._tile_w, row * self._tile_d])
                rng = np.random.default_rng(
                    np.random.SeedSequence([int(cfg.seed) & (2**63 - 1),
                                            17, index]))
                # Per-home jitter: every home plugs its relay into a
                # slightly different socket and parks the AP elsewhere.
                ap = base_ap + rng.uniform(-0.3, 0.3, size=2)
                relay = base_relay + rng.uniform(-0.6, 0.6, size=2)
                homes.append(HomeCell(
                    index=index, row=row, col=col,
                    origin=tuple(origin),
                    ap=tuple(origin + ap), relay=tuple(origin + relay)))
                walls_a.append(base_a + origin)
                walls_b.append(base_b + origin)
                losses.append(base_loss)
                xs = rng.uniform(CLIENT_MARGIN_M,
                                 self._tile_w - CLIENT_MARGIN_M,
                                 size=cfg.clients_per_home)
                ys = rng.uniform(CLIENT_MARGIN_M,
                                 self._tile_d - CLIENT_MARGIN_M,
                                 size=cfg.clients_per_home)
                clients.append(np.column_stack([xs, ys]) + origin)
                client_home.extend([index] * cfg.clients_per_home)

        self.homes = tuple(homes)
        self._wall_a = np.concatenate(walls_a)
        self._wall_b = np.concatenate(walls_b)
        self._wall_lo = np.minimum(self._wall_a, self._wall_b)
        self._wall_hi = np.maximum(self._wall_a, self._wall_b)
        self._wall_loss = np.concatenate(losses)
        self._relays = np.array([h.relay for h in homes], dtype=float)
        self._relays.flags.writeable = False
        self.client_positions = np.concatenate(clients)
        self.client_home = np.asarray(client_home, dtype=int)

    # -- geometry ----------------------------------------------------------

    @property
    def num_relays(self):
        return len(self.homes)

    @property
    def num_clients(self):
        return self.client_positions.shape[0]

    @property
    def width_m(self):
        return self.config.cols * self._tile_w

    @property
    def depth_m(self):
        return self.config.rows * self._tile_d

    def relay_positions(self):
        """(R, 2) relay positions in district coordinates (read-only)."""
        return self._relays

    def ap_positions(self):
        """(R, 2) per-home AP positions in district coordinates."""
        return np.array([h.ap for h in self.homes], dtype=float)

    # -- link budget -------------------------------------------------------

    def wall_losses_db(self, p, q):
        """Total wall-penetration loss per ray for batches of segments.

        ``p``/``q`` are (P, 2) endpoint arrays; returns (P,) dB sums.
        Uses the proper-intersection test only (a ray grazing exactly
        along a wall endpoint is a measure-zero event the link budget
        can ignore).  The test runs only on (ray, wall) pairs whose
        bounding boxes overlap, each wall's box widened by
        :data:`WALL_BOX_SLACK` of the largest coordinate: segments that
        cross share a point, so their boxes overlap, and the margin
        also keeps the pairs whose rounded orientation signs report a
        crossing for a ray that ends within a few ulps of a wall
        endpoint.  The losses are integers in dB, so every sum is exact
        and the result is the same as testing every wall.  Batches are
        chunked so the (rays x walls) box matrix stays a few MB.
        """
        p = np.atleast_2d(np.asarray(p, dtype=float))
        q = np.atleast_2d(np.asarray(q, dtype=float))
        out = np.zeros(p.shape[0])
        lo, hi = np.minimum(p, q), np.maximum(p, q)
        # fmax skips NaN: a NaN ray crosses nothing and must not void
        # the margin of the rest of the batch.
        scale = max(np.fmax.reduce(np.abs(p), axis=None, initial=1.0),
                    np.fmax.reduce(np.abs(q), axis=None, initial=1.0),
                    np.abs(self._wall_a).max(), np.abs(self._wall_b).max())
        wall_lo = self._wall_lo - WALL_BOX_SLACK * scale
        wall_hi = self._wall_hi + WALL_BOX_SLACK * scale
        chunk = max(1, 2_000_000 // max(self._wall_loss.size, 1))
        for first in range(0, p.shape[0], chunk):
            rays = slice(first, first + chunk)
            near = ((lo[rays, None, 0] <= wall_hi[None, :, 0])
                    & (hi[rays, None, 0] >= wall_lo[None, :, 0])
                    & (lo[rays, None, 1] <= wall_hi[None, :, 1])
                    & (hi[rays, None, 1] >= wall_lo[None, :, 1]))
            ray, wall = np.nonzero(near)
            pp, qq = p[rays][ray], q[rays][ray]
            a, b = self._wall_a[wall], self._wall_b[wall]
            d1 = _orient(a, b, pp)
            d2 = _orient(a, b, qq)
            d3 = _orient(pp, qq, a)
            d4 = _orient(pp, qq, b)
            crosses = ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0))
            out[rays] = np.bincount(ray[crosses],
                                    weights=self._wall_loss[wall[crosses]],
                                    minlength=near.shape[0])
        return out

    def path_loss_db(self, p, q):
        """Log-distance + wall loss per ray for (P, 2) endpoint batches."""
        p = np.atleast_2d(np.asarray(p, dtype=float))
        q = np.atleast_2d(np.asarray(q, dtype=float))
        cfg = self.config
        dist = np.maximum(np.linalg.norm(q - p, axis=1), 0.1)
        spread = np.array([
            log_distance_path_loss_db(d, cfg.frequency_hz,
                                      exponent=cfg.path_loss_exponent)
            for d in dist])
        return spread + self.wall_losses_db(p, q)

    def snr_db(self, p, q, tx_power_dbm=None):
        """Link SNR (dB) for (P, 2) endpoint batches."""
        cfg = self.config
        tx = cfg.tx_power_dbm if tx_power_dbm is None else tx_power_dbm
        return tx - self.path_loss_db(p, q) - cfg.noise_floor_dbm

    def candidate_relays(self, client_index):
        """Nearest-first candidate relay indices for one client.

        At most ``max_candidate_relays`` relays within
        ``neighbor_radius_m``; the client's home relay is always a
        candidate even when the jittered placement pushes it past the
        radius (a home never abandons its own socket).
        """
        return list(self.candidates[client_index])

    @cached_property
    def candidates(self):
        """Every client's :meth:`candidate_relays`, as a tuple of tuples.

        Picked from one (clients x relays) distance matrix with one
        stable argsort, computed on first use.
        """
        cfg = self.config
        dist = np.linalg.norm(
            self._relays[None, :, :] - self.client_positions[:, None, :],
            axis=2)
        order = np.argsort(dist, axis=1, kind="stable")
        order = order[:, :cfg.max_candidate_relays]
        inside = np.take_along_axis(dist, order, axis=1) \
            <= cfg.neighbor_radius_m
        picks = []
        for home, row, keep in zip(self.client_home.tolist(),
                                   order.tolist(), inside.tolist()):
            picked = [r for r, ok in zip(row, keep) if ok]
            if home not in picked:
                picked = [home] + picked[:max(cfg.max_candidate_relays - 1,
                                              0)]
            picks.append(tuple(picked))
        return tuple(picks)
