"""Client->relay association: the fleet's load-balancing control plane.

Which relay serves a client matters as much as how well one relay
cancels.  Three policies cover the design space real deployments use:

* :class:`StrongestRssPolicy` — the WiFi default: strongest access
  RSS wins.  Simple, load-oblivious, piles clients onto whichever
  relay the geometry favours;
* :class:`HashedLoadBalancingPolicy` — ECMP-style: among candidates
  within ``rss_margin_db`` of the best, a stable hash of the client id
  picks the bucket, and a per-relay ``capacity`` spills overflow to the
  next candidate.  The hash is :func:`zlib.crc32`-based, so assignment
  is identical in every process (Python's builtin ``hash`` is
  per-process salted and must never leak into a plan);
* :class:`ThroughputPredictivePolicy` — greedy throughput prediction:
  each client picks the relay maximising ``predicted_rate /
  (1 + load)``, i.e. its share of the relay's airtime given the load
  already assigned.

Every policy also precomputes each client's **backup relay** — the
best candidate other than the primary — so fast reroute
(:mod:`repro.fleet.reroute`) never has to run policy logic during a
failure: the backup path is already in the plan, IP fast-reroute
style.
"""

from __future__ import annotations

import zlib

from dataclasses import dataclass

import numpy as np

from repro.fleet.district import District
from repro.phy.rates import phy_rate_mbps


def stable_client_hash(client_index, salt=0):
    """A process-stable 32-bit hash for ECMP bucket selection."""
    return zlib.crc32(f"fleet-client-{int(client_index)}-{int(salt)}"
                      .encode("ascii"))


@dataclass(frozen=True)
class CandidateTable:
    """Precomputed link budget for every (client, candidate relay) pair.

    ``candidates[c]`` lists relay indices nearest-first;
    ``access_snr_db[c]`` / ``ff_rate_mbps[c]`` align with it.
    ``ff_rate_mbps`` is the *combined* constructive rate: direct path
    plus the relayed copy (min of backhaul and access hops, less the
    amplify-and-forward noise penalty), summed in linear SNR — the
    fleet-scale stand-in for
    :meth:`repro.core.relay.FastForwardRelay.destination_snr_db`.
    """

    direct_rate_mbps: np.ndarray          # (C,)
    direct_snr_db: np.ndarray             # (C,)
    candidates: tuple                     # C tuples of relay indices
    access_snr_db: tuple                  # C tuples, aligned
    ff_rate_mbps: tuple                   # C tuples, aligned

    def rate_for(self, client, relay):
        """Combined FF rate of ``client`` served by ``relay`` (or the
        direct rate when the relay is not a candidate)."""
        try:
            k = self.candidates[client].index(relay)
        except ValueError:
            return float(self.direct_rate_mbps[client])
        return float(self.ff_rate_mbps[client][k])


def build_candidate_table(district: District):
    """Vectorised link-budget evaluation for the whole district."""
    cfg = district.config
    aps = district.ap_positions()
    relays = district.relay_positions()
    clients = district.client_positions
    home = district.client_home

    direct_snr = district.snr_db(aps[home], clients,
                                 tx_power_dbm=cfg.tx_power_dbm)
    direct_rate = np.array([phy_rate_mbps(s) for s in direct_snr])

    cand = district.candidates

    # Backhaul (home AP -> relay) SNRs: dedupe on the (home, relay)
    # pair — many clients of one home share every backhaul ray.
    pairs = sorted({(int(home[c]), r)
                    for c in range(district.num_clients) for r in cand[c]})
    if pairs:
        pair_idx = {pair: i for i, pair in enumerate(pairs)}
        p = aps[[h for h, _ in pairs]]
        q = relays[[r for _, r in pairs]]
        backhaul = district.snr_db(p, q, tx_power_dbm=cfg.tx_power_dbm)
    else:                                  # pragma: no cover - cand never empty
        pair_idx, backhaul = {}, np.zeros(0)

    # Access (relay -> client) SNRs, one flat batch.
    flat_clients = np.concatenate(
        [np.repeat(clients[c][None, :], len(cand[c]), axis=0)
         for c in range(district.num_clients)])
    flat_relays = relays[[r for c in range(district.num_clients)
                          for r in cand[c]]]
    access = district.snr_db(flat_relays, flat_clients,
                             tx_power_dbm=cfg.relay_tx_power_dbm)

    access_rows, rate_rows = [], []
    k = 0
    for c in range(district.num_clients):
        row_access, row_rate = [], []
        for r in cand[c]:
            a = float(access[k])
            k += 1
            bh = float(backhaul[pair_idx[(int(home[c]), r)]])
            relayed = min(bh, a) - cfg.relay_noise_penalty_db
            combined = 10.0 * np.log10(
                10.0 ** (direct_snr[c] / 10.0) + 10.0 ** (relayed / 10.0))
            row_access.append(a)
            row_rate.append(float(phy_rate_mbps(combined)))
        access_rows.append(tuple(row_access))
        rate_rows.append(tuple(row_rate))

    return CandidateTable(
        direct_rate_mbps=direct_rate, direct_snr_db=np.asarray(direct_snr),
        candidates=cand,
        access_snr_db=tuple(access_rows), ff_rate_mbps=tuple(rate_rows))


@dataclass(frozen=True)
class ClientPlan:
    """One client's planned service: primary, precomputed backup, rates."""

    client: int
    home: int
    primary: int
    backup: int                   # -1 when no backup candidate exists
    direct_rate_mbps: float
    primary_rate_mbps: float
    backup_rate_mbps: float


@dataclass(frozen=True)
class AssociationPlan:
    """The control plane's output: per-client plans plus relay load."""

    policy: str
    clients: tuple                # ClientPlan per client, client order
    relay_load: np.ndarray        # primary-assignment count per relay

    def clients_of(self, relay):
        """Indices of clients whose *primary* is ``relay``."""
        return [p.client for p in self.clients if p.primary == relay]


def _finish_plan(policy_name, district, table, primary):
    """Backups (best non-primary candidate by rate) + load accounting."""
    plans = []
    load = np.zeros(district.num_relays, dtype=int)
    for c in range(district.num_clients):
        p = int(primary[c])
        load[p] += 1
        others = [(table.ff_rate_mbps[c][k], -k, r)
                  for k, r in enumerate(table.candidates[c]) if r != p]
        if others:
            best = max(others)
            backup, backup_rate = int(best[2]), float(best[0])
        else:
            backup, backup_rate = -1, float(table.direct_rate_mbps[c])
        plans.append(ClientPlan(
            client=c, home=int(district.client_home[c]), primary=p,
            backup=backup,
            direct_rate_mbps=float(table.direct_rate_mbps[c]),
            primary_rate_mbps=table.rate_for(c, p),
            backup_rate_mbps=backup_rate))
    return AssociationPlan(policy=policy_name, clients=tuple(plans),
                           relay_load=load)


class StrongestRssPolicy:
    """The WiFi default: the candidate with the strongest access RSS."""

    name = "strongest-rss"

    def assign(self, district, table):
        primary = [table.candidates[c][int(np.argmax(table.access_snr_db[c]))]
                   for c in range(district.num_clients)]
        return _finish_plan(self.name, district, table, primary)


class HashedLoadBalancingPolicy:
    """ECMP-style hashed bucket selection with per-relay capacity.

    Candidates within ``rss_margin_db`` of the client's best access RSS
    form the equal-cost set; a stable hash of the client id picks one.
    When the pick is at ``capacity`` the client walks the equal-cost
    set (then the remaining candidates) in hash order until a relay
    with headroom accepts it — the spill rule that keeps hot spots from
    melting a single relay.  ``capacity=None`` defaults to twice the
    district's mean load, rounded up.
    """

    name = "hashed-lb"

    def __init__(self, capacity=None, rss_margin_db=6.0, salt=0):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 (or None)")
        self.capacity = capacity
        self.rss_margin_db = float(rss_margin_db)
        self.salt = int(salt)

    def assign(self, district, table):
        capacity = self.capacity
        if capacity is None:
            capacity = -(-2 * district.num_clients // district.num_relays)
        load = np.zeros(district.num_relays, dtype=int)
        primary = []
        for c in range(district.num_clients):
            cands = table.candidates[c]
            access = table.access_snr_db[c]
            best = max(access)
            eligible = [r for r, a in zip(cands, access)
                        if a >= best - self.rss_margin_db]
            spill = [r for r in cands if r not in eligible]
            h = stable_client_hash(c, self.salt)
            start = h % len(eligible)
            ordered = (eligible[start:] + eligible[:start] + spill)
            chosen = next((r for r in ordered if load[r] < capacity),
                          ordered[0])
            load[chosen] += 1
            primary.append(chosen)
        return _finish_plan(self.name, district, table, primary)


class ThroughputPredictivePolicy:
    """Greedy predicted-throughput assignment.

    Clients are planned in client order; each picks the candidate
    maximising ``ff_rate / (1 + load)`` — the airtime share it would
    actually get — so a loaded relay with a slightly better link loses
    to an idle neighbour.
    """

    name = "throughput-predictive"

    def assign(self, district, table):
        load = np.zeros(district.num_relays, dtype=int)
        primary = []
        for c in range(district.num_clients):
            scores = [(table.ff_rate_mbps[c][k] / (1.0 + load[r]), -k, r)
                      for k, r in enumerate(table.candidates[c])]
            chosen = int(max(scores)[2])
            load[chosen] += 1
            primary.append(chosen)
        return _finish_plan(self.name, district, table, primary)


#: Policy registry for the CLI and the experiment runner.
POLICIES = {
    StrongestRssPolicy.name: StrongestRssPolicy,
    HashedLoadBalancingPolicy.name: HashedLoadBalancingPolicy,
    ThroughputPredictivePolicy.name: ThroughputPredictivePolicy,
}


def make_policy(name, **kwargs):
    """Instantiate a registered policy by name."""
    try:
        cls = POLICIES[name]
    except KeyError:
        raise ValueError(f"unknown association policy {name!r}; "
                         f"choose from {sorted(POLICIES)}") from None
    return cls(**kwargs)
