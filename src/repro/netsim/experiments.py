"""One runner per evaluation figure (§5, §6.1).

Every runner returns a plain dict of arrays/statistics so that the
benchmark layer can print the paper's rows and the test layer can
assert the qualitative shape (who wins, roughly by how much, where the
crossovers fall).

All Monte-Carlo sweeps run through :mod:`repro.exec`: each experiment
decomposes into pure per-client task functions (registered below with
``@task_fn``), fans them out over the configured backend, and
reassembles results in task order.  Per-task RNGs are fixed by seeds
derived exactly as the original serial loops derived them, so

* ``jobs=4`` output is bit-identical to ``jobs=1`` output, and
* every ported sweep reproduces the seed implementation's numbers.

Each runner accepts ``jobs=``, ``cache=``, ``backend=`` and
``checkpoint=`` keywords, plus the fault-tolerance trio
``max_retries=`` / ``task_timeout=`` / ``chaos=``, all passed straight
through to :func:`repro.exec.run_sweep` (``None`` takes its defaults:
one serial job, no cache, no retries, no deadline; see
:mod:`repro.exec.recovery`).
"""

from __future__ import annotations

import functools

import numpy as np

from repro.core.baselines import AmplifyForwardRelay, half_duplex_throughput_mbps
from repro.core.latency import LatencyBudget
from repro.core.relay import FastForwardRelay, RelayConfig
from repro.exec import Task, resolve_task_fn, run_sweep, task_fn
from repro.netsim.metrics import median_gain, percentile_gain, relative_gains
from repro.netsim.testbed import Testbed, paper_scenarios
from repro.telemetry.collector import current_collector
from repro.netsim.throughput import (
    ap_only_mimo_rate,
    ap_only_siso_rate,
    direct_noise_cov,
    ff_mimo_rate,
    ff_siso_rate,
    usable_streams,
)
from repro.phy.rates import effective_snr_db
from repro.utils.rng import child_rngs, child_seeds
from repro.utils.units import power_to_db


def _hd_mimo_rate(testbed, client, rng, direct_rate):
    """AP + half-duplex mesh router rate for one client."""
    h1, h2 = testbed.hop_mimo_channels(client, rng)
    r1 = ap_only_mimo_rate(h1)
    r2 = ap_only_mimo_rate(h2)
    return half_duplex_throughput_mbps(direct_rate, r1, r2)


# ---------------------------------------------------------------------------
# Shared sweep scaffolding
# ---------------------------------------------------------------------------

def _collect_clients(testbed, num_clients, seed):
    """Client positions plus one child seed per client.

    ``numpy.random.default_rng(seed_i)`` rebuilds exactly the generator
    the historical ``child_rngs`` path produced, so a task carrying the
    integer seed reproduces the serial loop's channel draws bit-for-bit.
    """
    positions = testbed.client_positions(num_clients, rng=seed)
    return positions, child_seeds(seed + 1, num_clients)


def _client_tasks(fn_name, scenarios, num_clients, seed, stream, extra=None,
                  block_size=None):
    """One engine task per (scenario, client) — or per client *block*.

    The per-client scaffolding every sweep used to duplicate — scenario
    ``i`` gets testbed seed ``seed + i``, its clients come from
    ``_collect_clients(testbed, count, seed + stream + i)`` — hoisted
    into one helper so all experiments derive per-client seeds the same
    way (and keep the seed implementation's exact numbers).

    ``block_size`` > 1 packs that many consecutive clients into one
    ``netsim.client-block`` task (amortising per-task dispatch,
    serialisation and cache bookkeeping); per-client seeds travel inside
    the block, so flattened results are bit-identical to the per-client
    layout in the same order.  The block carries ``fn_name``'s
    registered version, so its cache key changes whenever a per-client
    task's would.  ``None`` means one task per client, the layout every
    cache entry and manifest produced so far was keyed under.
    """
    units = []
    for s_idx, scenario in enumerate(scenarios):
        testbed = Testbed(scenario, seed=seed + s_idx)
        count = max(1, num_clients // len(scenarios))
        positions, seeds = _collect_clients(testbed, count,
                                            seed + stream + s_idx)
        for client, client_seed in zip(positions, seeds):
            params = {"scenario": scenario, "testbed_seed": seed + s_idx,
                      "client": client}
            if extra:
                params.update(extra)
            units.append((params, client_seed))
    if not block_size or block_size <= 1:
        return [Task(fn_name, params, seed=client_seed)
                for params, client_seed in units]
    _, fn_version = resolve_task_fn(fn_name)
    return [
        Task("netsim.client-block",
             {"fn_name": fn_name, "fn_version": fn_version,
              "blocks": tuple(units[i : i + block_size])})
        for i in range(0, len(units), int(block_size))
    ]


def _task_client_count(tasks):
    """Clients covered by a task list (blocks count their members)."""
    return sum(len(t.params["blocks"]) if t.fn == "netsim.client-block"
               else 1 for t in tasks)


def _block_rows(results):
    """Flatten sweep results back to one row per client.

    Per-client tasks return dict rows; ``netsim.client-block`` tasks
    return a list of them.  Blocks preserve client order, so the
    flattened sequence matches the unblocked layout exactly.
    """
    rows = []
    for result in results:
        if isinstance(result, list):
            rows.extend(result)
        else:
            rows.append(result)
    return rows


def _sub_checkpoint(checkpoint, label):
    """A per-phase manifest path for experiments that run >1 sweep."""
    return None if checkpoint is None else f"{checkpoint}.{label}"


def _ft_kwargs(max_retries, task_timeout, chaos):
    """The fault-tolerance trio every runner forwards to ``run_sweep``."""
    return {"max_retries": max_retries, "task_timeout": task_timeout,
            "chaos": chaos}


# ---------------------------------------------------------------------------
# Per-client task functions (pure, seeded; registered with the engine)
# ---------------------------------------------------------------------------

@task_fn("netsim.client-block", version="1")
def _client_block(fn_name, fn_version, blocks):
    """Run a registered per-client task over a whole block of clients.

    ``blocks`` is a sequence of ``(params, seed)`` pairs; each client's
    RNG is materialised from its own seed exactly as the executor would
    for a standalone task, so the returned row list is bit-identical to
    running the clients as individual tasks.  Batching them in one task
    amortises engine dispatch, result pickling and cache bookkeeping
    over ``len(blocks)`` clients — the netsim half of the sweep fast
    path (the PHY half batches inside the signal processing itself).

    ``fn_version`` is the version ``fn_name`` was registered under when
    the block was built; as a parameter it enters the block's cache
    key.  A block built under another version is refused, so no cache
    entry is ever stored under a version its rows did not come from.
    """
    fn, version = resolve_task_fn(fn_name)
    if version != fn_version:
        raise ValueError(
            f"client block built for {fn_name!r} version {fn_version!r}, "
            f"but version {version!r} is registered")
    rows = []
    for params, client_seed in blocks:
        kwargs = dict(params)
        if client_seed is not None:
            kwargs["rng"] = np.random.default_rng(client_seed)
        rows.append(fn(**kwargs))
    return rows


@task_fn("netsim.overall-gains-client", version="2")
def _overall_gains_client(scenario, testbed_seed, client, relay_config=None,
                          rng=None):
    """Figs. 12/13/15 work unit: the three schemes' rates for one client."""
    testbed = Testbed(scenario, seed=testbed_seed)
    m_sd, m_sr, m_rd = testbed.mimo_triple(client, rng)
    delay = testbed.extra_path_delay_s(client)

    direct_rate = ap_only_mimo_rate(m_sd)
    hd_rate = _hd_mimo_rate(testbed, client, rng, direct_rate)

    cfg = relay_config or RelayConfig(params=testbed.params)
    relay = FastForwardRelay(cfg)
    relay.configure_mimo_link(m_sd, m_sr, m_rd)
    ff_rate = ff_mimo_rate(relay, delay)

    # Diagnostics for the Fig. 15 classes.
    streams = usable_streams(m_sd, direct_noise_cov(m_sd))
    noise = 10.0 ** (-90.0 / 10.0)
    n_rx = m_sd.shape[1]
    band_snr = effective_snr_db(power_to_db(np.maximum(
        np.einsum("sij,sij->s", m_sd, m_sd.conj()).real
        * 10.0 ** (20.0 / 10.0) / (n_rx * noise), 1e-30)))
    return {"ap": float(direct_rate), "hd": float(hd_rate),
            "ff": float(ff_rate), "snr": float(band_snr),
            "streams": int(streams)}


@task_fn("netsim.siso-gains-client", version="2")
def _siso_gains_client(scenario, testbed_seed, client, rng=None):
    """Fig. 14 work unit: SISO AP/HD/FF rates for one client."""
    testbed = Testbed(scenario, seed=testbed_seed)
    h_sd, h_sr, h_rd = testbed.siso_triple(client, rng)
    delay = testbed.extra_path_delay_s(client)

    direct_rate = ap_only_siso_rate(h_sd)
    r1 = ap_only_siso_rate(h_sr)
    # relay->client hop reuses the rd channel.
    r2 = ap_only_siso_rate(h_rd)
    hd_rate = half_duplex_throughput_mbps(direct_rate, r1, r2)

    relay = FastForwardRelay(RelayConfig(params=testbed.params))
    relay.configure_siso_link(h_sd, h_sr, h_rd)
    return {"ap": float(direct_rate), "hd": float(hd_rate),
            "ff": float(ff_siso_rate(relay, delay))}


@task_fn("netsim.uplink-gains-client", version="2")
def _uplink_gains_client(scenario, testbed_seed, client,
                         client_tx_power_dbm=15.0, rng=None):
    """Uplink work unit: reciprocal roles, client-power budget."""
    testbed = Testbed(scenario, seed=testbed_seed)
    h_sd, h_sr, h_rd = testbed.siso_triple(client, rng)
    delay = testbed.extra_path_delay_s(client)
    # Uplink roles: direct is reciprocal; source->relay is the
    # client->relay channel (= h_rd), relay->dest is relay->AP
    # (= h_sr by reciprocity).
    cfg = RelayConfig(params=testbed.params,
                      tx_power_dbm=client_tx_power_dbm)
    relay = FastForwardRelay(cfg)
    relay.configure_siso_link(h_sd, h_rd, h_sr)
    return {"ff": float(ff_siso_rate(relay, delay)),
            "ap": float(ap_only_siso_rate(
                h_sd, tx_power_dbm=client_tx_power_dbm))}


@task_fn("netsim.latency-client", version="2")
def _latency_client(scenario, testbed_seed, client, extra_buffering_s,
                    rng=None):
    """Fig. 16 work unit: FF vs HD at one buffering depth."""
    testbed = Testbed(scenario, seed=testbed_seed)
    budget = LatencyBudget(adc_dac_s=50e-9, cnf_digital_s=50e-9,
                           extra_buffering_s=0.0)
    budget = budget.with_extra_buffering(extra_buffering_s)
    m_sd, m_sr, m_rd = testbed.mimo_triple(client, rng)
    delay = testbed.extra_path_delay_s(client)
    direct_rate = ap_only_mimo_rate(m_sd)
    hd_rate = _hd_mimo_rate(testbed, client, rng, direct_rate)
    cfg = RelayConfig(params=testbed.params, latency=budget)
    relay = FastForwardRelay(cfg)
    relay.configure_mimo_link(m_sd, m_sr, m_rd)
    return {"ff": float(ff_mimo_rate(relay, delay)), "hd": float(hd_rate)}


@task_fn("netsim.no-cnf-client", version="1")
def _no_cnf_client(scenario, testbed_seed, client, rng=None):
    """Fig. 17 work unit: the blind amplify-and-forward repeater."""
    testbed = Testbed(scenario, seed=testbed_seed)
    m_sd, m_sr, m_rd = testbed.mimo_triple(client, rng)
    delay = testbed.extra_path_delay_s(client)
    relay = AmplifyForwardRelay(RelayConfig(params=testbed.params))
    relay.configure_mimo_link(m_sd, m_sr, m_rd)
    return {"af": float(ff_mimo_rate(relay, delay))}


@task_fn("netsim.link-health-client", version="1")
def _link_health_client(scenario, testbed_seed, client, n_symbols=24,
                        fault=None, rng=None):
    """Link-health work unit: probe-instrumented relay pass for one client.

    Runs a known reference frame through the client's sample-level
    relay with a :class:`repro.probes.ProbeSet` tapping the three named
    sites, and returns the quantised probe aggregates.  ``fault``
    optionally injects a receive-side impairment (``"residual-si"`` /
    ``"tap-drift"``) — the deliberate-perturbation arm the baseline
    drift gate proves itself against.
    """
    from repro.faults import FaultSchedule, ResidualSiStage, TapDriftStage
    from repro.probes import ALWAYS, ProbeSet, make_reference_frame

    testbed = Testbed(scenario, seed=testbed_seed)
    h_sd, h_sr, h_rd = testbed.siso_triple(client, rng)
    cfg = RelayConfig(params=testbed.params, use_decomposition=False)
    relay = FastForwardRelay(cfg)
    relay.configure_siso_link(h_sd, h_sr, h_rd)
    frame = make_reference_frame(testbed.params, n_symbols=n_symbols,
                                 rng=rng)
    # Short frames analyse every segment; the decimated default policy
    # is exercised (and overhead-gated) by the benchmark suite.
    probes = ProbeSet(testbed.params, reference=frame, policy=ALWAYS,
                      budget=cfg.latency)
    faults = None
    schedule = FaultSchedule(testbed_seed * 31 + 7)
    if fault == "residual-si":
        faults = [ResidualSiStage(schedule, jump_rate_per_sample=0.0,
                                  baseline_residual_db=-18.0)]
    elif fault == "tap-drift":
        # Fast enough to decorrelate within one EVM window at 20 Msps.
        faults = [TapDriftStage(schedule, testbed.params.bandwidth_hz,
                                amp_sigma_db_per_sqrt_s=50.0,
                                phase_sigma_rad_per_sqrt_s=50.0)]
    elif fault is not None:
        raise ValueError(f"unknown link-health fault {fault!r}")
    relay.process(frame.iq, faults=faults, probes=probes)
    return probes.summary()


@task_fn("netsim.cancellation-client", version="2")
def _cancellation_client(scenario, testbed_seed, client, cancellation_db,
                         rng=None):
    """Fig. 18 work unit: FF vs HD at one cancellation depth."""
    testbed = Testbed(scenario, seed=testbed_seed)
    m_sd, m_sr, m_rd = testbed.mimo_triple(client, rng)
    delay = testbed.extra_path_delay_s(client)
    direct_rate = ap_only_mimo_rate(m_sd)
    hd_rate = _hd_mimo_rate(testbed, client, rng, direct_rate)
    cfg = RelayConfig(params=testbed.params,
                      cancellation_db=float(cancellation_db))
    relay = FastForwardRelay(cfg)
    relay.configure_mimo_link(m_sd, m_sr, m_rd)
    return {"ff": float(ff_mimo_rate(relay, delay)), "hd": float(hd_rate)}


# ---------------------------------------------------------------------------
# Experiment runners
# ---------------------------------------------------------------------------

def _traced(name):
    """Wrap a runner in a ``netsim.experiment`` telemetry span.

    Zero-cost through the ambient null collector; with a live collector
    installed (``repro report``, or any ``use_collector`` block) each
    experiment run shows up as one top-level span enclosing its sweep.
    """
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with current_collector().span("netsim.experiment",
                                          experiment=name):
                return fn(*args, **kwargs)
        return wrapper
    return decorate


@_traced("overall-gains")
def overall_gains_experiment(num_clients=60, seed=0, scenarios=None,
                             relay_config=None, jobs=None, cache=None,
                             backend=None, checkpoint=None,
                             block_size=None, max_retries=None,
                             task_timeout=None, chaos=None):
    """Figs. 12/13/15 data: per-client rates for the three schemes (2x2).

    Returns arrays ``ap_only``, ``half_duplex``, ``fastforward`` (Mbps)
    plus per-client diagnostics (direct effective SNR, usable direct
    streams) for the Fig. 15 classification.
    """
    scenarios = scenarios if scenarios is not None else paper_scenarios()
    extra = {"relay_config": relay_config} if relay_config is not None else None
    tasks = _client_tasks("netsim.overall-gains-client", scenarios,
                          num_clients, seed, stream=100, extra=extra,
                          block_size=block_size)
    rows = _block_rows(run_sweep(
        tasks, jobs=jobs, backend=backend, cache=cache,
        checkpoint=checkpoint,
        **_ft_kwargs(max_retries, task_timeout, chaos)).results)

    out = {
        "ap_only": np.asarray([r["ap"] for r in rows]),
        "half_duplex": np.asarray([r["hd"] for r in rows]),
        "fastforward": np.asarray([r["ff"] for r in rows]),
        "direct_snr_db": np.asarray([r["snr"] for r in rows]),
        "direct_streams": np.asarray([r["streams"] for r in rows],
                                     dtype=int),
    }
    out["ff_gain_vs_hd"] = relative_gains(out["fastforward"], out["half_duplex"])
    out["ap_gain_vs_hd"] = relative_gains(out["ap_only"], out["half_duplex"])
    out["median_ff_vs_ap"] = median_gain(out["fastforward"],
                                         np.maximum(out["ap_only"], 1e-3))
    out["median_ff_vs_hd"] = median_gain(out["fastforward"], out["half_duplex"])
    return out


@_traced("siso-gains")
def siso_gains_experiment(num_clients=60, seed=0, scenarios=None, jobs=None,
                          cache=None, backend=None, checkpoint=None,
                          block_size=None, max_retries=None,
                          task_timeout=None, chaos=None):
    """Fig. 14 data: SISO AP/relay/client — pure SNR-gain territory."""
    scenarios = scenarios if scenarios is not None else paper_scenarios()
    tasks = _client_tasks("netsim.siso-gains-client", scenarios,
                          num_clients, seed, stream=200,
                          block_size=block_size)
    rows = _block_rows(run_sweep(
        tasks, jobs=jobs, backend=backend, cache=cache,
        checkpoint=checkpoint,
        **_ft_kwargs(max_retries, task_timeout, chaos)).results)

    out = {
        "ap_only": np.asarray([r["ap"] for r in rows]),
        "half_duplex": np.asarray([r["hd"] for r in rows]),
        "fastforward": np.asarray([r["ff"] for r in rows]),
    }
    out["ff_gain_vs_hd"] = relative_gains(out["fastforward"], out["half_duplex"])
    out["median_ff_vs_hd"] = median_gain(out["fastforward"], out["half_duplex"])
    out["tail_ff_vs_hd"] = percentile_gain(out["fastforward"],
                                           out["half_duplex"], 90)
    return out


@_traced("uplink-gains")
def uplink_gains_experiment(num_clients=40, seed=0, client_tx_power_dbm=15.0,
                            jobs=None, cache=None, backend=None,
                            checkpoint=None, block_size=None,
                            max_retries=None, task_timeout=None,
                            chaos=None):
    """Uplink (client -> AP) gains — "the relay can be used to improve
    the link from the client to the AP as well" (§1, footnote 1).

    SISO, with the roles swapped by reciprocity: the source is the
    client (typically at lower transmit power than the AP), the first
    hop is the client->relay channel, and the relay's amplification is
    re-derived for the relay->AP path (the paper's footnote: "the
    amplification applied is different in both directions").
    """
    tasks = _client_tasks(
        "netsim.uplink-gains-client", paper_scenarios(), num_clients, seed,
        stream=700, extra={"client_tx_power_dbm": client_tx_power_dbm},
        block_size=block_size)
    rows = _block_rows(run_sweep(
        tasks, jobs=jobs, backend=backend, cache=cache,
        checkpoint=checkpoint,
        **_ft_kwargs(max_retries, task_timeout, chaos)).results)
    out = {
        "ap_only": np.asarray([r["ap"] for r in rows]),
        "fastforward": np.asarray([r["ff"] for r in rows]),
    }
    nz = out["ap_only"] > 0
    out["median_ff_vs_ap"] = float(np.median(
        out["fastforward"][nz] / out["ap_only"][nz])) if nz.any() else np.inf
    out["dead_fixed"] = float(np.mean(
        (out["ap_only"] == 0) & (out["fastforward"] > 0)))
    return out


@_traced("scenario-classes")
def scenario_class_experiment(num_clients=90, seed=0, jobs=None, cache=None,
                              backend=None, checkpoint=None,
                              max_retries=None, task_timeout=None,
                              chaos=None):
    """Fig. 15: gains partitioned by (SNR, rank) client class.

    Classes: a) low SNR + low rank (edge); b) medium/high SNR + low
    rank (pinhole); c) high SNR + full rank (near AP).
    """
    data = overall_gains_experiment(num_clients=num_clients, seed=seed,
                                    jobs=jobs, cache=cache, backend=backend,
                                    checkpoint=checkpoint,
                                    max_retries=max_retries,
                                    task_timeout=task_timeout, chaos=chaos)
    snr = data["direct_snr_db"]
    streams = data["direct_streams"]
    gains = {}
    masks = {
        "low_snr_low_rank": (snr < 10.0) & (streams <= 1),
        "medium_snr_low_rank": (snr >= 10.0) & (streams <= 1),
        "high_snr_high_rank": (snr >= 18.0) & (streams >= 2),
    }
    for name, mask in masks.items():
        if mask.sum() == 0:
            gains[name] = np.array([])
            continue
        gains[name] = relative_gains(
            data["fastforward"][mask], data["half_duplex"][mask],
            drop_zero_baseline=True)
    gains["counts"] = {name: int(mask.sum()) for name, mask in masks.items()}
    gains["raw"] = data
    return gains


@_traced("latency-sweep")
def latency_sweep_experiment(latencies_ns=(0, 100, 200, 300, 400, 500),
                             num_clients=40, seed=0, jobs=None, cache=None,
                             backend=None, checkpoint=None,
                             block_size=None, max_retries=None,
                             task_timeout=None, chaos=None):
    """Fig. 16: median throughput gain vs relay processing latency.

    Extra buffering is added to the relay's budget; past the CP the
    relayed copy turns into inter-symbol interference and the gain
    collapses below 1 (worse than no relay).

    All (latency, client) pairs form one task list, so the whole sweep
    shards across workers at once.
    """
    scenarios = paper_scenarios()
    results = {"latency_ns": np.asarray(latencies_ns, dtype=float)}
    base = LatencyBudget(adc_dac_s=50e-9, cnf_digital_s=50e-9,
                         extra_buffering_s=0.0).total_s()
    tasks, spans, clients_so_far = [], [], 0
    for extra_ns in latencies_ns:
        # The sweep interprets the x-axis as *total* processing latency,
        # matching the paper ("vary the processing delay at the FF relay
        # from 100ns to 400ns"): the base budget is ~100 ns.
        extra = max(extra_ns * 1e-9 - base, 0.0)
        lat_tasks = _client_tasks(
            "netsim.latency-client", scenarios, num_clients, seed,
            stream=300, extra={"extra_buffering_s": extra},
            block_size=block_size)
        covered = _task_client_count(lat_tasks)
        spans.append((clients_so_far, clients_so_far + covered))
        clients_so_far += covered
        tasks.extend(lat_tasks)
    rows = _block_rows(run_sweep(
        tasks, jobs=jobs, backend=backend, cache=cache,
        checkpoint=checkpoint,
        **_ft_kwargs(max_retries, task_timeout, chaos)).results)

    medians = []
    for lo, hi in spans:
        ff = np.asarray([r["ff"] for r in rows[lo:hi]])
        hd = np.asarray([r["hd"] for r in rows[lo:hi]])
        medians.append(median_gain(ff, hd))
    results["median_gain"] = np.asarray(medians)
    return results


@_traced("no-cnf")
def no_cnf_experiment(num_clients=60, seed=0, jobs=None, cache=None,
                      backend=None, checkpoint=None, max_retries=None,
                      task_timeout=None, chaos=None):
    """Fig. 17: the blind amplify-and-forward repeater vs FastForward."""
    data = overall_gains_experiment(
        num_clients=num_clients, seed=seed, jobs=jobs, cache=cache,
        backend=backend, checkpoint=_sub_checkpoint(checkpoint, "overall"),
        max_retries=max_retries, task_timeout=task_timeout, chaos=chaos)
    # Stream 100 on purpose: the repeater sees the same clients and
    # channel draws as the FastForward arm above.
    tasks = _client_tasks("netsim.no-cnf-client", paper_scenarios(),
                          num_clients, seed, stream=100)
    rows = run_sweep(tasks, jobs=jobs, backend=backend, cache=cache,
                     checkpoint=_sub_checkpoint(checkpoint, "af"),
                     **_ft_kwargs(max_retries, task_timeout, chaos)).results
    data["amplify_forward"] = np.asarray([r["af"] for r in rows])
    data["af_gain_vs_hd"] = relative_gains(data["amplify_forward"],
                                           data["half_duplex"])
    data["median_af_vs_hd"] = median_gain(data["amplify_forward"],
                                          data["half_duplex"])
    return data


@_traced("cancellation-sweep")
def cancellation_sweep_experiment(cancellations_db=(100, 102, 104, 106, 108, 110),
                                  num_clients=40, seed=0, jobs=None,
                                  cache=None, backend=None, checkpoint=None,
                                  block_size=None, max_retries=None,
                                  task_timeout=None, chaos=None):
    """Fig. 18: median gain vs the cancellation the relay achieves.

    Cancellation caps amplification (minus the loop margin); dead-spot
    clients lose the most when the cap drops.
    """
    scenarios = paper_scenarios()
    tasks, spans, clients_so_far = [], [], 0
    for canc in cancellations_db:
        c_tasks = _client_tasks(
            "netsim.cancellation-client", scenarios, num_clients, seed,
            stream=400, extra={"cancellation_db": float(canc)},
            block_size=block_size)
        covered = _task_client_count(c_tasks)
        spans.append((clients_so_far, clients_so_far + covered))
        clients_so_far += covered
        tasks.extend(c_tasks)
    rows = _block_rows(run_sweep(
        tasks, jobs=jobs, backend=backend, cache=cache,
        checkpoint=checkpoint,
        **_ft_kwargs(max_retries, task_timeout, chaos)).results)

    medians, tails = [], []
    for lo, hi in spans:
        ff = np.asarray([r["ff"] for r in rows[lo:hi]])
        hd = np.asarray([r["hd"] for r in rows[lo:hi]])
        medians.append(median_gain(ff, hd))
        tails.append(percentile_gain(ff, hd, 80))
    return {
        "cancellation_db": np.asarray(cancellations_db, dtype=float),
        "median_gain": np.asarray(medians),
        "p80_gain": np.asarray(tails),
    }


@_traced("link-health")
def link_health_experiment(num_clients=4, seed=2014, n_symbols=24,
                           fault=None, scenarios=None, jobs=None,
                           cache=None, backend=None, checkpoint=None,
                           block_size=None, max_retries=None,
                           task_timeout=None, chaos=None):
    """Probe-instrumented relay passes: the link-health sweep.

    Each client runs a known reference frame through its sample-level
    relay with IQ taps at the three named sites.  Returns the per-client
    probe aggregate rows plus their mean under ``"probes"`` — the flat
    metric dict :mod:`repro.probes.baseline` freezes and drift-checks,
    and the payload behind ``repro report link-health --html``.

    Aggregates are means of dyadic-quantised per-client values, so the
    result is bit-identical across serial/process backends and every
    chunk layout (the contract the determinism suite asserts).
    """
    scenarios = scenarios if scenarios is not None \
        else paper_scenarios()[:1]
    extra = {"n_symbols": int(n_symbols)}
    if fault is not None:
        extra["fault"] = fault
    tasks = _client_tasks("netsim.link-health-client", scenarios,
                          num_clients, seed, stream=800, extra=extra,
                          block_size=block_size)
    rows = _block_rows(run_sweep(
        tasks, jobs=jobs, backend=backend, cache=cache,
        checkpoint=checkpoint,
        **_ft_kwargs(max_retries, task_timeout, chaos)).results)

    keys = sorted({k for row in rows for k in row})
    aggregate = {}
    for key in keys:
        values = [row[key] for row in rows if key in row]
        if values:
            aggregate[key] = float(np.mean(values))
    return {
        "probes": aggregate,
        "per_client": rows,
        "num_clients": len(rows),
        "fault": fault,
    }


@_traced("fingerprint")
def fingerprint_experiment(num_locations=100, num_clients=4,
                           packets_per_client=50, seed=0,
                           threshold=None, snr_db=18.0, drift=0.18):
    """Fig. 21: uplink sender-identification error rates.

    ``num_clients`` clients at ``num_locations`` placements; for each
    packet the relay measures a noisy STF through the client's channel
    — which has *drifted* since enrollment (the paper measures over a
    five-minute window precisely to capture channel fluctuation) — and
    must name the sender.  Returns per-location false-positive and
    false-negative rates.
    """
    from repro.ident.fingerprint import (
        AGGRESSIVE_THRESHOLD,
        ChannelFingerprinter,
    )
    from repro.phy.params import WIFI_20MHZ

    if threshold is None:
        threshold = AGGRESSIVE_THRESHOLD
    params = WIFI_20MHZ
    scenario = paper_scenarios()[0]
    testbed = Testbed(scenario, seed=seed)
    used = params.used_subcarriers()

    fp_rates, fn_rates = [], []
    rngs = child_rngs(seed + 500, num_locations)
    for rng in rngs:
        clients = testbed.client_positions(num_clients, rng=rng,
                                           min_ap_distance_m=1.0)
        finger = ChannelFingerprinter(params, threshold=threshold)
        channels = []
        for c_idx, client in enumerate(clients):
            h = testbed.propagation.siso_channel(
                client, testbed.scenario.relay, params.sample_period_s,
                num_taps=4, rng=rng).frequency_response(used, params.fft_size)
            # Normalise so identification tests geometry, not raw power.
            h = h / max(np.sqrt(np.mean(np.abs(h) ** 2)), 1e-12)
            channels.append(h)
            finger.enroll(c_idx, h, used)

        false_pos = 0
        false_neg = 0
        total = 0
        for c_idx, h in enumerate(channels):
            expected = finger.expected_measurement(c_idx)
            rms = np.sqrt(np.mean(np.abs(expected) ** 2))
            noise_std = rms * 10.0 ** (-snr_db / 20.0)
            for _ in range(packets_per_client):
                # Per-tone channel drift over the measurement window plus
                # receiver noise; global phase is arbitrary per packet.
                wobble = 1.0 + drift / np.sqrt(2.0) * (
                    rng.standard_normal(expected.shape)
                    + 1j * rng.standard_normal(expected.shape))
                measured = expected * wobble \
                    * np.exp(1j * rng.uniform(0, 2 * np.pi))
                measured = measured + noise_std / np.sqrt(2.0) * (
                    rng.standard_normal(expected.shape)
                    + 1j * rng.standard_normal(expected.shape))
                decision = _identify_from_measurement(finger, measured)
                total += 1
                if decision is None:
                    false_neg += 1
                elif decision != c_idx:
                    false_pos += 1
        fp_rates.append(false_pos / total)
        fn_rates.append(false_neg / total)
    return {
        "false_positive": np.asarray(fp_rates),
        "false_negative": np.asarray(fn_rates),
        "threshold": threshold,
    }


def _degraded_siso_rate(relay, cfg, cancellation_db, gain_backoff_db,
                        clip_fraction, delay_s, channels):
    """Rate of the (possibly degraded) relay on the *true* channels.

    Temporarily overrides the achieved cancellation and the operating
    amplification (tuning happened earlier, on possibly stale reports),
    evaluates :meth:`destination_snr_db` against the current air, and
    caps the per-tone SNR at ``1/clip_fraction`` — clipping distortion
    is signal-correlated, so it floors the SINR no matter how strong
    the link is.
    """
    from repro.netsim.throughput import siso_rate_mbps

    amp0, canc0 = relay.amplification_db, cfg.cancellation_db
    try:
        cfg.cancellation_db = float(cancellation_db)
        relay.amplification_db = amp0 - float(gain_backoff_db)
        snr_db = relay.destination_snr_db(delay_s, channels=channels)
    finally:
        relay.amplification_db, cfg.cancellation_db = amp0, canc0
    snr = 10.0 ** (snr_db / 10.0)
    if clip_fraction > 0.0:
        snr = 1.0 / (1.0 / np.maximum(snr, 1e-12) + clip_fraction)
    return siso_rate_mbps(10.0 * np.log10(np.maximum(snr, 1e-30)))


@task_fn("netsim.fault-client-probe", version="1")
def _fault_client_probe(scenario, testbed_seed, client, rng=None):
    """Fault-sweep phase 1: channels and baseline rates for one client."""
    testbed = Testbed(scenario, seed=testbed_seed)
    h_sd, h_sr, h_rd = testbed.siso_triple(client, rng)
    delay = testbed.extra_path_delay_s(client)
    direct = ap_only_siso_rate(h_sd)
    hd = half_duplex_throughput_mbps(direct, ap_only_siso_rate(h_sr),
                                     ap_only_siso_rate(h_rd))
    cfg = RelayConfig(params=testbed.params, use_decomposition=False)
    relay = FastForwardRelay(cfg)
    relay.configure_siso_link(h_sd, h_sr, h_rd)
    ff = ff_siso_rate(relay, delay)
    return {"h_sd": h_sd, "h_sr": h_sr, "h_rd": h_rd,
            "delay": float(delay), "direct": float(direct),
            "hd": float(hd), "ff": float(ff)}


@task_fn("netsim.fault-client-run", version="1")
def _fault_client_run(ofdm_params, h_sd, h_sr, h_rd, delay, hd_rate,
                      fault_rates, num_steps, schedule_seed, si_jump_db,
                      clip_burst_steps, clip_fraction, retune_success_prob):
    """Fault-sweep phase 2: time-step one client over every fault rate.

    Both arms see the *identical* fault trace (one seeded uniform draw
    per step, thresholded by the rate, so higher rates are supersets).
    Returns per-rate mean throughput for both arms, per-rate supervisor
    event counts and the last rate's event log.
    """
    from repro.faults import FaultSchedule
    from repro.ident.sounding import DEFAULT_SOUNDING_INTERVAL_S
    from repro.supervision import (
        RelayHealthMonitor,
        RelaySupervisor,
        SupervisorPolicy,
    )

    step_s = DEFAULT_SOUNDING_INTERVAL_S
    fault_rates = np.asarray(fault_rates, dtype=float)
    n_sc = h_sd.size

    schedule = FaultSchedule(schedule_seed)
    # One uniform draw per step per process, independent of the
    # rate: event at step t iff u[t] < p(rate), so a higher rate's
    # fault trace is a superset of a lower rate's.
    u_jump = schedule.stream("si-jump").random(num_steps)
    u_clip = schedule.stream("clip").random(num_steps)
    u_loss = schedule.stream("poll-loss").random(num_steps)
    u_retune = schedule.stream("retune").random(4 * num_steps)
    # The air drifts regardless of faults: a per-tone phase walk on
    # the relay hops (the direct path stays put so the baselines
    # are constant).
    drift_rng = schedule.stream("drift")
    phase_sr = np.cumsum(0.15 * drift_rng.standard_normal(
        (num_steps, n_sc)), axis=0)
    phase_rd = np.cumsum(0.15 * drift_rng.standard_normal(
        (num_steps, n_sc)), axis=0)

    supervised = np.zeros(fault_rates.size)
    unsupervised = np.zeros(fault_rates.size)
    event_counts = [dict() for _ in fault_rates]
    sample_events = []

    for r_idx, rate in enumerate(fault_rates):
        p_jump = p_clip = 0.25 * rate
        p_loss = min(2.0 * rate, 0.95)

        cfg = RelayConfig(params=ofdm_params, use_decomposition=False)
        relay = FastForwardRelay(cfg)
        relay.configure_siso_link(h_sd, h_sr, h_rd)
        nominal_canc = cfg.cancellation_db

        sup_state = {"canc": nominal_canc}
        retune_calls = [0]

        def attempt_retune(now_s):
            ok = bool(u_retune[retune_calls[0] % u_retune.size]
                      < retune_success_prob)
            retune_calls[0] += 1
            if ok:
                sup_state["canc"] = nominal_canc
            return ok

        policy = SupervisorPolicy(
            retune_backoff_s=0.6 * step_s,
            retune_backoff_max_s=4.0 * step_s,
            retune_retry_budget=2,
            gain_step_db=6.0, max_gain_backoff_db=6.0,
            escalation_hold_s=0.5 * step_s,
            recovery_hold_s=1.2 * step_s,
            fallback_sounding_age_s=0.5)
        sup = RelaySupervisor(
            monitor=RelayHealthMonitor(alpha=1.0),
            policy=policy, retune=attempt_retune)

        unsup_canc = nominal_canc
        clip_left = 0
        age_steps = 0
        sup_sum = unsup_sum = 0.0
        for t in range(num_steps):
            now = (t + 1) * step_s
            true_triple = (h_sd, h_sr * np.exp(1j * phase_sr[t]),
                           h_rd * np.exp(1j * phase_rd[t]))
            # Fault processes for this step.
            if u_jump[t] < p_jump:
                sup_state["canc"] = nominal_canc - si_jump_db
                unsup_canc = nominal_canc - si_jump_db
            if u_clip[t] < p_clip and clip_left == 0:
                clip_left = clip_burst_steps
            clip_now = clip_fraction if clip_left > 0 else 0.0
            clip_left = max(clip_left - 1, 0)
            if u_loss[t] < p_loss:
                age_steps += 1
            else:
                age_steps = 0
                # A delivered poll re-tunes the constructive filter
                # onto the current air (both arms benefit equally).
                relay.configure_siso_link(*true_triple)

            residual_sup = -50.0 + (nominal_canc - sup_state["canc"])
            residual_unsup = -50.0 + (nominal_canc - unsup_canc)

            # Supervised arm: observe, walk the ladder, then serve.
            sup.monitor.observe(residual_si_db=residual_sup,
                                clip_fraction=clip_now,
                                sounding_age_s=age_steps * step_s)
            sup.step(now)
            if not sup.relaying:
                sup_sum += hd_rate
            else:
                # Gain backoff unloads the converters too.
                eff_clip = clip_now * 10.0 ** (-sup.gain_backoff_db / 10.0)
                sup_sum += _degraded_siso_rate(
                    relay, cfg, sup_state["canc"], sup.gain_backoff_db,
                    eff_clip, delay, true_triple)

            # Unsupervised arm: same trace, no remedy, ever.
            unsup_sum += _degraded_siso_rate(
                relay, cfg, unsup_canc, 0.0, clip_now, delay,
                true_triple)

        supervised[r_idx] = sup_sum / num_steps
        unsupervised[r_idx] = unsup_sum / num_steps
        for event in sup.events:
            key = event.kind.value
            event_counts[r_idx][key] = event_counts[r_idx].get(key, 0) + 1
        if r_idx == fault_rates.size - 1:
            sample_events = [str(event) for event in sup.events]

    return {"supervised": supervised, "unsupervised": unsupervised,
            "event_counts": event_counts, "sample_events": sample_events}


@_traced("fault-sweep")
def fault_sweep_experiment(fault_rates=(0.0, 0.1, 0.2, 0.4), num_clients=5,
                           num_steps=60, seed=0, scenario=None,
                           si_jump_db=35.0, clip_burst_steps=6,
                           clip_fraction=0.25, retune_success_prob=0.8,
                           jobs=None, cache=None, backend=None,
                           checkpoint=None, max_retries=None,
                           task_timeout=None, chaos=None):
    """Throughput vs fault rate, with and without the supervisor.

    The fault-injection counterpart of the gains experiments: SISO
    clients whose relay path is worth having (§6's selectivity rule),
    time-stepped at the sounding interval, with three fault processes
    scaled by ``fault_rate`` — SI-channel jumps that void the tuned
    cancellation by ``si_jump_db``, ADC clipping bursts of
    ``clip_burst_steps`` steps, and lost sounding polls that age the
    relay's channel state while the air keeps drifting.

    Both arms see the *identical* fault trace (one seeded uniform draw
    per step, thresholded by the rate, so higher rates are supersets):
    the supervised relay detects via its health monitor and walks the
    degradation ladder (re-tune -> gain backoff -> half-duplex ->
    recover), the unsupervised relay blindly keeps relaying.  Returns
    per-rate mean throughputs for both arms plus the half-duplex and
    AP-only baselines, per-rate supervisor event counts, and a sample
    event log — everything reproducible from ``seed``.

    Runs as two engine phases: a per-client channel/baseline probe,
    then — after the §6 selectivity cut — one time-stepped simulation
    task per selected client covering every fault rate.
    """
    scenario = scenario if scenario is not None else paper_scenarios()[1]
    testbed = Testbed(scenario, seed=seed)
    fault_rates = np.asarray(fault_rates, dtype=float)

    # -- phase 1: only clients the relay constructively serves (§6) --------
    positions, seeds = _collect_clients(testbed, num_clients, seed + 600)
    probe_tasks = [
        Task("netsim.fault-client-probe",
             {"scenario": scenario, "testbed_seed": seed, "client": client},
             seed=client_seed)
        for client, client_seed in zip(positions, seeds)
    ]
    clients = run_sweep(probe_tasks, jobs=jobs, backend=backend, cache=cache,
                        checkpoint=_sub_checkpoint(checkpoint, "probe"),
                        **_ft_kwargs(max_retries, task_timeout,
                                     chaos)).results
    selected = [c for c in clients if c["ff"] >= 1.3 * max(c["hd"], 1e-9)]
    if not selected:
        selected = [max(clients,
                        key=lambda c: c["ff"] / max(c["hd"], 1e-9))]

    # -- phase 2: the time-stepped two-arm simulation per client -----------
    run_tasks = [
        Task("netsim.fault-client-run",
             {"ofdm_params": testbed.params, "h_sd": c["h_sd"],
              "h_sr": c["h_sr"], "h_rd": c["h_rd"], "delay": c["delay"],
              "hd_rate": c["hd"], "fault_rates": tuple(float(r)
                                                       for r in fault_rates),
              "num_steps": int(num_steps),
              "schedule_seed": seed * 7919 + 13 + c_idx,
              "si_jump_db": float(si_jump_db),
              "clip_burst_steps": int(clip_burst_steps),
              "clip_fraction": float(clip_fraction),
              "retune_success_prob": float(retune_success_prob)})
        for c_idx, c in enumerate(selected)
    ]
    runs = run_sweep(run_tasks, jobs=jobs, backend=backend, cache=cache,
                     checkpoint=_sub_checkpoint(checkpoint, "run"),
                     **_ft_kwargs(max_retries, task_timeout, chaos)).results

    supervised = np.zeros(fault_rates.size)
    unsupervised = np.zeros(fault_rates.size)
    event_counts = [dict() for _ in fault_rates]
    for run in runs:
        supervised += np.asarray(run["supervised"])
        unsupervised += np.asarray(run["unsupervised"])
        for r_idx, counts in enumerate(run["event_counts"]):
            for key, n in counts.items():
                event_counts[r_idx][key] = event_counts[r_idx].get(key, 0) + n
    sample_events = list(runs[0]["sample_events"]) if runs else []

    n_sel = len(selected)
    return {
        "fault_rate": fault_rates,
        "supervised": supervised / n_sel,
        "unsupervised": unsupervised / n_sel,
        "half_duplex": np.full(fault_rates.size,
                               float(np.mean([c["hd"] for c in selected]))),
        "ap_only": np.full(fault_rates.size,
                           float(np.mean([c["direct"] for c in selected]))),
        "nominal_ff": float(np.mean([c["ff"] for c in selected])),
        "event_counts": event_counts,
        "sample_events": sample_events,
        "num_clients": n_sel,
        "num_steps": num_steps,
        "seed": seed,
    }


def _identify_from_measurement(finger, measured):
    """Identify from a pre-computed tone measurement (test shortcut)."""
    best_id, best_d = None, np.inf
    norm_m = np.linalg.norm(measured)
    for client_id in finger._database:
        expected = finger.expected_measurement(client_id)
        norm_e = np.linalg.norm(expected)
        if norm_m == 0 or norm_e == 0:
            continue
        alpha = np.vdot(expected, measured) / (norm_e ** 2)
        d = np.linalg.norm(measured - alpha * expected) / norm_m
        if d < best_d:
            best_id, best_d = client_id, d
    if best_d > finger.threshold:
        return None
    return best_id
