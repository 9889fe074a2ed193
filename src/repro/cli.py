"""Command-line interface: ``python -m repro.cli <command>``.

Gives downstream users the headline experiments without writing code:

=============  =====================================================
command        regenerates
=============  =====================================================
coverage       Figs. 1-2: SNR / MIMO-stream heatmap statistics
cancellation   §3.3: the 108-110 dB self-interference figure
gains          Fig. 12: relative throughput gains (three schemes)
latency        Fig. 16: median gain vs processing latency
fingerprint    Fig. 21: uplink identification error rates
faults         fault sweep: supervised vs unsupervised degradation
fleet          district-scale multi-relay sweep: association policy,
               fault storm, fast-reroute latency / rescue-rate CDFs
sweep          any experiment through the parallel engine
               (``--jobs``, on-disk result cache, checkpoint/resume)
report         any sweep experiment under a telemetry collector:
               per-stage/per-shard summary tables, JSONL and Chrome
               trace exports (``--jsonl``, ``--trace``, ``--csv``) and
               the static HTML link-health report (``--html``)
serve          the always-on relay service: concurrent seeded client
               sessions through shared chains with fair scheduling,
               backpressure, fault storms, and a live status
               directory (``--status-dir``, ``--once``)
obs            observability analysis: ``profile`` turns a telemetry
               JSONL export into a span-tree wall-time attribution,
               folded stacks and a no-JS SVG flamegraph; ``slo``
               replays recorded service series through the burn-rate
               engine; ``diff`` compares two runs and exits non-zero
               on perf regressions past a threshold
=============  =====================================================
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _cmd_coverage(args):
    from repro.netsim import Testbed, coverage_heatmap, paper_scenarios

    scenario = next((s for s in paper_scenarios() if s.name == args.scenario),
                    None)
    if scenario is None:
        names = [s.name for s in paper_scenarios()]
        raise SystemExit(f"unknown scenario {args.scenario!r}; "
                         f"choose from {names}")
    testbed = Testbed(scenario, seed=args.seed)
    result = coverage_heatmap(testbed, spacing_m=args.spacing,
                              seed=args.seed)
    print(f"scenario {scenario.name}: {len(result.positions)} grid points")
    print(f"  SNR (median): AP only {np.median(result.snr_ap_only_db):.1f} dB"
          f" -> with FF {np.median(result.snr_with_ff_db):.1f} dB")
    print(f"  median improvement: {result.median_improvement_db():.1f} dB")
    print(f"  2-stream coverage: {result.fraction_full_rank(False):.0%}"
          f" -> {result.fraction_full_rank(True):.0%}")


def _cmd_cancellation(args):
    from repro.cancellation import CancellationPipeline

    for seed in range(args.seed, args.seed + args.trials):
        pipe = CancellationPipeline(rng=seed)
        pipe.tune(online=args.online)
        print(f"seed {seed}: {pipe.measure()}")


def _cmd_gains(args):
    from repro.netsim import overall_gains_experiment

    data = overall_gains_experiment(num_clients=args.clients, seed=args.seed)
    print(f"clients: {data['ap_only'].size}")
    print(f"  median FF vs AP-only : {data['median_ff_vs_ap']:.2f}x "
          f"(paper: 3x)")
    print(f"  median FF vs HD mesh : {data['median_ff_vs_hd']:.2f}x "
          f"(paper: 2.3x)")
    print(f"  dead locations       : "
          f"{np.mean(data['ap_only'] == 0):.0%} (AP only) -> "
          f"{np.mean(data['fastforward'] == 0):.0%} (with FF)")


def _cmd_latency(args):
    from repro.netsim import latency_sweep_experiment

    data = latency_sweep_experiment(
        latencies_ns=tuple(args.latencies), num_clients=args.clients,
        seed=args.seed)
    for lat, gain in zip(data["latency_ns"], data["median_gain"]):
        marker = "  <- worse than no relay" if gain < 1.0 else ""
        print(f"  {int(lat):4d} ns: median gain {gain:.2f}x{marker}")


def _cmd_fingerprint(args):
    from repro.netsim import fingerprint_experiment

    data = fingerprint_experiment(num_locations=args.locations,
                                  packets_per_client=args.packets,
                                  seed=args.seed)
    print(f"threshold {data['threshold']}: "
          f"false positives {data['false_positive'].mean():.3%}, "
          f"false negatives {data['false_negative'].mean():.3%} "
          f"(paper: ~0% / ~5%)")


def _cmd_faults(args):
    from repro.netsim import fault_sweep_experiment

    data = fault_sweep_experiment(fault_rates=tuple(args.rates),
                                  num_clients=args.clients,
                                  num_steps=args.steps, seed=args.seed)
    print(f"clients: {data['num_clients']} (relay-worthy), "
          f"{data['num_steps']} steps of 50 ms; "
          f"nominal FF {data['nominal_ff']:.1f} Mbps")
    print(f"  {'rate':>5} {'supervised':>11} {'unsupervised':>13} "
          f"{'half-duplex':>12}   ladder events")
    for i, rate in enumerate(data["fault_rate"]):
        counts = data["event_counts"][i]
        summary = ", ".join(f"{k}x{v}" for k, v in sorted(counts.items())) \
            or "-"
        print(f"  {rate:5.2f} {data['supervised'][i]:9.1f} M "
              f"{data['unsupervised'][i]:11.1f} M "
              f"{data['half_duplex'][i]:10.1f} M   {summary}")
    if args.events and data["sample_events"]:
        print("sample event log (worst fault rate, first client):")
        for line in data["sample_events"]:
            print(f"  {line}")


def _cmd_fleet(args):
    from repro.exec import last_sweep_stats
    from repro.fleet import fleet_experiment

    data = fleet_experiment(
        rows=args.rows, cols=args.cols, clients_per_home=args.density,
        seed=args.seed, policy=args.policy, storm=args.storm,
        num_steps=args.steps, **_sweep_kwargs(args))
    tp = data["throughput_cdf"]["percentiles"]
    lat = data["latency_cdf"]
    print(f"district: {data['num_relays']} relays, "
          f"{data['num_clients']} clients, policy {data['policy']}, "
          f"storm rate {data['storm']['rate']:.2f}, "
          f"{data['num_steps']} steps of 50 ms")
    print(f"  relay load          : min {int(data['relay_load'].min())}, "
          f"max {int(data['relay_load'].max())} clients")
    print(f"  throughput (Mbps)   : p5 {tp['5']:.1f}  p50 {tp['50']:.1f}  "
          f"p95 {tp['95']:.1f}")
    print(f"  reroutes            : {data['reroutes']} "
          f"({data['outage_relays']} relays muted, "
          f"{data['failbacks']} failbacks)")
    print(f"  rescue rate         : {data['rescue_rate']:.1%}")
    if data["reroutes"]:
        print(f"  reroute latency     : median "
              f"{lat['percentiles']['50']:.0f}, max "
              f"{data['max_latency_intervals']} sounding intervals "
              f"(bound {data['latency_bound_intervals']})")
    stats = last_sweep_stats()
    if stats is not None:
        print(f"engine: {stats.summary()}")


#: ``repro sweep`` experiment registry: name -> (runner factory, printer).
SWEEP_EXPERIMENTS = ("gains", "siso", "uplink", "scenarios", "latency",
                     "no-cnf", "cancellation", "faults", "coverage",
                     "link-health")

#: ``repro fleet`` association policies — mirrors
#: ``repro.fleet.POLICIES`` (kept literal so building the parser never
#: imports the fleet stack; a test asserts the two stay in sync).
FLEET_POLICIES = ("strongest-rss", "hashed-lb", "throughput-predictive")


def _sweep_kwargs(args):
    chaos = None
    if getattr(args, "chaos", None):
        from repro.exec.chaos import ChaosPolicy

        chaos = ChaosPolicy.parse(args.chaos)
    return {"jobs": args.jobs, "backend": args.backend, "cache": args.cache,
            "checkpoint": args.checkpoint, "max_retries": args.max_retries,
            "task_timeout": args.task_timeout, "chaos": chaos}


def _run_sweep_experiment(args):
    from repro import netsim

    kw = _sweep_kwargs(args)
    name = args.experiment
    if name == "gains":
        data = netsim.overall_gains_experiment(
            num_clients=args.clients, seed=args.seed, **kw)
        print(f"clients: {data['ap_only'].size}")
        print(f"  median FF vs AP-only : {data['median_ff_vs_ap']:.2f}x")
        print(f"  median FF vs HD mesh : {data['median_ff_vs_hd']:.2f}x")
    elif name == "siso":
        data = netsim.siso_gains_experiment(
            num_clients=args.clients, seed=args.seed, **kw)
        print(f"clients: {data['ap_only'].size}")
        print(f"  median FF vs HD mesh : {data['median_ff_vs_hd']:.2f}x")
        print(f"  p90 FF vs HD mesh    : {data['tail_ff_vs_hd']:.2f}x")
    elif name == "uplink":
        data = netsim.uplink_gains_experiment(
            num_clients=args.clients, seed=args.seed, **kw)
        print(f"clients: {data['ap_only'].size}")
        print(f"  median FF vs AP-only : {data['median_ff_vs_ap']:.2f}x")
    elif name == "scenarios":
        data = netsim.scenario_class_experiment(
            num_clients=args.clients, seed=args.seed, **kw)
        for klass, count in data["counts"].items():
            gains = data[klass]
            med = f"{np.median(gains):.2f}x" if gains.size else "-"
            print(f"  {klass:<22} {count:3d} clients, median gain {med}")
    elif name == "latency":
        data = netsim.latency_sweep_experiment(
            num_clients=args.clients, seed=args.seed, **kw)
        for lat, gain in zip(data["latency_ns"], data["median_gain"]):
            print(f"  {int(lat):4d} ns: median gain {gain:.2f}x")
    elif name == "no-cnf":
        data = netsim.no_cnf_experiment(
            num_clients=args.clients, seed=args.seed, **kw)
        print(f"  median FF vs HD mesh : {data['median_ff_vs_hd']:.2f}x")
        print(f"  median AF vs HD mesh : {data['median_af_vs_hd']:.2f}x")
    elif name == "cancellation":
        data = netsim.cancellation_sweep_experiment(
            num_clients=args.clients, seed=args.seed, **kw)
        for canc, gain in zip(data["cancellation_db"], data["median_gain"]):
            print(f"  {int(canc):4d} dB: median gain {gain:.2f}x")
    elif name == "faults":
        data = netsim.fault_sweep_experiment(
            num_clients=args.clients, seed=args.seed, **kw)
        for i, rate in enumerate(data["fault_rate"]):
            print(f"  rate {rate:.2f}: supervised "
                  f"{data['supervised'][i]:.1f} M, unsupervised "
                  f"{data['unsupervised'][i]:.1f} M")
    elif name == "coverage":
        from repro.netsim import Testbed, coverage_heatmap, paper_scenarios

        testbed = Testbed(paper_scenarios()[0], seed=args.seed)
        data = coverage_heatmap(testbed, spacing_m=args.spacing,
                                seed=args.seed, **kw)
        print(f"  {len(data.positions)} grid points, median improvement "
              f"{data.median_improvement_db():.1f} dB")
    elif name == "link-health":
        data = netsim.link_health_experiment(
            num_clients=args.clients, seed=args.seed, **kw)
        probes = data["probes"]
        print(f"clients: {data['num_clients']} (probe-instrumented)")
        for site in ("post-si-cancellation", "post-cnf",
                     "post-amplification"):
            evm = probes.get(f"{site}.evm_rms_db")
            depth = probes.get(f"{site}.cancellation_depth_db")
            evm_s = f"{evm:7.2f} dB" if evm is not None else "      -"
            depth_s = f"{depth:7.2f} dB" if depth is not None else "      -"
            print(f"  {site:<22} EVM {evm_s}   SI depth {depth_s}")
        print(f"  latency: {probes.get('latency.total_ns', 0.0):.0f} ns "
              f"of {probes.get('latency.cp_ns', 0.0):.0f} ns CP "
              f"(margin {probes.get('latency.margin_ns', 0.0):.0f} ns)")
    else:                            # pragma: no cover - argparse guards
        raise SystemExit(f"unknown sweep experiment {name!r}")
    return data


def _cmd_sweep(args):
    from repro.exec import last_sweep_stats

    _run_sweep_experiment(args)
    stats = last_sweep_stats()
    if stats is not None:
        print(f"engine: {stats.summary()}")
        if stats.cache is not None:
            cs = stats.cache.stats
            print(f"cache : {cs.hits} hits, {cs.misses} misses, "
                  f"{cs.stores} stores, {cs.invalidations} invalidations "
                  f"({cs.hit_rate:.0%} hit rate)")


def _cmd_report(args):
    from repro.telemetry import (
        TelemetryCollector,
        read_jsonl,
        summary_table,
        use_collector,
        write_chrome_trace,
        write_jsonl,
    )

    if args.from_file is not None:
        from repro.telemetry import TelemetrySchemaError, validate_jsonl

        try:
            validate_jsonl(args.from_file)
            payload = read_jsonl(args.from_file)
        except OSError as err:
            raise SystemExit(
                f"repro report: cannot read --from file: {err}")
        except TelemetrySchemaError as err:
            raise SystemExit(
                f"repro report: --from file is not a valid telemetry "
                f"JSONL export: {err}")
    else:
        if args.experiment is None:
            raise SystemExit(
                "repro report: give an experiment to run, or --from FILE "
                "to render a saved JSONL export")
        collector = TelemetryCollector(origin="repro-report")
        with use_collector(collector):
            _run_sweep_experiment(args)
        payload = collector.payload()
        print()
    print(summary_table(payload, fmt="csv" if args.csv else "markdown"))
    if args.jsonl is not None:
        n = write_jsonl(payload, args.jsonl)
        print(f"\nwrote {n} JSONL records to {args.jsonl}")
    if args.trace is not None:
        n = write_chrome_trace(payload, args.trace)
        print(f"wrote {n} trace events to {args.trace} "
              f"(load in chrome://tracing or https://ui.perfetto.dev)")
    if args.html is not None:
        from repro.probes import write_html_report

        write_html_report(payload, args.html)
        print(f"wrote link-health report to {args.html}")


def _cmd_serve(args):
    from repro.service import RelayService, ServeConfig, build_service
    from repro.telemetry import use_collector

    config = ServeConfig(
        sessions=args.sessions, tenants=args.tenants, chains=args.chains,
        seed=args.seed, rate_fps=args.rate, duration_s=args.duration,
        queue_high_water=args.queue_high_water,
        capacity_per_tick=args.capacity,
        status_interval_s=args.status_interval,
        probe_interval_s=args.probe_interval,
        storm_rate_per_s=args.storm)
    pump, tel = build_service(config, status_dir=args.status_dir)
    with use_collector(tel):
        if args.once:
            pump.run()
        else:
            RelayService(pump).serve_forever()
    sched = pump.scheduler
    frames = (f"offered {sched.offered}, processed {sched.processed}, "
              f"shed {sched.shed}, rejected {sched.rejected_frames}")
    closed = sum(1 for s in pump.sessions if s.state.value == "closed")
    print(f"served {closed}/{len(pump.sessions)} sessions over "
          f"{pump.now_s:.2f} s virtual ({pump.ticks} ticks)")
    print(f"  frames : {frames}")
    for entry in sched.pool.entries():
        print(f"  chain {entry.key}: {entry.frames} frames, "
              f"{entry.stage.jump_count} SI jumps, "
              f"state {entry.supervisor.state.value}")
    sched.check_conservation()
    print("  conservation: offered == admitted + rejected; "
          "admitted == processed + shed")
    if args.status_dir is not None:
        print(f"  status : {args.status_dir}/status.json, "
              f"{args.status_dir}/link_health.html")


def _cmd_obs_profile(args):
    import json

    from repro.obs import profile_payload, write_collapsed
    from repro.obs.flamegraph import write_flamegraph_html
    from repro.telemetry import (
        TelemetrySchemaError,
        read_jsonl,
        validate_jsonl,
    )

    try:
        validate_jsonl(args.file)
        payload = read_jsonl(args.file)
    except OSError as err:
        raise SystemExit(f"repro obs profile: cannot read {args.file}: "
                         f"{err}")
    except TelemetrySchemaError as err:
        raise SystemExit(f"repro obs profile: {args.file} is not a valid "
                         f"telemetry JSONL export: {err}")
    report = profile_payload(payload, cpus=args.cpus)
    for line in report.verdict_lines():
        print(line)
    if args.folded is not None:
        n = write_collapsed(report.stacks, args.folded)
        print(f"wrote {n} folded stacks to {args.folded}")
    if args.flamegraph is not None:
        write_flamegraph_html(report.stacks, args.flamegraph,
                              title=f"repro obs profile: {args.file}",
                              verdict_lines=report.verdict_lines())
        print(f"wrote flamegraph to {args.flamegraph}")
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report.as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote profile report to {args.json}")
    return report


def _cmd_obs_slo(args):
    import json

    from repro.obs import SeriesRecorder, SloEngine, default_service_slos
    from repro.obs.slo import load_slo_specs

    try:
        recorder = SeriesRecorder.load_jsonl(args.series)
    except (OSError, ValueError, KeyError) as err:
        raise SystemExit(f"repro obs slo: cannot load series from "
                         f"{args.series}: {err}")
    specs = load_slo_specs(args.spec) if args.spec else \
        default_service_slos()
    engine = SloEngine(specs)
    # Replay: evaluate at every recorded sample time, in order, so the
    # offline verdict matches what the live service would have fired.
    times = sorted({t for name in recorder.names()
                    for t, _ in recorder.series(name).points})
    for t in times:
        engine.evaluate(recorder, t)
    status = engine.status()
    print(f"replayed {len(times)} ticks over {len(recorder.names())} "
          f"series against {len(specs)} SLOs")
    for name in sorted(status["state"]):
        state = status["state"][name]
        flag = "FIRING" if state["firing"] else "ok"
        print(f"  {name:<20} {state['objective']} {state['target']:g} "
              f"on {state['series']:<28} {flag}")
    for alert in status["alerts"]:
        print(f"  t={alert['time_s']:8.3f}  {alert['slo']:<20} "
              f"{alert['severity']:<7} {alert['kind']:<9} "
              f"burn {alert['burn_long']:.2f}/{alert['burn_short']:.2f}")
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(status, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote SLO status to {args.json}")
    if args.strict and status["alerts"]:
        raise SystemExit(f"repro obs slo: {len(status['alerts'])} alert "
                         f"transition(s) under --strict")
    return status


def _cmd_obs_diff(args):
    import json

    from repro.obs import diff_runs

    try:
        report = diff_runs(args.base, args.new, threshold=args.threshold)
    except (OSError, ValueError, json.JSONDecodeError) as err:
        raise SystemExit(f"repro obs diff: {err}")
    for line in report.format_lines(show_ok=args.all):
        print(line)
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report.as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote diff report to {args.json}")
    if not report.ok:
        raise SystemExit(2)
    return report


def build_parser():
    """The argparse tree (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FastForward (SIGCOMM 2014) reproduction experiments")
    parser.add_argument("--seed", type=int, default=2014,
                        help="experiment seed (default 2014)")
    sub = parser.add_subparsers(dest="command", required=True)

    cov = sub.add_parser("coverage", help="Figs. 1-2 coverage statistics")
    cov.add_argument("--scenario", default="fig1-home")
    cov.add_argument("--spacing", type=float, default=1.0)
    cov.set_defaults(func=_cmd_coverage)

    canc = sub.add_parser("cancellation", help="the §3.3 cancellation figure")
    canc.add_argument("--trials", type=int, default=3)
    canc.add_argument("--online", action="store_true",
                      help="tune with the probe under live traffic")
    canc.set_defaults(func=_cmd_cancellation)

    gains = sub.add_parser("gains", help="Fig. 12 throughput gains")
    gains.add_argument("--clients", type=int, default=48)
    gains.set_defaults(func=_cmd_gains)

    lat = sub.add_parser("latency", help="Fig. 16 latency sweep")
    lat.add_argument("--clients", type=int, default=24)
    lat.add_argument("--latencies", type=int, nargs="+",
                     default=[100, 200, 300, 400, 500])
    lat.set_defaults(func=_cmd_latency)

    finger = sub.add_parser("fingerprint", help="Fig. 21 identification")
    finger.add_argument("--locations", type=int, default=40)
    finger.add_argument("--packets", type=int, default=30)
    finger.set_defaults(func=_cmd_fingerprint)

    faults = sub.add_parser("faults", help="fault sweep with/without the "
                                           "self-healing supervisor")
    faults.add_argument("--clients", type=int, default=5)
    faults.add_argument("--steps", type=int, default=60)
    faults.add_argument("--rates", type=float, nargs="+",
                        default=[0.0, 0.1, 0.2, 0.4])
    faults.add_argument("--events", action="store_true",
                        help="print the sample supervisor event log")
    faults.set_defaults(func=_cmd_faults)

    fleet = sub.add_parser(
        "fleet", help="district-scale multi-relay deployment sweep")
    fleet.add_argument("--rows", type=int, default=4,
                       help="home-grid rows (one relay per home)")
    fleet.add_argument("--cols", type=int, default=4,
                       help="home-grid columns")
    fleet.add_argument("--density", type=int, default=4,
                       help="clients per home (default 4)")
    fleet.add_argument("--policy", default="hashed-lb",
                       choices=sorted(FLEET_POLICIES),
                       help="association policy (default hashed-lb)")
    fleet.add_argument("--storm", type=float, default=0.25,
                       help="relay fault-storm rate, 0 disables "
                            "(default 0.25)")
    fleet.add_argument("--steps", type=int, default=240,
                       help="50 ms sounding intervals to simulate "
                            "(default 240 = 12 s)")
    _add_engine_args(fleet)
    fleet.set_defaults(func=_cmd_fleet)

    sweep = sub.add_parser(
        "sweep", help="run any experiment through the parallel engine")
    sweep.add_argument("experiment", choices=SWEEP_EXPERIMENTS)
    _add_sweep_args(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    report = sub.add_parser(
        "report", help="run a sweep experiment under a telemetry "
                       "collector and render the summary tables")
    report.add_argument("experiment", nargs="?", choices=SWEEP_EXPERIMENTS,
                        help="experiment to run (omit with --from)")
    _add_sweep_args(report)
    report.add_argument("--from", dest="from_file", default=None,
                        metavar="FILE",
                        help="render a previously saved JSONL export "
                             "instead of running an experiment")
    report.add_argument("--jsonl", default=None, metavar="FILE",
                        help="also write the raw telemetry as JSONL")
    report.add_argument("--trace", default=None, metavar="FILE",
                        help="also write a Chrome trace-event JSON file")
    report.add_argument("--csv", action="store_true",
                        help="emit CSV rows instead of Markdown tables")
    report.add_argument("--html", default=None, metavar="FILE",
                        help="also write the self-contained HTML "
                             "link-health report (probes.* panels)")
    report.set_defaults(func=_cmd_report)

    serve = sub.add_parser(
        "serve", help="run the always-on relay service (asyncio; "
                      "--once for a deterministic smoke run)")
    serve.add_argument("--sessions", type=int, default=16,
                       help="concurrent seeded client sessions (default 16)")
    serve.add_argument("--tenants", type=int, default=2,
                       help="fair-share tenants (default 2)")
    serve.add_argument("--chains", type=int, default=2,
                       help="shared relay chains in the pool (default 2)")
    serve.add_argument("--rate", type=float, default=40.0,
                       help="per-session frame rate, frames/s (default 40)")
    serve.add_argument("--duration", type=float, default=0.5,
                       help="per-session traffic window, seconds "
                            "(default 0.5)")
    serve.add_argument("--capacity", type=int, default=None, metavar="N",
                       help="dispatch budget per tick, frames "
                            "(default: unbounded)")
    serve.add_argument("--queue-high-water", type=int, default=64,
                       help="per-tenant queue bound; arrivals above it "
                            "are shed (default 64)")
    serve.add_argument("--storm", type=float, default=0.0,
                       help="per-chain SI-jump storm rate per second, "
                            "0 disables (default 0)")
    serve.add_argument("--status-dir", default=None, metavar="DIR",
                       help="write status.json + link_health.html here "
                            "(atomically) while serving")
    serve.add_argument("--status-interval", type=float, default=0.5,
                       metavar="SECONDS",
                       help="status snapshot cadence (default 0.5)")
    serve.add_argument("--probe-interval", type=float, default=None,
                       metavar="SECONDS",
                       help="probe/link-health refresh cadence "
                            "(default: once, at shutdown)")
    serve.add_argument("--once", action="store_true",
                       help="run the whole schedule in virtual time and "
                            "exit (deterministic smoke mode)")
    serve.set_defaults(func=_cmd_serve)

    obs = sub.add_parser(
        "obs", help="observability analysis: profile / slo / diff")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)

    profile = obs_sub.add_parser(
        "profile", help="span-tree wall-time attribution + flamegraph "
                        "from a telemetry JSONL export")
    profile.add_argument("file", help="telemetry JSONL export "
                                      "(repro report --jsonl)")
    profile.add_argument("--flamegraph", default=None, metavar="FILE",
                         help="write the self-contained no-JS HTML "
                              "flamegraph here")
    profile.add_argument("--folded", default=None, metavar="FILE",
                         help="write collapsed stacks "
                              "(flamegraph.pl folded format)")
    profile.add_argument("--json", default=None, metavar="FILE",
                         help="write the attribution report as JSON")
    profile.add_argument("--cpus", type=int, default=None,
                         help="cap the concurrency estimate at this many "
                              "CPUs (default: trust the recorded run)")
    profile.set_defaults(func=_cmd_obs_profile)

    slo = obs_sub.add_parser(
        "slo", help="replay recorded service series through the "
                    "burn-rate SLO engine")
    slo.add_argument("series", help="series JSONL (status dir "
                                    "series.jsonl)")
    slo.add_argument("--spec", default=None, metavar="FILE",
                     help="JSON SLO specs (default: the stock service "
                          "SLOs)")
    slo.add_argument("--json", default=None, metavar="FILE",
                     help="write the final SLO status as JSON")
    slo.add_argument("--strict", action="store_true",
                     help="exit non-zero if any alert transition fired")
    slo.set_defaults(func=_cmd_obs_slo)

    diff = obs_sub.add_parser(
        "diff", help="compare two bench baselines or telemetry runs; "
                     "exit 2 on regressions")
    diff.add_argument("base", help="baseline run (BENCH_*.json or "
                                   "telemetry JSONL)")
    diff.add_argument("new", help="candidate run (same kind as base)")
    diff.add_argument("--threshold", type=float, default=0.25,
                      help="relative move that counts as a regression "
                           "(default 0.25 = 25%%)")
    diff.add_argument("--all", action="store_true",
                      help="also list unchanged metrics")
    diff.add_argument("--json", default=None, metavar="FILE",
                      help="write the diff report as JSON")
    diff.set_defaults(func=_cmd_obs_diff)
    return parser


def _add_sweep_args(parser):
    """Engine options shared by the ``sweep`` and ``report`` commands."""
    parser.add_argument("--clients", type=int, default=24,
                        help="Monte-Carlo client count (default 24)")
    _add_engine_args(parser)
    parser.add_argument("--spacing", type=float, default=2.0,
                        help="grid spacing in metres (coverage only)")


def _add_engine_args(parser):
    """The exec-engine flags every sweep-backed command shares."""
    parser.add_argument("--jobs", type=int, default=None,
                        help="parallel worker processes (default 1)")
    parser.add_argument("--backend", choices=["serial", "process"],
                        default=None,
                        help="executor backend (default: serial at one "
                             "job, process otherwise)")
    parser.add_argument("--cache", default=None, metavar="DIR",
                        help="result-cache directory (default: off)")
    parser.add_argument("--checkpoint", default=None, metavar="FILE",
                        help="sweep manifest enabling resume after "
                             "interruption")
    parser.add_argument("--max-retries", type=int, default=None,
                        metavar="N",
                        help="per-task retry budget with seeded backoff "
                             "(default 0)")
    parser.add_argument("--task-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-task deadline; expired chunks are "
                             "reclaimed and retried (default: off)")
    parser.add_argument("--chaos", default=None, metavar="SPEC",
                        help="inject seeded failures: a bare seed for the "
                             "default mix, or key=value pairs, e.g. "
                             "'seed=7,error=0.3,kill=0.1,poison=2:5'")


def main(argv=None):
    """Entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    args.func(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
