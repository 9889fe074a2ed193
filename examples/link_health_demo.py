#!/usr/bin/env python3
"""Link health: probes localizing a drifting analog stage.

Two relay arms process the same reference frame.  Arm A is healthy.
In arm B the analog CNF line's tap settings drift (a
:class:`repro.faults.TapDriftStage` spliced *between* the CNF filter
and the amplifier — temperature wander on the board, invisible to any
scalar counter).  The IQ tap probes tell the arms apart *and point at
the stage*: in arm B the ``post-cnf`` tap still reads healthy while
``post-amplification`` — the first tap downstream of the drifting
element — shows the EVM hit.

Run:  python examples/link_health_demo.py
"""

import numpy as np

from repro.core import FastForwardRelay, RelayConfig
from repro.faults import FaultSchedule, TapDriftStage
from repro.netsim import Testbed, paper_scenarios
from repro.probes import ALWAYS, ProbeSet, make_reference_frame
from repro.runtime import Chain


def probe_run(chain, probes, frame, params):
    """Run one frame through an instrumented copy of ``chain``."""
    probed = probes.instrument(chain, sample_rate_hz=params.bandwidth_hz)
    probed.reset()
    probed.run(frame.iq)
    return probes.summary()


def main():
    testbed = Testbed(paper_scenarios()[0], seed=5)
    params = testbed.params
    rng = np.random.default_rng(42)
    client = testbed.client_positions(1, rng=rng)[0]

    cfg = RelayConfig(params=params, use_decomposition=False)
    relay = FastForwardRelay(cfg)
    relay.configure_siso_link(*testbed.siso_triple(client, rng))
    frame = make_reference_frame(params, n_symbols=24, rng=7)

    # Arm A: the healthy relay chain.
    healthy = relay.make_chain()
    probes_a = ProbeSet(params, reference=frame, policy=ALWAYS,
                        budget=cfg.latency)
    summary_a = probe_run(healthy, probes_a, frame, params)

    # Arm B: identical chain, but the analog line drifts between the
    # CNF filter and the amplifier — downstream of the post-cnf tap,
    # upstream of the post-amplification tap.
    base = relay.make_chain()
    drift = TapDriftStage(FaultSchedule(99), params.bandwidth_hz,
                          amp_sigma_db_per_sqrt_s=60.0,
                          phase_sigma_rad_per_sqrt_s=60.0)
    cnf_index = base.labels.index("cnf-filter")
    stages = list(base.stages)
    stages.insert(cnf_index + 1, drift)
    drifty = Chain(stages, name="drifty-relay")
    probes_b = ProbeSet(params, reference=frame, policy=ALWAYS,
                        budget=cfg.latency)
    summary_b = probe_run(drifty, probes_b, frame, params)

    sites = ("post-si-cancellation", "post-cnf", "post-amplification")
    print("per-site EVM (dB): healthy arm vs drifting-analog-line arm\n")
    print(f"  {'tap site':<24} {'healthy':>9} {'drifting':>9} {'delta':>8}")
    degraded = []
    for site in sites:
        a = summary_a[f"{site}.evm_rms_db"]
        b = summary_b[f"{site}.evm_rms_db"]
        flag = "  <- degradation enters here" if b - a > 3.0 else ""
        if b - a > 3.0:
            degraded.append(site)
        print(f"  {site:<24} {a:9.2f} {b:9.2f} {b - a:+8.2f}{flag}")

    print(f"\n  latency ledger: {probes_b.latency.total_ns:.0f} ns of "
          f"{probes_b.latency.cp_ns:.0f} ns CP "
          f"(margin {probes_b.latency.margin_ns:+.0f} ns)")

    # The probes must localize the fault: everything upstream of the
    # drifting element reads healthy, the first tap downstream does not.
    assert degraded == ["post-amplification"], degraded
    print("\n  probes localize the drift to the analog line after the "
          "CNF filter: OK")


if __name__ == "__main__":
    main()
