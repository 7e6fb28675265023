#!/usr/bin/env python3
"""Quickstart: build a PTE-safe wireless CPS from the lease design pattern.

This example shows the core workflow of the library in ~60 lines:

1. describe the PTE safety requirements (safeguard intervals);
2. synthesize a configuration that satisfies Theorem 1's conditions c1-c7;
3. instantiate the Supervisor / Participant / Initializer automata;
4. simulate one coordination round over a lossy wireless network;
5. check the recorded trace against the PTE safety rules.

Run with:  python examples/quickstart.py
(exits 1 if the trace violates the PTE safety rules)
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import (build_pattern_system, check_conditions, check_trace,
                        synthesize_configuration)
from repro.hybrid import CallbackProcess, SimulationEngine
from repro.wireless import BernoulliChannel


def main() -> int:
    # 1+2. A three-entity CPS (two participants + one initializer) with a 2 s
    #      enter-risky safeguard and a 1 s exit-risky safeguard per pair.
    config = synthesize_configuration(
        n_entities=3,
        enter_safeguards=[2.0, 2.0],
        exit_safeguards=[1.0, 1.0],
        t_fallback_min=5.0)
    print("Theorem 1 conditions:")
    print(check_conditions(config).summary())
    print(f"guaranteed risky-dwelling bound: {config.dwelling_bound:.1f}s\n")

    # 3. Instantiate the design pattern (xi1, xi2 participants; xi3 initializer).
    pattern = build_pattern_system(config, entity_names=["pump", "valve", "torch"],
                                   supervisor_name="base_station")

    # 4. Simulate over a 30%-lossy sink network.  The torch operator requests
    #    at t=6 s (and retries at t=45 s in case the first request is lost over
    #    the wireless uplink), then cancels at t=80 s (local commands).
    operator = CallbackProcess([
        (6.0, lambda e: e.inject_event(pattern.vocabulary.command_request)),
        (45.0, lambda e: e.inject_event(pattern.vocabulary.command_request)),
        (80.0, lambda e: e.inject_event(pattern.vocabulary.command_cancel)),
    ])
    network = pattern.build_network(default_channel=BernoulliChannel(0.3, seed=7))
    engine = SimulationEngine(pattern.system, network=network, processes=[operator],
                              seed=7)
    trace = engine.run(120.0)

    # 5. Check the PTE safety rules on the recorded trace.
    report = check_trace(trace, pattern.rules)
    print(report.summary())
    for name in pattern.remote_names:
        intervals = trace.risky_intervals(name)
        pretty = ", ".join(f"[{s:.1f}, {e:.1f}]" for s, e in intervals) or "(never risky)"
        print(f"  {name:8s} risky intervals: {pretty}")
    print(f"observed wireless loss ratio: {network.observed_loss_ratio():.2f}")
    if report.safe:
        print("\nPTE safety rules SATISFIED under lossy wireless coordination.")
        return 0
    print("\nPTE safety rules VIOLATED:")
    for violation in report.violations:
        print(f"  {violation}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
