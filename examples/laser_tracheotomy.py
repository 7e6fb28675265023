#!/usr/bin/env python3
"""Laser-tracheotomy case study: reproduce the paper's Table I trials.

Runs the four 30-minute emulation trials of Section V -- {with lease,
without lease} x {E(Toff) = 18 s, 6 s} -- under burst WiFi-style
interference and prints the Table I statistics next to the paper's values.

Run with:  python examples/laser_tracheotomy.py [--quick]
(--quick uses 10-minute trials so the example finishes in a few seconds.)
Exits 1 if any "with Lease" trial violates PTE.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.casestudy import CaseStudyConfig, run_table1_trials
from repro.experiments.table1 import PAPER_TABLE1
from repro.util.tables import format_table


def main() -> int:
    quick = "--quick" in sys.argv
    duration = 600.0 if quick else None  # None -> the paper's 1800 s
    config = CaseStudyConfig()
    print("running the Table I trials "
          f"({'10-minute quick mode' if quick else '30-minute paper-length trials'})...\n")
    results = run_table1_trials(config, seed=42, duration=duration)

    rows = []
    for result in results:
        rows.append([result.mode, result.mean_toff, result.laser_emissions,
                     result.failures, result.evt_to_stop,
                     f"{result.max_pause_duration:.1f}",
                     f"{result.max_emission_duration:.1f}",
                     f"{result.min_spo2:.1f}",
                     f"{result.observed_loss_ratio:.2f}"])
    print(format_table(
        ["Trial Mode", "E(Toff)", "# Emissions", "# Failures", "# evtToStop",
         "max pause (s)", "max emission (s)", "min SpO2 (%)", "loss ratio"],
        rows, title="Reproduced Table I"))

    print()
    print(format_table(
        ["Trial Mode", "E(Toff)", "# Emissions", "# Failures", "# evtToStop"],
        PAPER_TABLE1, title="Paper's Table I (for comparison)"))

    safe = all(r.failures == 0 for r in results if r.with_lease)
    print("\nheadline check: every 'with Lease' trial must have 0 failures ->",
          "OK" if safe else "VIOLATED")
    return 0 if safe else 1


if __name__ == "__main__":
    sys.exit(main())
