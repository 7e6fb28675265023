"""Experiment ``table1``: reproduce the paper's Table I.

Four 30-minute trials -- {with lease, without lease} x {E(Toff) = 18 s,
6 s} -- under constant WiFi-style burst interference, counting laser
emissions, PTE safety-rule violations (failures) and forced lease-expiry
stops (``evtToStop``).

We do not expect to match the paper's absolute counts (its losses came
from a physical 802.11g interferer next to ZigBee motes; ours from a
calibrated burst-loss model), but the *shape* must hold and is asserted in
the result's checks:

* every "with Lease" trial has zero failures;
* "without Lease" trials do exhibit failures;
* lease expirations (``evtToStop``) occur only in "with Lease" trials and
  are more frequent for the longer E(Toff).

The trials execute through the campaign layer: ``replicates`` scales each
of the four cells to a Monte-Carlo batch and ``max_workers`` fans the
batch out across processes, with bit-identical aggregates for any worker
count (``python -m repro.campaign --experiment table1`` exposes the same
knobs on the command line).
"""

from __future__ import annotations

from repro.campaign.presets import PRESETS
from repro.casestudy.config import CaseStudyConfig
from repro.experiments.runner import ExperimentResult

#: The rows of the paper's Table I, for side-by-side comparison.
PAPER_TABLE1 = (
    ("with Lease", 18, 19, 0, 5),
    ("without Lease", 18, 11, 4, 0),
    ("with Lease", 6, 19, 0, 3),
    ("without Lease", 6, 12, 3, 0),
)


def run_table1(*, config: CaseStudyConfig | None = None, seed: int = 42,
               max_workers: int = 1, **axes: object) -> ExperimentResult:
    """Run the Table I reproduction and compare its shape against the paper.

    Args:
        config: Case-study configuration (paper defaults when omitted).
        seed: Master seed, and the legacy seed that pins each cell's first
            replicate to the historical serial trial.
        max_workers: Worker processes for the campaign executor.
        **axes: The ``table1`` preset's other axes (``mean_toffs``,
            ``duration``, ``replicates``), at its defaults when omitted.
    """
    return PRESETS["table1"].run(config, seed=seed, max_workers=max_workers,
                                 legacy_seed=seed, **axes)
