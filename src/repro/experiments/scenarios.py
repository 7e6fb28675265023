"""Experiment ``scenarios``: the qualitative failure stories of Section V.

The paper walks through three scenarios to explain *why* the leases and the
parameter constraints matter.  This experiment scripts each of them
deterministically and compares the lease-based design against the no-lease
baseline:

* **forgetful surgeon** -- the surgeon "forgets" to cancel the laser
  (``Toff`` effectively infinite) and the supervisor's abort chain is
  blacked out.  With leases the emission stops at ``T^max_run,2`` = 20 s;
  without leases it runs away.
* **lost cancel** -- the surgeon does cancel, but the uplink notification to
  the supervisor is blacked out, so the supervisor cannot order the
  ventilator to resume.  With leases the ventilator resumes at
  ``T^max_run,1`` = 35 s; without leases (and with the supervisor's
  recovery also blacked out) the pause exceeds the 1-minute bound.
* The third scenario (misconfigured ``T^max_enter`` violating condition c5)
  is covered by the ``ablation_c5`` experiment.

Each story is a deterministic :class:`~repro.campaign.spec.TrialSpec`
(scripted surgeon, scripted loss windows, no supervisor retransmissions,
pinned seed) executed through the campaign layer.
"""

from __future__ import annotations

from repro.campaign.presets import PRESETS
from repro.casestudy.config import CaseStudyConfig
from repro.experiments.runner import ExperimentResult


def run_scenarios(*, config: CaseStudyConfig | None = None,
                  max_workers: int = 1) -> ExperimentResult:
    """Run the scripted Section V scenarios with and without leases."""
    return PRESETS["scenarios"].run(config, seed=0, max_workers=max_workers)
