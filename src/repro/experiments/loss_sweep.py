"""Experiment ``loss_sweep``: robustness envelope over packet-loss rates.

An extension beyond the paper's Table I: sweep the memoryless loss
probability from 0 to 0.9 and, for each level, run matched trials of the
lease design and of the no-lease baseline.  The lease design must stay
failure-free at every loss level (Theorem 1 promises safety under
*arbitrary* loss); the baseline's failures grow with the loss rate, and its
effective throughput (laser emissions per trial) collapses.

The sweep is a campaign: every (loss level, mode) cell is a
:class:`~repro.campaign.spec.TrialSpec`, so scaling the trial counts or
fanning out across processes is a parameter change, not new code.
"""

from __future__ import annotations

from repro.campaign.presets import PRESETS
from repro.casestudy.config import CaseStudyConfig
from repro.experiments.runner import ExperimentResult


def run_loss_sweep(*, config: CaseStudyConfig | None = None,
                   max_workers: int = 1, **axes: object) -> ExperimentResult:
    """Sweep loss probability and compare lease vs. no-lease outcomes.

    ``axes`` are the ``loss_sweep`` preset's; the campaign's master seed is
    the smallest of its pinned ``seeds``.
    """
    preset = PRESETS["loss_sweep"]
    seed = min(preset.resolve(axes)["seeds"], default=0)
    return preset.run(config, seed=seed, max_workers=max_workers, **axes)
