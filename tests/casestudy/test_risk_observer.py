"""The risk observer's skipped heartbeats leave every staircase unchanged.

:class:`~repro.casestudy.observers.RiskLevelObserver` skips its scan while
no tracked entity is in a watched location.  Here the scored trials must
equal those of an observer that scans on every heartbeat, record for
record, over 40 seeds, both estimator events, with and without leases.
"""

import dataclasses

import pytest

from repro.campaign.spec import ChannelSpec
from repro.casestudy.config import CaseStudyConfig, SurgeonModel
from repro.casestudy.observers import RiskLevelObserver
from repro.util.seeding import ForkPlan
from repro.verify import rare

CONFIG = dataclasses.replace(CaseStudyConfig(),
                             surgeon=SurgeonModel(mean_toff=6.0, resample_quantum=2.0))


class FullScan(RiskLevelObserver):
    """The observer without the skip: every heartbeat scans every entity."""

    def _heartbeat(self, now: float) -> None:
        score = 0.0
        for name, tracker in self._trackers.items():
            dwell = max(tracker.longest, tracker.ongoing(now))
            bound = self._bounds[name]
            if bound > 0:
                score = max(score, dwell / bound)
        if score > self.score:
            self.score = score
            marks = self._ledger.snapshot() if self._ledger is not None else None
            step = self.engine.steps if self.engine is not None else 0
            self.staircase.append((score, marks, step))


@pytest.mark.parametrize("with_lease", (True, False))
@pytest.mark.parametrize("event", rare.CELL_EVENTS)
def test_staircases_equal_the_full_scan(monkeypatch, with_lease, event):
    template = rare.CellTemplate(config=CONFIG, with_lease=with_lease, duration=120.0,
                                 channel=ChannelSpec(kind="bernoulli", loss=0.3),
                                 engine="compiled", event=event)
    plans = [ForkPlan(seed) for seed in range(40)]
    skipping = [rare.scored_case_trial(template, plan) for plan in plans]
    monkeypatch.setattr(rare, "RiskLevelObserver", FullScan)
    assert skipping == [rare.scored_case_trial(template, plan) for plan in plans]
    assert sum(len(trial.staircase) for trial in skipping) > 40 * 10
    if event == "violation" and not with_lease:
        assert any(trial.violation for trial in skipping)
