"""The pinned runs still produce their checked-in digests."""

import pytest

from repro.campaign import run_campaign, table1_spec
from tests.golden.runs import (RUNS, load_digests, load_fingerprints,
                               preset_fingerprints, run_digest)


def test_every_run_has_a_digest():
    assert set(load_digests()) == set(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_pinned_run_matches_golden_digest(name):
    assert run_digest(name) == load_digests()[name], (
        f"{name} changed behaviour; if intended, rerun "
        "tests/golden/regenerate.py --accept-behaviour-change")


def test_preset_fingerprints_are_frozen():
    # Every entry point of every preset still names the same campaign: the
    # fingerprints key stores and service jobs.
    assert preset_fingerprints() == load_fingerprints(), (
        "a preset's spec changed; if intended, rerun "
        "tests/golden/regenerate.py --accept-behaviour-change")


#: The serial bisect/retry/quarantine order under a transient and a poison
#: trial, in 4-trial batches: trial 3 recovers when its half re-runs, trial
#: 5 is bisected down to a singleton and quarantined.
RECOVERY_EVENTS = (
    ("bisect", "batch of 4 trials (cell 0) failed (InjectedTrialFault: "
               "injected fault in trial 3 (attempt 1)); splitting to isolate "
               "the offender"),
    ("bisect", "batch of 4 trials (cell 0) failed (InjectedTrialFault: "
               "injected fault in trial 5 (attempt 1)); splitting to isolate "
               "the offender"),
    ("bisect", "batch of 2 trials (cell 0) failed (InjectedTrialFault: "
               "injected fault in trial 5 (attempt 2)); splitting to isolate "
               "the offender"),
    ("quarantine", "trial 5 (with lease, E(Toff)=18s, replicate 5, seed "
                   "281627717) quarantined after 3 attempt(s): "
                   "[InjectedTrialFault] injected fault in trial 5 "
                   "(attempt 3)"),
)


def test_serial_recovery_events_are_pinned():
    spec = table1_spec(mean_toffs=(18.0,), duration=120.0, replicates=8,
                       legacy_seed=None)
    result = run_campaign(spec, seed=7, max_workers=1, engine="compiled",
                          batch_size=4,
                          fault_plan="raise@trial=3,times=1;raise@trial=5")
    assert result.recovery_events == RECOVERY_EVENTS
