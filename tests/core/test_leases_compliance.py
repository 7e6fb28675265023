"""Tests for lease bookkeeping and Theorem 2 compliance checking."""

import pytest

from repro.core import (ElaborationClaim, check_compliance, laser_tracheotomy_configuration)
from repro.core.leases import Lease, LeaseLedger, LeaseOutcome
from repro.core.pattern.participant import build_participant
from repro.core.pattern.initializer import build_initializer
from repro.core.pattern.supervisor import build_supervisor
from repro.core.pattern.roles import FALL_BACK, qualified
from repro.casestudy.ventilator import build_standalone_ventilator, build_ventilator
from repro.hybrid.elaboration import elaborate

CONFIG = laser_tracheotomy_configuration()


class TestLeases:
    def test_lease_lifecycle(self):
        ledger = LeaseLedger()
        ledger.open("vent", granted_at=10.0, duration=35.0)
        lease = ledger.close("vent", LeaseOutcome.EXPIRED, released_at=45.0)
        assert lease.expires_at == pytest.approx(45.0)
        assert not lease.overran

    def test_overrun_detection(self):
        lease = Lease("laser", granted_at=0.0, duration=20.0)
        closed = lease.closed(LeaseOutcome.COMPLETED, released_at=50.0)
        assert closed.overran

    def test_close_without_open_raises(self):
        with pytest.raises(ValueError):
            LeaseLedger().close("ghost", LeaseOutcome.COMPLETED, 1.0)

    def test_counts_by_outcome(self):
        ledger = LeaseLedger()
        ledger.open("vent", 0.0, 35.0)
        ledger.close("vent", LeaseOutcome.COMPLETED, 20.0)
        ledger.open("vent", 100.0, 35.0)
        ledger.close("vent", LeaseOutcome.ABORTED, 120.0)
        assert ledger.count("vent", LeaseOutcome.COMPLETED) == 1
        assert ledger.count("vent", LeaseOutcome.ABORTED) == 1
        assert ledger.overruns() == 0
        assert len(ledger.all_leases()) == 2


class TestTheorem2Compliance:
    def test_case_study_ventilator_is_compliant(self):
        pattern = build_participant(CONFIG, 1, entity_id="xi1", name="ventilator")
        child = build_standalone_ventilator()
        candidate = build_ventilator(CONFIG, name="ventilator")
        claims = [
            ElaborationClaim(pattern, [qualified("xi1", FALL_BACK)], [child], candidate),
            ElaborationClaim(build_initializer(CONFIG, entity_id="xi2", name="laser"),
                             [], [], build_initializer(CONFIG, entity_id="xi2", name="laser")),
            ElaborationClaim(build_supervisor(CONFIG, entity_id="xi0", name="supervisor"),
                             [], [],
                             build_supervisor(CONFIG, entity_id="xi0", name="supervisor")),
        ]
        report = check_compliance(claims, CONFIG)
        assert report.compliant, report.summary()

    def test_tampered_design_is_flagged(self):
        pattern = build_participant(CONFIG, 1, entity_id="xi1", name="ventilator")
        child = build_standalone_ventilator()
        tampered = build_ventilator(CONFIG, name="ventilator")
        # Remove the lease-expiry edge: the design no longer elaborates the pattern.
        tampered.edges = [e for e in tampered.edges if e.reason != "lease_expiry"]
        claim = ElaborationClaim(pattern, [qualified("xi1", FALL_BACK)], [child], tampered)
        report = check_compliance([claim], CONFIG)
        assert not report.compliant
        assert any("does not elaborate" in problem for problem in report.problems)

    def test_invalid_configuration_blocks_compliance(self):
        from dataclasses import replace

        pattern = build_participant(CONFIG, 1, entity_id="xi1", name="ventilator")
        candidate = build_participant(CONFIG, 1, entity_id="xi1", name="ventilator")
        claim = ElaborationClaim(pattern, [], [], candidate)
        broken_config = replace(CONFIG, t_wait_max=30.0)  # violates c2
        report = check_compliance([claim], broken_config)
        assert not report.compliant

    def test_non_simple_child_is_flagged(self):
        from repro.hybrid import HybridAutomaton, Location, var_ge

        pattern = build_participant(CONFIG, 1, entity_id="xi1", name="ventilator")
        bad_child = HybridAutomaton("bad", variables=["y"])
        bad_child.add_location(Location("bad.A", invariant=var_ge("y", 0.0)))
        bad_child.add_location(Location("bad.B"))
        bad_child.initial_location = "bad.A"
        claim = ElaborationClaim(pattern, [qualified("xi1", FALL_BACK)], [bad_child],
                                 build_ventilator(CONFIG, name="ventilator"))
        report = check_compliance([claim], CONFIG)
        assert not report.compliant
        assert any("not simple" in problem for problem in report.problems)
