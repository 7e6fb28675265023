"""Tests for the lease design-pattern automata: structure and dynamics."""

import pytest

from repro.core import (build_baseline_system, build_pattern_system, check_trace,
                        laser_tracheotomy_configuration, has_lease,
                        synthesize_configuration)
from repro.core.pattern import events
from repro.core.pattern.roles import (ENTERING, EXITING_1, FALL_BACK,
                                      RISKY_CORE, qualified)
from repro.errors import ConfigurationError
from repro.hybrid import CallbackProcess, SimulationEngine
from repro.hybrid.simulate.engine import Network


CONFIG = laser_tracheotomy_configuration()


def run_round(pattern, *, request_at=14.0, cancel_at=None, horizon=120.0,
              network=None, seed=0):
    """Drive one coordination round of a pattern system with scripted commands."""
    commands = [(request_at, lambda e: e.inject_event(pattern.vocabulary.command_request))]
    if cancel_at is not None:
        commands.append(
            (cancel_at, lambda e: e.inject_event(pattern.vocabulary.command_cancel)))
    process = CallbackProcess(commands)
    engine = SimulationEngine(pattern.system, processes=[process], network=network,
                              seed=seed)
    return engine.run(horizon)


class DropRoots(Network):
    """Network that drops every lossy delivery of the configured roots."""

    def __init__(self, roots):
        self.roots = set(roots)

    def attempt_delivery(self, sender, receiver, root, now):
        return root not in self.roots


class TestStructure:
    def test_role_assignment(self):
        pattern = build_pattern_system(CONFIG)
        assert pattern.supervisor.metadata["role"] == "supervisor"
        assert pattern.initializer.metadata["role"] == "initializer"
        assert all(p.metadata["role"] == "participant" for p in pattern.participants)

    def test_remote_risky_partitions(self):
        pattern = build_pattern_system(CONFIG)
        for index in (1, 2):
            automaton = pattern.automaton_for(index)
            expected = {qualified(f"xi{index}", RISKY_CORE),
                        qualified(f"xi{index}", EXITING_1)}
            assert automaton.risky_locations == expected

    def test_supervisor_has_no_risky_locations(self):
        # The paper does not partition xi0's locations into safe/risky.
        pattern = build_pattern_system(CONFIG)
        assert pattern.supervisor.risky_locations == set()

    def test_entity_names_must_be_distinct(self):
        with pytest.raises(ConfigurationError):
            build_pattern_system(CONFIG, entity_names=["same", "same"])

    def test_wrong_name_count_rejected(self):
        with pytest.raises(ConfigurationError):
            build_pattern_system(CONFIG, entity_names=["only-one"])

    def test_event_vocabulary_consistency(self):
        pattern = build_pattern_system(CONFIG)
        vocabulary = pattern.vocabulary
        assert vocabulary.request == events.request(2)
        emitted = pattern.initializer.emitted_roots()
        assert vocabulary.request in emitted
        assert vocabulary.exited(2) in emitted
        received = pattern.supervisor.received_roots()
        assert vocabulary.request in received
        assert vocabulary.lease_approve(1) in received

    def test_baseline_strips_lease_edges(self):
        baseline = build_baseline_system(CONFIG)
        assert not has_lease(baseline.initializer)
        assert not has_lease(baseline.participants[0])
        leased = build_pattern_system(CONFIG)
        assert has_lease(leased.initializer)

    def test_network_matches_topology(self):
        pattern = build_pattern_system(CONFIG, entity_names=["vent", "laser"],
                                       supervisor_name="base")
        network = pattern.build_network()
        assert network.base_station == "base"
        assert network.remote_entities == ["vent", "laser"]


class TestNominalRound:
    def test_full_round_is_pte_safe(self):
        pattern = build_pattern_system(CONFIG)
        trace = run_round(pattern, cancel_at=40.0)
        report = check_trace(trace, pattern.rules)
        assert report.safe
        assert report.risky_episodes[pattern.initializer_name] == 1

    def test_enter_and_exit_margins_match_theory(self):
        pattern = build_pattern_system(CONFIG)
        trace = run_round(pattern, cancel_at=40.0)
        report = check_trace(trace, pattern.rules)
        measurement = report.measurements[0]
        # Theorem 1: enter margin = T_enter,2 - T_enter,1 = 7 s; exit margin = T_exit,1 = 6 s.
        assert measurement.enter_margin == pytest.approx(7.0, abs=1e-6)
        assert measurement.exit_margin == pytest.approx(6.0, abs=1e-6)

    def test_lease_expiry_without_any_cancel(self):
        # Nobody ever cancels: the initializer's lease must expire on its own
        # and everything resets; dwell bound of Theorem 1 must hold.
        pattern = build_pattern_system(CONFIG)
        trace = run_round(pattern, cancel_at=None, horizon=150.0)
        stops = trace.transitions_of(pattern.initializer_name, reason="lease_expiry")
        assert len(stops) == 1
        report = check_trace(trace, pattern.rules)
        assert report.safe
        assert max(report.max_dwell.values()) <= CONFIG.dwelling_bound + 1e-6

    def test_supervisor_returns_to_fallback(self):
        pattern = build_pattern_system(CONFIG)
        trace = run_round(pattern, cancel_at=40.0, horizon=150.0)
        assert trace.location_at(pattern.supervisor_name, 149.0) == qualified("xi0", FALL_BACK)

    def test_request_before_min_fallback_dwell_is_ignored(self):
        pattern = build_pattern_system(CONFIG)
        trace = run_round(pattern, request_at=5.0, horizon=40.0)  # < T_fb_min = 13
        assert trace.count_entries(pattern.initializer_name,
                                   qualified("xi2", ENTERING)) == 0
        # The initializer's request times out and it returns to Fall-Back.
        timeouts = trace.transitions_of(pattern.initializer_name, reason="request_timeout")
        assert len(timeouts) == 1

    def test_three_entity_round_is_pte_safe(self):
        config = synthesize_configuration(n_entities=3, enter_safeguards=[2.0, 2.0],
                                          exit_safeguards=[1.0, 1.0],
                                          t_fallback_min=5.0)
        pattern = build_pattern_system(config)
        trace = run_round(pattern, request_at=6.0, horizon=200.0)
        report = check_trace(trace, pattern.rules)
        assert report.safe
        # All three remote entities entered their risky cores in PTE order.
        entries = [trace.transitions_of(name, target=qualified(f"xi{i}", RISKY_CORE))[0].time
                   for i, name in enumerate(pattern.remote_names, start=1)]
        assert entries == sorted(entries)


class TestRoundsUnderLoss:
    @pytest.mark.parametrize("lost_root_fn", [
        lambda v: v.approve,                 # approval to the initializer lost
        lambda v: v.lease_request(1),        # lease offer to the participant lost
        lambda v: v.lease_approve(1),        # participant approval lost
        lambda v: v.cancel(1),               # cancel to the participant lost
        lambda v: v.exited(2),               # initializer exit confirmation lost
        lambda v: v.request_cancel,          # initializer cancel notification lost
    ])
    def test_single_event_type_loss_never_violates_pte(self, lost_root_fn):
        pattern = build_pattern_system(CONFIG)
        network = DropRoots({lost_root_fn(pattern.vocabulary)})
        trace = run_round(pattern, cancel_at=40.0, horizon=200.0, network=network)
        report = check_trace(trace, pattern.rules)
        assert report.safe, report.violations

    def test_total_blackout_never_violates_pte(self):
        class DropEverything(Network):
            def attempt_delivery(self, sender, receiver, root, now):
                return False

        pattern = build_pattern_system(CONFIG)
        trace = run_round(pattern, cancel_at=40.0, horizon=200.0,
                          network=DropEverything())
        report = check_trace(trace, pattern.rules)
        assert report.safe
        # With the request itself lost, nobody ever enters a risky location.
        assert report.risky_episodes[pattern.initializer_name] == 0

    def test_baseline_violates_under_targeted_loss(self):
        # Without leases, losing the initializer's exit/cancel notifications
        # leaves the participant paused while the supervisor cannot know;
        # eventually the supervisor's recovery is also lost and the pause
        # exceeds the Rule 1 bound used by the case study.
        baseline = build_baseline_system(CONFIG)
        vocabulary = baseline.vocabulary
        network = DropRoots({vocabulary.exited(2), vocabulary.request_cancel,
                             vocabulary.cancel(1), vocabulary.abort(1)})
        trace = run_round(baseline, cancel_at=40.0, horizon=300.0, network=network)
        rules = CONFIG.to_rule_set(baseline.entity_names, dwelling_bound=60.0)
        report = check_trace(trace, rules)
        assert not report.safe

    def test_lease_design_survives_same_targeted_loss(self):
        pattern = build_pattern_system(CONFIG)
        vocabulary = pattern.vocabulary
        network = DropRoots({vocabulary.exited(2), vocabulary.request_cancel,
                             vocabulary.cancel(1), vocabulary.abort(1)})
        trace = run_round(pattern, cancel_at=40.0, horizon=300.0, network=network)
        rules = CONFIG.to_rule_set(pattern.entity_names, dwelling_bound=60.0)
        report = check_trace(trace, rules)
        assert report.safe, report.violations
