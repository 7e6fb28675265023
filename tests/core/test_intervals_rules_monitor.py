"""Unit tests for the interval algebra, PTE rule specs and the trace monitor."""

import pytest

from repro.core import (Interval, IntervalSet, PTEMonitor, PTEOrderSpec, PTERuleSet,
                        laser_tracheotomy_rules, uniform_rules)
from repro.core.rules import EmbeddingProperty, RuleKind
from repro.errors import ConfigurationError, SafetyViolationError
from repro.hybrid.trace import Trace, TransitionRecord


class TestIntervals:
    def test_normalization_merges_overlaps(self):
        merged = IntervalSet([(0.0, 2.0), (1.5, 4.0), (6.0, 7.0)])
        assert [ (iv.start, iv.end) for iv in merged ] == [(0.0, 4.0), (6.0, 7.0)]

    def test_max_duration(self):
        intervals = IntervalSet([(0.0, 2.0), (5.0, 12.0)])
        assert intervals.max_duration == pytest.approx(7.0)

    def test_covers(self):
        intervals = IntervalSet([(0.0, 10.0)])
        assert intervals.covers(Interval(2.0, 8.0))
        assert not intervals.covers(Interval(8.0, 12.0))

    def test_abutting_intervals_merge_for_coverage(self):
        intervals = IntervalSet([(0.0, 5.0), (5.0, 10.0)])
        assert intervals.covers(Interval(3.0, 8.0))

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            Interval(5.0, 1.0)


class TestRuleSpecs:
    def test_laser_tracheotomy_rules(self):
        rules = laser_tracheotomy_rules()
        assert rules.entities == ("ventilator", "laser_scalpel")
        pair = rules.order.consecutive_pairs()[0]
        assert pair.enter_safeguard == pytest.approx(3.0)
        assert pair.exit_safeguard == pytest.approx(1.5)
        assert rules.dwelling_bound("ventilator") == pytest.approx(60.0)

    def test_order_requires_two_entities(self):
        with pytest.raises(ConfigurationError):
            PTEOrderSpec(["only"], [], [])

    def test_order_requires_matching_safeguards(self):
        with pytest.raises(ConfigurationError):
            PTEOrderSpec(["a", "b", "c"], [1.0], [1.0, 1.0])

    def test_uniform_rules(self):
        rules = uniform_rules(["a", "b", "c"], enter_safeguard=2.0, exit_safeguard=1.0,
                              dwelling_bound=50.0)
        assert len(rules.order.consecutive_pairs()) == 2
        assert rules.dwelling_bound("c") == pytest.approx(50.0)

    def test_non_consecutive_pair_lookup_fails(self):
        rules = uniform_rules(["a", "b", "c"], enter_safeguard=2.0, exit_safeguard=1.0,
                              dwelling_bound=50.0)
        with pytest.raises(ConfigurationError):
            rules.order.pair("a", "c")


def trace_with_intervals(inner_intervals, outer_intervals, horizon=100.0) -> Trace:
    """Build a synthetic trace with prescribed risky intervals for two entities."""
    trace = Trace({"inner": {"inner.R"}, "outer": {"outer.R"}})
    trace.register_automaton("inner", "inner.S", {"inner.R"})
    trace.register_automaton("outer", "outer.S", {"outer.R"})
    for name, intervals in (("inner", inner_intervals), ("outer", outer_intervals)):
        for start, end in intervals:
            trace.record_transition(TransitionRecord(start, name, f"{name}.S", f"{name}.R"))
            trace.record_transition(TransitionRecord(end, name, f"{name}.R", f"{name}.S"))
    trace.close(horizon)
    return trace


def two_entity_rules(enter=3.0, exit_=1.5, bound=60.0) -> PTERuleSet:
    return uniform_rules(["inner", "outer"], enter_safeguard=enter,
                         exit_safeguard=exit_, dwelling_bound=bound)


class TestMonitor:
    def test_compliant_trace_is_safe(self):
        trace = trace_with_intervals([(10.0, 50.0)], [(15.0, 45.0)])
        report = PTEMonitor(two_entity_rules()).check(trace)
        assert report.safe
        assert report.failure_count == 0
        assert report.max_dwell["inner"] == pytest.approx(40.0)
        measurement = report.measurements[0]
        assert measurement.enter_margin == pytest.approx(5.0)
        assert measurement.exit_margin == pytest.approx(5.0)

    def test_rule1_violation_detected(self):
        trace = trace_with_intervals([(10.0, 90.0)], [], horizon=100.0)
        report = PTEMonitor(two_entity_rules(bound=60.0)).check(trace)
        violations = report.violations_of(RuleKind.BOUNDED_DWELLING)
        assert len(violations) == 1
        assert violations[0].entity == "inner"
        assert violations[0].measured == pytest.approx(80.0)

    def test_p2_containment_violation(self):
        # The outer entity is risky while the inner one is not.
        trace = trace_with_intervals([(10.0, 30.0)], [(25.0, 40.0)])
        report = PTEMonitor(two_entity_rules()).check(trace)
        assert not report.safe
        props = {v.property for v in report.violations_of(RuleKind.TEMPORAL_EMBEDDING)}
        assert EmbeddingProperty.P2_CONTAINMENT in props

    def test_p1_enter_safeguard_violation(self):
        # Outer enters only 1 s after inner (requirement: 3 s).
        trace = trace_with_intervals([(10.0, 50.0)], [(11.0, 40.0)])
        report = PTEMonitor(two_entity_rules(enter=3.0)).check(trace)
        props = {v.property for v in report.violations}
        assert EmbeddingProperty.P1_ENTER_SAFEGUARD in props

    def test_p3_exit_safeguard_violation(self):
        # Inner exits only 0.5 s after outer (requirement: 1.5 s).
        trace = trace_with_intervals([(10.0, 40.5)], [(15.0, 40.0)])
        report = PTEMonitor(two_entity_rules(exit_=1.5)).check(trace)
        props = {v.property for v in report.violations}
        assert EmbeddingProperty.P3_EXIT_SAFEGUARD in props

    def test_exit_safeguard_clipped_at_horizon(self):
        # The trace ends right after the outer entity exits; the exit window
        # cannot be observed so no violation should be reported.
        trace = trace_with_intervals([(10.0, 50.0)], [(15.0, 49.9)], horizon=50.0)
        report = PTEMonitor(two_entity_rules()).check(trace)
        assert all(v.property is not EmbeddingProperty.P3_EXIT_SAFEGUARD
                   for v in report.violations)

    def test_failure_count_groups_by_episode(self):
        # One outer episode violating both p1 and p3 counts as one failure.
        trace = trace_with_intervals([(10.0, 41.0)], [(11.0, 40.0)])
        report = PTEMonitor(two_entity_rules()).check(trace)
        assert len(report.violations) >= 2
        assert report.failure_count == 1

    def test_strict_mode_raises(self):
        trace = trace_with_intervals([(10.0, 30.0)], [(25.0, 40.0)])
        with pytest.raises(SafetyViolationError):
            PTEMonitor(two_entity_rules()).check(trace, strict=True)

    def test_entity_name_mapping(self):
        trace = trace_with_intervals([(10.0, 50.0)], [(15.0, 45.0)])
        rules = uniform_rules(["vent", "laser"], enter_safeguard=3.0, exit_safeguard=1.5,
                              dwelling_bound=60.0)
        report = PTEMonitor(rules, {"vent": "inner", "laser": "outer"}).check(trace)
        assert report.safe

    def test_three_entity_chain(self):
        rules = uniform_rules(["a", "b", "c"], enter_safeguard=2.0, exit_safeguard=1.0,
                              dwelling_bound=100.0)
        trace = Trace()
        for name in ("a", "b", "c"):
            trace.register_automaton(name, f"{name}.S", {f"{name}.R"})
        schedule = {"a": (10.0, 60.0), "b": (14.0, 55.0), "c": (18.0, 50.0)}
        for name, (start, end) in schedule.items():
            trace.record_transition(TransitionRecord(start, name, f"{name}.S", f"{name}.R"))
            trace.record_transition(TransitionRecord(end, name, f"{name}.R", f"{name}.S"))
        trace.close(80.0)
        report = PTEMonitor(rules).check(trace)
        assert report.safe
        assert len(report.measurements) == 2
