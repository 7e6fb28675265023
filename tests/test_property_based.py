"""Property-based tests (hypothesis) for core data structures and invariants."""

import math

from hypothesis import given, settings, strategies as st

from repro.core import (IntervalSet, PTEMonitor, check_conditions,
                        synthesize_configuration)
from repro.core.intervals import Interval
from repro.hybrid.expressions import var_ge, var_le
from repro.hybrid.variables import Valuation
from repro.util.seeding import derive_seed
from repro.wireless.channel import BernoulliChannel, GilbertElliottChannel

finite_times = st.floats(min_value=0.0, max_value=1e4, allow_nan=False,
                         allow_infinity=False)


@st.composite
def interval_lists(draw, max_size=8):
    """Random lists of well-formed (start, end) pairs."""
    pairs = draw(st.lists(st.tuples(finite_times, finite_times), max_size=max_size))
    return [(min(a, b), max(a, b)) for a, b in pairs]


class TestIntervalSetProperties:
    @given(interval_lists())
    def test_normalization_is_sorted_and_disjoint(self, pairs):
        intervals = IntervalSet(pairs).intervals
        for first, second in zip(intervals, intervals[1:]):
            assert first.end < second.start
        assert all(iv.start <= iv.end for iv in intervals)

    @given(interval_lists(), finite_times)
    def test_membership_consistent_with_raw_pairs(self, pairs, probe):
        inside_raw = any(start <= probe <= end for start, end in pairs)
        near_boundary = any(abs(probe - start) <= 1e-9 or abs(probe - end) <= 1e-9
                            for start, end in pairs)
        result = IntervalSet(pairs).contains(probe)
        # Exact agreement away from boundaries; tolerance may flip the answer
        # within EPSILON of an endpoint.
        assert result == inside_raw or near_boundary


class TestLinearGuardProperties:
    @given(st.floats(-100, 100), st.floats(-100, 100),
           st.floats(min_value=0.01, max_value=10.0))
    def test_crossing_time_is_consistent(self, value, threshold, rate):
        guard = var_ge("x", threshold)
        delay = guard.time_until_true(Valuation({"x": value}), {"x": rate})
        assert delay is not None
        if math.isfinite(delay):
            probe = Valuation({"x": value + rate * (delay + 1e-9)})
            assert guard.evaluate(probe)

    @given(st.floats(-100, 100), st.floats(-100, 100),
           st.floats(min_value=0.01, max_value=10.0))
    def test_descending_guard_crossing(self, value, threshold, rate):
        guard = var_le("x", threshold)
        delay = guard.time_until_true(Valuation({"x": value}), {"x": -rate})
        assert delay is not None
        if math.isfinite(delay):
            probe = Valuation({"x": value - rate * (delay + 1e-9)})
            assert guard.evaluate(probe)


class TestConfigurationSynthesisProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=2, max_value=6),
           st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=5, max_size=5),
           st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=5, max_size=5),
           st.floats(min_value=0.5, max_value=5.0))
    def test_synthesized_configurations_satisfy_theorem1(self, n, enters, exits, wait):
        config = synthesize_configuration(
            n_entities=n,
            enter_safeguards=enters[:n - 1],
            exit_safeguards=exits[:n - 1],
            t_wait_max=wait)
        report = check_conditions(config)
        assert report.satisfied, report.summary()
        # Theorem 1's dwelling bound is positive and finite.
        assert 0 < config.dwelling_bound < math.inf

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=0.1, max_value=20.0),
           st.floats(min_value=0.1, max_value=20.0))
    def test_guaranteed_margins_exceed_requested_safeguards(self, enter_sg, exit_sg):
        config = synthesize_configuration(
            n_entities=2, enter_safeguards=[enter_sg], exit_safeguards=[exit_sg])
        assert (config.timing(2).t_enter_max - config.timing(1).t_enter_max) > enter_sg
        assert config.timing(1).t_exit > exit_sg


class TestMonitorProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=0.0, max_value=50.0),
           st.floats(min_value=0.1, max_value=50.0),
           st.floats(min_value=0.0, max_value=20.0),
           st.floats(min_value=0.1, max_value=50.0))
    def test_embedded_intervals_with_margins_are_safe(self, start, inner_len,
                                                      margin, outer_len):
        """Outer strictly embedded with >= required margins is always accepted."""
        from tests.core.test_intervals_rules_monitor import (trace_with_intervals,
                                                             two_entity_rules)

        enter_sg, exit_sg = 3.0, 1.5
        inner = (start, start + enter_sg + margin + outer_len + exit_sg + margin + inner_len)
        outer = (start + enter_sg + margin, start + enter_sg + margin + outer_len)
        trace = trace_with_intervals([inner], [outer],
                                     horizon=inner[1] + exit_sg + 10.0)
        rules = two_entity_rules(enter=enter_sg, exit_=exit_sg, bound=1e9)
        assert PTEMonitor(rules).check(trace).safe

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=5.0, max_value=50.0),
           st.floats(min_value=0.1, max_value=2.8),
           st.floats(min_value=0.1, max_value=30.0))
    def test_insufficient_enter_margin_is_always_caught(self, start, short_margin,
                                                        outer_len):
        # The inner entity becomes risky well after the trace start (>= 5 s),
        # so the full 3 s enter-safeguard window is observable and a margin
        # below 3 s must be reported as a p1 violation.
        from tests.core.test_intervals_rules_monitor import (trace_with_intervals,
                                                             two_entity_rules)

        inner = (start, start + short_margin + outer_len + 10.0)
        outer = (start + short_margin, start + short_margin + outer_len)
        trace = trace_with_intervals([inner], [outer], horizon=inner[1] + 10.0)
        rules = two_entity_rules(enter=3.0, exit_=1.5, bound=1e9)
        assert not PTEMonitor(rules).check(trace).safe


class TestStochasticComponents:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1),
           st.floats(min_value=0.0, max_value=1.0))
    def test_bernoulli_channel_is_reproducible(self, seed, probability):
        first = BernoulliChannel(probability, seed=seed)
        second = BernoulliChannel(probability, seed=seed)
        assert [first.attempt(float(t)) for t in range(30)] == \
               [second.attempt(float(t)) for t in range(30)]

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_gilbert_channel_time_monotonic_queries_are_stable(self, seed):
        channel = GilbertElliottChannel(mean_good_duration=50.0, mean_bad_duration=10.0,
                                        seed=seed)
        outcomes = [channel.attempt(float(t)) for t in range(0, 100, 5)]
        assert len(outcomes) == 20

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**20), st.integers(min_value=1, max_value=50))
    def test_derive_seed_children_are_deterministic(self, master, count):
        first = [derive_seed(master, f"trial:{i}") for i in range(count)]
        second = [derive_seed(master, f"trial:{i}") for i in range(count)]
        assert first == second
        assert all(0 <= seed < 2**31 for seed in first)


class TestIntervalValueObjects:
    @given(finite_times, st.floats(min_value=0.0, max_value=100.0))
    def test_interval_duration(self, start, length):
        import pytest

        interval = Interval(start, start + length)
        assert interval.duration == pytest.approx(length, abs=1e-6)

    @given(finite_times, st.floats(min_value=0.0, max_value=100.0),
           st.floats(min_value=-1e3, max_value=1e3))
    def test_contains_matches_bounds(self, start, length, probe):
        interval = Interval(start, start + length)
        expected = start - 1e-9 <= probe <= start + length + 1e-9
        assert interval.contains(probe) == expected
