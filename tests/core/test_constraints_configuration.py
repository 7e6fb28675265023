"""Tests for Theorem 1's conditions c1-c7 and configuration synthesis."""

from dataclasses import replace

import pytest

from repro.core import (EntityTiming, PatternConfiguration, check_conditions,
                        laser_tracheotomy_configuration, synthesize_configuration,
                        theoretical_guarantees)
from repro.core.constraints import assert_valid, guaranteed_dwelling_bound
from repro.errors import ConfigurationError, ConstraintViolation


class TestPaperConfiguration:
    def test_paper_values_satisfy_all_conditions(self):
        report = check_conditions(laser_tracheotomy_configuration())
        assert report.satisfied, report.summary()

    def test_t_ls1_and_dwelling_bound(self):
        config = laser_tracheotomy_configuration()
        assert config.t_ls1_max == pytest.approx(44.0)     # 3 + 35 + 6
        assert config.dwelling_bound == pytest.approx(47.0)  # + T_wait_max
        assert guaranteed_dwelling_bound(config) == pytest.approx(47.0)
        # The case study's 1-minute trial bound is looser than Theorem 1's.
        assert config.dwelling_bound < 60.0

    def test_theoretical_guarantees_cover_safeguards(self):
        config = laser_tracheotomy_configuration()
        guarantees = theoretical_guarantees(config)
        assert guarantees["enter_margin[1->2]"] == pytest.approx(7.0)
        assert guarantees["enter_margin[1->2]"] >= 3.0
        assert guarantees["exit_margin[2->1]"] == pytest.approx(6.0)
        assert guarantees["exit_margin[2->1]"] >= 1.5

    def test_to_rule_set(self):
        config = laser_tracheotomy_configuration()
        rules = config.to_rule_set(["vent", "laser"])
        assert rules.entities == ("vent", "laser")
        assert rules.dwelling_bound("vent") == pytest.approx(config.dwelling_bound)


class TestIndividualConditions:
    def test_c1_rejects_non_positive_constants(self):
        config = laser_tracheotomy_configuration()
        broken = replace(config, t_wait_max=0.0)
        report = check_conditions(broken)
        assert not report.result("c1").satisfied

    def test_c2_violation(self):
        config = laser_tracheotomy_configuration()
        broken = replace(config, t_wait_max=30.0)
        assert not check_conditions(broken).result("c2").satisfied

    def test_c3_violation_lower_bound(self):
        config = laser_tracheotomy_configuration()
        broken = replace(config, t_req_max=2.0)  # below (N-1)*T_wait = 3
        assert not check_conditions(broken).result("c3").satisfied

    def test_c3_violation_upper_bound(self):
        config = laser_tracheotomy_configuration()
        broken = replace(config, t_req_max=100.0)  # above T_LS1 = 44
        assert not check_conditions(broken).result("c3").satisfied

    def test_c4_violation(self):
        config = laser_tracheotomy_configuration()
        broken = config.with_timing(2, EntityTiming(10.0, 40.0, 6.0))
        assert not check_conditions(broken).result("c4").satisfied

    def test_c5_violation_paper_scenario(self):
        # The paper's third scenario: T_enter,2 = T_enter,1 breaks c5.
        config = laser_tracheotomy_configuration()
        broken = config.with_timing(2, EntityTiming(3.0, 20.0, 1.5))
        report = check_conditions(broken)
        assert not report.result("c5").satisfied

    def test_c6_violation(self):
        config = laser_tracheotomy_configuration()
        broken = config.with_timing(1, EntityTiming(3.0, 20.0, 6.0))
        assert not check_conditions(broken).result("c6").satisfied

    def test_c7_violation(self):
        config = laser_tracheotomy_configuration()
        broken = config.with_timing(1, EntityTiming(3.0, 35.0, 1.0))
        assert not check_conditions(broken).result("c7").satisfied

    def test_assert_valid_raises_named_condition(self):
        config = laser_tracheotomy_configuration()
        broken = config.with_timing(1, EntityTiming(3.0, 35.0, 1.0))
        with pytest.raises(ConstraintViolation) as excinfo:
            assert_valid(broken)
        assert excinfo.value.condition == "c7"


class TestSynthesis:
    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_synthesized_configurations_are_valid(self, n):
        config = synthesize_configuration(
            n_entities=n,
            enter_safeguards=[2.0] * (n - 1),
            exit_safeguards=[1.0] * (n - 1))
        assert config.n_entities == n
        assert check_conditions(config).satisfied

    def test_synthesis_respects_safeguards(self):
        config = synthesize_configuration(
            n_entities=3, enter_safeguards=[5.0, 2.0], exit_safeguards=[4.0, 0.5])
        assert config.timing(1).t_exit > 4.0
        assert config.timing(2).t_enter_max - config.timing(1).t_enter_max > 5.0

    def test_synthesis_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            synthesize_configuration(n_entities=1, enter_safeguards=[], exit_safeguards=[])
        with pytest.raises(ConfigurationError):
            synthesize_configuration(n_entities=3, enter_safeguards=[1.0],
                                     exit_safeguards=[1.0, 1.0])
        with pytest.raises(ConfigurationError):
            synthesize_configuration(n_entities=2, enter_safeguards=[1.0],
                                     exit_safeguards=[1.0], margin=0.0)

    def test_configuration_validation(self):
        with pytest.raises(ConfigurationError):
            PatternConfiguration(t_fallback_min=1.0, t_wait_max=1.0, t_req_max=1.0,
                                 entity_timing=[EntityTiming(1.0, 1.0, 1.0)],
                                 enter_safeguards=[], exit_safeguards=[])

    def test_timing_accessors(self):
        config = laser_tracheotomy_configuration()
        assert config.timing(1).t_run_max == pytest.approx(35.0)
        assert config.initializer_timing.t_run_max == pytest.approx(20.0)
        with pytest.raises(ConfigurationError):
            config.timing(3)

    def test_initializer_horizon(self):
        config = laser_tracheotomy_configuration()
        assert config.initializer_horizon() == pytest.approx(31.5)
