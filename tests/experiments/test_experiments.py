"""Integration tests for the experiment drivers (table/figure reproductions)."""

from repro.experiments import (PAPER_TABLE1, run_ablation_constraints, run_fig1, run_fig2,
                               run_fig3_5, run_fig6, run_loss_sweep, run_scenarios,
                               run_table1)


class TestFigureExperiments:
    def test_fig2_ventilator_checks_pass(self):
        result = run_fig2(horizon=60.0)
        assert result.passed, result.failed_checks()
        times, values = result.series["H_vent(t)"]
        assert len(times) == len(values) > 10

    def test_fig6_elaboration_checks_pass(self):
        result = run_fig6()
        assert result.passed, result.failed_checks()

    def test_fig1_timeline_checks_pass(self):
        result = run_fig1()
        assert result.passed, result.failed_checks()
        quantities = {row[0]: row[1] for row in result.rows}
        assert quantities["t1 (enter safeguard)"] >= 3.0
        assert quantities["t2 (exit safeguard)"] >= 1.5

    def test_fig3_5_pattern_checks_pass(self):
        result = run_fig3_5(entity_counts=(2, 3, 4, 5, 8))
        assert result.passed, result.failed_checks()
        assert [row[0] for row in result.rows] == [2, 3, 4, 5, 8]

    def test_render_produces_table(self):
        text = run_fig2().render()
        assert "H_vent" in text and "checks: PASS" in text


class TestScenarioAndAblation:
    def test_scenarios_lease_vs_baseline(self):
        result = run_scenarios()
        assert result.passed, result.failed_checks()

    def test_ablation_flags_broken_conditions(self):
        result = run_ablation_constraints()
        assert result.passed, result.failed_checks()


class TestTable1:
    def test_table1_shape_at_the_paper_horizon(self):
        # The paper's four 30-minute trials: leases never fail, the
        # baseline does, and lease-forced stops (evtToStop) happen, but
        # only with leases.
        result = run_table1(seed=42, duration=1800.0)
        assert result.passed, result.failed_checks()
        assert set(result.checks) == {
            "with_lease_never_fails", "baseline_does_fail",
            "evt_to_stop_only_with_lease", "lease_forced_stops_happen"}
        assert len(result.rows) == 4
        assert len(PAPER_TABLE1) == 4


class TestLossSweep:
    def test_lease_is_safe_at_every_loss_level(self):
        result = run_loss_sweep(loss_levels=(0.0, 0.3, 0.6, 0.9), duration=600.0,
                                seeds=(1,))
        assert result.checks["lease_safe_at_every_loss_level"], result.failed_checks()
