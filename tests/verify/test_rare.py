"""Statistical correctness tests of the rare-event estimators.

The fast tests pin the estimator mechanics (settings validation, the
threshold schedule, the error-bound arithmetic, JSON round-trips).  The
``slow``-marked tests are the statistical harness the module exists for:
splitting is *unbiased* on a birth--death chain with a closed-form
probability, its confidence intervals cover the truth at roughly the
nominal rate, and Wald's SPRT respects its alpha/beta error budgets
empirically.  They run in CI's ``rare`` job with fixed seeds.
"""

import dataclasses
import functools
import math
import statistics

import pytest

from repro.campaign.spec import ChannelSpec
from repro.casestudy.config import CaseStudyConfig, SurgeonModel
from repro.util.seeding import ForkPlan, derive_seed, rng_session, spawn_rng
from repro.verify.rare import (CELL_EVENTS, CellTemplate, RareEventEstimate,
                               ScoredTrial, SplitSettings,
                               chain_success_probability, crude_estimate,
                               crude_trials_for, fixed_effort_splitting,
                               run_chain_trial, scored_case_trial, z_value)
from repro.verify.sprt import (SequentialProbabilityRatioTest, SprtResult,
                               SprtSettings, run_sprt_trials)

#: The toy chain of every statistical test: truth ~= 3.88e-3.
CHAIN = dict(up=0.4, size=12)
CHAIN_TRUTH = chain_success_probability(**CHAIN)
chain_trial = functools.partial(run_chain_trial, **CHAIN)


class TestSettingsValidation:
    def test_split_settings_reject_bad_values(self):
        with pytest.raises(ValueError):
            SplitSettings(trials_per_level=1)
        with pytest.raises(ValueError):
            SplitSettings(quantile=0.0)
        with pytest.raises(ValueError):
            SplitSettings(quantile=1.0)
        with pytest.raises(ValueError):
            SplitSettings(max_levels=0)
        with pytest.raises(ValueError):
            SplitSettings(confidence=1.0)
        with pytest.raises(ValueError):
            SplitSettings(levels=())
        with pytest.raises(ValueError):
            SplitSettings(levels=(0.5, 0.5))

    def test_sprt_settings_reject_bad_values(self):
        with pytest.raises(ValueError):
            SprtSettings(p0=0.2, p1=0.1)
        with pytest.raises(ValueError):
            SprtSettings(p0=0.0, p1=0.1)
        with pytest.raises(ValueError):
            SprtSettings(p0=0.01, p1=0.1, alpha=0.0)
        with pytest.raises(ValueError):
            SprtSettings(p0=0.01, p1=0.1, beta=1.0)
        with pytest.raises(ValueError):
            SprtSettings(p0=0.01, p1=0.1, max_trials=0)

    def test_cell_template_rejects_unknown_event(self):
        from repro.casestudy.config import CaseStudyConfig
        with pytest.raises(ValueError):
            CellTemplate(config=CaseStudyConfig(), event="nope")
        for event in CELL_EVENTS:
            CellTemplate(config=CaseStudyConfig(), event=event)


class TestEstimateArithmetic:
    def test_z_value_matches_known_quantiles(self):
        assert z_value(0.95) == pytest.approx(1.959964, abs=1e-5)
        assert z_value(0.99) == pytest.approx(2.575829, abs=1e-5)

    def test_crude_trials_for(self):
        # (1 - p) / (p * re^2), rounded up.
        assert crude_trials_for(0.01, 0.1) == math.ceil(0.99 / (0.01 * 0.01))
        assert crude_trials_for(0.5, 1.0) == 1

    def test_chain_truth_closed_form(self):
        # Gambler's ruin from 1 with up-probability r:
        # p = (1 - rho) / (1 - rho^size), rho = (1-r)/r.
        rho = 0.6 / 0.4
        expected = (1 - rho) / (1 - rho ** 12)
        assert CHAIN_TRUTH == pytest.approx(expected)

    def test_estimate_json_round_trip(self):
        est = fixed_effort_splitting(
            chain_trial, master_seed=5,
            settings=SplitSettings(trials_per_level=32))
        again = RareEventEstimate.from_json(est.to_json())
        assert again == est

    def test_sprt_result_json_round_trip(self):
        settings = SprtSettings(p0=0.01, p1=0.2, max_trials=500)
        result = run_sprt_trials(chain_trial, master_seed=5,
                                 settings=settings)
        again = SprtResult.from_json(result.to_json())
        assert again == result

    def test_zero_estimate_is_saturated_with_infinite_error(self):
        # A chain that can never reach the top within max_levels of
        # adaptive splitting on a tiny effort will eventually die out;
        # force it directly with an impossible explicit ladder.
        dead = functools.partial(run_chain_trial, up=0.01, size=40)
        est = fixed_effort_splitting(
            dead, master_seed=3,
            settings=SplitSettings(trials_per_level=8, levels=(0.9,)))
        assert est.probability == 0.0
        assert est.rel_error == math.inf
        assert est.ci_high == math.inf


class TestScoredTrial:
    def test_chain_trial_staircase_is_increasing_and_watermarked(self):
        trial = chain_trial(ForkPlan(derive_seed(1, "t")))
        scores = [score for score, _ in trial.staircase]
        assert scores == sorted(scores)
        assert trial.score == scores[-1]
        assert all(marks is not None for _, marks in trial.staircase)

    def test_fork_point_returns_first_crossing(self):
        trial = ScoredTrial(plan=ForkPlan(1), score=0.8, violation=False,
                            staircase=((0.2, {"a": 1}), (0.5, {"a": 3}),
                                       (0.8, {"a": 9})), steps=(4, 17, 30))
        assert trial.fork_point(0.4) == ({"a": 3}, 17)
        assert trial.fork_point(0.8) == ({"a": 9}, 30)
        assert trial.fork_point(0.9) == (None, 0)
        # Without steps a fork pauses at step 0.
        stepless = dataclasses.replace(trial, steps=())
        assert stepless.fork_point(0.4) == ({"a": 3}, 0)


# -- the statistical harness (CI `rare` job) ---------------------------------

def _bernoulli_trial(plan: ForkPlan, p: float) -> ScoredTrial:
    """Trivial Bernoulli trial used to test the SPRT's error rates."""
    with rng_session(plan) as ledger:
        rng = spawn_rng(plan.root_seed, "coin")
        hit = rng.random() < p
        marks = ledger.snapshot()
    return ScoredTrial(plan=plan, score=1.0 if hit else 0.0, violation=hit,
                       staircase=((1.0, marks),) if hit else ())


@pytest.mark.slow
class TestSplittingStatistics:
    REPS = 200
    #: Fixed ladder on the chain's score grid (score = state / 12).
    LADDER = tuple(k / 12 for k in range(2, 12))

    def _replicates(self, settings):
        return [fixed_effort_splitting(chain_trial, master_seed=rep,
                                       settings=settings)
                for rep in range(self.REPS)]

    def test_fixed_ladder_splitting_is_unbiased_on_the_chain(self):
        estimates = [e.probability for e in self._replicates(
            SplitSettings(trials_per_level=32, levels=self.LADDER))]
        mean = statistics.fmean(estimates)
        sem = statistics.stdev(estimates) / math.sqrt(len(estimates))
        # With fixed thresholds the product of conditional probabilities
        # is exactly unbiased: the replicate mean sits within 4 standard
        # errors of the closed-form truth (~6e-5 false-failure rate).
        assert abs(mean - CHAIN_TRUTH) <= 4.0 * sem, (
            f"mean {mean:.3e} vs truth {CHAIN_TRUTH:.3e} (sem {sem:.1e})")

    def test_adaptive_bias_shrinks_with_effort(self):
        # Adaptive threshold placement has the well-known O(1/N) upward
        # bias (Cerou & Guyader): ~+46% at N=32 on this chain.  Pin that
        # it shrinks roughly linearly as the per-level effort grows.
        def bias(n):
            mean = statistics.fmean(
                e.probability for e in self._replicates(
                    SplitSettings(trials_per_level=n, max_levels=15)))
            return (mean - CHAIN_TRUTH) / CHAIN_TRUTH
        small, large = bias(32), bias(128)
        assert abs(large) < abs(small)
        assert abs(large) <= 0.25, f"adaptive bias at N=128: {large:+.1%}"

    def test_confidence_intervals_cover_the_truth(self):
        estimates = self._replicates(
            SplitSettings(trials_per_level=32, levels=self.LADDER))
        covered = sum(1 for e in estimates
                      if e.probability > 0
                      and e.ci_low <= CHAIN_TRUTH <= e.ci_high)
        # Nominal 95% lognormal intervals; the delta-method approximation
        # and occasional zero-collapses cost some coverage, so gate at 85%.
        assert covered / self.REPS >= 0.85, f"coverage {covered}/{self.REPS}"

    def test_crude_estimator_agrees_on_the_chain(self):
        est = crude_estimate(chain_trial, master_seed=77, trials=20_000)
        assert est.ci_low <= CHAIN_TRUTH <= est.ci_high


@pytest.mark.slow
class TestSprtErrorRates:
    REPS = 300
    SETTINGS = SprtSettings(p0=0.05, p1=0.25, alpha=0.05, beta=0.05,
                            max_trials=2000)

    def _error_rate(self, true_p: float, wrong: str) -> float:
        trial_fn = functools.partial(_bernoulli_trial, p=true_p)
        wrong_count = 0
        for rep in range(self.REPS):
            result = run_sprt_trials(trial_fn, master_seed=rep,
                                     settings=self.SETTINGS,
                                     name=f"sprt:{true_p}:{rep}")
            if result.decision == wrong:
                wrong_count += 1
        return wrong_count / self.REPS

    def test_type_one_error_respects_alpha(self):
        # Truth at H0: deciding H1 is the type-I error, budget alpha=5%.
        rate = self._error_rate(self.SETTINGS.p0, "H1")
        assert rate <= 0.10, f"empirical alpha {rate:.3f}"

    def test_type_two_error_respects_beta(self):
        # Truth at H1: deciding H0 is the type-II error, budget beta=5%.
        rate = self._error_rate(self.SETTINGS.p1, "H0")
        assert rate <= 0.10, f"empirical beta {rate:.3f}"

    def test_indifference_region_truncates_with_forced_decision(self):
        # Truth between p0 and p1: many runs reach the truncation point;
        # the forced decision still reports sensibly.
        trial_fn = functools.partial(_bernoulli_trial, p=0.12)
        settings = SprtSettings(p0=0.05, p1=0.25, alpha=0.05, beta=0.05,
                                max_trials=60)
        results = [run_sprt_trials(trial_fn, master_seed=rep,
                                   settings=settings, name=f"ind:{rep}")
                   for rep in range(50)]
        truncated = [r for r in results if not r.decided_early]
        assert truncated, "expected some truncated runs in the gap"
        assert all(r.trials_used <= 60 for r in results)
        assert all(r.decision in ("H0", "H1") for r in results)


class TestSprtMechanics:
    def test_llr_updates_match_wald(self):
        settings = SprtSettings(p0=0.1, p1=0.3, alpha=0.05, beta=0.05,
                                max_trials=100)
        test = SequentialProbabilityRatioTest(settings)
        test.update(True)
        test.update(False)
        expected = (math.log(0.3 / 0.1)
                    + math.log((1 - 0.3) / (1 - 0.1)))
        assert test.llr == pytest.approx(expected)
        assert test.count == 2
        assert test.violations == 1

    def test_accepts_h1_on_all_violations(self):
        settings = SprtSettings(p0=0.01, p1=0.5, alpha=0.01, beta=0.01,
                                max_trials=100)
        test = SequentialProbabilityRatioTest(settings)
        while not test.decided:
            test.update(True)
        assert test.decision == "H1"
        assert test.count < 100

    def test_accepts_h0_on_no_violations(self):
        settings = SprtSettings(p0=0.01, p1=0.5, alpha=0.01, beta=0.01,
                                max_trials=1000)
        test = SequentialProbabilityRatioTest(settings)
        while not test.decided:
            test.update(False)
        assert test.decision == "H0"
        assert test.count < 1000


def test_sprt_accepts_h0_early_on_the_low_loss_cell():
    # perfbench's rare-split cell (baseline, E(Toff)=6 s, loss 1e-4, 300 s),
    # where the 60 s dwell has p ~ 2e-4: sequential testing certifies
    # p <= 1e-3 in a small fraction of its 2000-trial budget (59 trials).
    config = dataclasses.replace(
        CaseStudyConfig(), surgeon=SurgeonModel(mean_toff=6.0, resample_quantum=2.0))
    template = CellTemplate(config=config, with_lease=False, duration=300.0,
                            channel=ChannelSpec(kind="bernoulli", loss=1e-4),
                            engine="compiled", event="dwell")
    settings = SprtSettings(p0=1e-3, p1=5e-2, alpha=0.05, beta=0.05,
                            max_trials=2000)
    result = run_sprt_trials(functools.partial(scored_case_trial, template),
                             master_seed=1, settings=settings, name="bench-sprt",
                             batch=32)
    assert result.decided_early
    assert result.decision == "H0"
    assert result.trials_used <= 400
