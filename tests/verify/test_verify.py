"""Tests for trace properties and the lease-vs-baseline fault sweep.

The sweep is the ``loss_sweep`` campaign preset: memoryless loss levels x
{with, without lease}, each cell pinned to the same explicit seeds, so the
two arms of every loss level form paired trials.
"""

from repro.campaign import ChannelSpec, loss_sweep_spec, run_campaign
from repro.campaign.presets import loss_sweep_result
from repro.casestudy import CaseStudyConfig, run_trial
from repro.util.seeding import derive_seed
from repro.verify import (bounded_dwelling_property, pte_safety_property,
                          single_risky_visit_per_round_property)
from repro.verify.properties import auto_reset_property
from repro.wireless import PerfectChannel
from repro.wireless.channel import (BernoulliChannel, GilbertElliottChannel,
                                    ScriptedChannel)

CONFIG = CaseStudyConfig()


class TestFaultScenarios:
    def test_channel_kinds_build_channels(self):
        assert isinstance(ChannelSpec("perfect").build(1), PerfectChannel)
        assert isinstance(ChannelSpec("bernoulli", loss=0.5).build(1),
                          BernoulliChannel)
        # The default kind defers to the calibrated burst interferer.
        assert ChannelSpec().build(1) is None
        assert isinstance(CONFIG.interference.to_channel(1),
                          GilbertElliottChannel)

    def test_blackout_scenario(self):
        channel = ChannelSpec("scripted", windows=((10.0, 20.0),)).build(None)
        assert isinstance(channel, ScriptedChannel)
        assert not channel.attempt(15.0).received_by_application
        assert channel.attempt(25.0).received_by_application


class TestProperties:
    def _safe_trace(self):
        result = run_trial(CONFIG, with_lease=True, seed=8, duration=300.0,
                           keep_trace=True)
        return result.trace

    def test_pte_safety_property_on_lease_trace(self):
        prop = pte_safety_property(CONFIG.rules())
        assert prop.evaluate(self._safe_trace()).holds

    def test_bounded_dwelling_property(self):
        trace = self._safe_trace()
        ok = bounded_dwelling_property(["ventilator", "laser_scalpel"], 60.0)
        assert ok.evaluate(trace).holds
        tight = bounded_dwelling_property(["ventilator", "laser_scalpel"], 0.5)
        # With any emission at all, a 0.5 s bound cannot hold.
        emitted = trace.count_entries("laser_scalpel", "xi2.Risky Core") > 0
        assert tight.evaluate(trace).holds != emitted or not emitted

    def test_auto_reset_property(self):
        trace = self._safe_trace()
        auto_reset_property(
            ["ventilator", "laser_scalpel"],
            {"ventilator": "PumpOut", "laser_scalpel": "xi2.Fall-Back"},
            horizon=CONFIG.pattern.round_horizon + CONFIG.pattern.t_wait_max)
        # The ventilator's Fall-Back is elaborated into PumpOut/PumpIn, so we
        # only check the laser here (its Fall-Back is a single location).
        laser_only = auto_reset_property(
            ["laser_scalpel"], {"laser_scalpel": "xi2.Fall-Back"},
            horizon=CONFIG.pattern.round_horizon)
        assert laser_only.evaluate(trace).holds

    def test_single_risky_visit_per_round(self):
        trace = self._safe_trace()
        prop = single_risky_visit_per_round_property(
            "laser_scalpel", "evt_xi0_to_xi1_lease_req")
        assert prop.evaluate(trace).holds


class TestLossSweep:
    """Lease-vs-baseline sweeps through ``run_campaign``."""

    @staticmethod
    def _arms(campaign):
        """Map each loss level to its ``(with lease, without lease)`` groups."""
        arms = {}
        for group in campaign.groups():
            loss = campaign.spec_of(group).param_dict["loss"]
            pair = arms.setdefault(loss, [None, None])
            pair[0 if group.with_lease else 1] = group
        return arms

    def test_lease_arm_never_fails(self):
        seeds = (derive_seed(11, "trial:0"), derive_seed(11, "trial:1"))
        campaign = run_campaign(loss_sweep_spec(loss_levels=(0.0, 0.5),
                                                duration=300.0, seeds=seeds))
        arms = self._arms(campaign)
        assert sorted(arms) == [0.0, 0.5]
        assert campaign.total_trials == 8
        for with_lease, without_lease in arms.values():
            assert with_lease.trials == without_lease.trials == 2
            assert with_lease.failures == 0
            assert with_lease.failing_trials == 0

    def test_report_bookkeeping(self):
        seeds = (derive_seed(5, "trial:0"), derive_seed(5, "trial:1"))
        campaign = run_campaign(loss_sweep_spec(loss_levels=(0.0,),
                                                duration=200.0, seeds=seeds))
        with_lease, without_lease = self._arms(campaign)[0.0]
        assert with_lease.trials == without_lease.trials == 2
        assert with_lease.failing_trials == 0
        report = loss_sweep_result(campaign)
        assert len(report.rows) == 2
        assert "each cell aggregates 2 trials of 200s" in report.notes
        assert report.checks["lease_safe_at_every_loss_level"]
        assert "loss probability" in report.render()

    def test_arms_share_their_seeds(self):
        seeds = (derive_seed(5, "trial:0"), derive_seed(5, "trial:1"))
        campaign = run_campaign(loss_sweep_spec(loss_levels=(0.0,),
                                                duration=200.0, seeds=seeds))
        by_arm = {True: [], False: []}
        for summary in campaign.summaries:
            by_arm[summary.with_lease].append(summary.seed)
        assert by_arm[True] == by_arm[False] == list(seeds)

    def test_baseline_fails_where_lease_holds(self):
        # A no-loss pair the baseline loses on margin (its failures are
        # dwell driven, not loss driven) while the lease design holds.
        seed = derive_seed(2, "trial:0")
        campaign = run_campaign(loss_sweep_spec(loss_levels=(0.0,),
                                                duration=150.0, seeds=(seed,)))
        with_lease, without_lease = self._arms(campaign)[0.0]
        assert with_lease.trials == without_lease.trials == 1
        assert with_lease.failures == 0
        assert without_lease.failures == 1
        assert without_lease.failing_trials == 1

    def test_both_arms_clean(self):
        # The symmetric outcome: with this seed neither arm fails, and the
        # sweep reports that rather than inventing a difference.
        seed = derive_seed(1, "trial:0")
        campaign = run_campaign(loss_sweep_spec(loss_levels=(0.0,),
                                                duration=150.0, seeds=(seed,)))
        for group in self._arms(campaign)[0.0]:
            assert group.trials == 1
            assert group.failures == 0
            assert group.failing_trials == 0
