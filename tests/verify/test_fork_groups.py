"""Fork groups: a survivor's prefix is replayed once, its children run from copies.

The oracle throughout is the old way to fork: a child plan replayed
straight from t=0 under its own RNG session.  Every child a fork group
produces must equal that replay exactly, on every engine tier, whatever
the pause step, the lineage depth or the chunking.
"""

import copy
import dataclasses
import functools
import pickle

import pytest

from repro.campaign.spec import ChannelSpec
from repro.campaign.store import CampaignStore
from repro.casestudy.config import PATIENT, SUPERVISOR, CaseStudyConfig, SurgeonModel
from repro.casestudy.emulation import build_case_study
from repro.casestudy.patient import SPO2
from repro.casestudy.supervisor import SUPERVISOR_SPO2
from repro.hybrid.simulate import compiled
from repro.util.seeding import ForkPlan, derive_seed, rng_session, spawn_rng
from repro.verify import rare
from repro.verify.rare import (FORK_CHUNK, CellTemplate, ForkGroup, SplitSettings,
                               crude_trials_for, fixed_effort_splitting, fork_groups,
                               run_chain_trial, scored_case_trial)

CONFIG = dataclasses.replace(CaseStudyConfig(),
                             surgeon=SurgeonModel(mean_toff=6.0, resample_quantum=2.0))
TIERS = ("reference", "compiled", "batched")


def _template(engine, event="dwell", loss=1e-4):
    return CellTemplate(config=CONFIG, with_lease=False, duration=120.0,
                        channel=ChannelSpec(kind="bernoulli", loss=loss),
                        engine=engine, event=event)


def _finished(template, plan):
    """``plan``'s run, replayed straight from t=0 under its own session."""
    # As scored_case_trial does: a cold lowered-model cache must not draw
    # inside the session.
    rare._lowered_case_study(template.config, template.with_lease)
    with rng_session(plan) as ledger:
        run = rare._CaseRun(template, ledger)
        run.advance()
    return run


def _replayed(template, plan):
    return _finished(template, plan).scored(plan)


def _children(parent, threshold, count, salt="child"):
    marks, step = parent.fork_point(threshold)
    assert marks is not None
    return [parent.plan.fork(derive_seed(7, f"{salt}:{i}"), marks, step)
            for i in range(count)]


def _group_matches_replay(template, plans):
    results = scored_case_trial(template, ForkGroup(tuple(plans)))
    assert results == [_replayed(template, plan) for plan in plans]
    return results


@pytest.mark.parametrize("engine", TIERS)
def test_children_that_never_draw_past_the_watermark(engine):
    template = _template(engine)
    run = _finished(template, ForkPlan(0))
    parent = run.scored(ForkPlan(0))
    # Forked at the parent's last draw in its last step, a child replays
    # the whole parent: every draw it makes lies below the watermark.
    marks, step = run.ledger.snapshot(), run.trial.engine.steps
    plans = [parent.plan.fork(seed, marks, step) for seed in (11, 12, 13)]
    for child in _group_matches_replay(template, plans):
        assert (child.score, child.staircase, child.steps) == (
            parent.score, parent.staircase, parent.steps)


def _draws_after_the_crossing(template, plan, marks, step):
    """Whether ``plan`` draws again in ``step`` after the watermark ``marks``."""
    with rng_session(plan) as ledger:
        rare._CaseRun(template, ledger).advance(step)
        return ledger.snapshot() != marks


@pytest.mark.parametrize("engine", TIERS)
def test_children_diverge_inside_the_paused_step(engine):
    template = _template(engine)
    parent = scored_case_trial(template, ForkPlan(0))
    # The first record whose step goes on drawing after the crossing
    # heartbeat: those draws belong to the children, not to the parent.
    compiled_tier = _template("compiled")
    score = next(score for (score, marks), step in zip(parent.staircase, parent.steps)
                 if _draws_after_the_crossing(compiled_tier, ForkPlan(0), marks, step))
    assert score < parent.score
    results = _group_matches_replay(template, _children(parent, score, 3))
    assert len({repr(result.staircase) for result in results}) == 3


@pytest.mark.parametrize("engine", TIERS)
def test_grandchildren_match_replay(engine):
    template = _template(engine)
    parent = scored_case_trial(template, ForkPlan(1))
    children = _group_matches_replay(template, _children(parent, 0.2, 2))
    child = max(children, key=lambda trial: trial.score)
    assert child.steps[-1] > child.plan.segments[-1].step
    grandchildren = _children(child, child.score, 2, salt="grandchild")
    assert len(grandchildren[0].segments) == 2
    _group_matches_replay(template, grandchildren)


@pytest.mark.parametrize("engine", TIERS)
def test_violation_bump_pauses_at_the_last_step(engine):
    template = _template(engine, event="violation", loss=0.3)
    run = _finished(template, ForkPlan(31))
    parent = run.scored(ForkPlan(31))
    # A Rule-2 failure below the dwelling budget: bumped onto 1.0 with an
    # end-of-trial watermark, dated by the trial's last step.
    assert parent.violation and parent.staircase[-2][0] < 1.0
    assert parent.fork_point(1.0) == (parent.staircase[-1][1], run.trial.engine.steps)
    for child in _group_matches_replay(template, _children(parent, 1.0, 2)):
        assert child.violation and child.score == 1.0


@pytest.mark.parametrize("engine", ("compiled", "batched"))
def test_a_large_group_is_cut_into_chunks_and_scattered_back(engine):
    template = _template(engine)
    parent = scored_case_trial(template, ForkPlan(2))
    roots = [ForkPlan(root) for root in (3, 4)]
    plans = _children(parent, 0.2, 64)
    # Interleave two root trials so that slot order and group order differ.
    plans[5:5] = roots[:1]
    plans[40:40] = roots[1:]
    groups, slots = fork_groups(plans)
    assert [len(group.plans) for group in groups] == [FORK_CHUNK] * 8 + [1, 1]
    assert sorted(slot for chunk in slots for slot in chunk) == list(range(len(plans)))
    seen = []

    def map_fn(fn, items):
        seen.extend(items)
        return [fn(item) for item in items]

    trial_fn = functools.partial(scored_case_trial, template)
    results = rare._run_level(trial_fn, plans, map_fn)
    assert seen == groups
    assert [result.plan for result in results] == plans
    assert results == [_replayed(template, plan) for plan in plans]


def test_level_results_come_back_in_slot_order():
    chain = functools.partial(run_chain_trial, up=0.4, size=12)
    plans = [ForkPlan(root) for root in range(6)]
    parent = chain(plans[0])
    plans[1:1] = _children(parent, parent.score, 3)
    plans.append(_children(parent, parent.score, 1, salt="late")[0])

    def reversed_map(fn, items):
        return [fn(item) for item in items[::-1]][::-1]

    results = rare._run_level(chain, plans, reversed_map)
    assert [result.plan for result in results] == plans
    assert results == [chain(plan) for plan in plans]


@pytest.mark.parametrize("engine", TIERS)
def test_plans_without_pause_steps_replay_the_whole_prefix(engine):
    template = _template(engine)
    parent = scored_case_trial(template, ForkPlan(0))
    plans = _children(parent, 0.2, 2)
    stepless = []
    for plan in plans:
        data = plan.to_json()
        for segment in data["segments"]:
            del segment["step"]  # a checkpoint written before pause steps
        stepless.append(ForkPlan.from_json(data))
    assert all(plan.segments[-1].step == 0 for plan in stepless)
    results = _group_matches_replay(template, stepless)
    paused = scored_case_trial(template, ForkGroup(tuple(plans)))
    assert [dataclasses.replace(r, plan=p) for r, p in zip(results, plans)] == paused


def test_resume_from_a_checkpoint_without_pause_steps(tmp_path):
    chain = functools.partial(run_chain_trial, up=0.4, size=12)
    settings = SplitSettings(trials_per_level=32, max_levels=15)
    reference = fixed_effort_splitting(chain, master_seed=9, settings=settings)
    assert len(reference.factors) >= 3
    levels = []

    def dying_map(fn, items):
        if len(levels) == 2:
            raise RuntimeError("killed")
        levels.append(len(items))
        return [fn(item) for item in items]

    with CampaignStore(tmp_path / "split.db") as store:
        with pytest.raises(RuntimeError):
            fixed_effort_splitting(chain, master_seed=9, settings=settings,
                                   map_fn=dying_map, store=store, identity="chain")
        state = store.load_estimator_state("split", "chain")
        assert state["level"] == 2
        assert any(segment["step"] for plan in state["plans"]
                   for segment in plan["segments"])
        for plan in state["plans"]:
            for segment in plan["segments"]:
                del segment["step"]
        store.save_estimator_state("split", "chain", state)
        resumed = fixed_effort_splitting(chain, master_seed=9, settings=settings,
                                         store=store, identity="chain", resume=True)
    assert resumed == reference


@pytest.mark.parametrize("engine", TIERS)
def test_a_paused_engine_and_its_copy_finish_like_an_uninterrupted_run(engine):
    sampled = [(PATIENT, SPO2), (SUPERVISOR, SUPERVISOR_SPO2)]

    def build():
        case = build_case_study(CONFIG, with_lease=True, seed=3)
        return case.engine(seed=3, record_variables=sampled, sample_interval=0.1,
                           kind=engine)

    straight = vars(build().run(60.0))
    paused = build()
    paused.start(60.0)
    paused.advance(250)
    assert paused.steps == 250
    twin = copy.deepcopy(paused)
    for each in (twin, paused):
        each.advance()
        assert vars(each.finish()) == straight


def test_forked_stream_survives_deepcopy_and_pickle():
    plan = ForkPlan(3).fork(8, {("s", 0): 4}, step=2)
    with rng_session(plan):
        stream = spawn_rng(5, "s")
        for _ in range(6):
            stream.random()
    clones = [copy.deepcopy(stream), pickle.loads(pickle.dumps(stream))]
    expected = [stream.random() for _ in range(4)]
    for clone in clones:
        assert type(clone) is type(stream)
        assert clone.draws == 6
        assert clone._boundaries == [4]
        assert [clone.random() for _ in range(4)] == expected


def test_ledger_forks_only_into_a_one_segment_extension():
    root = ForkPlan(3)
    with rng_session(root) as ledger:
        spawn_rng(5, "s").random()
        with pytest.raises(ValueError):
            ledger.fork(root)
        with pytest.raises(ValueError):
            ledger.fork(root.fork(1, {}).fork(2, {}))
        ledger.fork(root.fork(1, {("s", 0): 1}))
    with rng_session(root.fork(1, {("s", 0): 1})):
        replay = spawn_rng(5, "s")
        replay.random()
        expected = replay.random()
    assert ledger._streams[("s", 0)].random() == expected


def test_a_group_rejects_plans_of_different_forks():
    parent = ForkPlan(3)
    with pytest.raises(ValueError):
        ForkGroup(())
    with pytest.raises(ValueError):
        ForkGroup((parent.fork(1, {("s", 0): 2}, 5), parent.fork(2, {("s", 0): 2}, 6)))
    with pytest.raises(ValueError):
        ForkGroup((parent.fork(1, {}), ForkPlan(4).fork(2, {})))
    group = ForkGroup((parent.fork(1, {("s", 0): 2}, 5), parent.fork(2, {("s", 0): 2}, 5)))
    assert (group.parent, group.step) == (parent, 5)


def test_perfbench_pin_simulates_at_most_87000_seconds(monkeypatch):
    """The rare-split pin (seed 1): same estimate, a third less simulation.

    It also holds splitting's efficiency bar: at least 10x fewer trials
    than crude Monte Carlo at equal relative error.
    """
    simulated = []
    advance = compiled.CompiledEngine.advance

    def counting(self, until=None):
        start = self.state.time
        advance(self, until)
        simulated.append(self.state.time - start)

    monkeypatch.setattr(compiled.CompiledEngine, "advance", counting)
    template = CellTemplate(config=CONFIG, with_lease=False, duration=300.0,
                            channel=ChannelSpec(kind="bernoulli", loss=1e-4),
                            engine="compiled", event="dwell")
    estimate = fixed_effort_splitting(
        functools.partial(scored_case_trial, template), master_seed=1,
        settings=SplitSettings(trials_per_level=64, max_levels=20), name="bench-split")
    assert [estimate.probability, estimate.rel_error, estimate.trials_used] == [
        0.00023508071899414062, 0.5283842434461019, 448]
    # Crude Monte Carlo needs about 34x the trials for the same relative error.
    crude = crude_trials_for(estimate.probability, estimate.rel_error)
    assert crude >= 10 * estimate.trials_used
    # Replaying every fork from t=0 simulated 448 * 300 = 134,400 s.
    assert sum(simulated) <= 87_000
