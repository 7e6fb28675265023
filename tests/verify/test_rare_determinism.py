"""Determinism regressions for the rare-event estimators.

Every estimate must be a pure function of the master seed and the
estimator settings: invariant to worker count, to the simulation engine
tier, and to being killed mid-run and resumed from the durable store.
These are the properties the fork-by-replay seeding discipline exists to
provide, so they are pinned here as hard equalities, not tolerances.
"""

import dataclasses
import functools
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.campaign.faults import FAULT_PLAN_ENV_VAR
from repro.campaign.spec import ChannelSpec
from repro.campaign.store import CRASH_EXIT_CODE, CampaignStore
from repro.casestudy.config import CaseStudyConfig, SurgeonModel
from repro.util.seeding import ForkPlan, derive_seed
from repro.verify.rare import (CellTemplate, SplitSettings, crude_estimate,
                               fixed_effort_splitting, pool_map,
                               run_chain_trial, scored_case_trial)
from repro.verify.sprt import SprtSettings, run_sprt_campaign, run_sprt_trials

_REPO_ROOT = Path(__file__).resolve().parents[2]

chain_trial = functools.partial(run_chain_trial, up=0.4, size=12)

SPLIT_SETTINGS = SplitSettings(trials_per_level=64, max_levels=15)


def _subprocess_env(**extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(_REPO_ROOT / "src") + os.pathsep
                         + env.get("PYTHONPATH", ""))
    env.pop(FAULT_PLAN_ENV_VAR, None)
    env.update(extra)
    return env


class TestWorkerInvariance:
    def test_split_estimate_is_worker_count_invariant(self):
        serial = fixed_effort_splitting(chain_trial, master_seed=9,
                                        settings=SPLIT_SETTINGS)
        pooled = fixed_effort_splitting(
            chain_trial, master_seed=9, settings=SPLIT_SETTINGS,
            map_fn=functools.partial(pool_map, max_workers=3))
        assert pooled == serial

    def test_crude_estimate_is_worker_count_invariant(self):
        serial = crude_estimate(chain_trial, master_seed=9, trials=500)
        pooled = crude_estimate(
            chain_trial, master_seed=9, trials=500,
            map_fn=functools.partial(pool_map, max_workers=3))
        assert pooled == serial

    def test_sprt_is_worker_count_invariant(self):
        settings = SprtSettings(p0=1e-3, p1=0.05, max_trials=3000)
        serial = run_sprt_trials(chain_trial, master_seed=9,
                                 settings=settings)
        pooled = run_sprt_trials(
            chain_trial, master_seed=9, settings=settings,
            map_fn=functools.partial(pool_map, max_workers=3))
        assert pooled == serial


class TestEngineTierInvariance:
    """The same fork plan produces the same scored trial on every kernel."""

    def _template(self, engine):
        config = dataclasses.replace(
            CaseStudyConfig(),
            surgeon=SurgeonModel(mean_toff=6.0, resample_quantum=2.0))
        return CellTemplate(config=config, with_lease=False, duration=300.0,
                            channel=ChannelSpec(kind="bernoulli", loss=1e-4),
                            engine=engine, event="dwell")

    def test_scored_trial_is_engine_tier_invariant(self):
        plan = ForkPlan(derive_seed(4, "tier:root:0"))
        reference = scored_case_trial(self._template("reference"), plan)
        for engine in ("compiled", "batched"):
            other = scored_case_trial(self._template(engine), plan)
            assert other == reference, f"{engine} diverged from reference"

    @pytest.mark.slow
    def test_split_estimate_is_engine_tier_invariant(self):
        settings = SplitSettings(trials_per_level=16, max_levels=4)
        estimates = {}
        for engine in ("reference", "compiled", "batched"):
            trial_fn = functools.partial(scored_case_trial,
                                         self._template(engine))
            estimates[engine] = fixed_effort_splitting(
                trial_fn, master_seed=4, settings=settings)
        assert estimates["compiled"] == estimates["reference"]
        assert estimates["batched"] == estimates["reference"]


class TestCrashResume:
    """SIGKILL-grade interruption mid-level, then bit-identical resume."""

    CHILD = textwrap.dedent("""
        import functools, sys
        from repro.campaign.faults import resolve_fault_plan
        from repro.campaign.store import CampaignStore
        from repro.verify.rare import (SplitSettings, fixed_effort_splitting,
                                       run_chain_trial)
        chain = functools.partial(run_chain_trial, up=0.4, size=12)
        with CampaignStore(sys.argv[1],
                           fault_plan=resolve_fault_plan(None)) as store:
            fixed_effort_splitting(
                chain, master_seed=9,
                settings=SplitSettings(trials_per_level=64, max_levels=15),
                store=store, identity="chain-crash")
    """)

    def test_split_resumes_bit_identically_after_crash(self, tmp_path):
        reference = fixed_effort_splitting(chain_trial, master_seed=9,
                                           settings=SPLIT_SETTINGS)
        assert len(reference.factors) >= 4, "need a multi-level run"

        db = tmp_path / "estimators.db"
        # Die via os._exit(86) right after the level-2 checkpoint commits
        # (the child opens its store with the environment's plan): no
        # context managers unwind, exactly like a SIGKILL mid-run.
        proc = subprocess.run(
            [sys.executable, "-c", self.CHILD, str(db)],
            env=_subprocess_env(**{FAULT_PLAN_ENV_VAR: "crash@commit=2"}),
            cwd=_REPO_ROOT, capture_output=True, text=True, timeout=300)
        assert proc.returncode == CRASH_EXIT_CODE, proc.stderr

        with CampaignStore(db) as store:
            state = store.load_estimator_state("split", "chain-crash")
            assert state is not None and not state["done"]
            assert state["level"] == 2
            resumed = fixed_effort_splitting(
                chain_trial, master_seed=9, settings=SPLIT_SETTINGS,
                store=store, identity="chain-crash", resume=True)
        assert resumed == reference

    def test_completed_split_short_circuits_on_resume(self, tmp_path):
        db = tmp_path / "estimators.db"
        with CampaignStore(db) as store:
            first = fixed_effort_splitting(
                chain_trial, master_seed=9, settings=SPLIT_SETTINGS,
                store=store, identity="chain-done")
            state = store.load_estimator_state("split", "chain-done")
            assert state["done"]
            again = fixed_effort_splitting(
                chain_trial, master_seed=9, settings=SPLIT_SETTINGS,
                store=store, identity="chain-done", resume=True)
        assert again == first


@pytest.mark.slow
class TestSprtCampaignDeterminism:
    """The campaign-wrapped SPRT: worker counts and store resume."""

    def _run(self, **kwargs):
        from repro.campaign.presets import table1_spec
        spec = table1_spec(mean_toffs=(18.0,), duration=300.0, replicates=1,
                           legacy_seed=3)
        settings = SprtSettings(p0=0.05, p1=0.3, max_trials=200)
        return run_sprt_campaign(spec, cell_index=1, master_seed=3,
                                 settings=settings, engine="compiled",
                                 **kwargs)

    def test_worker_count_invariant(self):
        serial = self._run(max_workers=1)
        pooled = self._run(max_workers=3, batch_size=4)
        assert pooled == serial
        assert serial.decided_early

    def test_store_resume_returns_identical_result(self, tmp_path):
        db = tmp_path / "sprt.db"
        with CampaignStore(db) as store:
            first = self._run(max_workers=1, store=store)
        with CampaignStore(db) as store:
            again = self._run(max_workers=1, store=store, resume=True)
        assert again == first
