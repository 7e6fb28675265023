"""Parallel Monte-Carlo campaign runner for emulation trials.

Declarative parameter sweeps (:mod:`repro.campaign.spec`), a supervised
executor (in-process or worker pool) with deterministic per-trial seeding
(:mod:`repro.campaign.executor`), a zero-copy shared-memory
results ring for pooled runs (:mod:`repro.campaign.shm`),
streaming aggregation into experiment-compatible summaries
(:mod:`repro.campaign.aggregate`), a durable sqlite checkpoint store with
crash/resume semantics (:mod:`repro.campaign.store`), deterministic
fault-injection plans driving the executor's self-healing paths
(:mod:`repro.campaign.faults`), the paper's experiments as reusable
presets (:mod:`repro.campaign.presets`), a long-running job server over a
warm worker pool (:mod:`repro.campaign.service`), and a CLI
(``python -m repro.campaign``, with ``serve``/``submit``/``watch``/...
service subcommands).
"""

from repro.campaign.aggregate import (SUMMARY_RECORD_FIELDS, CampaignResult,
                                      GroupSummary, TrialSummary)
from repro.campaign.executor import (DEFAULT_MAX_RESPAWNS, DEFAULT_MAX_RETRIES,
                                     TRIAL_RUNNER_DEFAULT,
                                     CampaignCancelled,
                                     CampaignExecutionError,
                                     CampaignInterrupted, CampaignPool,
                                     default_worker_count, execute_batch,
                                     execute_trial, resolve_batch_size,
                                     run_campaign)
from repro.campaign.faults import (FAULT_PLAN_ENV_VAR, FaultPlan,
                                   FaultPlanError, InjectedTrialFault,
                                   TrialFailure, resolve_fault_plan)
from repro.campaign.shm import (ResultsRing, ShmError, ShmSession,
                                shared_memory_available)
from repro.campaign.presets import (PRESETS, Preset, grid_spec, interlock_spec,
                                    loss_sweep_spec, scenarios_spec,
                                    table1_spec)
from repro.campaign.spec import (CampaignSpec, ChannelSpec, SurgeonSpec, TrialRun,
                                 TrialSpec, expand_grid)
from repro.campaign.store import (CampaignStore, CampaignStoreError,
                                  CheckpointStatus, RecoveryStage,
                                  RecoveryStateMachine, enumerate_stores,
                                  spec_fingerprint)

__all__ = [
    "CampaignSpec", "TrialSpec", "TrialRun", "ChannelSpec", "SurgeonSpec",
    "expand_grid",
    "run_campaign", "execute_trial", "execute_batch", "resolve_batch_size",
    "default_worker_count", "TRIAL_RUNNER_DEFAULT",
    "CampaignCancelled", "CampaignExecutionError", "CampaignInterrupted",
    "CampaignPool",
    "DEFAULT_MAX_RETRIES", "DEFAULT_MAX_RESPAWNS",
    "FaultPlan", "FaultPlanError", "InjectedTrialFault", "TrialFailure",
    "resolve_fault_plan", "FAULT_PLAN_ENV_VAR",
    "CampaignResult", "GroupSummary", "TrialSummary", "SUMMARY_RECORD_FIELDS",
    "ShmSession", "ResultsRing", "ShmError",
    "shared_memory_available",
    "CampaignStore", "CampaignStoreError", "CheckpointStatus",
    "RecoveryStage", "RecoveryStateMachine", "enumerate_stores",
    "spec_fingerprint",
    "PRESETS", "Preset",
    "table1_spec", "loss_sweep_spec", "scenarios_spec", "grid_spec",
    "interlock_spec",
]
