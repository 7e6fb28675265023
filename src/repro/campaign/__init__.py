"""Parallel Monte-Carlo campaign runner for emulation trials.

Declarative parameter sweeps (:mod:`repro.campaign.spec`), a supervised
executor (in-process or worker pool) with deterministic per-trial seeding
(:mod:`repro.campaign.executor`), an opt-in zero-copy shared-memory
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

from repro._lazy import lazy_exports

#: Defining module -> the names this facade re-exports from it (imported on
#: first access, so ``import repro.campaign.spec`` stays cheap).
_EXPORTS = {
    "repro.campaign.aggregate": ("SUMMARY_RECORD_FIELDS", "CampaignResult",
                                 "GroupSummary", "TrialSummary"),
    "repro.campaign.executor": ("DEFAULT_MAX_RESPAWNS", "DEFAULT_MAX_RETRIES",
                                "TRIAL_RUNNER_DEFAULT", "CampaignCancelled",
                                "CampaignExecutionError", "CampaignInterrupted",
                                "CampaignPool", "default_worker_count",
                                "execute_batch", "execute_trial",
                                "resolve_batch_size", "run_campaign"),
    "repro.campaign.faults": ("FAULT_PLAN_ENV_VAR", "FaultPlan", "FaultPlanError",
                              "InjectedTrialFault", "TrialFailure",
                              "resolve_fault_plan"),
    "repro.campaign.shm": ("ResultsRing", "ShmError", "ShmSession",
                           "shared_memory_available"),
    "repro.campaign.presets": ("PRESETS", "Preset", "grid_spec", "interlock_spec",
                               "loss_sweep_spec", "scenarios_spec", "table1_spec"),
    "repro.campaign.spec": ("CampaignSpec", "ChannelSpec", "SurgeonSpec", "TrialRun",
                            "TrialSpec", "expand_grid"),
    "repro.campaign.store": ("CampaignStore", "CampaignStoreError",
                             "CheckpointStatus", "RecoveryStage",
                             "spec_fingerprint"),
}

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
    "RecoveryStage", "spec_fingerprint",
    "PRESETS", "Preset",
    "table1_spec", "loss_sweep_spec", "scenarios_spec", "grid_spec",
    "interlock_spec",
]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
