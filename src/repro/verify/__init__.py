"""Simulation-based verification: trace properties and rare-event estimators."""

from repro._lazy import lazy_exports

#: Defining module -> the names this facade re-exports from it (imported on
#: first access, so ``import repro.verify.rare`` loads no campaign code).
_EXPORTS = {
    "repro.verify.properties": ("PropertyResult", "TraceProperty",
                                "auto_reset_property", "bounded_dwelling_property",
                                "pte_safety_property",
                                "single_risky_visit_per_round_property"),
    "repro.verify.rare": ("CellTemplate", "RareEventEstimate", "ScoredTrial",
                          "SplitSettings", "crude_estimate", "crude_estimate_for_cell",
                          "crude_trials_for", "fixed_effort_splitting",
                          "scored_case_trial", "split_estimate_for_cell"),
    "repro.verify.sprt": ("SequentialProbabilityRatioTest", "SprtResult",
                          "SprtSettings", "run_sprt_campaign", "run_sprt_trials"),
}

__all__ = [
    "TraceProperty", "PropertyResult", "pte_safety_property",
    "bounded_dwelling_property", "auto_reset_property",
    "single_risky_visit_per_round_property",
    "ScoredTrial", "RareEventEstimate", "SplitSettings", "CellTemplate",
    "fixed_effort_splitting", "crude_estimate", "crude_trials_for",
    "scored_case_trial", "split_estimate_for_cell", "crude_estimate_for_cell",
    "SprtSettings", "SprtResult", "SequentialProbabilityRatioTest",
    "run_sprt_trials", "run_sprt_campaign",
]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
