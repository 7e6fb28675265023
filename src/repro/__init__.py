"""Reproduction of Tan et al., "Guaranteeing Proper-Temporal-Embedding Safety
Rules in Wireless CPS: A Hybrid Formal Modeling Approach" (DSN 2013).

The library is organized as:

* :mod:`repro.hybrid` -- hybrid automata, hybrid systems, elaboration and an
  executable simulation semantics;
* :mod:`repro.wireless` -- the sink-topology wireless substrate with its
  loss models;
* :mod:`repro.core` -- the paper's contribution: PTE safety rules and
  monitor, Theorem 1's closed-form constraints, the lease-based design
  pattern, Theorem 2 compliance checking;
* :mod:`repro.casestudy` -- the laser-tracheotomy wireless CPS of Section V;
* :mod:`repro.verify` -- trace properties and rare-event estimators
  (importance splitting, SPRT);
* :mod:`repro.experiments` -- drivers reproducing every table and figure;
* :mod:`repro.campaign` -- parallel Monte-Carlo campaign runner
  (``python -m repro.campaign``).

The most common entry points are re-exported here, each imported on first
access.
"""

from repro._lazy import lazy_exports

#: Subpackage -> the names this facade re-exports from it (imported on first
#: access, so importing one subpackage does not load the others).
_EXPORTS = {
    "repro.core": ("PatternConfiguration", "PTEMonitor", "PTERuleSet",
                   "build_baseline_system", "build_pattern_system",
                   "check_conditions", "check_trace",
                   "laser_tracheotomy_configuration", "laser_tracheotomy_rules",
                   "synthesize_configuration"),
    "repro.hybrid": ("Edge", "HybridAutomaton", "HybridSystem", "Location",
                     "SimulationEngine", "elaborate", "simulate"),
    "repro.casestudy": ("CaseStudyConfig", "run_table1_trials", "run_trial"),
    "repro.campaign": ("CampaignResult", "CampaignSpec", "TrialSpec", "run_campaign"),
}

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # hybrid substrate
    "HybridAutomaton", "HybridSystem", "Location", "Edge",
    "SimulationEngine", "simulate", "elaborate",
    # core contribution
    "PatternConfiguration", "laser_tracheotomy_configuration",
    "synthesize_configuration", "check_conditions",
    "PTERuleSet", "laser_tracheotomy_rules", "PTEMonitor", "check_trace",
    "build_pattern_system", "build_baseline_system",
    # case study
    "CaseStudyConfig", "run_trial", "run_table1_trials",
    # campaign runner
    "CampaignSpec", "TrialSpec", "CampaignResult", "run_campaign",
]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
