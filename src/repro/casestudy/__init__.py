"""Laser-tracheotomy wireless CPS case study (paper Section V)."""

from repro.casestudy.config import (LASER, PATIENT, SUPERVISOR, VENTILATOR,
                                    CaseStudyConfig, PatientModel, SurgeonModel)
from repro.casestudy.emulation import (CaseStudySystem, TrialResult, build_case_study,
                                       lease_ledger_from_trace, run_table1_trials,
                                       run_trial, run_trial_batch)
from repro.casestudy.laser import EMITTING_LOCATION, SHUTOFF_LOCATION, build_laser
from repro.casestudy.observers import VENTILATOR_RISKY_CORE, TrialStatsObserver
from repro.casestudy.patient import SPO2, VENTILATED, build_patient, time_to_threshold
from repro.casestudy.supervisor import SUPERVISOR_SPO2, build_tracheotomy_supervisor
from repro.casestudy.surgeon import ScriptedSurgeon, SurgeonProcess
from repro.casestudy.ventilator import (CYLINDER_HEIGHT, CYLINDER_SPEED, CYLINDER_TOP,
                                        build_standalone_ventilator, build_ventilator,
                                        ventilating_locations)

__all__ = [
    "CaseStudyConfig", "PatientModel", "SurgeonModel",
    "SUPERVISOR", "VENTILATOR", "LASER", "PATIENT",
    "build_case_study", "run_trial", "run_trial_batch", "run_table1_trials",
    "CaseStudySystem", "TrialResult", "lease_ledger_from_trace",
    "TrialStatsObserver", "VENTILATOR_RISKY_CORE",
    "build_standalone_ventilator", "build_ventilator", "ventilating_locations",
    "CYLINDER_HEIGHT", "CYLINDER_TOP", "CYLINDER_SPEED",
    "build_laser", "EMITTING_LOCATION", "SHUTOFF_LOCATION",
    "build_patient", "SPO2", "VENTILATED", "time_to_threshold",
    "build_tracheotomy_supervisor", "SUPERVISOR_SPO2",
    "SurgeonProcess", "ScriptedSurgeon",
]
