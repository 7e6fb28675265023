"""Core contribution: PTE safety rules, Theorem 1 constraints, lease pattern."""

from repro.core.compliance import (ComplianceReport, ElaborationClaim, check_claim,
                                   check_compliance)
from repro.core.configuration import (EntityTiming, PatternConfiguration,
                                      laser_tracheotomy_configuration,
                                      synthesize_configuration)
from repro.core.constraints import (ConditionResult, ConstraintReport, assert_valid,
                                    check_conditions, guaranteed_dwelling_bound,
                                    theoretical_guarantees)
from repro.core.intervals import Interval, IntervalSet
from repro.core.leases import Lease, LeaseLedger, LeaseOutcome
from repro.core.monitor import (EmbeddingMeasurement, MonitorReport, PTEMonitor,
                                check_trace)
from repro.core.pattern import (EventVocabulary, PatternSystem, Role,
                                build_baseline_system, build_initializer,
                                build_participant, build_pattern_system,
                                build_supervisor, has_lease, strip_lease)
from repro.core.rules import (EmbeddingProperty, PTEOrderSpec, PTEPairRequirement,
                              PTERuleSet, RuleKind, SafetyViolation,
                              laser_tracheotomy_rules, uniform_rules)

__all__ = [
    # rules and monitoring
    "PTEOrderSpec", "PTEPairRequirement", "PTERuleSet", "RuleKind",
    "EmbeddingProperty", "SafetyViolation", "laser_tracheotomy_rules", "uniform_rules",
    "PTEMonitor", "MonitorReport", "EmbeddingMeasurement", "check_trace",
    "Interval", "IntervalSet",
    # configuration and Theorem 1
    "EntityTiming", "PatternConfiguration", "laser_tracheotomy_configuration",
    "synthesize_configuration", "check_conditions", "assert_valid", "ConstraintReport",
    "ConditionResult", "guaranteed_dwelling_bound", "theoretical_guarantees",
    # leases
    "Lease", "LeaseLedger", "LeaseOutcome",
    # design pattern
    "Role", "EventVocabulary", "PatternSystem", "build_pattern_system",
    "build_baseline_system", "build_supervisor", "build_initializer",
    "build_participant", "strip_lease", "has_lease",
    # Theorem 2 compliance
    "ElaborationClaim", "ComplianceReport", "check_claim", "check_compliance",
]
