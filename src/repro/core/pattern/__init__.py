"""The lease-based design pattern: Supervisor, Initializer, Participants."""

from repro.core.pattern import events
from repro.core.pattern.baseline import build_baseline_system, has_lease
from repro.core.pattern.builder import (PatternSystem, build_pattern_system,
                                        default_entity_names)
from repro.core.pattern.events import EventVocabulary
from repro.core.pattern.initializer import build_initializer
from repro.core.pattern.participant import build_participant
from repro.core.pattern.roles import (ENTERING, EXITING_1, EXITING_2, FALL_BACK, L0,
                                      REMOTE_RISKY_BASES, REMOTE_SAFE_BASES, REQUESTING,
                                      RISKY_CORE, SETTLE, Role, abort_location,
                                      cancel_location, lease_location, qualified)
from repro.core.pattern.supervisor import build_supervisor

__all__ = [
    "events",
    "EventVocabulary",
    "Role",
    "build_supervisor",
    "build_initializer",
    "build_participant",
    "build_pattern_system",
    "build_baseline_system",
    "has_lease",
    "PatternSystem",
    "default_entity_names",
    "qualified",
    "lease_location",
    "cancel_location",
    "abort_location",
    "FALL_BACK", "REQUESTING", "L0", "ENTERING", "RISKY_CORE",
    "EXITING_1", "EXITING_2", "SETTLE",
    "REMOTE_RISKY_BASES", "REMOTE_SAFE_BASES",
]
