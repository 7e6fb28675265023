"""The no-lease baseline used by Table I's "without Lease" rows.

Section V compares the lease-based design against trials with the same
configuration "but without using the leasing mechanism": the ventilator
does not set a lease timer while pausing and the laser-scalpel does not set
one while emitting.  Concretely this removes the lease-expiry edge out of
"Risky Core" in every remote entity, so an entity stuck without incoming
cancel/abort events stays in its risky locations indefinitely -- which is
exactly how the failures of Table I arise when the wireless channel drops
those events.  :func:`build_baseline_system` assembles a whole pattern
system with leases disabled.
"""

from __future__ import annotations

from repro.core.configuration import PatternConfiguration
from repro.core.pattern.builder import PatternSystem, build_pattern_system
from repro.hybrid.automaton import HybridAutomaton


def build_baseline_system(config: PatternConfiguration, **kwargs) -> PatternSystem:
    """Assemble the design pattern with every remote lease disabled.

    Accepts the same keyword arguments as
    :func:`~repro.core.pattern.builder.build_pattern_system` (except
    ``lease_enabled``, which is forced to False).
    """
    kwargs.pop("lease_enabled", None)
    return build_pattern_system(config, lease_enabled=False, **kwargs)


def has_lease(automaton: HybridAutomaton) -> bool:
    """True when the automaton still contains a lease-expiry edge."""
    return any(edge.reason == "lease_expiry" for edge in automaton.edges)
