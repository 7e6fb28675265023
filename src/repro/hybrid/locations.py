"""Locations (discrete modes) of a hybrid automaton (Section II-A, item 2/3/4).

A location bundles its name, its invariant set and its flow map.  Whether a
location is *safe* or *risky* (the partition used by the PTE safety rules)
is a property of the owning automaton, not of the location itself, but we
keep a convenience flag here because nearly every query in the PTE monitor
is phrased in terms of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

from repro.hybrid.expressions import Predicate, TRUE
from repro.hybrid.flows import Flow, STATIONARY


@dataclass(frozen=True)
class Location:
    """A single location of a hybrid automaton.

    Attributes:
        name: Location name, unique within its automaton.
        invariant: Invariant predicate ``inv(v)``; the data state must
            satisfy it as long as the automaton dwells here.
        flow: Flow map ``f_v`` giving the continuous dynamics in this
            location.
        risky: True when the location belongs to the risky partition
            ``V^risky`` of its automaton.
        metadata: Free-form annotations (used e.g. to tag pattern roles).
    """

    name: str
    invariant: Predicate = TRUE
    flow: Flow = STATIONARY
    risky: bool = False
    metadata: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("location name must be non-empty")

    def with_name(self, name: str) -> "Location":
        """Return a copy of this location under a different name."""
        return replace(self, name=name)

    def with_risky(self, risky: bool) -> "Location":
        """Return a copy of this location with the risky flag set to ``risky``."""
        return replace(self, risky=risky)

    def __repr__(self) -> str:
        tag = "risky" if self.risky else "safe"
        return f"Location({self.name!r}, {tag})"
