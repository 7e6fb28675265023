"""The hybrid automaton class (paper Section II-A).

A hybrid automaton is the tuple ``(x(t), V, inv, F, E, g, R, L, syn, Phi0)``.
:class:`HybridAutomaton` stores the same information in a form convenient
for simulation and transformation:

* data state variables -> :attr:`HybridAutomaton.variables`
* locations ``V`` with their invariants ``inv`` and flows ``F``
  -> :attr:`HybridAutomaton.locations` (mapping name -> :class:`Location`)
* edges ``E`` with guards ``g``, resets ``R`` and synchronization labels
  -> :attr:`HybridAutomaton.edges`
* initial states ``Phi0`` -> :attr:`initial_location` and
  :attr:`initial_valuation` (the pattern automata always start from a single
  location with the all-zero data state, and the case-study automata allow a
  configurable initial valuation)
* the safe/risky partition of ``V`` used by the PTE safety rules
  -> :attr:`risky_locations`
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Sequence

from repro.errors import ModelError
from repro.hybrid.edges import Edge
from repro.hybrid.labels import SyncLabel
from repro.hybrid.locations import Location
from repro.hybrid.variables import Valuation, zero_valuation


class HybridAutomaton:
    """A single hybrid automaton.

    Instances are mutable while being built (locations and edges can be
    added incrementally) but the simulator never mutates them.

    Args:
        name: Automaton name, unique within a hybrid system.
        variables: Names of the data state variables.
        locations: Initial set of locations.
        edges: Initial set of edges.
        initial_location: Name of the initial location.
        initial_valuation: Initial data state; defaults to all zeros.
        metadata: Free-form annotations (e.g. the pattern role).
    """

    def __init__(self, name: str, *, variables: Sequence[str] = (),
                 locations: Iterable[Location] = (), edges: Iterable[Edge] = (),
                 initial_location: str | None = None,
                 initial_valuation: Mapping[str, float] | None = None,
                 metadata: Mapping[str, object] | None = None):
        if not name:
            raise ModelError("automaton name must be non-empty")
        self.name = name
        self.variables: list[str] = list(dict.fromkeys(variables))
        self.locations: Dict[str, Location] = {}
        self.edges: list[Edge] = []
        self.initial_location: str | None = initial_location
        self._initial_valuation = (Valuation(initial_valuation)
                                   if initial_valuation is not None else None)
        self.metadata: Dict[str, object] = dict(metadata or {})
        for location in locations:
            self.add_location(location)
        for edge in edges:
            self.add_edge(edge)

    # -- construction ------------------------------------------------------
    def add_location(self, location: Location) -> Location:
        """Add a location; raises :class:`ModelError` on duplicate names."""
        if location.name in self.locations:
            raise ModelError(
                f"automaton {self.name!r} already has a location named {location.name!r}")
        self.locations[location.name] = location
        return location

    def add_edge(self, edge: Edge) -> Edge:
        """Add an edge; source and target must refer to existing locations."""
        if edge.source not in self.locations:
            raise ModelError(
                f"edge source {edge.source!r} is not a location of automaton {self.name!r}")
        if edge.target not in self.locations:
            raise ModelError(
                f"edge target {edge.target!r} is not a location of automaton {self.name!r}")
        self.edges.append(edge)
        return edge

    # -- formal-tuple style accessors ---------------------------------------
    @property
    def dimension(self) -> int:
        """The number of data state variables (``n`` in the paper)."""
        return len(self.variables)

    @property
    def location_names(self) -> set[str]:
        """The location set ``V``."""
        return set(self.locations)

    @property
    def risky_locations(self) -> set[str]:
        """The risky partition ``V^risky`` (locations flagged risky)."""
        return {name for name, loc in self.locations.items() if loc.risky}

    @property
    def safe_locations(self) -> set[str]:
        """The safe partition ``V^safe`` (complement of the risky set)."""
        return {name for name, loc in self.locations.items() if not loc.risky}

    @property
    def initial_valuation(self) -> Valuation:
        """The initial data state (defaults to the zero vector)."""
        if self._initial_valuation is not None:
            return self._initial_valuation
        return zero_valuation(self.variables)

    @initial_valuation.setter
    def initial_valuation(self, values: Mapping[str, float]) -> None:
        self._initial_valuation = Valuation(values)

    def mark_risky(self, *location_names: str) -> None:
        """Flag the given locations as risky (members of ``V^risky``)."""
        for name in location_names:
            if name not in self.locations:
                raise ModelError(
                    f"cannot mark unknown location {name!r} risky in automaton {self.name!r}")
            self.locations[name] = self.locations[name].with_risky(True)

    # -- queries -------------------------------------------------------------
    def location(self, name: str) -> Location:
        """Return the location named ``name``."""
        try:
            return self.locations[name]
        except KeyError as exc:
            raise ModelError(
                f"automaton {self.name!r} has no location named {name!r}") from exc

    def edges_from(self, location_name: str) -> list[Edge]:
        """Return all edges whose source is ``location_name``."""
        return [e for e in self.edges if e.source == location_name]

    def edges_to(self, location_name: str) -> list[Edge]:
        """Return all edges whose target is ``location_name``."""
        return [e for e in self.edges if e.target == location_name]

    def sync_labels(self) -> set[SyncLabel]:
        """The synchronization label set ``L`` of this automaton."""
        labels: set[SyncLabel] = set()
        for edge in self.edges:
            labels |= edge.sync_labels()
        return labels

    def received_roots(self) -> set[str]:
        """Event roots this automaton can receive (``?`` or ``??`` labels)."""
        return {label.root for label in self.sync_labels() if label.is_receive}

    def emitted_roots(self) -> set[str]:
        """Event roots this automaton can broadcast (``!`` labels)."""
        return {label.root for label in self.sync_labels() if label.is_send}

    def is_risky(self, location_name: str) -> bool:
        """True when ``location_name`` belongs to the risky partition."""
        return self.location(location_name).risky

    # -- validation ----------------------------------------------------------
    def validate(self) -> None:
        """Check structural well-formedness; raise :class:`ModelError` if not.

        Checks performed:

        * an initial location is declared and exists;
        * every edge connects existing locations (guaranteed by
          :meth:`add_edge`, re-checked for automata assembled externally);
        * the initial valuation only assigns declared variables;
        * the initial valuation satisfies the initial location's invariant.
        """
        if self.initial_location is None:
            raise ModelError(f"automaton {self.name!r} has no initial location")
        if self.initial_location not in self.locations:
            raise ModelError(
                f"initial location {self.initial_location!r} of automaton "
                f"{self.name!r} is not declared")
        declared = set(self.variables)
        for variable in self.initial_valuation:
            if variable not in declared:
                raise ModelError(
                    f"initial valuation of automaton {self.name!r} assigns "
                    f"undeclared variable {variable!r}")
        for edge in self.edges:
            if edge.source not in self.locations or edge.target not in self.locations:
                raise ModelError(
                    f"edge {edge!r} of automaton {self.name!r} references unknown locations")
        initial = self.locations[self.initial_location]
        if not initial.invariant.evaluate(self.initial_valuation):
            raise ModelError(
                f"initial valuation of automaton {self.name!r} violates the "
                f"invariant of its initial location {self.initial_location!r}")

    # -- transformation helpers ----------------------------------------------
    def copy(self, new_name: str | None = None) -> "HybridAutomaton":
        """Return a deep-enough copy (locations/edges are immutable values)."""
        clone = HybridAutomaton(
            new_name or self.name,
            variables=list(self.variables),
            locations=list(self.locations.values()),
            edges=list(self.edges),
            initial_location=self.initial_location,
            initial_valuation=(self._initial_valuation.as_dict()
                               if self._initial_valuation is not None else None),
            metadata=dict(self.metadata),
        )
        return clone

    def __repr__(self) -> str:
        return (f"HybridAutomaton({self.name!r}, |V|={len(self.locations)}, "
                f"|E|={len(self.edges)}, vars={self.variables})")
