"""Hybrid systems: collections of concurrently executing hybrid automata.

A hybrid system ``H`` is a collection of member hybrid automata that
coordinate through event communication (paper Section II-B).  As in the
paper we require that member automata share no data state variable names,
no location names and no synchronization labels other than the intended
sender/receiver pairs -- names are local to their automata.

The hybrid system also knows, for each member automaton, which *entity* of
the distributed wireless CPS it belongs to.  Entities matter for the fault
model: events exchanged between two different entities travel over the
wireless network (and may be lost when received through a ``??`` label),
whereas events between automata of the same entity are local and reliable.
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.errors import ModelError
from repro.hybrid.automaton import HybridAutomaton
from repro.hybrid.labels import Prefix


class HybridSystem:
    """A named collection of member hybrid automata.

    Args:
        name: System name (for reports).
    """

    def __init__(self, name: str = "hybrid-system"):
        self.name = name
        self.automata: Dict[str, HybridAutomaton] = {}
        self._entity_of: Dict[str, str] = {}

    # -- construction --------------------------------------------------------
    def add(self, automaton: HybridAutomaton, *, entity: str | None = None) -> HybridAutomaton:
        """Add a member automaton.

        Args:
            automaton: The automaton to add (validated on the spot).
            entity: Name of the distributed entity hosting this automaton;
                defaults to the automaton's own name.

        Raises:
            ModelError: If the automaton is ill-formed or its names collide
                with an existing member (shared variable or location names).
        """
        automaton.validate()
        if automaton.name in self.automata:
            raise ModelError(f"hybrid system already contains automaton {automaton.name!r}")
        for other in self.automata.values():
            shared_vars = set(automaton.variables) & set(other.variables)
            if shared_vars:
                raise ModelError(
                    f"automata {automaton.name!r} and {other.name!r} share data state "
                    f"variables {sorted(shared_vars)}; the paper's system model forbids this")
            shared_locations = automaton.location_names & other.location_names
            if shared_locations:
                raise ModelError(
                    f"automata {automaton.name!r} and {other.name!r} share location names "
                    f"{sorted(shared_locations)}; the paper's system model forbids this")
        self.automata[automaton.name] = automaton
        self._entity_of[automaton.name] = entity or automaton.name
        return automaton

    # -- queries ---------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self.automata

    def __iter__(self):
        return iter(self.automata.values())

    def __len__(self) -> int:
        return len(self.automata)

    def automaton(self, name: str) -> HybridAutomaton:
        """Return the member automaton named ``name``."""
        try:
            return self.automata[name]
        except KeyError as exc:
            raise ModelError(f"hybrid system has no member automaton named {name!r}") from exc

    def entity_of(self, automaton_name: str) -> str:
        """Return the entity hosting the named automaton."""
        return self._entity_of[automaton_name]

    def receivers_of(self, root: str) -> list[tuple[str, bool]]:
        """Automata that can receive event ``root``.

        Returns:
            A list of ``(automaton_name, lossy)`` pairs where ``lossy`` is
            True when the automaton receives the event through a ``??``
            label (i.e. the reception may be lost).
        """
        result: list[tuple[str, bool]] = []
        for automaton in self.automata.values():
            lossy = None
            for label in automaton.sync_labels():
                if label.is_receive and label.root == root:
                    is_lossy = label.prefix is Prefix.RECEIVE_LOSSY
                    lossy = is_lossy if lossy is None else (lossy or is_lossy)
            if lossy is not None:
                result.append((automaton.name, lossy))
        return result

    def emitters_of(self, root: str) -> list[str]:
        """Automata that can broadcast event ``root``."""
        return [a.name for a in self.automata.values() if root in a.emitted_roots()]

    def risky_locations(self) -> Dict[str, set[str]]:
        """Mapping automaton name -> risky location names (for traces)."""
        return {name: automaton.risky_locations
                for name, automaton in self.automata.items()}

    def validate(self) -> None:
        """Validate every member automaton and cross-automaton wiring.

        Beyond per-automaton validation this checks that every externally
        received event root has at least one emitter somewhere in the system
        (a dangling ``?root`` usually indicates a typo in an event name);
        roots with no emitter are allowed only when they are injected by an
        environment process, so this check is advisory and collected into
        the returned report rather than raised.
        """
        for automaton in self.automata.values():
            automaton.validate()

    def dangling_receive_roots(self) -> set[str]:
        """Received roots that no member automaton emits.

        These must be supplied by environment processes (e.g. the surgeon
        model injecting laser request commands); listing them helps catch
        misspelled event names early.
        """
        dangling: set[str] = set()
        for automaton in self.automata.values():
            for root in automaton.received_roots():
                if not any(s != automaton.name for s in self.emitters_of(root)):
                    dangling.add(root)
        return dangling

    def __repr__(self) -> str:
        return f"HybridSystem({self.name!r}, members={sorted(self.automata)})"
