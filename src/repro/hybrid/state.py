"""Runtime state of automata and hybrid systems during simulation.

The *state* of a hybrid automaton at time ``t`` is the pair
``phi(t) = (l(t), x(t))`` of location counter and data state (paper
Section II-A, item 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict

from repro.hybrid.variables import Valuation


@dataclass(frozen=True)
class AutomatonState:
    """The state of one member automaton.

    Attributes:
        location: Current location name (the location counter ``l(t)``).
        valuation: Current data state ``x(t)``.
    """

    location: str
    valuation: Valuation

    def with_valuation(self, valuation: Valuation) -> "AutomatonState":
        """Return a copy with the data state replaced."""
        return replace(self, valuation=valuation)


@dataclass
class SystemState:
    """The joint state of every member automaton of a hybrid system.

    Attributes:
        time: Current simulation time.
        automata: Mapping from automaton name to its :class:`AutomatonState`.
    """

    time: float = 0.0
    automata: Dict[str, AutomatonState] = field(default_factory=dict)

    def location_of(self, automaton_name: str) -> str:
        """Return the current location of the named member automaton."""
        return self.automata[automaton_name].location

    def value_of(self, automaton_name: str, variable: str, default: float = 0.0) -> float:
        """Return one variable's current value for the named automaton."""
        return self.automata[automaton_name].valuation.get(variable, default)
