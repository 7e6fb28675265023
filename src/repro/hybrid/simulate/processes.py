"""Environment processes and physical couplings for the simulator.

The paper distinguishes cyber coordination (events over wireless, possibly
lost) from physical-world influences that the cyber side does not fully
control (the surgeon's will, the patient's blood oxygen level).  The
simulator mirrors this split:

* :class:`EnvironmentProcess` -- an active component outside the hybrid
  automata that can wake up at chosen times and inject events (e.g. the
  surgeon model drawing exponential ``Ton``/``Toff`` timers), and that can
  observe discrete transitions of the automata.
* :class:`Coupling` -- a continuous physical connection that copies or
  derives values between automata every integration segment (e.g. the
  ventilation state of the ventilator automaton feeding the patient's SpO2
  dynamics, and the oximeter reading feeding the supervisor's
  ``ApprovalCondition`` variable).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.hybrid.trace import TransitionRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hybrid.simulate.engine import SimulationEngine


class EnvironmentProcess:
    """Base class for active environment models.

    Subclasses typically keep internal timers and use
    :meth:`SimulationEngine.inject_event` from :meth:`wake` to influence the
    hybrid system.  All randomness must come from the engine's RNG streams
    so runs stay reproducible.

    :meth:`next_wakeup` is a side-effect-free query.  Its answer may change
    only inside :meth:`initialize`, :meth:`wake` or
    :meth:`notify_transition`, and may depend on ``now`` only through
    ``max(·, now)``.  The compiled engine relies on this: it caches the
    earliest wakeup as part of its next deadline and polls no process
    until a transition, a wake or an injected event invalidates it.
    """

    #: Name used for trace records of injected events.
    name: str = "environment"

    def initialize(self, engine: "SimulationEngine") -> None:
        """Called once before the simulation starts."""

    def next_wakeup(self, now: float) -> float | None:
        """Absolute time of the next wakeup, or ``None`` for no wakeup."""
        return None

    def wake(self, engine: "SimulationEngine", now: float) -> None:
        """Called when simulation time reaches :meth:`next_wakeup`."""

    def notify_transition(self, engine: "SimulationEngine",
                          record: TransitionRecord) -> None:
        """Called after any member automaton takes a discrete transition."""


class CallbackProcess(EnvironmentProcess):
    """Convenience process that wakes at fixed times and runs a callback.

    Useful in tests and in scripted fault scenarios: schedule a list of
    ``(time, callback)`` pairs and each callback receives the engine when
    its time arrives.
    """

    def __init__(self, schedule: list[tuple[float, Callable[["SimulationEngine"], None]]],
                 name: str = "callback-process"):
        self.name = name
        self._schedule = sorted(schedule, key=lambda item: item[0])
        self._index = 0

    def next_wakeup(self, now: float) -> float | None:
        if self._index >= len(self._schedule):
            return None
        return self._schedule[self._index][0]

    def wake(self, engine: "SimulationEngine", now: float) -> None:
        while (self._index < len(self._schedule)
               and self._schedule[self._index][0] <= now + 1e-9):
            _, callback = self._schedule[self._index]
            self._index += 1
            callback(engine)


class Coupling:
    """Base class for continuous physical couplings between automata.

    :meth:`apply` is called by the engine at every integration boundary; it
    may read any automaton's state through the engine and write variables
    with :meth:`SimulationEngine.set_variable`.
    """

    def apply(self, engine: "SimulationEngine") -> None:
        """Propagate physical values between automata."""
        raise NotImplementedError


class FunctionCoupling(Coupling):
    """Wrap a plain function as a :class:`Coupling`."""

    def __init__(self, func: Callable[["SimulationEngine"], None], description: str = ""):
        self._func = func
        self.description = description or getattr(func, "__name__", "coupling")

    def apply(self, engine: "SimulationEngine") -> None:
        self._func(engine)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"FunctionCoupling({self.description})"


class LocationIndicatorCoupling(Coupling):
    """Set a 0/1 indicator variable based on another automaton's location.

    This is the canonical physical coupling of the case study: the patient
    model's ``ventilated`` input is 1 exactly when the ventilator automaton
    currently dwells in one of its ventilating locations.
    """

    def __init__(self, *, source_automaton: str, source_locations: set[str],
                 target_automaton: str, target_variable: str,
                 true_value: float = 1.0, false_value: float = 0.0):
        self.source_automaton = source_automaton
        self.source_locations = set(source_locations)
        self.target_automaton = target_automaton
        self.target_variable = target_variable
        self.true_value = true_value
        self.false_value = false_value

    def apply(self, engine: "SimulationEngine") -> None:
        location = engine.state.location_of(self.source_automaton)
        value = self.true_value if location in self.source_locations else self.false_value
        engine.set_variable(self.target_automaton, self.target_variable, value)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (f"LocationIndicatorCoupling({self.source_automaton}@"
                f"{sorted(self.source_locations)} -> "
                f"{self.target_automaton}.{self.target_variable})")


class VariableCopyCoupling(Coupling):
    """Copy one continuous variable from one automaton to another.

    Models a wired sensor: e.g. the oximeter is wired to the supervisor, so
    the patient's ``spo2`` value is copied into the supervisor automaton's
    ``spo2`` variable without going through the lossy wireless network.
    """

    def __init__(self, *, source_automaton: str, source_variable: str,
                 target_automaton: str, target_variable: str,
                 transform: Callable[[float], float] | None = None):
        self.source_automaton = source_automaton
        self.source_variable = source_variable
        self.target_automaton = target_automaton
        self.target_variable = target_variable
        self.transform = transform

    def apply(self, engine: "SimulationEngine") -> None:
        value = engine.state.value_of(self.source_automaton, self.source_variable)
        if self.transform is not None:
            value = self.transform(value)
        engine.set_variable(self.target_automaton, self.target_variable, value)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (f"VariableCopyCoupling({self.source_automaton}.{self.source_variable}"
                f" -> {self.target_automaton}.{self.target_variable})")
