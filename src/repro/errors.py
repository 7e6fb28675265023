"""Exception hierarchy for the :mod:`repro` library.

All exceptions raised by the library derive from :class:`ReproError`, so
callers can catch a single base class.  More specific subclasses exist for
model construction problems, simulation problems and safety analysis
problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the :mod:`repro` library."""


class ModelError(ReproError):
    """A hybrid automaton or hybrid system is structurally ill-formed.

    Raised, for example, when an edge references an unknown location, when a
    data state variable is used but never declared, or when two member
    automata of a hybrid system share location or variable names (the paper
    assumes names are local to each automaton, Section II-B).
    """


class IndependenceError(ModelError):
    """Two hybrid automata violate the independence requirement (Def. 2)."""


class ElaborationError(ModelError):
    """An elaboration ``E(A, v, A')`` cannot be carried out.

    Raised when the child automaton is not *simple* (Def. 3), when the child
    and parent are not independent (Def. 2), or when the elaborated location
    does not exist.
    """


class SimulationError(ReproError):
    """The hybrid-system simulation could not make progress."""


class ZenoError(SimulationError):
    """Too many discrete transitions were taken without time elapsing.

    The simulator bounds the number of cascaded discrete transitions allowed
    at a single time point; exceeding that bound indicates a (quasi-) Zeno
    execution, which the paper rules out by assumption (Section IV-C).
    """


class ConfigurationError(ReproError):
    """A lease design-pattern configuration is invalid.

    Raised by :mod:`repro.core.configuration` when parameters are
    nonsensical (e.g. non-positive durations where Theorem 1 condition c1
    requires positive ones) or when a feasible configuration cannot be
    synthesized from the requested safeguard intervals.
    """


class ConstraintViolation(ConfigurationError):
    """One of Theorem 1's closed-form conditions c1--c7 is violated."""

    def __init__(self, condition: str, message: str):
        super().__init__(f"{condition}: {message}")
        self.condition = condition
        self.message = message


class SafetyViolationError(ReproError):
    """A PTE safety rule was violated and the caller asked for an exception.

    The monitor normally *records* violations; this exception is only raised
    when monitoring is run in strict mode.
    """
