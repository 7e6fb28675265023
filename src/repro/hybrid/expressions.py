"""Predicates used as guards and invariants of hybrid automata.

The guard function ``g`` assigns to each edge a *guard set* and the
invariant function ``inv`` assigns to each location an *invariant set*
(paper Section II-A, items 3 and 6).  We represent both as predicates over
valuations.

In addition to boolean evaluation, predicates can optionally answer the
question *"given the current valuation and constant flow rates, after how
much time does the predicate become true (or false)?"*.  The simulator
uses these answers to jump to exact guard-crossing instants instead of
discretizing time, which keeps lease expirations and PTE safeguard margins
exact.  Predicates over non-affine dynamics simply return ``None`` and the
simulator falls back to small-step sampling.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.hybrid.variables import Valuation
from repro.util.timebase import EPSILON


class Comparison(enum.Enum):
    """Comparison operators available to :class:`LinearInequality`."""

    LE = "<="
    GE = ">="
    LT = "<"
    GT = ">"
    EQ = "=="

    def evaluate(self, lhs: float, rhs: float, eps: float = EPSILON) -> bool:
        """Evaluate ``lhs (op) rhs`` with tolerance ``eps``."""
        if self is Comparison.LE:
            return lhs <= rhs + eps
        if self is Comparison.GE:
            return lhs >= rhs - eps
        if self is Comparison.LT:
            return lhs < rhs - eps
        if self is Comparison.GT:
            return lhs > rhs + eps
        return abs(lhs - rhs) <= eps


class Predicate:
    """Base class of all guard/invariant predicates."""

    def evaluate(self, valuation: Valuation) -> bool:
        """Return True when the predicate holds in ``valuation``."""
        raise NotImplementedError

    def time_until_true(self, valuation: Valuation,
                        rates: Mapping[str, float]) -> float | None:
        """Time until the predicate first becomes true under constant flow.

        Returns ``0.0`` when already true, a positive delay when the
        crossing time can be computed in closed form, ``math.inf`` when the
        predicate can never become true under the given rates, and ``None``
        when no closed form is available (the simulator then samples).
        """
        if self.evaluate(valuation):
            return 0.0
        return None

    def time_until_false(self, valuation: Valuation,
                         rates: Mapping[str, float]) -> float | None:
        """Time until the predicate first becomes false under constant flow.

        Semantics mirror :meth:`time_until_true`.
        """
        if not self.evaluate(valuation):
            return 0.0
        return None

    # -- composition helpers ----------------------------------------------
    def __and__(self, other: "Predicate") -> "Predicate":
        return And((self, other))

    def __or__(self, other: "Predicate") -> "Predicate":
        return Or((self, other))

    def __invert__(self) -> "Predicate":
        return Not(self)


class TruePredicate(Predicate):
    """A predicate that always holds (the default guard and invariant)."""

    def evaluate(self, valuation: Valuation) -> bool:
        return True

    def time_until_true(self, valuation, rates):
        return 0.0

    def time_until_false(self, valuation, rates):
        return math.inf

    def __repr__(self) -> str:
        return "TRUE"


class FalsePredicate(Predicate):
    """A predicate that never holds."""

    def evaluate(self, valuation: Valuation) -> bool:
        return False

    def time_until_true(self, valuation, rates):
        return math.inf

    def time_until_false(self, valuation, rates):
        return 0.0

    def __repr__(self) -> str:
        return "FALSE"


#: Shared singleton instances used as defaults.
TRUE = TruePredicate()
FALSE = FalsePredicate()


@dataclass(frozen=True)
class LinearInequality(Predicate):
    """A predicate of the form ``variable (op) threshold``.

    This is the workhorse predicate of the library: every clock guard of the
    lease design pattern (e.g. ``c >= T_run^max``) and the ventilator's
    cylinder-height guards (``H_vent == 0``) are linear inequalities, for
    which exact crossing times exist under constant flow rates.
    """

    variable: str
    op: Comparison
    threshold: float

    def evaluate(self, valuation: Valuation) -> bool:
        return self.holds(valuation.get(self.variable, 0.0))

    def holds(self, value: float) -> bool:
        """Whether the predicate holds when its variable equals ``value``."""
        return self.op.evaluate(value, self.threshold)

    def _crossing_delay(self, value: float, rate: float, target_state: bool) -> float | None:
        """Delay until the predicate equals ``target_state`` under ``rate``."""
        currently = self.op.evaluate(value, self.threshold)
        if currently == target_state:
            return 0.0
        if abs(rate) <= EPSILON:
            return math.inf
        if self.op is Comparison.EQ:
            # Equality can only be *reached* by moving toward the threshold.
            if target_state:
                delta = self.threshold - value
                delay = delta / rate
                return delay if delay > 0 else math.inf
            return 0.0 if abs(value - self.threshold) > EPSILON else EPSILON
        # Strict/non-strict inequalities behave identically for crossing times.
        wants_above = self.op in (Comparison.GE, Comparison.GT)
        if target_state == wants_above:
            # need value to move up to threshold (or down for <=/<)
            delta = self.threshold - value
        else:
            delta = self.threshold - value
        delay = delta / rate
        if delay < 0:
            return math.inf
        return max(delay, 0.0)

    def time_until_true(self, valuation, rates):
        value = valuation.get(self.variable, 0.0)
        rate = rates.get(self.variable, 0.0)
        return self._crossing_delay(value, rate, True)

    def time_until_false(self, valuation, rates):
        value = valuation.get(self.variable, 0.0)
        rate = rates.get(self.variable, 0.0)
        return self._crossing_delay(value, rate, False)

    def __repr__(self) -> str:
        return f"({self.variable} {self.op.value} {self.threshold:g})"


def var_ge(variable: str, threshold: float) -> LinearInequality:
    """Shorthand for ``variable >= threshold``."""
    return LinearInequality(variable, Comparison.GE, threshold)


def var_le(variable: str, threshold: float) -> LinearInequality:
    """Shorthand for ``variable <= threshold``."""
    return LinearInequality(variable, Comparison.LE, threshold)


def var_gt(variable: str, threshold: float) -> LinearInequality:
    """Shorthand for ``variable > threshold``."""
    return LinearInequality(variable, Comparison.GT, threshold)


def var_lt(variable: str, threshold: float) -> LinearInequality:
    """Shorthand for ``variable < threshold``."""
    return LinearInequality(variable, Comparison.LT, threshold)


def var_eq(variable: str, threshold: float) -> LinearInequality:
    """Shorthand for ``variable == threshold`` (with tolerance)."""
    return LinearInequality(variable, Comparison.EQ, threshold)


@dataclass(frozen=True)
class And(Predicate):
    """Conjunction of predicates."""

    operands: tuple[Predicate, ...]

    def __init__(self, operands: Sequence[Predicate]):
        object.__setattr__(self, "operands", tuple(operands))

    def evaluate(self, valuation: Valuation) -> bool:
        return all(p.evaluate(valuation) for p in self.operands)

    def time_until_true(self, valuation, rates):
        # Conservative closed form: if each operand has a crossing time and
        # stays true afterwards (monotone under constant rate), the
        # conjunction becomes true at the latest of those times.  We verify
        # the "stays true" property by re-checking at the candidate time.
        delays = []
        for p in self.operands:
            d = p.time_until_true(valuation, rates)
            if d is None:
                return None
            delays.append(d)
        candidate = max(delays, default=0.0)
        if math.isinf(candidate):
            return math.inf
        probe = valuation.advanced(rates, candidate + EPSILON)
        if all(p.evaluate(probe) for p in self.operands):
            return candidate
        return None

    def time_until_false(self, valuation, rates):
        delays = []
        for p in self.operands:
            d = p.time_until_false(valuation, rates)
            if d is None:
                return None
            delays.append(d)
        return min(delays, default=math.inf)

    def __repr__(self) -> str:
        return "(" + " AND ".join(repr(p) for p in self.operands) + ")"


@dataclass(frozen=True)
class Or(Predicate):
    """Disjunction of predicates."""

    operands: tuple[Predicate, ...]

    def __init__(self, operands: Sequence[Predicate]):
        object.__setattr__(self, "operands", tuple(operands))

    def evaluate(self, valuation: Valuation) -> bool:
        return any(p.evaluate(valuation) for p in self.operands)

    def time_until_true(self, valuation, rates):
        delays = []
        for p in self.operands:
            d = p.time_until_true(valuation, rates)
            if d is None:
                return None
            delays.append(d)
        return min(delays, default=math.inf)

    def time_until_false(self, valuation, rates):
        delays = []
        for p in self.operands:
            d = p.time_until_false(valuation, rates)
            if d is None:
                return None
            delays.append(d)
        candidate = max(delays, default=0.0)
        if math.isinf(candidate):
            return math.inf
        probe = valuation.advanced(rates, candidate + EPSILON)
        if not any(p.evaluate(probe) for p in self.operands):
            return candidate
        return None

    def __repr__(self) -> str:
        return "(" + " OR ".join(repr(p) for p in self.operands) + ")"


@dataclass(frozen=True)
class Not(Predicate):
    """Negation of a predicate."""

    operand: Predicate

    def evaluate(self, valuation: Valuation) -> bool:
        return not self.operand.evaluate(valuation)

    def time_until_true(self, valuation, rates):
        return self.operand.time_until_false(valuation, rates)

    def time_until_false(self, valuation, rates):
        return self.operand.time_until_true(valuation, rates)

    def __repr__(self) -> str:
        return f"(NOT {self.operand!r})"


@dataclass(frozen=True)
class BoxPredicate(Predicate):
    """Axis-aligned box constraint ``low <= variable <= high``.

    Used for invariant sets such as the ventilator's
    ``0 <= H_vent <= 0.3`` (paper Fig. 2).
    """

    variable: str
    low: float
    high: float

    def __post_init__(self) -> None:
        if self.low > self.high:
            raise ValueError("BoxPredicate requires low <= high")

    def evaluate(self, valuation: Valuation) -> bool:
        return self.holds(valuation.get(self.variable, 0.0))

    def holds(self, value: float) -> bool:
        """Whether the predicate holds when its variable equals ``value``."""
        return self.low - EPSILON <= value <= self.high + EPSILON

    def _crossing_delay(self, value: float, rate: float, target_state: bool) -> float:
        """Delay until the predicate equals ``target_state`` under ``rate``."""
        if self.holds(value) == target_state:
            return 0.0
        if abs(rate) <= EPSILON:
            return math.inf
        if not target_state:
            if rate > 0:
                return max((self.high - value) / rate, 0.0)
            return max((self.low - value) / rate, 0.0)
        if value < self.low and rate > 0:
            return (self.low - value) / rate
        if value > self.high and rate < 0:
            return (value - self.high) / (-rate)
        return math.inf

    def time_until_false(self, valuation, rates):
        return self._crossing_delay(valuation.get(self.variable, 0.0),
                                    rates.get(self.variable, 0.0), False)

    def time_until_true(self, valuation, rates):
        return self._crossing_delay(valuation.get(self.variable, 0.0),
                                    rates.get(self.variable, 0.0), True)

    def __repr__(self) -> str:
        return f"({self.low:g} <= {self.variable} <= {self.high:g})"


@dataclass(frozen=True)
class FunctionPredicate(Predicate):
    """Wrap an arbitrary callable ``valuation -> bool`` as a predicate.

    Such predicates have no closed-form crossing time; the simulator samples
    them at its maximum step size.  They are used for application-dependent
    propositions such as the laser-tracheotomy ``ApprovalCondition``
    (``SpO2(t) > theta``), although that particular condition could also be
    written as a :class:`LinearInequality`.
    """

    func: Callable[[Valuation], bool]
    description: str = field(default="<function>")

    def evaluate(self, valuation: Valuation) -> bool:
        return bool(self.func(valuation))

    def __repr__(self) -> str:
        return f"FunctionPredicate({self.description})"
