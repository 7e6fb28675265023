"""Flow maps: the continuous dynamics of a location (paper Section II-A, item 4).

Each location ``v`` of a hybrid automaton has a flow map ``f_v`` defining
differential equations ``x' = f_v(x)`` over the data state variables.  Two
families of flows are supported:

* :class:`ConstantFlow` -- every variable has a constant derivative.  This
  covers all clocks of the lease design pattern (rate 1), frozen physical
  variables (rate 0) and the piecewise-constant ventilator cylinder motion
  of Fig. 2 (rate +-0.1 m/s).  Constant flows admit exact guard-crossing
  times, so the simulator never discretizes them.
* :class:`CallableFlow` -- an arbitrary ODE right-hand side, declared once
  as a float function over named inputs and integrated with explicit fixed
  sub-steps (RK4).  Used for the patient SpO2 physiology in the
  laser-tracheotomy case study.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping

from repro.hybrid.variables import Valuation


class Flow:
    """Base class of flow maps."""

    #: Whether the flow has constant derivatives (affine-in-time solutions).
    is_affine: bool = False

    def rates(self, valuation: Valuation) -> Dict[str, float]:
        """Return the instantaneous derivative of each driven variable."""
        raise NotImplementedError

    def advance(self, valuation: Valuation, dt: float) -> Valuation:
        """Return the valuation after flowing for ``dt`` seconds."""
        raise NotImplementedError

    def driven_variables(self) -> set[str]:
        """Names of variables whose derivative may be non-zero."""
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantFlow(Flow):
    """A flow with constant derivative for each listed variable.

    Variables not listed implicitly have derivative zero ("remain
    unchanged"), which is exactly the behaviour required for the variables
    of a child automaton while control is outside of it (elaboration rule 5
    in Section IV-C).
    """

    derivatives: Mapping[str, float] = field(default_factory=dict)
    is_affine: bool = True

    def __init__(self, derivatives: Mapping[str, float] | None = None):
        object.__setattr__(self, "derivatives",
                           dict(derivatives or {}))
        object.__setattr__(self, "is_affine", True)

    def rates(self, valuation: Valuation) -> Dict[str, float]:
        return dict(self.derivatives)

    def advance(self, valuation: Valuation, dt: float) -> Valuation:
        return valuation.advanced(self.derivatives, dt)

    def driven_variables(self) -> set[str]:
        return {name for name, rate in self.derivatives.items() if rate != 0.0}

    def merged_with(self, other: "ConstantFlow") -> "ConstantFlow":
        """Combine two constant flows over disjoint variable sets."""
        merged = dict(self.derivatives)
        for name, rate in other.derivatives.items():
            if name in merged and merged[name] != rate:
                raise ValueError(
                    f"conflicting derivatives for variable {name!r}: "
                    f"{merged[name]} vs {rate}")
            merged[name] = rate
        return ConstantFlow(merged)

    def __repr__(self) -> str:
        inner = ", ".join(f"d{k}/dt={v:g}" for k, v in sorted(self.derivatives.items()))
        return f"ConstantFlow({inner})" if inner else "ConstantFlow(stationary)"


#: A flow where nothing moves; used as the default location flow.
STATIONARY = ConstantFlow({})


def clock_flow(*clock_names: str, extra: Mapping[str, float] | None = None) -> ConstantFlow:
    """Build a flow where each named clock advances at rate 1.

    Args:
        clock_names: Clock variables that progress at unit rate.
        extra: Additional constant derivatives to merge in.
    """
    derivatives: Dict[str, float] = {name: 1.0 for name in clock_names}
    if extra:
        derivatives.update(extra)
    return ConstantFlow(derivatives)


@dataclass(frozen=True)
class CallableFlow(Flow):
    """A flow whose derivative is one float function over named inputs.

    The declaration is the single source of the flow's dynamics: the
    reference engine integrates it through the dict-returning :attr:`func`
    derived here, and the compiled kernel (which also runs every batched
    lane) lowers the same ``kernel`` to RK4 over plain slot floats
    (:mod:`repro.hybrid.simulate.rk4`), so every tier performs the same
    float operations.

    The compiled RK4 inlines the kernel's body into its stages when it can
    show the inlined code is the kernel's: an undecorated ``def`` whose
    source compiles to its bytecode, whose body holds only
    ``if``/``elif``/``else`` and a ``return`` (a value, or a tuple with one
    value per output) on every path, whose expressions are numbers,
    ``+ - * /``, unary minus and single comparisons, and whose names are
    its own arguments.  A parameter is bound at lowering when it is a
    number or, read by field, a frozen dataclass; the first test over
    inputs that are not outputs and parameters only, with no operator that
    can raise, is decided once per advance.  Any other kernel -- a lambda,
    builtin, closure or wrapper, one that assigns a local, calls a
    function, reads a global or takes a mutable parameter -- is called at
    each stage, with the same results.

    Args:
        kernel: Plain float code.  Called positionally with the value of
            each input (in declaration order) followed by ``params``; returns
            the derivative of the single output as a float, or a tuple with
            one derivative per output when there are several.
        inputs: ``name -> default`` for every variable the kernel reads, in
            kernel-argument order; the default stands in for a variable the
            valuation lacks.
        outputs: The variables the flow drives, in kernel-result order.
        params: Constant trailing kernel arguments (model parameters).
        description: Human-readable description for diagnostics.
        substep: Integration sub-step (seconds) used by :meth:`advance`.
    """

    kernel: Callable[..., object]
    inputs: tuple[tuple[str, float], ...]
    outputs: tuple[str, ...]
    params: tuple = ()
    description: str = "<ode>"
    substep: float = 0.01
    is_affine: bool = False

    def __init__(self, kernel, inputs: Mapping[str, float], outputs, *, params=(),
                 description="<ode>", substep=0.01):
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "inputs", tuple((name, float(default))
                                                 for name, default in inputs.items()))
        object.__setattr__(self, "outputs", tuple(outputs))
        object.__setattr__(self, "params", tuple(params))
        object.__setattr__(self, "description", description)
        object.__setattr__(self, "substep", float(substep))
        object.__setattr__(self, "is_affine", False)
        if not self.outputs:
            raise ValueError("a CallableFlow needs at least one output")

    def func(self, valuation: Valuation) -> Dict[str, float]:
        """The kernel as a valuation -> ``{output: derivative}`` function."""
        result = self.kernel(*[valuation.get(name, default)
                               for name, default in self.inputs], *self.params)
        if len(self.outputs) == 1:
            result = (result,)
        return dict(zip(self.outputs, result))

    def rates(self, valuation: Valuation) -> Dict[str, float]:
        return {k: float(v) for k, v in self.func(valuation).items()}

    def driven_variables(self) -> set[str]:
        return set(self.outputs)

    def advance(self, valuation: Valuation, dt: float) -> Valuation:
        """Integrate the ODE for ``dt`` seconds with classic RK4 sub-steps."""
        if dt <= 0:
            return valuation
        remaining = dt
        current = valuation
        while remaining > 1e-12:
            h = min(self.substep, remaining)
            current = self._rk4_step(current, h)
            remaining -= h
        return current

    def _rk4_step(self, valuation: Valuation, h: float) -> Valuation:
        k1 = self.rates(valuation)
        k2 = self.rates(valuation.advanced(k1, h / 2.0))
        k3 = self.rates(valuation.advanced(k2, h / 2.0))
        k4 = self.rates(valuation.advanced(k3, h))
        combined = {}
        for name in self.outputs:
            combined[name] = (k1[name] + 2.0 * k2[name]
                              + 2.0 * k3[name] + k4[name]) / 6.0
        return valuation.advanced(combined, h)

    def __repr__(self) -> str:
        return f"CallableFlow({self.description}, vars={list(self.outputs)})"


@dataclass(frozen=True)
class CompositeFlow(Flow):
    """The union of several flows over disjoint variable sets.

    Produced by the elaboration operator: inside a child-automaton location,
    the parent's variables keep flowing according to the elaborated
    location's flow while the child's variables follow the child's flow.
    """

    parts: tuple[Flow, ...]

    def __init__(self, parts):
        flattened: list[Flow] = []
        for part in parts:
            if isinstance(part, CompositeFlow):
                flattened.extend(part.parts)
            else:
                flattened.append(part)
        object.__setattr__(self, "parts", tuple(flattened))

    @property
    def is_affine(self) -> bool:  # type: ignore[override]
        return all(part.is_affine for part in self.parts)

    def rates(self, valuation: Valuation) -> Dict[str, float]:
        merged: Dict[str, float] = {}
        for part in self.parts:
            for name, rate in part.rates(valuation).items():
                merged[name] = rate
        return merged

    def driven_variables(self) -> set[str]:
        driven: set[str] = set()
        for part in self.parts:
            driven |= part.driven_variables()
        return driven

    def advance(self, valuation: Valuation, dt: float) -> Valuation:
        if self.is_affine:
            return valuation.advanced(self.rates(valuation), dt)
        current = valuation
        for part in self.parts:
            current = part.advance(current, dt)
        return current

    def __repr__(self) -> str:
        return f"CompositeFlow({list(self.parts)!r})"
