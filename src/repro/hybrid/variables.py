"""Data state variables and valuations.

A hybrid automaton carries a vector of continuous *data state variables*
``x(t)``; a concrete assignment of values to these variables is a *data
state* (paper Section II-A, item 1).  We represent a data state as a
:class:`Valuation`, a thin mapping from variable name to ``float`` with a
few convenience operations used by the simulator.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping


class Valuation(Mapping[str, float]):
    """An immutable-by-convention mapping of variable names to values.

    The simulator treats valuations as value objects: every update produces
    a new :class:`Valuation` (see :meth:`updated` and :meth:`advanced`), so
    recorded traces never alias live state.
    """

    __slots__ = ("_values",)

    def __init__(self, values: Mapping[str, float] | None = None):
        self._values: Dict[str, float] = dict(values or {})

    # -- Mapping protocol --------------------------------------------------
    def __getitem__(self, key: str) -> float:
        return self._values[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v:.6g}" for k, v in sorted(self._values.items()))
        return f"Valuation({inner})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Valuation):
            return self._values == other._values
        if isinstance(other, Mapping):
            return self._values == dict(other)
        return NotImplemented

    def __hash__(self) -> int:  # pragma: no cover - rarely used
        return hash(tuple(sorted(self._values.items())))

    # -- convenience -------------------------------------------------------
    def get(self, key: str, default: float = 0.0) -> float:
        """Return the value of ``key`` or ``default`` when absent."""
        return self._values.get(key, default)

    def as_dict(self) -> Dict[str, float]:
        """Return a mutable copy of the underlying mapping."""
        return dict(self._values)

    def updated(self, changes: Mapping[str, float]) -> "Valuation":
        """Return a new valuation with ``changes`` applied on top of this one."""
        merged = dict(self._values)
        merged.update({k: float(v) for k, v in changes.items()})
        return Valuation(merged)

    def advanced(self, rates: Mapping[str, float], dt: float) -> "Valuation":
        """Return a new valuation after flowing for ``dt`` at constant ``rates``.

        Variables without an entry in ``rates`` keep their value (rate 0),
        matching the elaboration rule that a child automaton's variables
        "remain unchanged" while control is elsewhere.
        """
        if dt < 0:
            raise ValueError("dt must be non-negative")
        merged = dict(self._values)
        for name, rate in rates.items():
            merged[name] = merged.get(name, 0.0) + rate * dt
        return Valuation(merged)


def zero_valuation(names: Iterable[str]) -> Valuation:
    """Return the all-zero valuation over ``names``.

    The paper's design-pattern automata all start with every data state
    variable equal to zero; this helper builds that initial data state.
    """
    return Valuation({name: 0.0 for name in names})
