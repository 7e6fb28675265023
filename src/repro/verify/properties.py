"""Trace properties over recorded case-study traces.

A *property* is a named predicate over a recorded trace (a
``run_trial(..., keep_trace=True)`` result).  The built-in property
families correspond directly to the paper's claims:

* :func:`pte_safety_property` -- both PTE safety rules hold (Theorem 1 /
  Theorem 2 conclusion);
* :func:`auto_reset_property` -- after every coordination round each remote
  entity is back in its Fall-Back location within the lease horizon
  ``T^max_wait + T^max_LS1`` (the first step of the paper's proof sketch).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from repro.core.monitor import PTEMonitor
from repro.core.rules import PTERuleSet
from repro.hybrid.trace import Trace


@dataclass(frozen=True)
class PropertyResult:
    """Outcome of evaluating one property on one trace."""

    name: str
    holds: bool
    detail: str = ""


class TraceProperty:
    """A named boolean property of a trace."""

    def __init__(self, name: str, check: Callable[[Trace], PropertyResult]):
        self.name = name
        self._check = check

    def evaluate(self, trace: Trace) -> PropertyResult:
        """Evaluate the property on one trace."""
        return self._check(trace)


def pte_safety_property(rules: PTERuleSet,
                        automaton_of: Mapping[str, str] | None = None,
                        name: str = "pte-safety") -> TraceProperty:
    """Property: the trace satisfies both PTE safety rules."""
    monitor = PTEMonitor(rules, automaton_of)

    def check(trace: Trace) -> PropertyResult:
        report = monitor.check(trace)
        if report.safe:
            return PropertyResult(name, True, report.summary())
        first = report.violations[0]
        return PropertyResult(name, False,
                              f"{len(report.violations)} violation(s); first: {first}")

    return TraceProperty(name, check)


def bounded_dwelling_property(entities: Sequence[str], bound: float,
                              risky_of: Mapping[str, set[str]] | None = None,
                              name: str = "bounded-dwelling") -> TraceProperty:
    """Property: every listed entity's continuous risky dwell stays below ``bound``."""

    def check(trace: Trace) -> PropertyResult:
        for entity in entities:
            risky = (risky_of or {}).get(entity) or trace.risky_set(entity)
            for start, end in trace.dwell_intervals(entity, risky):
                if end - start > bound + 1e-9:
                    return PropertyResult(
                        name, False,
                        f"{entity} dwelled {end - start:.3f}s in risky locations "
                        f"(bound {bound:.3f}s) starting at t={start:.3f}s")
        return PropertyResult(name, True, f"max bound {bound:.3f}s respected")

    return TraceProperty(name, check)


def auto_reset_property(entities: Sequence[str], fallback_locations: Mapping[str, str],
                        horizon: float, name: str = "auto-reset") -> TraceProperty:
    """Property: entities always return to Fall-Back within the lease horizon.

    For every maximal excursion of an entity away from its Fall-Back
    location, the excursion must last at most ``horizon`` seconds
    (``T^max_wait + T^max_LS1`` for a valid configuration).  Excursions cut
    off by the end of the trace are ignored.
    """

    def check(trace: Trace) -> PropertyResult:
        for entity in entities:
            fallback = fallback_locations[entity]
            excursion_start: float | None = None
            for visit in trace.visits(entity):
                if visit.location == fallback:
                    if excursion_start is not None:
                        length = visit.start - excursion_start
                        if length > horizon + 1e-9:
                            return PropertyResult(
                                name, False,
                                f"{entity} stayed away from Fall-Back for {length:.3f}s "
                                f"(allowed {horizon:.3f}s) starting at t={excursion_start:.3f}s")
                        excursion_start = None
                elif excursion_start is None:
                    excursion_start = visit.start
        return PropertyResult(name, True, f"all excursions within {horizon:.3f}s")

    return TraceProperty(name, check)


def single_risky_visit_per_round_property(entity: str, round_marker_root: str,
                                          name: str = "single-risky-visit") -> TraceProperty:
    """Property: at most one risky episode between consecutive round starts.

    This mirrors the second step of the paper's proof sketch: between two
    consecutive ``evt xi0 -> xi1 LeaseReq`` events, any entity dwells in its
    risky locations at most once.
    """

    def check(trace: Trace) -> PropertyResult:
        round_starts = sorted({e.time for e in trace.events if e.root == round_marker_root})
        boundaries = [0.0, *round_starts, trace.end_time + 1.0]
        risky = trace.risky_intervals(entity)
        for lo, hi in zip(boundaries, boundaries[1:]):
            episodes = [iv for iv in risky if lo <= iv[0] < hi]
            if len(episodes) > 1:
                return PropertyResult(
                    name, False,
                    f"{entity} had {len(episodes)} risky episodes between round "
                    f"boundaries [{lo:.3f}, {hi:.3f})")
        return PropertyResult(name, True, "at most one risky episode per round")

    return TraceProperty(name, check)
