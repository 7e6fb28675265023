"""Execution traces of hybrid-system simulations.

A :class:`Trace` is the recorded *execution trace* (trajectory) of a hybrid
system: for every member automaton the sequence of locations visited with
their entry times, every discrete transition taken, every event emission
with its delivery outcome per receiver, and (optionally) sampled values of
continuous variables.

The PTE safety monitor (:mod:`repro.core.monitor`), the Table I statistics
(:mod:`repro.casestudy.emulation`) and the figure experiments all operate on
traces, never on live simulator state, so analysis is reproducible and can
be done offline.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping

from repro.util.timebase import EPSILON


# The engines build one record per transition and per delivery attempt.  A
# frozen dataclass's generated __init__ sets each field through
# object.__setattr__; these constructors fill the instance __dict__
# directly, in a third of the time, and keep every other generated method
# (==, hash, repr, pickling, the frozen __setattr__).

@dataclass(frozen=True)
class TransitionRecord:
    """One discrete transition taken by a member automaton."""

    time: float
    automaton: str
    source: str
    target: str
    reason: str = ""
    trigger_root: str | None = None
    emitted: tuple[str, ...] = ()

    def __init__(self, time: float, automaton: str, source: str, target: str,
                 reason: str = "", trigger_root: str | None = None,
                 emitted: tuple[str, ...] = ()):
        fields = self.__dict__
        fields["time"] = time
        fields["automaton"] = automaton
        fields["source"] = source
        fields["target"] = target
        fields["reason"] = reason
        fields["trigger_root"] = trigger_root
        fields["emitted"] = emitted


@dataclass(frozen=True)
class EventRecord:
    """One attempted delivery of a broadcast event to one receiver."""

    time: float
    root: str
    sender: str
    receiver: str
    delivered: bool
    lossy: bool

    def __init__(self, time: float, root: str, sender: str, receiver: str,
                 delivered: bool, lossy: bool):
        fields = self.__dict__
        fields["time"] = time
        fields["root"] = root
        fields["sender"] = sender
        fields["receiver"] = receiver
        fields["delivered"] = delivered
        fields["lossy"] = lossy


@dataclass(frozen=True)
class Sample:
    """A sampled value of one continuous variable."""

    time: float
    value: float


@dataclass
class LocationVisit:
    """A (possibly still open) stay of an automaton in one location."""

    location: str
    start: float
    end: float | None = None

    @property
    def duration(self) -> float:
        """Length of the visit; ``inf`` when the visit is still open."""
        if self.end is None:
            return float("inf")
        return self.end - self.start


class Trace:
    """Recorded execution trace of a hybrid-system simulation.

    Args:
        risky_locations: Mapping automaton name -> set of risky location
            names, captured at simulation start so that risky-interval
            queries do not need the original automata objects.
    """

    def __init__(self, risky_locations: Mapping[str, set[str]] | None = None):
        self._risky: Dict[str, set[str]] = {k: set(v)
                                            for k, v in (risky_locations or {}).items()}
        self.transitions: List[TransitionRecord] = []
        self.events: List[EventRecord] = []
        self._visits: Dict[str, List[LocationVisit]] = {}
        self._samples: Dict[tuple[str, str], List[Sample]] = {}
        self.end_time: float = 0.0

    # -- recording (used by the simulation engine) ---------------------------
    def register_automaton(self, name: str, initial_location: str,
                           risky_locations: Iterable[str] = ()) -> None:
        """Begin recording for one member automaton."""
        self._risky.setdefault(name, set(risky_locations))
        self._visits[name] = [LocationVisit(initial_location, 0.0)]

    def record_transition(self, record: TransitionRecord) -> None:
        """Record a discrete transition and update the location timeline."""
        self.transitions.append(record)
        visits = self._visits.setdefault(record.automaton, [])
        if visits and visits[-1].end is None:
            visits[-1].end = record.time
        visits.append(LocationVisit(record.target, record.time))

    def record_event(self, record: EventRecord) -> None:
        """Record one event delivery attempt."""
        self.events.append(record)

    def record_sample(self, automaton: str, variable: str, time: float, value: float) -> None:
        """Record one sampled value of a continuous variable."""
        self._samples.setdefault((automaton, variable), []).append(Sample(time, value))

    def close(self, end_time: float) -> None:
        """Close all open location visits at the end of the simulation."""
        self.end_time = end_time
        for visits in self._visits.values():
            if visits and visits[-1].end is None:
                visits[-1].end = end_time

    # -- queries --------------------------------------------------------------
    @property
    def automata(self) -> list[str]:
        """Names of the automata recorded in this trace."""
        return sorted(self._visits)

    def visits(self, automaton: str) -> list[LocationVisit]:
        """The chronological list of location visits of ``automaton``."""
        return list(self._visits.get(automaton, []))

    def location_at(self, automaton: str, time: float) -> str | None:
        """Return the location occupied by ``automaton`` at ``time``."""
        visits = self._visits.get(automaton, [])
        if not visits:
            return None
        starts = [v.start for v in visits]
        index = bisect.bisect_right(starts, time) - 1
        if index < 0:
            return None
        return visits[index].location

    def risky_set(self, automaton: str) -> set[str]:
        """The risky location names recorded for ``automaton``."""
        return set(self._risky.get(automaton, set()))

    def dwell_intervals(self, automaton: str,
                        locations: Iterable[str]) -> list[tuple[float, float]]:
        """Maximal intervals during which ``automaton`` stays within ``locations``.

        Consecutive visits to (possibly different) locations of the given
        set are merged into a single continuous-dwelling interval, which is
        exactly the notion of "continuous dwelling time" used by PTE Safety
        Rule 1.
        """
        wanted = set(locations)
        merged: list[tuple[float, float]] = []
        for visit in self._visits.get(automaton, []):
            end = visit.end if visit.end is not None else self.end_time
            if visit.location not in wanted:
                continue
            if merged and abs(merged[-1][1] - visit.start) <= EPSILON:
                merged[-1] = (merged[-1][0], end)
            else:
                merged.append((visit.start, end))
        return merged

    def risky_intervals(self, automaton: str) -> list[tuple[float, float]]:
        """Maximal intervals during which ``automaton`` dwells in risky locations."""
        return self.dwell_intervals(automaton, self.risky_set(automaton))

    def transitions_of(self, automaton: str, *, reason: str | None = None,
                       target: str | None = None,
                       source: str | None = None) -> list[TransitionRecord]:
        """Filter transition records by automaton and optional attributes."""
        result = []
        for record in self.transitions:
            if record.automaton != automaton:
                continue
            if reason is not None and record.reason != reason:
                continue
            if target is not None and record.target != target:
                continue
            if source is not None and record.source != source:
                continue
            result.append(record)
        return result

    def count_entries(self, automaton: str, location: str) -> int:
        """Number of times ``automaton`` entered ``location``."""
        return sum(1 for r in self.transitions
                   if r.automaton == automaton and r.target == location)

    def series(self, automaton: str, variable: str) -> tuple[list[float], list[float]]:
        """Sampled time series ``(times, values)`` of one variable."""
        samples = self._samples.get((automaton, variable), [])
        return [s.time for s in samples], [s.value for s in samples]

    def delivered_events(self, root: str | None = None) -> list[EventRecord]:
        """Event records that were actually delivered (optionally filtered by root)."""
        return [e for e in self.events
                if e.delivered and (root is None or e.root == root)]

    def lost_events(self, root: str | None = None) -> list[EventRecord]:
        """Event records that were lost in transit (optionally filtered by root)."""
        return [e for e in self.events
                if not e.delivered and (root is None or e.root == root)]

    def loss_ratio(self) -> float:
        """Fraction of lossy event deliveries that were lost."""
        lossy = [e for e in self.events if e.lossy]
        if not lossy:
            return 0.0
        return sum(1 for e in lossy if not e.delivered) / len(lossy)

    def __repr__(self) -> str:
        return (f"Trace(automata={self.automata}, transitions={len(self.transitions)}, "
                f"events={len(self.events)}, horizon={self.end_time:g}s)")
