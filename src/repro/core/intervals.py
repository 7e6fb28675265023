"""Interval algebra for dwelling-time analysis.

The PTE safety rules are statements about the time intervals during which
each entity dwells in its risky locations.  This module provides the small
interval toolkit the monitor needs: normalized unions of closed intervals,
membership and coverage queries, and measurement of continuous dwelling
durations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence

from repro.util.timebase import EPSILON


@dataclass(frozen=True)
class Interval:
    """A closed time interval ``[start, end]`` (seconds)."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end < self.start - EPSILON:
            raise ValueError(f"interval end {self.end} precedes start {self.start}")

    @property
    def duration(self) -> float:
        """Length of the interval."""
        return max(0.0, self.end - self.start)

    def contains(self, time: float, eps: float = EPSILON) -> bool:
        """True when ``time`` lies inside the interval (with tolerance)."""
        return self.start - eps <= time <= self.end + eps

    def covers(self, other: "Interval", eps: float = EPSILON) -> bool:
        """True when this interval fully covers ``other`` (with tolerance)."""
        return self.start - eps <= other.start and other.end <= self.end + eps

    def intersection(self, other: "Interval") -> "Interval | None":
        """The overlapping part of two intervals, or ``None`` when disjoint."""
        start = max(self.start, other.start)
        end = min(self.end, other.end)
        if end < start - EPSILON:
            return None
        return Interval(start, min(max(start, end), end) if end >= start else start)

    def shifted(self, delta: float) -> "Interval":
        """Return the interval translated by ``delta`` seconds."""
        return Interval(self.start + delta, self.end + delta)

    def __repr__(self) -> str:
        return f"[{self.start:g}, {self.end:g}]"


class IntervalSet:
    """A normalized (sorted, disjoint) union of closed intervals."""

    def __init__(self, intervals: Iterable[Interval | tuple[float, float]] = ()):
        converted = [iv if isinstance(iv, Interval) else Interval(*iv)
                     for iv in intervals]
        self._intervals: List[Interval] = self._normalize(converted)

    @staticmethod
    def _normalize(intervals: Sequence[Interval]) -> List[Interval]:
        if not intervals:
            return []
        ordered = sorted(intervals, key=lambda iv: iv.start)
        merged: List[Interval] = [ordered[0]]
        for interval in ordered[1:]:
            last = merged[-1]
            if interval.start <= last.end + EPSILON:
                merged[-1] = Interval(last.start, max(last.end, interval.end))
            else:
                merged.append(interval)
        return merged

    # -- container protocol ------------------------------------------------------
    def __iter__(self) -> Iterator[Interval]:
        return iter(self._intervals)

    def __len__(self) -> int:
        return len(self._intervals)

    def __bool__(self) -> bool:
        return bool(self._intervals)

    def __repr__(self) -> str:
        return "IntervalSet(" + ", ".join(repr(iv) for iv in self._intervals) + ")"

    # -- queries ------------------------------------------------------------------
    @property
    def intervals(self) -> List[Interval]:
        """The normalized list of member intervals."""
        return list(self._intervals)

    @property
    def total_duration(self) -> float:
        """Sum of the member interval durations."""
        return sum(iv.duration for iv in self._intervals)

    @property
    def max_duration(self) -> float:
        """Duration of the longest member interval (0 when empty).

        This is exactly the quantity bounded by PTE Safety Rule 1: the
        maximum *continuous* dwelling time.
        """
        return max((iv.duration for iv in self._intervals), default=0.0)

    def contains(self, time: float, eps: float = EPSILON) -> bool:
        """True when ``time`` lies inside some member interval."""
        return any(iv.contains(time, eps) for iv in self._intervals)

    def covers(self, interval: Interval, eps: float = EPSILON) -> bool:
        """True when a single member interval covers the whole ``interval``.

        Coverage by a union of abutting members also counts because the set
        is normalized (abutting members are merged at construction).
        """
        return any(member.covers(interval, eps) for member in self._intervals)

    def covering_interval(self, time: float, eps: float = EPSILON) -> Interval | None:
        """The member interval containing ``time``, when one exists."""
        for member in self._intervals:
            if member.contains(time, eps):
                return member
        return None

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        """The pointwise intersection of two interval sets."""
        result: List[Interval] = []
        for a in self._intervals:
            for b in other._intervals:
                overlap = a.intersection(b)
                if overlap is not None and overlap.duration > EPSILON:
                    result.append(overlap)
        return IntervalSet(result)

    def union(self, other: "IntervalSet") -> "IntervalSet":
        """The union of two interval sets."""
        return IntervalSet(self._intervals + other._intervals)

    def complement_within(self, horizon: Interval) -> "IntervalSet":
        """The portion of ``horizon`` not covered by this set."""
        gaps: List[Interval] = []
        cursor = horizon.start
        for member in self._intervals:
            if member.end < horizon.start or member.start > horizon.end:
                continue
            clipped_start = max(member.start, horizon.start)
            if clipped_start > cursor + EPSILON:
                gaps.append(Interval(cursor, clipped_start))
            cursor = max(cursor, min(member.end, horizon.end))
        if cursor < horizon.end - EPSILON:
            gaps.append(Interval(cursor, horizon.end))
        return IntervalSet(gaps)
