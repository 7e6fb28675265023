"""Streaming observation of simulation runs (the observer pipeline).

Historically the engine recorded everything into an in-memory
:class:`~repro.hybrid.trace.Trace` and every consumer (Table I statistics,
the PTE monitor, lease auditing) re-scanned that trace after the run.  That
couples memory usage to the simulation horizon and forces a second pass
over data the engine already produced in order.

This module breaks the coupling: engines push every observable fact --
automaton registration, discrete transitions, event deliveries, variable
samples, end-of-run -- through a list of :class:`TraceObserver` objects.

* :class:`TraceRecorder` is the observer that reconstructs the classic
  :class:`~repro.hybrid.trace.Trace` (attached by default, so the engine
  API is unchanged).
* Streaming consumers (e.g. the case study's
  :class:`~repro.casestudy.observers.TrialStatsObserver`) compute their
  statistics online and never retain the run, so campaign memory stays
  flat no matter how long the horizon is.

:class:`DwellTracker` is the streaming twin of
:meth:`~repro.hybrid.trace.Trace.dwell_intervals`: it folds a chronological
stream of location visits into the same maximal-dwell intervals, including
the merge across zero-duration excursions, so interval-based analyses
(PTE Rule 1/2) produce bit-identical numbers either way.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping

from repro.hybrid.trace import EventRecord, Trace, TransitionRecord
from repro.util.timebase import EPSILON


class TraceObserver:
    """Receiver of the engine's observation stream.

    All hooks are optional no-ops; subclasses override what they need.
    Hooks fire in simulation order: one :meth:`begin_run`, then one
    :meth:`register_automaton` per member automaton, then any number of
    :meth:`on_transition` / :meth:`on_event` / :meth:`on_sample` calls with
    non-decreasing timestamps, then one :meth:`end_run`.
    """

    def begin_run(self, risky_locations: Mapping[str, set[str]]) -> None:
        """A new run starts; ``risky_locations`` maps automaton -> risky set."""

    def register_automaton(self, name: str, initial_location: str,
                           risky_locations: Iterable[str] = ()) -> None:
        """One member automaton begins the run in ``initial_location``."""

    def on_transition(self, record: TransitionRecord) -> None:
        """A discrete transition fired."""

    def on_event(self, record: EventRecord) -> None:
        """One event delivery was attempted (delivered or lost)."""

    def on_sample(self, automaton: str, variable: str, time: float,
                  value: float) -> None:
        """One continuous variable was sampled."""

    def end_run(self, end_time: float) -> None:
        """The run reached its horizon."""


class TraceRecorder(TraceObserver):
    """The classic full-trace observer.

    Reconstructs exactly the :class:`~repro.hybrid.trace.Trace` the engine
    used to build inline; a fresh trace is started on every
    :meth:`begin_run` so one recorder can serve consecutive runs of the
    same engine.
    """

    def __init__(self) -> None:
        self.trace = Trace()

    def begin_run(self, risky_locations: Mapping[str, set[str]]) -> None:
        self.trace = Trace(risky_locations)

    def register_automaton(self, name: str, initial_location: str,
                           risky_locations: Iterable[str] = ()) -> None:
        self.trace.register_automaton(name, initial_location, risky_locations)

    def on_transition(self, record: TransitionRecord) -> None:
        self.trace.record_transition(record)

    def on_event(self, record: EventRecord) -> None:
        self.trace.record_event(record)

    def on_sample(self, automaton: str, variable: str, time: float,
                  value: float) -> None:
        self.trace.record_sample(automaton, variable, time, value)

    def end_run(self, end_time: float) -> None:
        self.trace.close(end_time)


class DwellTracker:
    """Streaming maximal-dwell intervals over one watched location set.

    Feed it the chronological location visits of one automaton (via
    :meth:`enter` at each visit start and :meth:`finish` at the horizon)
    and it produces the same ``(start, end)`` interval list as
    :meth:`Trace.dwell_intervals <repro.hybrid.trace.Trace.dwell_intervals>`
    over the full trace: consecutive visits to watched locations merge into
    one interval, including across zero-duration stays outside the set.
    """

    def __init__(self, watched: Iterable[str]):
        self.watched = set(watched)
        self.intervals: List[tuple[float, float]] = []
        #: Length of the longest closed interval so far (``0.0`` if none).
        self.longest = 0.0
        self._location: str | None = None
        self._entered_at: float = 0.0

    def enter(self, location: str, time: float) -> None:
        """The automaton enters ``location`` at ``time`` (closing the stay)."""
        self._close_visit(time)
        self._location = location
        self._entered_at = time

    def finish(self, end_time: float) -> None:
        """Close the final open visit at the end of the run."""
        self._close_visit(end_time)
        self._location = None

    def ongoing(self, now: float) -> float:
        """Length of the current (still open) merged dwell at time ``now``.

        Returns 0.0 when the automaton is not presently in a watched
        location.  Applies the same zero-duration-excursion merge rule as
        :meth:`_close_visit`, so ``max(closed intervals, ongoing(now))`` is
        exactly the longest continuous dwell PTE Rule 1 would measure if
        the run ended at ``now`` — the streaming risk score of the
        rare-event splitting estimator.
        """
        if self._location is None or self._location not in self.watched:
            return 0.0
        start = self._entered_at
        if self.intervals and abs(self.intervals[-1][1] - start) <= EPSILON:
            start = self.intervals[-1][0]
        return now - start

    def _close_visit(self, end: float) -> None:
        if self._location is None or self._location not in self.watched:
            return
        start = self._entered_at
        # Same merge rule as Trace.dwell_intervals: a new watched visit that
        # starts where the previous merged interval ended (within EPSILON)
        # extends it -- this is what makes zero-dwell excursions invisible
        # to the "continuous dwelling time" of PTE Safety Rule 1.
        if self.intervals and abs(self.intervals[-1][1] - start) <= EPSILON:
            start = self.intervals[-1][0]
            self.intervals[-1] = (start, end)
        else:
            self.intervals.append((start, end))
        if end - start > self.longest:
            self.longest = end - start
