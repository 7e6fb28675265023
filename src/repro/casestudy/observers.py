"""Streaming Table-I statistics for emulation trials.

:class:`TrialStatsObserver` subscribes to an engine's observer pipeline and
computes every :class:`~repro.casestudy.emulation.TrialResult` statistic
online -- emission/pause counters, ``evtToStop``, dwell maxima, minimum
SpO2, the lease ledger, and the PTE safety verdict (through the monitor's
trace-free :meth:`~repro.core.monitor.PTEMonitor.check_risky_intervals`
entry point).

Nothing about the run is retained beyond per-entity maximal risky
intervals (bounded by the number of lease rounds, not by the horizon), so
a trial's memory footprint is flat no matter how long it runs.  Given the same execution, the numbers are
bit-identical to the historical post-hoc scan over a recorded
:class:`~repro.hybrid.trace.Trace` (asserted by the compiled-equivalence
test suite).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Tuple

from repro.casestudy.config import (CaseStudyConfig, LASER, PATIENT, SUPERVISOR,
                                    VENTILATOR)
from repro.casestudy.laser import EMITTING_LOCATION
from repro.casestudy.patient import SPO2
from repro.core.intervals import Interval, IntervalSet
from repro.core.leases import LeaseLedger, LeaseOutcome
from repro.core.monitor import MonitorReport, PTEMonitor
from repro.core.pattern.roles import RISKY_CORE, qualified
from repro.hybrid.simulate.observers import DwellTracker, TraceObserver
from repro.hybrid.trace import TransitionRecord
from repro.util.seeding import RngLedger, StreamKey

#: Location in which the ventilator is paused and "running" its risky core.
VENTILATOR_RISKY_CORE = qualified("xi1", RISKY_CORE)

#: Per-entity "Risky Core" location (a lease opens on entry, closes on exit).
LEASE_CORE_LOCATIONS = {VENTILATOR: VENTILATOR_RISKY_CORE,
                        LASER: EMITTING_LOCATION}

#: How a risky-core-leaving transition's reason maps to a lease outcome.
#: Shared with ``lease_ledger_from_trace`` so the streaming and post-hoc
#: lease reconstructions can never classify the same transition differently.
OUTCOME_OF_REASON = {
    "lease_expiry": LeaseOutcome.EXPIRED,
    "abort": LeaseOutcome.ABORTED,
    "cancel": LeaseOutcome.COMPLETED,
    "user_cancel": LeaseOutcome.COMPLETED,
}


def lease_contracts(config: CaseStudyConfig) -> Dict[str, float]:
    """Contracted maximum risky dwell per lease-holding entity."""
    return {
        VENTILATOR: config.pattern.timing(1).t_run_max,
        LASER: config.pattern.timing(2).t_run_max,
    }


class TrialStatsObserver(TraceObserver):
    """Compute one trial's Table-I statistics without retaining the trace."""

    def __init__(self, config: CaseStudyConfig):
        self.config = config
        self.monitor = PTEMonitor(config.rules())
        self._monitored = self.monitor.monitored_entities()
        self._lease_contracts = lease_contracts(config)
        self._lease_core = LEASE_CORE_LOCATIONS

        self.laser_emissions = 0
        self.ventilator_pauses = 0
        self.evt_to_stop = 0
        self.supervisor_aborts = 0
        self.min_spo2 = config.patient.initial_spo2
        self._saw_spo2 = False
        self.ledger = LeaseLedger()
        self.report: MonitorReport | None = None
        self.end_time = 0.0
        self._risky_trackers: Dict[str, DwellTracker] = {}
        self._emission_tracker = DwellTracker({EMITTING_LOCATION})

    # -- observer hooks ----------------------------------------------------------
    def begin_run(self, risky_locations: Mapping[str, set[str]]) -> None:
        self.__init__(self.config)

    def register_automaton(self, name: str, initial_location: str,
                           risky_locations: Iterable[str] = ()) -> None:
        if name in self._monitored:
            tracker = DwellTracker(risky_locations)
            tracker.enter(initial_location, 0.0)
            self._risky_trackers[name] = tracker
        if name == LASER:
            self._emission_tracker.enter(initial_location, 0.0)

    def on_transition(self, record: TransitionRecord) -> None:
        name = record.automaton
        tracker = self._risky_trackers.get(name)
        if tracker is not None:
            tracker.enter(record.target, record.time)
        if name == LASER:
            self._emission_tracker.enter(record.target, record.time)
            if record.target == EMITTING_LOCATION:
                self.laser_emissions += 1
            if (record.source == EMITTING_LOCATION
                    and record.reason == "lease_expiry"):
                self.evt_to_stop += 1
        elif name == VENTILATOR:
            if record.target == VENTILATOR_RISKY_CORE:
                self.ventilator_pauses += 1
        elif name == SUPERVISOR and record.reason == "approval_violated":
            self.supervisor_aborts += 1
        core = self._lease_core.get(name)
        if core is not None:
            if record.target == core:
                self.ledger.open(name, record.time, self._lease_contracts[name])
            elif record.source == core:
                outcome = OUTCOME_OF_REASON.get(record.reason,
                                                LeaseOutcome.COMPLETED)
                self.ledger.close(name, outcome, record.time)

    def on_sample(self, automaton: str, variable: str, time: float,
                  value: float) -> None:
        if automaton == PATIENT and variable == SPO2:
            if not self._saw_spo2 or value < self.min_spo2:
                self.min_spo2 = value
                self._saw_spo2 = True

    def end_run(self, end_time: float) -> None:
        self.end_time = end_time
        self._emission_tracker.finish(end_time)
        # Entities the rule set monitors but that were never registered
        # (partial systems) get empty interval sets, matching how the
        # trace-based monitor treats automata absent from a trace.
        risky_sets: Dict[str, IntervalSet] = {entity: IntervalSet()
                                              for entity in self._monitored}
        for name, tracker in self._risky_trackers.items():
            tracker.finish(end_time)
            risky_sets[name] = IntervalSet(Interval(start, end)
                                           for start, end in tracker.intervals)
        self.report = self.monitor.check_risky_intervals(risky_sets, end_time)

    # -- derived statistics --------------------------------------------------------
    @property
    def failures(self) -> int:
        """Number of distinct PTE failure episodes (Table I's column)."""
        return self.report.failure_count if self.report is not None else 0

    @property
    def max_emission_duration(self) -> float:
        """Longest continuous laser emission observed."""
        return self._emission_tracker.longest

    @property
    def max_pause_duration(self) -> float:
        """Longest continuous ventilation pause (risky dwell) observed."""
        tracker = self._risky_trackers.get(VENTILATOR)
        return tracker.longest if tracker is not None else 0.0


class RiskLevelObserver(TraceObserver):
    """Streaming PTE risk score for rare-event importance splitting.

    The observer tracks, for every entity the rule set monitors, the
    longest continuous risky dwell seen so far (open dwells included, with
    the same zero-duration-excursion merge rule as the monitor) and scores
    the trial by the largest *fraction of the PTE dwelling bound* any
    entity has consumed.  A score of 1.0 means some entity dwelt risky for
    its full Rule-1 budget — the boundary of a violation.

    The score is a non-decreasing step function of time.  Each time the
    running maximum strictly increases, the observer records a
    ``(score, watermark, step)`` staircase entry, where the watermark is
    the active :class:`~repro.util.seeding.RngLedger`'s draw-count
    snapshot at that instant (``None`` when no ledger is supplied) and the
    step is ``engine.steps``, the engine step the heartbeat ran in (``0``
    without an engine).  The splitting estimator later asks for the first
    entry at or above a threshold: replaying the trial's RNG streams up to
    that watermark and diverging afterwards yields a child trial
    conditionally distributed given "parent reached this risk level", and
    the step tells a fork group where it may pause the shared prefix.

    Heartbeats run *before* a transition is applied, so the watermark
    recorded for a level crossing never includes draws from events after
    the crossing instant.  A heartbeat with no tracked entity in a watched
    location skips the scan: every closed dwell was measured as an open
    one by the heartbeat that closed it, so it cannot raise the score.
    """

    def __init__(self, config: CaseStudyConfig, ledger: RngLedger | None = None,
                 engine=None):
        self.config = config
        self._ledger = ledger
        self.engine = engine
        rules = config.rules()
        self._bounds = {entity: rules.dwelling_bound(entity)
                        for entity in rules.entities}
        self._trackers: Dict[str, DwellTracker] = {}
        #: Tracked entities now in a watched location.
        self._inside: set[str] = set()
        #: Strictly increasing ``(score, watermark, step)`` records, in time order.
        self.staircase: List[Tuple[float, Dict[StreamKey, int] | None, int]] = []
        self.score = 0.0

    # -- observer hooks ----------------------------------------------------------
    def begin_run(self, risky_locations: Mapping[str, set[str]]) -> None:
        self.__init__(self.config, self._ledger, self.engine)

    def register_automaton(self, name: str, initial_location: str,
                           risky_locations: Iterable[str] = ()) -> None:
        if name in self._bounds:
            tracker = DwellTracker(risky_locations)
            self._trackers[name] = tracker
            self._enter(name, tracker, initial_location, 0.0)

    def on_transition(self, record: TransitionRecord) -> None:
        self._heartbeat(record.time)
        tracker = self._trackers.get(record.automaton)
        if tracker is not None:
            self._enter(record.automaton, tracker, record.target, record.time)

    def on_sample(self, automaton: str, variable: str, time: float,
                  value: float) -> None:
        self._heartbeat(time)

    def end_run(self, end_time: float) -> None:
        self._heartbeat(end_time)
        for tracker in self._trackers.values():
            tracker.finish(end_time)

    # -- scoring ---------------------------------------------------------------
    def _enter(self, name: str, tracker: DwellTracker, location: str,
               time: float) -> None:
        tracker.enter(location, time)
        if location in tracker.watched:
            self._inside.add(name)
        else:
            self._inside.discard(name)

    def _heartbeat(self, now: float) -> None:
        if not self._inside:
            return
        score = 0.0
        for name, tracker in self._trackers.items():
            dwell = max(tracker.longest, tracker.ongoing(now))
            bound = self._bounds[name]
            if bound > 0:
                score = max(score, dwell / bound)
        if score > self.score:
            self.score = score
            marks = self._ledger.snapshot() if self._ledger is not None else None
            step = self.engine.steps if self.engine is not None else 0
            self.staircase.append((score, marks, step))
