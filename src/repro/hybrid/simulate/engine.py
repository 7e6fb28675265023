"""Discrete-event simulation engine for hybrid systems.

The engine executes a :class:`~repro.hybrid.system.HybridSystem` according
to the semantics described in DESIGN.md:

* **Continuous phase** -- between discrete instants, every member automaton
  flows according to its current location's flow map.  For affine flows the
  engine computes the exact time of the next relevant guard crossing and
  jumps there directly; non-affine flows (and function predicates,
  couplings, or sampling requests) cap the jump at :attr:`SimulationEngine.dt_max`.
* **Discrete phase** -- at an instant, enabled transitions fire and cascade:
  an edge may emit events, delivered instantaneously to receivers (through
  the lossy network for ``??`` labels), possibly enabling further edges.
  The cascade is bounded to detect Zeno behaviour.
* **Environment** -- :class:`~repro.hybrid.simulate.processes.EnvironmentProcess`
  objects wake at chosen times and inject events;
  :class:`~repro.hybrid.simulate.processes.Coupling` objects propagate
  physical values at every integration boundary.

Event semantics follow the paper: an event is an instantaneous broadcast;
a receiver consumes it only if it currently has an enabled edge labelled
``?root``/``??root``; otherwise the event is ignored.  Deliveries through
``??`` labels between different entities are subject to the network's loss
model (arbitrary loss is allowed by the fault model of Section II-B).
"""

from __future__ import annotations

import copy
import math
import sys
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

from repro.errors import SimulationError, ZenoError
from repro.hybrid.automaton import HybridAutomaton
from repro.hybrid.edges import Edge
from repro.hybrid.state import AutomatonState, SystemState
from repro.hybrid.system import HybridSystem
from repro.hybrid.trace import EventRecord, Trace, TransitionRecord
from repro.hybrid.simulate.observers import TraceObserver, TraceRecorder
from repro.hybrid.simulate.processes import Coupling, EnvironmentProcess
from repro.util.seeding import spawn_rng
from repro.util.timebase import EPSILON

#: Smallest time advance the engine will make when it must force progress.
_MIN_ADVANCE = 1e-7


class Network:
    """Delivery decision interface used by the engine for lossy receptions.

    The default implementation delivers everything; the wireless substrate
    (:mod:`repro.wireless.network`) provides sink-topology channels with
    configurable loss processes.
    """

    def attempt_delivery(self, sender_entity: str, receiver_entity: str,
                         root: str, now: float) -> bool:
        """Return True when the event survives the channel."""
        return True

    def reset(self, seed: int | None = None) -> None:
        """Reset any internal stochastic state (start of a new trial)."""


PerfectNetwork = Network


def remap_wakes(wakes: Dict[int, float], memo: dict) -> Dict[int, float]:
    """A deep copy's last-wake table: keyed by the copied processes' ids."""
    return {id(memo[key]) if key in memo else key: time
            for key, time in wakes.items()}


@dataclass
class _PendingEvent:
    """An event waiting to be consumed by one receiver at the current instant."""

    root: str
    sender: str


class SimulationEngine:
    """Simulate a hybrid system over a finite horizon.

    Args:
        system: The hybrid system to execute.
        network: Delivery model for lossy (``??``) receptions between
            different entities.  Defaults to perfect delivery.
        processes: Environment processes (surgeon model, fault scripts...).
        couplings: Physical couplings applied at integration boundaries.
        seed: Master seed for all stochastic components owned by the engine.
        dt_max: Maximum continuous step when exact event times are not
            available (non-affine flows, function predicates, couplings).
        max_cascade: Maximum discrete transitions per automaton allowed at a
            single time instant before a :class:`ZenoError` is raised.
        record_variables: ``(automaton, variable)`` pairs to sample into the
            trace.
        sample_interval: Sampling period for ``record_variables``.
        observers: Additional :class:`TraceObserver` objects notified of
            every transition, event delivery and sample (streaming
            consumers that never need the full trace).
        record_trace: When False, no :class:`TraceRecorder` is attached and
            :meth:`run` returns ``None`` -- memory stays flat regardless of
            the horizon; only the explicit ``observers`` see the run.
    """

    #: Kernel name (the compiled counterpart reports ``"compiled"``).
    kind = "reference"

    def __init__(self, system: HybridSystem, *, network: Network | None = None,
                 processes: Sequence[EnvironmentProcess] = (),
                 couplings: Sequence[Coupling] = (),
                 seed: int | None = None,
                 dt_max: float = 0.1,
                 max_cascade: int = 200,
                 record_variables: Iterable[tuple[str, str]] = (),
                 sample_interval: float = 0.25,
                 observers: Sequence[TraceObserver] = (),
                 record_trace: bool = True):
        self.system = system
        self.network = network or Network()
        self.processes: List[EnvironmentProcess] = list(processes)
        self.couplings: List[Coupling] = list(couplings)
        self.seed = seed
        self.dt_max = float(dt_max)
        self.max_cascade = int(max_cascade)
        self.record_variables = list(record_variables)
        self.sample_interval = float(sample_interval)
        self.rng = spawn_rng(seed, "engine")

        self._recorder = TraceRecorder() if record_trace else None
        self.observers: List[TraceObserver] = (
            ([self._recorder] if self._recorder is not None else [])
            + list(observers))
        self.state = SystemState()
        if self._recorder is not None:
            self._recorder.trace = Trace(system.risky_locations())
        self._order: List[str] = list(system.automata)
        self._pending: Dict[str, List[_PendingEvent]] = {name: [] for name in self._order}
        self._receivers: Dict[str, list[tuple[str, bool]]] = {}
        self._next_sample_time = 0.0
        self._time_of_last_wake: Dict[int, float] = {}
        self._horizon = 0.0
        #: Steps of the current run so far (one per main-loop iteration).
        self.steps = 0

        for name, automaton in system.automata.items():
            automaton.validate()
            self._receivers_cache_for(automaton)

    # -- public helpers ---------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time (seconds)."""
        return self.state.time

    @property
    def trace(self) -> Trace | None:
        """The recorded trace (``None`` when ``record_trace=False``)."""
        return self._recorder.trace if self._recorder is not None else None

    def set_variable(self, automaton_name: str, variable: str, value: float) -> None:
        """Overwrite one variable of one member automaton (used by couplings)."""
        st = self.state.automata[automaton_name]
        self.state.automata[automaton_name] = st.with_valuation(
            st.valuation.updated({variable: float(value)}))

    def inject_event(self, root: str, *, sender: str = "environment") -> None:
        """Broadcast an event from the environment at the current instant.

        Deliveries follow the same rules as automaton-emitted events: a
        reliable ``?root`` reception always arrives, a lossy ``??root``
        reception is passed through the network's loss model.
        """
        self._broadcast(root, sender)

    def location_of(self, automaton_name: str) -> str:
        """Current location of a member automaton."""
        return self.state.location_of(automaton_name)

    # -- main loop ----------------------------------------------------------------
    def run(self, horizon: float) -> Trace | None:
        """Run the simulation from time zero up to ``horizon`` seconds.

        Returns the recorded :class:`Trace`, or ``None`` when the engine
        was built with ``record_trace=False`` (streaming observers only).
        """
        self.start(horizon)
        self.advance()
        return self.finish()

    def start(self, horizon: float) -> None:
        """Begin a run to ``horizon``: reset the network and initialize at t=0.

        :meth:`advance` then runs the steps and :meth:`finish` ends the
        run.  Between two :meth:`advance` calls the run is paused on a
        step boundary, and :func:`copy.deepcopy` of the engine (with its
        network, processes and observers) continues independently.
        """
        if horizon <= 0:
            raise SimulationError("simulation horizon must be positive")
        self._horizon = horizon
        self.network.reset(self.seed)
        self._initialize()

    def advance(self, until: int | None = None) -> None:
        """Run steps up to the horizon, or until ``until`` steps are complete."""
        horizon = self._horizon
        limit = sys.maxsize if until is None else until
        while self.state.time < horizon - EPSILON and self.steps < limit:
            self.steps += 1
            self._apply_couplings()
            next_time = self._next_time(horizon)
            dt = next_time - self.state.time
            if dt > 0:
                self._advance_continuous(dt)
            self.state.time = next_time
            self._apply_couplings()
            self._wake_processes()
            self._process_discrete()
            self._maybe_sample()

    def finish(self) -> Trace | None:
        """End the run at its horizon and return the trace (see :meth:`run`)."""
        for observer in self.observers:
            observer.end_run(self._horizon)
        return self.trace

    def __deepcopy__(self, memo: dict) -> "SimulationEngine":
        clone = object.__new__(type(self))
        memo[id(self)] = clone
        for name, value in self.__dict__.items():
            setattr(clone, name, copy.deepcopy(value, memo))
        clone._time_of_last_wake = remap_wakes(self._time_of_last_wake, memo)
        return clone

    # -- initialization -----------------------------------------------------------
    def _initialize(self) -> None:
        self.state = SystemState(time=0.0)
        self._pending = {name: [] for name in self._order}
        self._next_sample_time = 0.0
        self.steps = 0
        # A fresh run must re-enable every t=0 process wakeup: without this
        # reset a second run() on the same engine would skip them because
        # the previous run already recorded a wake at the same timestamps.
        self._time_of_last_wake = {}
        risky = self.system.risky_locations()
        for observer in self.observers:
            observer.begin_run(risky)
        for name, automaton in self.system.automata.items():
            if automaton.initial_location is None:
                raise SimulationError(f"automaton {name!r} has no initial location")
            self.state.automata[name] = AutomatonState(
                location=automaton.initial_location,
                valuation=automaton.initial_valuation)
            for observer in self.observers:
                observer.register_automaton(name, automaton.initial_location,
                                            automaton.risky_locations)
        for process in self.processes:
            process.initialize(self)
        self._apply_couplings()
        self._wake_processes()
        self._process_discrete()
        self._maybe_sample(force=True)

    def _receivers_cache_for(self, automaton: HybridAutomaton) -> None:
        for root in automaton.received_roots():
            self._receivers[root] = self.system.receivers_of(root)

    # -- continuous phase -----------------------------------------------------------
    def _apply_couplings(self) -> None:
        for coupling in self.couplings:
            coupling.apply(self)

    def _next_time(self, horizon: float) -> float:
        """Earliest relevant future instant (guard crossing, wakeup, sample cap)."""
        now = self.state.time
        candidates: List[float] = [horizon]
        needs_sampling = bool(self.couplings) or bool(self.record_variables)
        for name, automaton in self.system.automata.items():
            st = self.state.automata[name]
            location = automaton.location(st.location)
            flow = location.flow
            if not flow.is_affine:
                needs_sampling = True
                continue
            rates = flow.rates(st.valuation)
            for edge in automaton.edges_from(st.location):
                if edge.is_event_triggered:
                    continue
                delay = edge.guard.time_until_true(st.valuation, rates)
                if delay is None:
                    needs_sampling = True
                elif math.isfinite(delay) and delay > EPSILON:
                    candidates.append(now + delay)
            inv_delay = location.invariant.time_until_false(st.valuation, rates)
            if inv_delay is None:
                needs_sampling = True
            elif math.isfinite(inv_delay) and inv_delay > EPSILON:
                candidates.append(now + inv_delay)
        for process in self.processes:
            wakeup = process.next_wakeup(now)
            if wakeup is not None and math.isfinite(wakeup):
                candidates.append(max(wakeup, now))
        if needs_sampling:
            candidates.append(now + self.dt_max)
        next_time = min(candidates)
        next_time = min(next_time, horizon)
        if next_time <= now + EPSILON:
            next_time = min(now + _MIN_ADVANCE, horizon)
        return next_time

    def _advance_continuous(self, dt: float) -> None:
        for name, automaton in self.system.automata.items():
            st = self.state.automata[name]
            flow = automaton.location(st.location).flow
            new_valuation = flow.advance(st.valuation, dt)
            self.state.automata[name] = st.with_valuation(new_valuation)

    # -- environment ----------------------------------------------------------------
    def _wake_processes(self) -> None:
        now = self.state.time
        for process in self.processes:
            wakeup = process.next_wakeup(now)
            if wakeup is None or wakeup > now + EPSILON:
                continue
            key = id(process)
            if self._time_of_last_wake.get(key) == now:
                continue
            self._time_of_last_wake[key] = now
            process.wake(self, now)

    # -- discrete phase ----------------------------------------------------------------
    def _process_discrete(self) -> None:
        """Fire enabled transitions at the current instant until quiescent."""
        for _ in range(self.max_cascade):
            fired_any = False
            for name in self._order:
                if self._fire_one(name):
                    fired_any = True
            if not fired_any:
                break
        else:
            raise ZenoError(
                f"more than {self.max_cascade} cascaded transition rounds at "
                f"t={self.state.time:.6f}s; the model is (quasi-)Zeno")
        # Unconsumed events do not persist across time instants.
        for pending in self._pending.values():
            pending.clear()

    def _fire_one(self, name: str) -> bool:
        """Fire at most one enabled edge of automaton ``name``; return True if fired."""
        automaton = self.system.automata[name]
        st = self.state.automata[name]
        edges = automaton.edges_from(st.location)
        if not edges:
            return False
        pending = self._pending[name]
        chosen: Edge | None = None
        chosen_event_index: int | None = None
        best_key: tuple[int, int, int] | None = None
        for order_index, edge in enumerate(edges):
            event_index: int | None = None
            if edge.is_event_triggered:
                assert edge.trigger is not None
                event_index = next(
                    (i for i, ev in enumerate(pending) if ev.root == edge.trigger.root),
                    None)
                if event_index is None:
                    continue
            if not edge.guard.evaluate(st.valuation):
                continue
            key = (-edge.priority, 0 if edge.is_event_triggered else 1, order_index)
            if best_key is None or key < best_key:
                best_key = key
                chosen = edge
                chosen_event_index = event_index
        if chosen is None:
            return False
        trigger_root = None
        if chosen_event_index is not None:
            trigger_root = pending.pop(chosen_event_index).root
        self._take_edge(name, chosen, trigger_root)
        return True

    def _take_edge(self, name: str, edge: Edge, trigger_root: str | None) -> None:
        st = self.state.automata[name]
        new_valuation = edge.reset.apply(st.valuation)
        self.state.automata[name] = AutomatonState(edge.target, new_valuation)
        record = TransitionRecord(self.state.time, name, edge.source, edge.target,
                                  edge.reason, trigger_root, tuple(edge.emits))
        for observer in self.observers:
            observer.on_transition(record)
        for process in self.processes:
            process.notify_transition(self, record)
        for root in edge.emits:
            self._broadcast(root, sender=name)

    def _broadcast(self, root: str, sender: str) -> None:
        """Deliver event ``root`` from ``sender`` to every interested receiver."""
        receivers = self._receivers.get(root)
        if receivers is None:
            receivers = self.system.receivers_of(root)
            self._receivers[root] = receivers
        sender_entity = (self.system.entity_of(sender)
                         if sender in self.system.automata else sender)
        for receiver_name, lossy in receivers:
            if receiver_name == sender:
                continue
            receiver_entity = self.system.entity_of(receiver_name)
            same_entity = sender_entity == receiver_entity
            if lossy and not same_entity:
                delivered = self.network.attempt_delivery(
                    sender_entity, receiver_entity, root, self.state.time)
            else:
                delivered = True
            record = EventRecord(self.state.time, root, sender, receiver_name, delivered,
                                 lossy and not same_entity)
            for observer in self.observers:
                observer.on_event(record)
            if delivered:
                self._pending[receiver_name].append(_PendingEvent(root, sender))

    # -- sampling ----------------------------------------------------------------------
    def _maybe_sample(self, force: bool = False) -> None:
        if not self.record_variables:
            return
        if not force and self.state.time + EPSILON < self._next_sample_time:
            return
        for automaton_name, variable in self.record_variables:
            value = self.state.value_of(automaton_name, variable)
            for observer in self.observers:
                observer.on_sample(automaton_name, variable, self.state.time, value)
        self._next_sample_time = self.state.time + self.sample_interval
