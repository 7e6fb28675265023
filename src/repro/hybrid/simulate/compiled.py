"""Compiled simulation kernel: lower once, mutate flat state, stream observations.

The reference :class:`~repro.hybrid.simulate.engine.SimulationEngine` is a
direct transcription of the paper's semantics: every step it re-derives
flow rates, re-filters edge lists, re-dispatches polymorphic predicates and
allocates a fresh frozen ``AutomatonState``/``Valuation`` pair per member
automaton.  That is ideal as an executable specification and hopeless as a
campaign workhorse.

This module is the production kernel.  :func:`compile_system` lowers a
:class:`~repro.hybrid.system.HybridSystem` into index-based tables built
once per trial:

* locations, edges and variables become integers; valuations become flat
  ``list[float]`` slot arrays mutated in place;
* affine flows become pre-resolved rate vectors (``(slot, rate)`` pairs);
* guards and invariants become generated source
  (:mod:`~repro.hybrid.simulate.programs`): an edge's guard is one
  expression of inline comparisons, and a location's crossings are one
  function with the affine-crossing arithmetic written out, so the
  scheduler evaluates a handful of operations instead of re-walking
  predicate trees; only a generic predicate node keeps a call;
* event roots map to pre-resolved receiver tables (receiver index, lossy
  flag, hosting entity).

:class:`CompiledEngine` executes those tables with the exact control flow
and floating-point arithmetic of the reference engine, so for every seed it
produces **bit-identical** traces, event logs and samples (enforced by
``tests/hybrid/test_compiled_equivalence.py`` and
``tests/hybrid/test_quiet_steps.py``).  Per-step invalidation is
structural rather than numeric: a guard whose watched variable cannot move
in the current location is dropped from the schedule at compile time, and
an automaton's deadline sources only change when its location does.

Quiet steps
-----------
When some runtime sits in a non-affine location (or couplings/recorded
variables ask for sampling), the reference engine steps by ``dt_max``
and, on every step, re-derives every crossing and wakeup, polls every
process and scans every runtime's edges, although almost no step changes
anything discrete.  The compiled engine instead caches *candidates*: one
per runtime (the earliest crossing of its deadline sources, minus a
rounding-drift margin) and one for process wakeups.  While the earliest
of them, the *deadline*, lies beyond ``now + cushion``, a step is
*quiet*: its next time is ``min(now + dt_max, horizon)`` (the value the
full scan would return, since every candidate lies beyond it), no process
is polled, only the runtimes whose location can change state on a plain
sample have their ASAP guards evaluated, and the pre-step couplings are
skipped when the previous step was quiet, fired nothing and the couplings
are idempotent (lowered copy/indicator programs, none reading a slot that
a later one writes).  From the first edge a quiet step fires, the same
round goes on over every later runtime and the normal cascade follows, so
the firing order is the reference's.

Each step runs through the *step program* of the current location
vector, generated once per vector
(:func:`~repro.hybrid.simulate.programs.lower_step`, kept on the
:class:`CompiledSystem` for every later trial and bound per run).
Consecutive quiet steps run in it as one *stretch*, a loop that calls
no Python function but the observers' ``on_sample``: the locations'
clock increments and RK4 bodies, the couplings as slot moves, the
watched ASAP guards as inline comparisons (their EPSILON tolerance
folded into the bound) and sampling, which reads the recorded slots and
calls each observer's ``on_sample``, are all inline.  The stretch ends when a step fires, a generic coupling
invalidates the cache, the horizon is reached or the next step is not
quiet; that step runs as the program's *full step*, whose continuous
phase, couplings and sampling are the same inline blocks.
A static-affine location's candidate comes from one generated function
(:func:`~repro.hybrid.simulate.programs.lower_derive`) that transcribes
every crossing of its deadline sources, And/Or probes included, and the
discrete phase tests each edge's generated guard
(:func:`~repro.hybrid.simulate.programs.lower_guard`).  A shape the
generators cannot express keeps its call: a generic flow or coupling, a
kernel the RK4 translator rejects, a generic predicate node.

The *cushion* is ``dt_max + max(EPSILON, EPSILON/|r|)`` for the smallest
rate ``|r|`` of a moving leaf in any cacheable location:
``evaluate``'s ``EPSILON`` tolerance lets such a leaf turn true
``EPSILON/|r|`` seconds before its computed crossing, and a process is
woken up to ``EPSILON`` before its wakeup.  A *full* step derives again
only the candidates that are invalid or within the cushion, polls the
processes only when the wakeup candidate is, and its discrete phase scans
only runtimes that have a pending event, an invalid or near candidate, or
a location that needs quiet scans.  ``_take_edge`` drops the firing
runtime's candidate and the wakeup candidate (``notify_transition`` may
move a wakeup); ``set_variable``, ``inject_event``, a process ``wake``
and ``_initialize`` drop every candidate.  When no runtime needs sampling
any more while candidates are kept, all of them are derived again, since
a kept one could now set the next time.

A runtime's candidate is cached only when sampling is requested, its
location is not dynamic-affine, and every deadline source is fully
lowered (True/False/Linear/Box/Not/And/Or), reads no *hazard* slot and
returned ``inf`` or a finite delay ``> EPSILON``.  A hazard slot is a
coupling target (overwritten every step) or a slot whose rate ``r``
satisfies ``0 < |r| <= max(EPSILON, EPSILON/dt_max)``: a leaf on it turns
true ``EPSILON/|r| >= dt_max`` seconds before its computed crossing, or
(at ``|r| <= EPSILON``) without any computed crossing at all.  The wakeup
candidate is not cached while a process's ``next_wakeup`` is ``NaN`` or
``-inf`` (never a candidate, yet woken on every step), so such a process
keeps every step full.  A runtime is scanned on quiet steps when its
location is not static-affine and has ASAP edges, or when one of its ASAP
guards is a generic predicate or reads a hazard slot; a slot with rate
exactly 0 that no coupling writes cannot change, so it needs no scan.

Soundness rests on four facts.  *Monotone candidates:* under static rates
a leaf's absolute candidate goes crossing -> now -> later crossing or
``inf``, and min/max/probes keep that order, so between invalidations no
crossing's candidate moves earlier than its cached value except by the
effects below.  *Locality:* a runtime's candidate and guards read only its
own slots; a transition resets only the firing runtime's slots, coupled
slots are hazards, and every other write drops every candidate, so only
the firing runtime's candidate can go stale, and a receiver of its events
is scanned for them.  *Tolerance:* after its drift margin a kept candidate
lies beyond ``now + dt_max + EPSILON/|r|``, so the sample cap, not the
candidate, sets ``next_time``; no process wakes at the landing time; and
no guard of an unscanned runtime can hold there within its ``EPSILON/|r|``
tolerance.  *Rounding drift:* ``values[slot] += rate*dt`` accumulates
rounding, so a recomputed crossing drifts from the cached one by up to an
ulp of ``|x|/|r|`` per step, plus a few ulps of ``|t| + (|x|+|theta|)/|r|``
for evaluating the crossing formula.  Each cached candidate is stored
minus :meth:`CompiledEngine._drift_margin`, a bound on that drift over
every step left before it, computed from the runtime's live slot values
(a wakeup has only the time terms).  The counters ``steps``,
``quiet_steps`` and ``rescans`` (candidate derivations) report the work
of the last run; ``steps`` counts the reference engine's main-loop
iterations, and a stretch brings it up to date before any firing or
sample.  ``tools/engine_mutants.py`` checks that the fixed systems of
``tests/hybrid/test_quiet_steps.py`` catch a breach of each rule.

A run may pause on a step boundary (``start``, ``advance(until)``,
``finish``) and be copied with :func:`copy.deepcopy`; the copy binds its
own coupling and step programs.

Observation goes through the same
:class:`~repro.hybrid.simulate.observers.TraceObserver` pipeline as the
reference engine; run with ``record_trace=False`` plus streaming observers
and the kernel retains no per-step history at all.
"""

from __future__ import annotations

import copy
import math
import sys
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Sequence

from repro.errors import SimulationError, ZenoError
from repro.hybrid.automaton import HybridAutomaton
from repro.hybrid.edges import Edge
from repro.hybrid.expressions import (And, BoxPredicate, FalsePredicate, LinearInequality,
                                      Not, Or, Predicate, TruePredicate)
from repro.hybrid.flows import CompositeFlow, ConstantFlow, Flow
from repro.hybrid.simulate.engine import Network, _PendingEvent, remap_wakes
from repro.hybrid.simulate.observers import TraceObserver, TraceRecorder
from repro.hybrid.simulate.processes import (Coupling, EnvironmentProcess,
                                             LocationIndicatorCoupling,
                                             VariableCopyCoupling)
from repro.hybrid.simulate.programs import lower_derive, lower_guard, lower_step
from repro.hybrid.system import HybridSystem
from repro.hybrid.trace import EventRecord, Trace, TransitionRecord
from repro.hybrid.variables import Valuation
from repro.util.seeding import spawn_rng
from repro.util.timebase import EPSILON

class SlotValuation(Mapping[str, float]):
    """Read-only :class:`Valuation`-compatible view over a slot array.

    Generic predicates, callable flows and reset functions written against
    the dict-based :class:`~repro.hybrid.variables.Valuation` interface run
    unchanged against the compiled kernel's mutable state through this
    view.  Slots the reference valuation never contained hold ``0.0``,
    which is indistinguishable from a missing key under the library-wide
    ``get(name, 0.0)`` convention.
    """

    __slots__ = ("_slots", "_values")

    def __init__(self, slots: Dict[str, int], values: List[float]):
        self._slots = slots
        self._values = values

    def __getitem__(self, key: str) -> float:
        return self._values[self._slots[key]]

    def __iter__(self) -> Iterator[str]:
        return iter(self._slots)

    def __len__(self) -> int:
        return len(self._slots)

    def get(self, key: str, default: float = 0.0) -> float:
        index = self._slots.get(key)
        return default if index is None else self._values[index]

    def as_dict(self) -> Dict[str, float]:
        return {name: self._values[index] for name, index in self._slots.items()}

    def updated(self, changes: Mapping[str, float]) -> Valuation:
        # Same arithmetic as Valuation.updated on an equal dict.
        merged = self.as_dict()
        merged.update({k: float(v) for k, v in changes.items()})
        return Valuation(merged)

    def advanced(self, rates: Mapping[str, float], dt: float) -> Valuation:
        # Same arithmetic as Valuation.advanced on an equal dict.
        if dt < 0:
            raise ValueError("dt must be non-negative")
        merged = self.as_dict()
        for name, rate in rates.items():
            merged[name] = merged.get(name, 0.0) + rate * dt
        return Valuation(merged)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v:.6g}" for k, v in sorted(self.as_dict().items()))
        return f"SlotValuation({inner})"


# ---------------------------------------------------------------------------
# Lowering (model layer): HybridSystem -> index-based tables
# ---------------------------------------------------------------------------

def _predicate_variables(predicate: Predicate) -> set[str]:
    """Variable names a predicate reads, as far as statically known."""
    if isinstance(predicate, (LinearInequality,)):
        return {predicate.variable}
    if isinstance(predicate, BoxPredicate):
        return {predicate.variable}
    if isinstance(predicate, Not):
        return _predicate_variables(predicate.operand)
    operands = getattr(predicate, "operands", None)
    if operands is not None:
        names: set[str] = set()
        for operand in operands:
            names |= _predicate_variables(operand)
        return names
    return set()


def _flow_variables(flow: Flow) -> set[str]:
    """Variable names a flow may drive (including zero-rate declarations)."""
    if isinstance(flow, ConstantFlow):
        return set(flow.derivatives)
    if isinstance(flow, CompositeFlow):
        names: set[str] = set()
        for part in flow.parts:
            names |= _flow_variables(part)
        return names
    try:
        return set(flow.driven_variables())
    except NotImplementedError:  # pragma: no cover - defensive
        return set()


def _static_rates(flow: Flow) -> Dict[str, float] | None:
    """The flow's exact ``rates()`` result when it is valuation-independent."""
    if isinstance(flow, ConstantFlow):
        return dict(flow.derivatives)
    if isinstance(flow, CompositeFlow) and all(isinstance(p, ConstantFlow)
                                               for p in flow.parts):
        return flow.rates(Valuation({}))
    return None


def _skips(predicate: Predicate, rates: Mapping[str, float]) -> bool:
    """Whether ``predicate``'s crossing is ``0.0`` or ``inf`` for every
    valuation under ``rates``: never a finite positive deadline, never a
    sampling request, so the scheduler skips it.

    True/False, and a Linear/Box leaf whose rate is at most ``EPSILON``
    (already there, or frozen), looking through Not.
    """
    while isinstance(predicate, Not):
        predicate = predicate.operand
    if isinstance(predicate, (LinearInequality, BoxPredicate)):
        return abs(rates.get(predicate.variable, 0.0)) <= EPSILON
    return isinstance(predicate, (TruePredicate, FalsePredicate))


def _lowered_leaves(predicate: Predicate) -> list | None:
    """The Linear/Box leaves of a fully lowered predicate tree.

    ``None`` when the tree holds any other node type: a generic
    predicate's ``time_until_*``/``evaluate`` may read anything.
    """
    if isinstance(predicate, (TruePredicate, FalsePredicate)):
        return []
    if isinstance(predicate, (LinearInequality, BoxPredicate)):
        return [predicate]
    if isinstance(predicate, Not):
        return _lowered_leaves(predicate.operand)
    if isinstance(predicate, (And, Or)):
        leaves = []
        for operand in predicate.operands:
            part = _lowered_leaves(operand)
            if part is None:
                return None
            leaves += part
        return leaves
    return None


def _leaf_bound(leaf: LinearInequality | BoxPredicate) -> float:
    """Largest threshold magnitude of a Linear/Box leaf."""
    if isinstance(leaf, BoxPredicate):
        return max(abs(leaf.low), abs(leaf.high))
    return abs(leaf.threshold)


def _leaf_slots(predicates: Iterable[Predicate],
                slot_of: Mapping[str, int]) -> frozenset | None:
    """Slots the fully lowered ``predicates`` read (``None``: not lowered)."""
    slots = set()
    for predicate in predicates:
        leaves = _lowered_leaves(predicate)
        if leaves is None:
            return None
        slots.update(slot_of[leaf.variable] for leaf in leaves)
    return frozenset(slots)


class CompiledEdge:
    """One lowered edge: integer target, pre-solved guard, flat reset."""

    __slots__ = ("edge", "source_name", "target_name", "target_index",
                 "trigger_root", "guard_program", "assignments", "emits",
                 "reason", "key")

    def __init__(self, edge: Edge, order_index: int, target_index: int,
                 slot_of: Mapping[str, int], code_cache: Dict[str, object]):
        self.edge = edge
        self.source_name = edge.source
        self.target_name = edge.target
        self.target_index = target_index
        self.trigger_root = edge.trigger.root if edge.trigger is not None else None
        self.guard_program = lower_guard(edge.guard, slot_of, code_cache)
        if edge.reset.function is None:
            self.assignments = tuple((slot_of[name], float(value))
                                     for name, value in edge.reset.assignments.items())
        else:
            self.assignments = None
        self.emits = tuple(edge.emits)
        self.reason = edge.reason
        # Same priority key the reference engine builds per enabled edge.
        self.key = (-edge.priority, 0 if edge.trigger is not None else 1, order_index)


class CompiledLocation:
    """One lowered location: rate vector, deadline sources, edge table."""

    __slots__ = ("name", "index", "slot_of", "flow", "affine", "invariant", "risky",
                 "static_rates", "const_items", "edges",
                 "asap_edges", "has_asap", "deadline_sources",
                 "derive", "program_slots", "guard_slots", "drift_terms")

    def __init__(self, automaton: HybridAutomaton, name: str, index: int,
                 loc_index: Mapping[str, int], slot_of: Mapping[str, int],
                 code_cache: Dict[str, object]):
        location = automaton.location(name)
        self.name = name
        self.index = index
        self.slot_of = slot_of
        self.flow = location.flow
        self.affine = location.flow.is_affine
        self.invariant = location.invariant
        self.risky = location.risky
        self.static_rates = _static_rates(location.flow)
        if self.static_rates is not None:
            self.const_items = tuple((slot_of[var], rate)
                                     for var, rate in self.static_rates.items()
                                     if rate != 0.0)
        else:
            self.const_items = None
        source_edges = [e for e in automaton.edges if e.source == name]
        self.edges = tuple(CompiledEdge(edge, order_index, loc_index[edge.target],
                                        slot_of, code_cache)
                           for order_index, edge in enumerate(source_edges))
        self.asap_edges = tuple(ce for ce in self.edges if ce.trigger_root is None)
        self.has_asap = bool(self.asap_edges)
        #: ``(predicate, want)`` of each crossing the scheduler derives (ASAP
        #: guards until true, then the invariant until false), and the
        #: generated function deriving the location's candidate from them
        #: (built on first use).  Only affine locations with static rates
        #: have them; dynamic-affine and non-affine locations are handled
        #: generically by the scheduler.
        self.deadline_sources = ()
        self.derive = None
        # Quiet-step facts: slots read by the deadline sources / ASAP
        # guards (None = some predicate is not fully lowered), and the
        # (slot, |threshold|, 1/|rate|) of every moving source leaf.
        self.guard_slots = _leaf_slots((ce.edge.guard for ce in self.asap_edges),
                                       slot_of)
        self.program_slots = frozenset()
        self.drift_terms = ()
        if self.affine and self.static_rates is not None:
            self.deadline_sources = tuple(
                (predicate, want)
                for predicate, want in [*((ce.edge.guard, True) for ce in self.asap_edges),
                                        (self.invariant, False)]
                if not _skips(predicate, self.static_rates))
            sources = [predicate for predicate, _ in self.deadline_sources]
            self.program_slots = _leaf_slots(sources, slot_of)
            if self.program_slots is not None:
                self.drift_terms = tuple(
                    (slot_of[leaf.variable], _leaf_bound(leaf), 1.0 / abs(rate))
                    for source in sources for leaf in _lowered_leaves(source)
                    if (rate := self.static_rates.get(leaf.variable, 0.0)) != 0.0)


class CompiledAutomaton:
    """One lowered member automaton: slot map, location table, initial state."""

    __slots__ = ("name", "index", "entity", "slot_of", "initial_values",
                 "initial_location", "locations", "loc_index", "risky_locations")

    def __init__(self, automaton: HybridAutomaton, index: int, entity: str,
                 code_cache: Dict[str, object]):
        automaton.validate()
        self.name = automaton.name
        self.index = index
        self.entity = entity
        names: Dict[str, None] = dict.fromkeys(automaton.variables)
        names.update(dict.fromkeys(automaton.initial_valuation))
        for location in automaton.locations.values():
            names.update(dict.fromkeys(sorted(_flow_variables(location.flow))))
            names.update(dict.fromkeys(
                sorted(_predicate_variables(location.invariant))))
        for edge in automaton.edges:
            names.update(dict.fromkeys(sorted(_predicate_variables(edge.guard))))
            names.update(dict.fromkeys(edge.reset.assignments))
        self.slot_of: Dict[str, int] = {name: i for i, name in enumerate(names)}
        initial = automaton.initial_valuation
        self.initial_values = [initial.get(name, 0.0) for name in names]
        self.loc_index: Dict[str, int] = {name: i
                                          for i, name in enumerate(automaton.locations)}
        if automaton.initial_location is None:
            raise SimulationError(
                f"automaton {automaton.name!r} has no initial location")
        self.initial_location = self.loc_index[automaton.initial_location]
        self.locations = tuple(
            CompiledLocation(automaton, name, i, self.loc_index, self.slot_of, code_cache)
            for name, i in self.loc_index.items())
        self.risky_locations = set(automaton.risky_locations)


class CompiledSystem:
    """A hybrid system lowered to index-based tables (built once per trial)."""

    def __init__(self, system: HybridSystem):
        self.system = system
        #: The code of every generated program by its source text (many
        #: guards, locations and vectors share one).
        self.program_code: Dict[str, object] = {}
        self.automata: tuple[CompiledAutomaton, ...] = tuple(
            CompiledAutomaton(automaton, index, system.entity_of(name), self.program_code)
            for index, (name, automaton) in enumerate(system.automata.items()))
        self.index_of: Dict[str, int] = {ca.name: ca.index for ca in self.automata}
        self.entity_of: Dict[str, str] = {ca.name: ca.entity for ca in self.automata}
        #: root -> ((receiver automaton index, receiver name, lossy, entity), ...)
        self.receivers: Dict[str, tuple[tuple[int, str, bool, str], ...]] = {}
        #: Step programs (:func:`~repro.hybrid.simulate.programs.lower_step`),
        #: built on demand per location vector and engine plan and kept for
        #: every later trial.
        self.step_programs: Dict[tuple, Callable] = {}
        #: Quiet-step plans (:meth:`CompiledEngine._plan_quiet_steps`) by
        #: coupling layout and ``dt_max``.
        self.quiet_plans: Dict[tuple, tuple] = {}
        for ca in self.automata:
            for root in system.automata[ca.name].received_roots():
                if root not in self.receivers:
                    self.receivers[root] = self._lower_receivers(root)

    def _lower_receivers(self, root: str) -> tuple[tuple[int, str, bool, str], ...]:
        return tuple((self.index_of[name], name, lossy, self.entity_of[name])
                     for name, lossy in self.system.receivers_of(root))

    def receivers_of(self, root: str) -> tuple[tuple[int, str, bool, str], ...]:
        table = self.receivers.get(root)
        if table is None:
            table = self._lower_receivers(root)
            self.receivers[root] = table
        return table


def compile_system(system: HybridSystem) -> CompiledSystem:
    """Lower ``system`` into the compiled kernel's index-based tables."""
    return CompiledSystem(system)


def _is_lowered_coupling(coupling: Coupling) -> bool:
    """Whether the engine runs ``coupling`` as a direct slot move."""
    return (type(coupling) is LocationIndicatorCoupling
            or (type(coupling) is VariableCopyCoupling and coupling.transform is None))


# ---------------------------------------------------------------------------
# State layer: array-backed mutable state behind the SystemState read API
# ---------------------------------------------------------------------------

class _AutomatonRuntime:
    """Mutable hot-loop state of one member automaton (slots, not objects)."""

    __slots__ = ("ca", "name", "slots", "values", "view", "loc", "location",
                 "pending", "cache_ok", "quiet_scan", "deadline")

    def __init__(self, ca: CompiledAutomaton):
        self.ca = ca
        self.name = ca.name
        self.slots: Dict[str, int] = dict(ca.slot_of)
        self.values: List[float] = list(ca.initial_values)
        self.view = SlotValuation(self.slots, self.values)
        self.loc: int = ca.initial_location
        self.location: CompiledLocation = ca.locations[self.loc]
        self.pending: List[_PendingEvent] = []
        # Per location index: may its crossing candidate be cached, and must
        # its edges be scanned on quiet steps (set by the engine).
        self.cache_ok: tuple[bool, ...] = ()
        self.quiet_scan: tuple[bool, ...] = ()
        #: Cached crossing candidate minus its drift margin; ``-inf`` when
        #: it must be derived again.
        self.deadline: float = -math.inf

    def move_to(self, target_index: int) -> None:
        self.loc = target_index
        self.location = self.ca.locations[target_index]

    def set(self, name: str, value: float) -> None:
        slot = self.slots.get(name)
        if slot is None:
            slot = len(self.values)
            self.slots[name] = slot
            self.values.append(0.0)
        self.values[slot] = value

    def get(self, name: str, default: float = 0.0) -> float:
        slot = self.slots.get(name)
        return default if slot is None else self.values[slot]


class CompiledAutomatonState:
    """Read view of one automaton's runtime, shaped like ``AutomatonState``."""

    __slots__ = ("_runtime",)

    def __init__(self, runtime: _AutomatonRuntime):
        self._runtime = runtime

    @property
    def location(self) -> str:
        return self._runtime.location.name

    @property
    def valuation(self) -> SlotValuation:
        return self._runtime.view


class CompiledSystemState:
    """Joint state of a compiled run, exposing the ``SystemState`` read API.

    Couplings, environment processes and tests read simulation state
    through :meth:`location_of` / :meth:`value_of` / ``automata[...]``
    exactly as with the reference engine; the backing storage is the flat
    per-automaton slot arrays.
    """

    def __init__(self, runtimes: Sequence[_AutomatonRuntime]):
        self.time: float = 0.0
        self._by_name: Dict[str, _AutomatonRuntime] = {rt.name: rt
                                                       for rt in runtimes}
        self.automata: Dict[str, CompiledAutomatonState] = {
            rt.name: CompiledAutomatonState(rt) for rt in runtimes}

    def runtime(self, automaton_name: str) -> _AutomatonRuntime:
        return self._by_name[automaton_name]

    def location_of(self, automaton_name: str) -> str:
        return self._by_name[automaton_name].location.name

    def value_of(self, automaton_name: str, variable: str,
                 default: float = 0.0) -> float:
        return self._by_name[automaton_name].get(variable, default)


# ---------------------------------------------------------------------------
# Scheduling + discrete execution
# ---------------------------------------------------------------------------

class CompiledEngine:
    """Execute a compiled hybrid system with reference-identical semantics.

    Drop-in counterpart of
    :class:`~repro.hybrid.simulate.engine.SimulationEngine`: same
    constructor arguments (plus ``observers`` / ``record_trace``), same
    public helpers (``now``, ``state``, ``inject_event``, ``set_variable``,
    ``location_of``), and bit-identical traces for
    every seed.  Accepts either a :class:`~repro.hybrid.system.HybridSystem`
    (lowered on the spot) or a pre-built :class:`CompiledSystem`.
    """

    kind = "compiled"

    def __init__(self, system: HybridSystem | CompiledSystem, *,
                 network: Network | None = None,
                 processes: Sequence[EnvironmentProcess] = (),
                 couplings: Sequence[Coupling] = (),
                 seed: int | None = None,
                 dt_max: float = 0.1,
                 max_cascade: int = 200,
                 record_variables: Iterable[tuple[str, str]] = (),
                 sample_interval: float = 0.25,
                 observers: Sequence[TraceObserver] = (),
                 record_trace: bool = True):
        self.compiled = (system if isinstance(system, CompiledSystem)
                         else compile_system(system))
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
        if self._recorder is not None:
            self._recorder.trace = Trace(self.system.risky_locations())
        # Runtimes, state and coupling programs are built per run by
        # _initialize.
        self._runtimes: List[_AutomatonRuntime] = []
        self.state = CompiledSystemState(self._runtimes)
        self._coupling_programs: List[Callable[[], None]] = []
        self._next_sample_time = 0.0
        self._time_of_last_wake: Dict[int, float] = {}
        self._horizon = 0.0
        self._base_needs_sampling = False
        #: Global steps of the last run, how many of them were quiet, and
        #: how many per-automaton candidate derivations its full steps made.
        self.steps = 0
        self.quiet_steps = 0
        self.rescans = 0
        #: Earliest cached candidate (runtimes and wakeups), the cached
        #: wakeup candidate, and the distance quiet steps keep from both
        #: (set per run by _plan_quiet_steps).
        self._deadline = -math.inf
        self._wake_at = -math.inf
        self._cushion = math.inf
        self._settled = False
        self._couplings_idempotent = False
        self._coupling_layout: tuple = ()
        #: Bound step programs of this run, by location vector.
        self._steps: Dict[tuple, Callable[[float, int | None], None]] = {}

    # -- public helpers ---------------------------------------------------------
    @property
    def system(self) -> HybridSystem:
        """The hybrid system the tables were lowered from."""
        # A property, not an attribute: with 30 instance attributes CPython
        # gives up the shared-key layout that keeps the hot loops' attribute
        # access fast.
        return self.compiled.system

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
        self._invalidate()
        self.state.runtime(automaton_name).set(variable, float(value))

    def inject_event(self, root: str, *, sender: str = "environment") -> None:
        """Broadcast an event from the environment at the current instant."""
        self._invalidate()
        self._broadcast(root, sender)

    def location_of(self, automaton_name: str) -> str:
        """Current location of a member automaton."""
        return self.state.location_of(automaton_name)

    # -- main loop ----------------------------------------------------------------
    def run(self, horizon: float) -> Trace | None:
        """Run the simulation from time zero up to ``horizon`` seconds."""
        self.start(horizon)
        self.advance()
        return self.finish()

    def start(self, horizon: float) -> None:
        """Begin a run to ``horizon``: reset the network and initialize at t=0.

        Same contract as :meth:`SimulationEngine.start
        <repro.hybrid.simulate.engine.SimulationEngine.start>`: a run
        paused between two :meth:`advance` calls sits on a step boundary
        and may be copied with :func:`copy.deepcopy`.
        """
        if horizon <= 0:
            raise SimulationError("simulation horizon must be positive")
        self._horizon = horizon
        self.network.reset(self.seed)
        self._initialize()

    def advance(self, until: int | None = None) -> None:
        """Run steps up to the horizon, or until ``until`` steps are complete."""
        horizon = self._horizon
        end = horizon - EPSILON
        limit = sys.maxsize if until is None else until
        state = self.state
        runtimes = self._runtimes
        steps = self._steps
        while state.time < end and self.steps < limit:
            key = tuple([rt.loc for rt in runtimes])
            (steps.get(key) or self._bind_step(key))(horizon, until)

    def finish(self) -> Trace | None:
        """End the run at its horizon and return the trace (see :meth:`run`)."""
        # The bound step programs hold the engine: release them with the run.
        self._steps.clear()
        for observer in self.observers:
            observer.end_run(self._horizon)
        return self.trace

    def __deepcopy__(self, memo: dict) -> "CompiledEngine":
        # Coupling and step programs are closures over this run's runtimes:
        # the copy binds its own, never shares them.
        clone = object.__new__(type(self))
        memo[id(self)] = clone
        for name, value in self.__dict__.items():
            if name not in ("_coupling_programs", "_steps"):
                setattr(clone, name, copy.deepcopy(value, memo))
        # A copy made before start() has no runtimes, so no programs yet.
        clone._coupling_programs = ([clone._lower_coupling(c) for c in clone.couplings]
                                    if clone._runtimes else [])
        clone._steps = {}
        clone._time_of_last_wake = remap_wakes(self._time_of_last_wake, memo)
        return clone

    # -- initialization -----------------------------------------------------------
    def _initialize(self) -> None:
        self._runtimes = [_AutomatonRuntime(ca) for ca in self.compiled.automata]
        self.state = CompiledSystemState(self._runtimes)
        # Re-derived from the live lists so that couplings/record_variables
        # mutated after construction behave exactly as on the reference
        # engine (which re-checks them on every scan).
        self._coupling_programs = [self._lower_coupling(c) for c in self.couplings]
        self._base_needs_sampling = bool(self.couplings) or bool(self.record_variables)
        self._next_sample_time = 0.0
        self._time_of_last_wake = {}
        self.steps = 0
        self.quiet_steps = 0
        self.rescans = 0
        self._steps.clear()
        self._invalidate()
        self._plan_quiet_steps()
        risky = self.system.risky_locations()
        for observer in self.observers:
            observer.begin_run(risky)
        for rt in self._runtimes:
            for observer in self.observers:
                observer.register_automaton(rt.name, rt.location.name,
                                            rt.ca.risky_locations)
        for process in self.processes:
            process.initialize(self)
        self._apply_couplings()
        self._wake_processes()
        self._process_discrete()
        self._maybe_sample(force=True)

    # -- quiet steps ------------------------------------------------------------------
    def _invalidate(self) -> None:
        """Drop every cached candidate: state changed outside the step's plan."""
        self._deadline = -math.inf
        self._wake_at = -math.inf
        self._settled = False
        for rt in self._runtimes:
            rt.deadline = -math.inf

    def _plan_quiet_steps(self) -> None:
        """Set cache/scan eligibility and the cushion (see module docstring).

        The plan reads only the coupling layout and ``dt_max``, so it is
        derived once per pair and kept on the :class:`CompiledSystem`.
        """
        layout = tuple(self._layout_coupling(k, coupling)
                       for k, coupling in enumerate(self.couplings))
        key = (layout, self.dt_max)
        plan = self.compiled.quiet_plans.get(key)
        if plan is None:
            plan = self.compiled.quiet_plans[key] = self._derive_plan(layout)
        self._coupling_layout = layout
        self._couplings_idempotent, tables, self._cushion = plan
        for rt, (cache_ok, quiet_scan) in zip(self._runtimes, tables):
            rt.cache_ok = cache_ok
            rt.quiet_scan = quiet_scan

    def _derive_plan(self, layout: tuple) -> tuple:
        """``(idempotent, ((cache_ok, quiet_scan) per runtime), cushion)``."""
        coupled: List[set] = [set() for _ in self._runtimes]
        written: set[tuple[int, int]] = set()
        idempotent = True
        for item in reversed(layout):
            if item[0] == "call" and len(item) == 2:
                idempotent = False
                continue
            target = (item[-2], item[-1])
            coupled[target[0]].add(target[1])
            if item[0] == "copy" and (item[1], item[2]) in written:
                idempotent = False
            written.add(target)
        tiny = max(EPSILON, EPSILON / self.dt_max)
        inv_rate = 0.0
        tables = []
        for rt, hazards_of_rt in zip(self._runtimes, coupled):
            cache_ok, quiet_scan = [], []
            for loc in rt.ca.locations:
                if loc.static_rates is None:
                    # Non-affine locations have no deadline sources;
                    # dynamic-affine ones are never cached.
                    cache_ok.append(not loc.affine)
                    quiet_scan.append(loc.has_asap)
                    continue
                hazards = hazards_of_rt | {
                    rt.ca.slot_of[name] for name, rate in loc.static_rates.items()
                    if rate != 0.0 and abs(rate) <= tiny}
                cache_ok.append(loc.program_slots is not None
                                and not loc.program_slots & hazards)
                quiet_scan.append(loc.has_asap and (loc.guard_slots is None
                                                    or bool(loc.guard_slots & hazards)))
                if cache_ok[-1]:
                    inv_rate = max([inv_rate, *(term[2] for term in loc.drift_terms)])
            tables.append((tuple(cache_ok), tuple(quiet_scan)))
        # The widest EPSILON/|r| tolerance of a cached leaf, and at least
        # EPSILON (a process wakes up to EPSILON early).
        cushion = self.dt_max + max(EPSILON, EPSILON * inv_rate)
        return idempotent, tuple(tables), cushion

    def _layout_coupling(self, index: int, coupling: Coupling) -> tuple:
        """How a step program runs ``coupling``: a slot move or a call.

        A lowered coupling's item ends with the ``target, slot`` it writes
        on every step; only a generic coupling's item is ``("call", index)``.
        """
        if _is_lowered_coupling(coupling):
            source = self.compiled.index_of[coupling.source_automaton]
            target = self.compiled.index_of[coupling.target_automaton]
            slot = self._runtimes[target].slots[coupling.target_variable]
            if type(coupling) is LocationIndicatorCoupling:
                return ("indicator", source, frozenset(coupling.source_locations),
                        float(coupling.true_value), float(coupling.false_value),
                        target, slot)
            source_slot = self._runtimes[source].slots.get(coupling.source_variable)
            if source_slot is not None:
                return ("copy", source, source_slot, target, slot)
            # No coupling writes the source: its program copies the default.
            return ("call", index, target, slot)
        return ("call", index)

    def _bind_step(self, key: tuple) -> Callable[[float, int | None], None]:
        """The step program for location vector ``key``, bound to this run."""
        watched = tuple(index for index, rt in enumerate(self._runtimes)
                        if rt.quiet_scan[key[index]])
        # The recorded slots, or None: a variable without a slot at lowering
        # (or a name the program cannot spell) samples through the engine.
        samples = []
        for name, variable in self.record_variables:
            index = self.compiled.index_of.get(name)
            slot = None if index is None else self.compiled.automata[index].slot_of.get(variable)
            if slot is None or type(name) is not str or type(variable) is not str:
                samples = None
                break
            samples.append((index, slot, name, variable))
        code_key = (key, self._coupling_layout, watched,
                    samples if samples is None else tuple(samples), len(self.observers),
                    self._couplings_idempotent)
        programs = self.compiled.step_programs
        bind = programs.get(code_key)
        if bind is None:
            locations = [ca.locations[loc] for ca, loc in zip(self.compiled.automata, key)]
            bind = programs[code_key] = lower_step(locations, *code_key[1:],
                                                   self.compiled.program_code)
        step = self._steps[key] = bind(self)
        return step

    def _drift_margin(self, now: float, deadline: float,
                      rt: _AutomatonRuntime | None = None) -> float:
        """Bound on how far rounding moves ``rt``'s cached crossing before ``deadline``.

        Each step adds at most an ulp of ``|x| <= |x0| + |r|*(deadline -
        now)`` to a moving slot, i.e. an ulp of ``|x0|/|r| + (deadline -
        now)`` seconds to its crossing, and evaluating a crossing costs a
        few ulps of ``|t| + (|x| + |theta|)/|r|``; the margin is 16 ulps of
        the largest such scale per remaining step, plus two steps.  A
        wakeup (``rt`` is ``None``) only needs the time terms.
        """
        scale = 0.0
        if rt is not None:
            values = rt.values
            for slot, bound, inv_rate in rt.location.drift_terms:
                term = (abs(values[slot]) + bound) * inv_rate
                if term > scale:
                    scale = term
        scale += abs(deadline) + (deadline - now)
        steps = (deadline - now) / self.dt_max + 2.0
        return 16.0 * sys.float_info.epsilon * steps * scale

    # -- continuous phase -----------------------------------------------------------
    def _lower_coupling(self, coupling: Coupling):
        """Compile the two canonical coupling shapes into direct slot moves.

        Exactly the reads and writes their ``apply`` would perform through
        the engine API; anything else (subclasses, transforms) falls back
        to ``coupling.apply(self)``.
        """
        if not _is_lowered_coupling(coupling):
            return lambda: coupling.apply(self)
        source = self.state.runtime(coupling.source_automaton)
        target = self.state.runtime(coupling.target_automaton)
        target.set(coupling.target_variable, target.get(coupling.target_variable))
        slot = target.slots[coupling.target_variable]
        if type(coupling) is LocationIndicatorCoupling:
            wanted = frozenset(coupling.source_locations)
            true_value = float(coupling.true_value)
            false_value = float(coupling.false_value)

            def indicator_program(values=target.values, slot=slot):
                values[slot] = (true_value if source.location.name in wanted
                                else false_value)

            return indicator_program
        source_variable = coupling.source_variable

        def copy_program(values=target.values, slot=slot):
            values[slot] = source.get(source_variable, 0.0)

        return copy_program

    def _apply_couplings(self) -> None:
        for program in self._coupling_programs:
            program()

    def _next_time(self, horizon: float) -> float:
        """Earliest relevant future instant (guard crossing, wakeup, sample cap).

        Derives again only the candidates that are invalid or within the
        cushion; a kept one lies beyond the sample cap.  Records each
        derived candidate and the earliest of all for quiet steps (see
        the module docstring).
        """
        now = self.state.time
        near = now + self._cushion
        best = math.inf
        needs_sampling = self._base_needs_sampling
        kept = False
        derived = []
        for rt in self._runtimes:
            if not rt.location.affine:
                needs_sampling = True
            if rt.deadline > near:
                kept = True
                continue
            self.rescans += 1
            derive = rt.location.derive
            if derive is None:
                candidate, cacheable, samples = self._derive(rt, now)
            else:
                candidate, cacheable, samples = derive(rt.values, rt.view, now,
                                                       rt.cache_ok[rt.loc])
            if samples:
                needs_sampling = True
            if candidate < best:
                best = candidate
            derived.append((rt, candidate, cacheable))
        wake_ok = True
        if self._wake_at > near:
            kept = True
        else:
            wake_at = math.inf
            for process in self.processes:
                wakeup = process.next_wakeup(now)
                if wakeup is None:
                    continue
                if math.isfinite(wakeup):
                    candidate = max(wakeup, now)
                    if candidate < wake_at:
                        wake_at = candidate
                elif not wakeup > now:
                    # NaN or -inf: never a candidate, yet woken every step.
                    wake_ok = False
            if wake_at < best:
                best = wake_at
            derived.append((None, wake_at, wake_ok))
        if kept and not needs_sampling:
            # A kept candidate may now set the next time: derive them all.
            self._invalidate()
            return self._next_time(horizon)
        for rt, candidate, cacheable in derived:
            if not (cacheable and needs_sampling):
                candidate = -math.inf
            elif near < candidate < math.inf:
                candidate -= self._drift_margin(now, candidate, rt)
            if rt is None:
                self._wake_at = candidate
            else:
                rt.deadline = candidate
        deadline = self._wake_at
        for rt in self._runtimes:
            if rt.deadline < deadline:
                deadline = rt.deadline
        self._deadline = deadline
        if needs_sampling:
            candidate = now + self.dt_max
            if candidate < best:
                best = candidate
        next_time = min(best, horizon)
        if next_time <= now + EPSILON:
            next_time = min(now + _MIN_ADVANCE, horizon)
        return next_time

    def _derive(self, rt: _AutomatonRuntime, now: float) -> tuple[float, bool, bool]:
        """``rt``'s earliest crossing candidate, whether it may be cached,
        and whether its location needs sampling steps."""
        loc = rt.location
        best = math.inf
        if not loc.affine:
            return best, rt.cache_ok[loc.index], True
        needs_sampling = False
        if loc.static_rates is None:
            # Affine flow of unknown shape: reference semantics, with
            # rates re-derived from the live valuation; never cached.
            rates = loc.flow.rates(rt.view)
            for ce in loc.asap_edges:
                delay = ce.edge.guard.time_until_true(rt.view, rates)
                if delay is None:
                    needs_sampling = True
                elif math.isfinite(delay) and delay > EPSILON:
                    candidate = now + delay
                    if candidate < best:
                        best = candidate
            inv_delay = loc.invariant.time_until_false(rt.view, rates)
            if inv_delay is None:
                needs_sampling = True
            elif math.isfinite(inv_delay) and inv_delay > EPSILON:
                candidate = now + inv_delay
                if candidate < best:
                    best = candidate
            return best, False, needs_sampling
        # Static rates: the location's generated derive function, which
        # _next_time calls directly from now on.
        loc.derive = lower_derive(loc.deadline_sources, loc.static_rates, loc.slot_of,
                                  self.compiled.program_code)
        return loc.derive(rt.values, rt.view, now, rt.cache_ok[loc.index])

    def _advance_flow(self, rt: _AutomatonRuntime, dt: float) -> None:
        """Advance ``rt`` through its generic flow's own ``advance``."""
        new_valuation = rt.location.flow.advance(rt.view, dt)
        values = rt.values
        slots = rt.slots
        for name, value in new_valuation.items():
            slot = slots.get(name)
            if slot is None:
                rt.set(name, value)
            else:
                values[slot] = value

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
            self._invalidate()
            process.wake(self, now)

    # -- discrete phase ----------------------------------------------------------------
    def _process_discrete(self, threshold: float = math.inf, start: int = 0) -> None:
        """Fire enabled transitions at the current instant until quiescent.

        A round skips every runtime that has no pending event, a cached
        candidate beyond ``threshold`` (the step's start plus the cushion)
        and a location that needs no quiet scan: none of its edges can be
        enabled.  The first round begins at runtime ``start`` (a quiet
        step found nothing enabled before it).
        """
        runtimes = self._runtimes
        for _ in range(self.max_cascade):
            fired_any = False
            for rt in runtimes[start:] if start else runtimes:
                if ((rt.pending or not rt.deadline > threshold or rt.quiet_scan[rt.loc])
                        and self._fire_one(rt)):
                    fired_any = True
            start = 0
            if not fired_any:
                break
        else:
            raise ZenoError(
                f"more than {self.max_cascade} cascaded transition rounds at "
                f"t={self.state.time:.6f}s; the model is (quasi-)Zeno")
        # Unconsumed events do not persist across time instants.
        for rt in self._runtimes:
            rt.pending.clear()

    def _fire_one(self, rt: _AutomatonRuntime) -> bool:
        """Fire at most one enabled edge of ``rt``; return True if fired."""
        location = rt.location
        pending = rt.pending
        # Event-triggered edges need a pending event; with none queued only
        # the ASAP edges can fire (exactly what the reference scan finds).
        edges = location.edges if pending else location.asap_edges
        if not edges:
            return False
        values = rt.values
        view = rt.view
        chosen: CompiledEdge | None = None
        chosen_event_index: int | None = None
        best_key: tuple[int, int, int] | None = None
        for ce in edges:
            event_index: int | None = None
            if ce.trigger_root is not None:
                event_index = next(
                    (i for i, ev in enumerate(pending) if ev.root == ce.trigger_root),
                    None)
                if event_index is None:
                    continue
            if ce.guard_program is not None and not ce.guard_program(values, view):
                continue
            if best_key is None or ce.key < best_key:
                best_key = ce.key
                chosen = ce
                chosen_event_index = event_index
        if chosen is None:
            return False
        trigger_root = None
        if chosen_event_index is not None:
            trigger_root = pending.pop(chosen_event_index).root
        self._take_edge(rt, chosen, trigger_root)
        return True

    def _take_edge(self, rt: _AutomatonRuntime, ce: CompiledEdge,
                   trigger_root: str | None) -> None:
        # Only this runtime's candidate and the wakeups (through
        # notify_transition) can move; receivers of its events are scanned
        # for their pending events.
        rt.deadline = self._wake_at = self._deadline = -math.inf
        self._settled = False
        now = self.state.time
        if ce.assignments is not None:
            values = rt.values
            for slot, value in ce.assignments:
                values[slot] = value
        else:
            new_valuation = ce.edge.reset.apply(rt.view)
            for name, value in new_valuation.items():
                rt.set(name, value)
        rt.move_to(ce.target_index)
        record = TransitionRecord(now, rt.name, ce.source_name, ce.target_name, ce.reason,
                                  trigger_root, ce.emits)
        for observer in self.observers:
            observer.on_transition(record)
        for process in self.processes:
            process.notify_transition(self, record)
        for root in ce.emits:
            self._broadcast(root, sender=rt.name)

    def _broadcast(self, root: str, sender: str) -> None:
        """Deliver event ``root`` from ``sender`` to every interested receiver."""
        receivers = self.compiled.receivers_of(root)
        sender_entity = self.compiled.entity_of.get(sender, sender)
        now = self.state.time
        runtimes = self._runtimes
        for receiver_index, receiver_name, lossy, receiver_entity in receivers:
            if receiver_name == sender:
                continue
            same_entity = sender_entity == receiver_entity
            if lossy and not same_entity:
                delivered = self.network.attempt_delivery(
                    sender_entity, receiver_entity, root, now)
            else:
                delivered = True
            record = EventRecord(now, root, sender, receiver_name, delivered,
                                 lossy and not same_entity)
            for observer in self.observers:
                observer.on_event(record)
            if delivered:
                runtimes[receiver_index].pending.append(_PendingEvent(root, sender))

    # -- sampling ----------------------------------------------------------------------
    def _maybe_sample(self, force: bool = False) -> None:
        if not self.record_variables:
            return
        now = self.state.time
        if not force and now + EPSILON < self._next_sample_time:
            return
        for automaton_name, variable in self.record_variables:
            value = self.state.value_of(automaton_name, variable)
            for observer in self.observers:
                observer.on_sample(automaton_name, variable, now, value)
        self._next_sample_time = now + self.sample_interval


# ---------------------------------------------------------------------------
# Engine selection
# ---------------------------------------------------------------------------

#: Kernel names accepted by :func:`build_engine` and the campaign CLI.
ENGINE_KINDS = ("reference", "compiled", "batched")


def resolve_engine_kind(kind: str | None = None, *,
                        default: str = "reference") -> str:
    """Resolve the simulation kernel to use.

    An explicit ``kind`` wins; ``None`` selects ``default``.  Direct engine
    construction defaults to the reference engine (the executable
    specification); the campaign layer passes ``default="compiled"`` so
    campaign-scale workloads get the fast kernel unless the caller opts
    out.
    """
    resolved = default if kind is None else kind
    if resolved not in ENGINE_KINDS:
        raise ValueError(f"unknown simulation engine {resolved!r}; "
                         f"expected one of {ENGINE_KINDS}")
    return resolved


def build_engine(system: HybridSystem | CompiledSystem, *,
                 kind: str | None = None, **kwargs):
    """Build a reference, compiled or batched engine for ``system``.

    ``kwargs`` are forwarded verbatim (the engines share the same
    constructor signature; the batched kernel runs in single-lane mode
    when built this way).  The compiled and batched kernels accept a
    pre-lowered :class:`CompiledSystem`; the reference engine unwraps it.
    """
    from repro.hybrid.simulate.engine import SimulationEngine

    resolved = resolve_engine_kind(kind)
    if resolved == "compiled":
        return CompiledEngine(system, **kwargs)
    if resolved == "batched":
        from repro.hybrid.simulate.batched import BatchedEngine

        return BatchedEngine(system, **kwargs)
    if isinstance(system, CompiledSystem):
        system = system.system
    return SimulationEngine(system, **kwargs)
