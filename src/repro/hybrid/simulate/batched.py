"""Batched simulation kernel: B replicates of one compiled system in lockstep.

Monte-Carlo campaigns run hundreds of independent replicates of the *same*
hybrid model — only the RNG seed differs per trial.  The compiled kernel
(:mod:`repro.hybrid.simulate.compiled`) removed the per-step interpretation
overhead of one trial; this module removes the per-*trial* overhead of a
campaign cell by executing ``B`` replicates ("lanes") side by side inside a
single process:

* continuous state lives in one global ``(B, total_slots)`` NumPy matrix
  (each automaton owns a column block), locations in integer ``(B,)``
  arrays; per-lane constant-rate/driven-mask matrices and a per-lane
  linear-crossing table are maintained incrementally on location changes,
  so the hot phases touch no per-location Python structure;
* each outer iteration advances every live lane by one engine step, with the
  per-lane next-event times (one 2-D pass over the crossing table plus
  vectorized box/boolean-composition programs), constant-rate integration
  (one masked matrix op) and the discrete-phase guard pre-check all
  computed vectorized across lanes, while
  :class:`~repro.hybrid.flows.CallableFlow` dynamics run the compiled
  kernel's float RK4 lane by lane (the same lowered declaration);
* lanes that diverge — different edge firings, different event times,
  different finish times — keep advancing independently: every lane carries
  its own simulation clock, pending-event queues, RNG streams, network and
  observers, and a masked "active lanes" scheme retires lanes one by one as
  they reach the horizon.

Per lane the control flow and floating-point arithmetic are *exactly* those
of the reference engine: each lane's trace, event log and samples are
bit-identical to a serial :class:`~repro.hybrid.simulate.engine.SimulationEngine`
run with the same seed (enforced by ``tests/hybrid/test_compiled_equivalence.py``).
Anything the vector layer cannot prove it can reproduce exactly — generic
predicates, non-affine flows, custom couplings, environment processes —
falls back to the compiled kernel's per-lane scalar code path, so
correctness never depends on vectorizability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

from repro.errors import SimulationError, TimeBlockError, ZenoError
from repro.hybrid.expressions import (And, BoxPredicate, Comparison, FalsePredicate,
                                      LinearInequality, Not, Or, Predicate,
                                      TruePredicate)
from repro.hybrid.simulate.compiled import (CompiledAutomaton, CompiledEdge,
                                            CompiledLocation, CompiledSystem,
                                            CompiledSystemState, SlotValuation,
                                            _lower_crossing, _STATIC_SKIP,
                                            compile_system)
from repro.hybrid.simulate.engine import _MIN_ADVANCE, Network, _PendingEvent
from repro.hybrid.simulate.observers import TraceObserver, TraceRecorder
from repro.hybrid.simulate.processes import (Coupling, EnvironmentProcess,
                                             LocationIndicatorCoupling,
                                             VariableCopyCoupling)
from repro.hybrid.system import HybridSystem
from repro.hybrid.trace import EventRecord, Trace, TransitionRecord
from repro.util.seeding import spawn_rng
from repro.util.timebase import EPSILON

try:
    import numpy as np
except ImportError:  # pragma: no cover - container images bake NumPy in
    np = None

#: Spare value columns preallocated per automaton so that runtime-added
#: variables rarely force a state-matrix reallocation.
_SPARE_COLUMNS = 8


def _require_numpy() -> None:
    if np is None:  # pragma: no cover - exercised only on minimal installs
        raise ImportError(
            "the batched simulation kernel requires numpy; install it or "
            "select engine='reference'/'compiled' instead")


# ---------------------------------------------------------------------------
# Batched lowering: vectorized crossing/guard programs per compiled location
# ---------------------------------------------------------------------------

def _vec_comparator(op: Comparison, threshold: float):
    """Vectorized twin of ``Comparison.evaluate`` with a fixed rhs."""
    if op is Comparison.LE:
        rhs = threshold + EPSILON
        return lambda v: v <= rhs
    if op is Comparison.GE:
        rhs = threshold - EPSILON
        return lambda v: v >= rhs
    if op is Comparison.LT:
        rhs = threshold - EPSILON
        return lambda v: v < rhs
    if op is Comparison.GT:
        rhs = threshold + EPSILON
        return lambda v: v > rhs
    return lambda v: np.abs(v - threshold) <= EPSILON


class _VecEval:
    """Vectorized boolean evaluation of a predicate over lanes.

    ``evaluate`` mirrors ``Predicate.evaluate`` element-wise; ``probe``
    mirrors evaluating the predicate on ``valuation.advanced(rates, dt)``
    with a per-lane ``dt`` array (only variables present in ``rates`` move,
    exactly like ``Valuation.advanced``).
    """

    __slots__ = ("_fn", "_probe")

    def __init__(self, fn, probe=None):
        self._fn = fn
        self._probe = probe

    def evaluate(self, arr, rows):
        return self._fn(arr, rows)

    def probe(self, arr, rows, dt):
        return self._probe(arr, rows, dt)


def _lower_eval_vec(predicate: Predicate, slot_of, rates=None) -> _VecEval | None:
    """Lower a predicate to exact vectorized evaluation; ``None`` = unsupported."""
    if isinstance(predicate, LinearInequality):
        slot = slot_of.get(predicate.variable)
        if slot is None:
            return None
        cmp = _vec_comparator(predicate.op, predicate.threshold)
        probe = None
        if rates is not None:
            if predicate.variable in rates:
                rate = rates[predicate.variable]

                def probe(arr, rows, dt, slot=slot, rate=rate, cmp=cmp):
                    return cmp(arr[rows, slot] + rate * dt)
            else:
                def probe(arr, rows, dt, slot=slot, cmp=cmp):
                    return cmp(arr[rows, slot])
        return _VecEval(lambda arr, rows, slot=slot, cmp=cmp: cmp(arr[rows, slot]),
                        probe)
    if isinstance(predicate, BoxPredicate):
        slot = slot_of.get(predicate.variable)
        if slot is None:
            return None
        low_eps = predicate.low - EPSILON
        high_eps = predicate.high + EPSILON

        def inside(v, low_eps=low_eps, high_eps=high_eps):
            return (low_eps <= v) & (v <= high_eps)

        probe = None
        if rates is not None:
            if predicate.variable in rates:
                rate = rates[predicate.variable]

                def probe(arr, rows, dt, slot=slot, rate=rate):
                    return inside(arr[rows, slot] + rate * dt)
            else:
                def probe(arr, rows, dt, slot=slot):
                    return inside(arr[rows, slot])
        return _VecEval(lambda arr, rows, slot=slot: inside(arr[rows, slot]),
                        probe)
    if isinstance(predicate, Not):
        inner = _lower_eval_vec(predicate.operand, slot_of, rates)
        if inner is None:
            return None
        probe = None
        if rates is not None:
            def probe(arr, rows, dt, inner=inner):
                return ~inner.probe(arr, rows, dt)
        return _VecEval(lambda arr, rows, inner=inner: ~inner.evaluate(arr, rows),
                        probe)
    if isinstance(predicate, (And, Or)):
        operands = predicate.operands
        lowered = [_lower_eval_vec(p, slot_of, rates) for p in operands]
        if not lowered or any(entry is None for entry in lowered):
            return None
        conjunction = isinstance(predicate, And)

        def fold(results, conjunction=conjunction):
            out = results[0]
            for result in results[1:]:
                out = (out & result) if conjunction else (out | result)
            return out

        probe = None
        if rates is not None:
            def probe(arr, rows, dt, lowered=lowered):
                return fold([entry.probe(arr, rows, dt) for entry in lowered])
        return _VecEval(
            lambda arr, rows, lowered=lowered: fold(
                [entry.evaluate(arr, rows) for entry in lowered]),
            probe)
    return None


class _VecDelay:
    """Vectorized crossing delay of a predicate under fixed rates.

    ``delay(arr, rows)`` mirrors ``predicate.time_until_true`` (or
    ``..._false``, baked at lowering time) element-wise; lanes where the
    scalar method would return ``None`` (no closed form — sample instead)
    hold NaN, flagged by ``may_sample``.
    """

    __slots__ = ("_fn", "may_sample")

    def __init__(self, fn, may_sample: bool):
        self._fn = fn
        self.may_sample = may_sample

    def delay(self, arr, rows):
        return self._fn(arr, rows)


def _lower_operand_delay(predicate: Predicate, rates, slot_of,
                         want: bool) -> _VecDelay | None:
    """Full vectorized mirror of ``time_until_true/false`` (no skip cases)."""
    if isinstance(predicate, TruePredicate):
        value = 0.0 if want else math.inf
        return _VecDelay(lambda arr, rows: np.full(rows.size, value), False)
    if isinstance(predicate, FalsePredicate):
        value = math.inf if want else 0.0
        return _VecDelay(lambda arr, rows: np.full(rows.size, value), False)
    if isinstance(predicate, Not):
        return _lower_operand_delay(predicate.operand, rates, slot_of, not want)
    if isinstance(predicate, LinearInequality):
        slot = slot_of.get(predicate.variable)
        if slot is None:
            return None
        rate = rates.get(predicate.variable, 0.0)
        threshold = predicate.threshold
        cmp = _vec_comparator(predicate.op, threshold)
        frozen = abs(rate) <= EPSILON

        if predicate.op is Comparison.EQ:
            def eq_delay(arr, rows):
                v = arr[rows, slot]
                cur = cmp(v)
                if want:
                    if frozen:
                        return np.where(cur, 0.0, math.inf)
                    delay = (threshold - v) / rate
                    out = np.where(delay > 0, delay, math.inf)
                    return np.where(cur, 0.0, out)
                if frozen:
                    out = np.full(rows.size, math.inf)
                else:
                    out = np.where(np.abs(v - threshold) > EPSILON, 0.0, EPSILON)
                return np.where(cur, out, 0.0)

            return _VecDelay(eq_delay, False)

        def linear_delay(arr, rows):
            v = arr[rows, slot]
            cur = cmp(v)
            match = cur if want else ~cur
            if frozen:
                return np.where(match, 0.0, math.inf)
            delay = (threshold - v) / rate
            out = np.where(delay < 0, math.inf, np.maximum(delay, 0.0))
            return np.where(match, 0.0, out)

        return _VecDelay(linear_delay, False)
    if isinstance(predicate, BoxPredicate):
        slot = slot_of.get(predicate.variable)
        if slot is None:
            return None
        rate = rates.get(predicate.variable, 0.0)
        low, high = predicate.low, predicate.high
        low_eps, high_eps = low - EPSILON, high + EPSILON
        frozen = abs(rate) <= EPSILON

        def box_delay(arr, rows):
            v = arr[rows, slot]
            inside = (low_eps <= v) & (v <= high_eps)
            if want:
                if frozen:
                    t = np.full(rows.size, math.inf)
                elif rate > 0:
                    t = np.where(v < low, (low - v) / rate, math.inf)
                else:
                    t = np.where(v > high, (v - high) / (-rate), math.inf)
                return np.where(inside, 0.0, t)
            if frozen:
                t = np.full(rows.size, math.inf)
            elif rate > 0:
                t = np.maximum((high - v) / rate, 0.0)
            else:
                t = np.maximum((low - v) / rate, 0.0)
            return np.where(inside, t, 0.0)

        return _VecDelay(box_delay, False)
    if isinstance(predicate, (And, Or)):
        operands = predicate.operands
        lowered = [_lower_operand_delay(p, rates, slot_of, want)
                   for p in operands]
        if not lowered or any(entry is None for entry in lowered):
            return None
        conjunction = isinstance(predicate, And)
        may_sample = any(entry.may_sample for entry in lowered)
        # And-until-true and Or-until-false take the latest operand crossing
        # and verify it sticks by probing the advanced valuation (exactly
        # like the scalar methods); the two mirror cases are plain minima.
        if conjunction == want:
            evals = [_lower_eval_vec(p, slot_of, rates) for p in operands]
            if any(entry is None for entry in evals):
                return None

            def barrier_delay(arr, rows, lowered=lowered, evals=evals,
                              conjunction=conjunction):
                candidate = lowered[0].delay(arr, rows)
                for entry in lowered[1:]:
                    candidate = np.maximum(candidate, entry.delay(arr, rows))
                bad = ~np.isfinite(candidate)
                probe_dt = np.where(bad, 0.0, candidate) + EPSILON
                ok = evals[0].probe(arr, rows, probe_dt)
                if conjunction:
                    for entry in evals[1:]:
                        ok = ok & entry.probe(arr, rows, probe_dt)
                else:
                    for entry in evals[1:]:
                        ok = ok | entry.probe(arr, rows, probe_dt)
                    ok = ~ok
                out = np.where(ok, candidate, math.nan)
                out = np.where(np.isinf(candidate), math.inf, out)
                return np.where(np.isnan(candidate), math.nan, out)

            return _VecDelay(barrier_delay, True)

        def min_delay(arr, rows, lowered=lowered):
            out = lowered[0].delay(arr, rows)
            for entry in lowered[1:]:
                out = np.minimum(out, entry.delay(arr, rows))
            return out

        return _VecDelay(min_delay, may_sample)
    return None


def _lower_crossing_vec(predicate: Predicate, rates, slot_of, want: bool):
    """Vector counterpart of ``_lower_crossing``.

    Returns :data:`_STATIC_SKIP` in exactly the cases the compiled lowering
    skips, a :class:`_VecDelay` program when the whole predicate tree lowers
    to linear/box/boolean-composition shapes, and ``None`` when only the
    generic scalar program can reproduce the reference arithmetic.
    """
    if isinstance(predicate, (TruePredicate, FalsePredicate)):
        return _STATIC_SKIP
    if isinstance(predicate, Not):
        return _lower_crossing_vec(predicate.operand, rates, slot_of, not want)
    if isinstance(predicate, (LinearInequality, BoxPredicate)):
        rate = rates.get(predicate.variable, 0.0)
        if abs(rate) <= EPSILON:
            return _STATIC_SKIP
    return _lower_operand_delay(predicate, rates, slot_of, want)


def _crossing_leaf(predicate: Predicate, want: bool):
    """Unwrap ``Not`` chains; return the stackable linear leaf or ``None``."""
    while isinstance(predicate, Not):
        predicate = predicate.operand
        want = not want
    if isinstance(predicate, LinearInequality):
        return predicate, want
    return None


#: One row of the global per-lane crossing table:
#: (local column, threshold, rate, sign, signed adjusted threshold,
#:  strict?, EQ?, wanted truth value)
_PAD_ENTRY = (0, math.inf, 1.0, 1.0, math.inf, False, False, False)


class BatchedLocation:
    """Vector tables of one compiled location (built once per system)."""

    __slots__ = ("cl", "n_slots", "sampling_only", "dynamic", "scalar_advance",
                 "rates_row", "driven_row", "vec_cross", "scalar_cross",
                 "stack_entries",
                 "has_asap", "precheck_always", "precheck_guards")

    def __init__(self, cl: CompiledLocation, slot_of: Dict[str, int]):
        self.cl = cl
        self.n_slots = len(slot_of)
        self.sampling_only = not cl.affine
        self.dynamic = cl.affine and cl.static_rates is None

        # -- continuous advance ------------------------------------------------
        # Constant-rate locations contribute a dense per-slot rate row and a
        # driven mask; the engine folds those of every automaton into global
        # (B, total_slots) matrices so one masked vector op advances every
        # constant-rate slot of every lane.  Any other flow advances lane by
        # lane through the compiled kernel's scalar program.
        self.scalar_advance = cl.const_items is None
        self.rates_row = np.zeros(self.n_slots, dtype=np.float64)
        self.driven_row = np.zeros(self.n_slots, dtype=bool)
        if cl.const_items is not None:
            for slot, rate in cl.const_items:
                self.rates_row[slot] = rate
                self.driven_row[slot] = True

        # -- exact crossing schedule (static-rate affine locations only) -------
        # Plain linear crossings go into the engine's global per-lane
        # crossing table (one 2-D pass schedules all of them for every lane
        # and automaton at once); box and boolean-composition predicates
        # keep per-entry vector programs; everything else falls back to the
        # compiled kernel's scalar programs.
        vec_cross: List = []
        scalar_cross: List = []
        stack: List = []
        if cl.affine and cl.static_rates is not None:
            rates = cl.static_rates
            for ce in cl.asap_edges:
                self._lower_entry(ce.edge.guard, True, rates, slot_of,
                                  stack, vec_cross, scalar_cross)
            self._lower_entry(cl.invariant, False, rates, slot_of,
                              stack, vec_cross, scalar_cross)
        self.vec_cross = tuple(vec_cross)
        self.scalar_cross = tuple(scalar_cross)
        self.stack_entries = tuple(stack)

        # -- discrete-phase pre-check ------------------------------------------
        # A lane in this location *may* fire an edge without a pending event
        # only if some ASAP edge's guard holds.  Linear/box/boolean guards
        # are checked vectorized and exactly; anything else conservatively
        # marks the lane, and the per-lane scalar scan settles it.
        self.has_asap = cl.has_asap
        self.precheck_always = False
        guards: List[_VecEval] = []
        for ce in cl.asap_edges:
            if ce.guard_program is None:
                self.precheck_always = True
                break
            entry = _lower_eval_vec(ce.edge.guard, slot_of)
            if entry is None:
                self.precheck_always = True
                break
            guards.append(entry)
        self.precheck_guards = tuple(guards)

    def _lower_entry(self, guard: Predicate, want: bool, rates, slot_of,
                     stack: List, vec_cross: List, scalar_cross: List) -> None:
        """Sort one crossing predicate into stacked / vector / scalar bins.

        A stacked row folds every comparison kind into
        ``s*v (<|<=) s*adjusted`` with ``s = +-1`` (negation is exact, so
        the comparison is bit-identical to ``Comparison.evaluate``) while
        the crossing delay reads ``(threshold - v) / rate`` like the scalar
        method.
        """
        leaf = _crossing_leaf(guard, want)
        if leaf is not None:
            predicate, leaf_want = leaf
            rate = rates.get(predicate.variable, 0.0)
            if abs(rate) <= EPSILON:
                return  # exactly the compiled lowering's skip case
            op = predicate.op
            threshold = predicate.threshold
            if op is Comparison.EQ:
                if not leaf_want:
                    # time_until_false of EQ is always 0.0 or EPSILON --
                    # never schedulable, never a sampling request.
                    return
                stack.append((slot_of[predicate.variable], threshold, rate,
                              1.0, math.inf, False, True, True))
                return
            if op is Comparison.LE:
                s, adjusted, strict = 1.0, threshold + EPSILON, False
            elif op is Comparison.GE:
                s, adjusted, strict = -1.0, threshold - EPSILON, False
            elif op is Comparison.LT:
                s, adjusted, strict = 1.0, threshold - EPSILON, True
            else:  # GT
                s, adjusted, strict = -1.0, threshold + EPSILON, True
            stack.append((slot_of[predicate.variable], threshold, rate,
                          s, s * adjusted, strict, False, leaf_want))
            return
        entry = _lower_crossing_vec(guard, rates, slot_of, want)
        if entry is _STATIC_SKIP:
            return
        if entry is not None:
            vec_cross.append(entry)
        else:
            scalar_cross.append(_lower_crossing(guard, rates, slot_of, want))


class BatchedAutomatonTables:
    """Vector tables of one compiled automaton."""

    __slots__ = ("ca", "slot_of", "locations", "cross_width", "cross_rows")

    def __init__(self, ca: CompiledAutomaton):
        self.ca = ca
        self.slot_of = ca.slot_of
        self.locations = tuple(BatchedLocation(cl, ca.slot_of)
                               for cl in ca.locations)
        # Pre-padded per-location rows of the global crossing table: each
        # location's stacked linear crossings, padded to the automaton's
        # widest location with entries that always yield +inf.
        self.cross_width = max((len(bl.stack_entries)
                                for bl in self.locations), default=0)
        rows = []
        for bl in self.locations:
            entries = list(bl.stack_entries)
            entries += [_PAD_ENTRY] * (self.cross_width - len(entries))
            fields = list(zip(*entries)) if entries else [()] * 8
            rows.append((
                np.array(fields[0], dtype=np.intp),      # local column
                np.array(fields[1], dtype=np.float64),   # threshold
                np.array(fields[2], dtype=np.float64),   # rate
                np.array(fields[3], dtype=np.float64),   # sign
                np.array(fields[4], dtype=np.float64),   # signed adj. threshold
                np.array(fields[5], dtype=bool),         # strict?
                np.array(fields[6], dtype=bool),         # EQ?
                np.array(fields[7], dtype=bool),         # wanted truth
            ))
        self.cross_rows = tuple(rows)


class BatchedTables:
    """Vector lowering tables of a whole compiled system (built once)."""

    __slots__ = ("compiled", "automata")

    def __init__(self, compiled: CompiledSystem):
        _require_numpy()
        self.compiled = compiled
        self.automata = tuple(BatchedAutomatonTables(ca)
                              for ca in compiled.automata)

    def plane_columns(self) -> tuple[int, int]:
        """Column counts an external lane allocator must provide.

        Returns:
            ``(state_columns, cross_columns)``: the width of the global
            ``(B, state_columns)`` state/rate/driven matrices (every
            automaton's slot block plus its spare columns) and of the
            stacked per-lane crossing table.  Both are pure functions of
            the compiled system, so the allocating parent and the
            executing workers agree on them without coordination.
        """
        state = sum(len(tab.ca.slot_of) + _SPARE_COLUMNS
                    for tab in self.automata)
        cross = sum(tab.cross_width for tab in self.automata)
        return state, cross


def build_batched_tables(compiled: CompiledSystem) -> BatchedTables:
    """Build (or fetch) the vector lowering tables of a compiled system."""
    return BatchedTables(compiled)


class ExternalBatchBuffers:
    """Externally allocated backing arrays for one :class:`BatchedEngine`.

    The engine normally allocates its global ``(B, state_columns)`` state
    matrix and per-lane scratch tables privately; handing it an instance of
    this class makes it run on caller-owned storage instead — typically
    row ranges of a shared-memory plane
    (:class:`repro.campaign.shm.StatePlane`), so one campaign cell's lanes
    can span several worker processes.  The engine zero-initializes the
    arrays exactly as it would its own, so results are independent of the
    storage's provenance; if the model outgrows the provided widths at
    runtime (a dynamically added variable), the engine detaches and falls
    back to private arrays, copying the state over.

    Array contract (``B`` lanes, widths from
    :meth:`BatchedTables.plane_columns`): ``X``/``R`` are ``(B,
    state_columns)`` float64, ``D`` is ``(B, state_columns)`` bool;
    ``C_thr``/``C_rate``/``C_sign``/``C_sthr`` are ``(B, cross_columns)``
    float64, ``C_col`` intp and ``C_strict``/``C_eq``/``C_want`` bool of
    the same shape.
    """

    ARRAY_NAMES = ("X", "R", "D", "C_col", "C_thr", "C_rate", "C_sign",
                   "C_sthr", "C_strict", "C_eq", "C_want")

    __slots__ = ARRAY_NAMES

    def __init__(self, **arrays):
        for name in self.ARRAY_NAMES:
            setattr(self, name, arrays[name])

    @classmethod
    def allocate(cls, lanes: int, state_columns: int,
                 cross_columns: int) -> "ExternalBatchBuffers":
        """Allocate plain (non-shared) buffers of the given geometry."""
        _require_numpy()
        return cls(
            X=np.empty((lanes, state_columns), dtype=np.float64),
            R=np.empty((lanes, state_columns), dtype=np.float64),
            D=np.empty((lanes, state_columns), dtype=bool),
            C_col=np.empty((lanes, cross_columns), dtype=np.intp),
            C_thr=np.empty((lanes, cross_columns), dtype=np.float64),
            C_rate=np.empty((lanes, cross_columns), dtype=np.float64),
            C_sign=np.empty((lanes, cross_columns), dtype=np.float64),
            C_sthr=np.empty((lanes, cross_columns), dtype=np.float64),
            C_strict=np.empty((lanes, cross_columns), dtype=bool),
            C_eq=np.empty((lanes, cross_columns), dtype=bool),
            C_want=np.empty((lanes, cross_columns), dtype=bool))

    def matches(self, lanes: int, state_columns: int,
                cross_columns: int) -> bool:
        """Whether these buffers fit an engine of the given geometry."""
        return (self.X.shape == (lanes, state_columns)
                and self.C_thr.shape == (lanes, cross_columns))

    def rows(self, start: int, count: int) -> "ExternalBatchBuffers":
        """A view of lanes ``[start, start + count)`` of these buffers."""
        sl = slice(start, start + count)
        return ExternalBatchBuffers(
            **{name: getattr(self, name)[sl] for name in self.ARRAY_NAMES})


# ---------------------------------------------------------------------------
# Runtime state: (B, n_slots) arrays + per-lane scalar mirrors
# ---------------------------------------------------------------------------

class _LaneRuntime:
    """Per-(automaton, lane) mutable mirror of ``_AutomatonRuntime``.

    Duck-types the compiled kernel's runtime: the scalar fallback programs
    (guards, resets, crossing programs, RK4) run unchanged against it, with
    ``values`` backed by one row of the automaton's batch matrix.
    """

    __slots__ = ("auto", "lane", "name", "slots", "values", "view", "loc",
                 "location", "entered_at", "pending")

    def __init__(self, auto: "_BatchedAutomaton", lane: int):
        ca = auto.ca
        self.auto = auto
        self.lane = lane
        self.name = ca.name
        self.slots: Dict[str, int] = dict(ca.slot_of)
        self.values = auto.arr[lane]
        self.view = SlotValuation(self.slots, self.values)
        self.loc: int = ca.initial_location
        self.location: CompiledLocation = ca.locations[self.loc]
        self.entered_at: float = 0.0
        self.pending: List[_PendingEvent] = []

    def move_to(self, target_index: int, now: float) -> None:
        self.loc = target_index
        self.location = self.auto.ca.locations[target_index]
        self.entered_at = now
        self.auto.on_move(self.lane, target_index)

    def set(self, name: str, value: float) -> None:
        slot = self.slots.get(name)
        if slot is None:
            slot = self.auto.ensure_column(name)
            self.slots[name] = slot
        self.values[slot] = value

    def get(self, name: str, default: float = 0.0) -> float:
        slot = self.slots.get(name)
        return default if slot is None else self.values[slot]


class _BatchedAutomaton:
    """Joint runtime state of one automaton across all lanes.

    Continuous state lives in a column block of the engine's global
    ``(B, total_slots)`` matrix; this object holds the per-automaton views
    plus the per-lane location array, slot map and runtime mirrors.
    """

    __slots__ = ("engine", "ca", "tab", "batch", "width", "arr", "rates",
                 "driven", "locs", "lanes", "col_of", "n_slots",
                 "cross_slice", "cross_rows_global",
                 "_groups", "_groups_version", "_moved")

    def __init__(self, engine: "BatchedEngine", tab: BatchedAutomatonTables,
                 batch: int):
        ca = tab.ca
        self.engine = engine
        self.ca = ca
        self.tab = tab
        self.batch = batch
        self.n_slots = len(ca.slot_of)
        self.width = self.n_slots + _SPARE_COLUMNS
        self.arr = None
        self.rates = None
        self.driven = None
        self.locs = np.full(batch, ca.initial_location, dtype=np.intp)
        self.col_of: Dict[str, int] = dict(ca.slot_of)
        self.lanes: List[_LaneRuntime] = []
        self.cross_slice = slice(0, 0)
        self.cross_rows_global = ()
        self._groups = None
        self._groups_version = -1
        self._moved = True

    def attach(self, X, R, D, col_offset: int, cross_offset: int) -> None:
        """Bind the automaton's views into freshly built global matrices."""
        self.arr = X[:, col_offset:col_offset + self.width]
        self.rates = R[:, col_offset:col_offset + self.width]
        self.driven = D[:, col_offset:col_offset + self.width]
        self.cross_slice = slice(cross_offset,
                                 cross_offset + self.tab.cross_width)
        self.cross_rows_global = tuple(
            (row[0] + col_offset,) + row[1:] for row in self.tab.cross_rows)
        fresh = not self.lanes
        if fresh:
            self.arr[:, :self.n_slots] = self.ca.initial_values
            self.lanes = [_LaneRuntime(self, b) for b in range(self.batch)]
        else:  # re-attach after growth: rebind the lane row views
            for rt in self.lanes:
                rt.values = self.arr[rt.lane]
                rt.view = SlotValuation(rt.slots, rt.values)
        # (Re)materialize every lane's rate/driven/crossing rows.
        for rt in self.lanes:
            self._write_rows(rt.lane, rt.loc)

    def _write_rows(self, lane: int, loc_index: int) -> None:
        bl = self.tab.locations[loc_index]
        self.rates[lane, :self.n_slots] = bl.rates_row
        self.driven[lane, :self.n_slots] = bl.driven_row
        if self.tab.cross_width:
            engine = self.engine
            sect = self.cross_slice
            row = self.cross_rows_global[loc_index]
            engine._C_col[lane, sect] = row[0]
            engine._C_thr[lane, sect] = row[1]
            engine._C_rate[lane, sect] = row[2]
            engine._C_sign[lane, sect] = row[3]
            engine._C_sthr[lane, sect] = row[4]
            engine._C_strict[lane, sect] = row[5]
            engine._C_eq[lane, sect] = row[6]
            engine._C_want[lane, sect] = row[7]

    def on_move(self, lane: int, loc_index: int) -> None:
        """A lane changed location: refresh its per-lane matrix rows."""
        self.locs[lane] = loc_index
        self._write_rows(lane, loc_index)
        self._moved = True

    def ensure_column(self, name: str) -> int:
        """Column index for ``name``, allocating (and growing) if needed."""
        col = self.col_of.get(name)
        if col is not None:
            return col
        col = len(self.col_of)
        if col >= self.width:
            self.engine._grow_automaton(self)
        self.col_of[name] = col
        return col

    def groups(self, act_rows, version: int):
        """Active lanes grouped by current location index (cached)."""
        if (self._groups is not None and not self._moved
                and self._groups_version == version):
            return self._groups
        if len(self.ca.locations) == 1:
            groups = ((0, act_rows),)
        else:
            locs_act = self.locs[act_rows]
            groups = tuple((int(k), act_rows[locs_act == k])
                           for k in np.unique(locs_act))
        self._groups = groups
        self._groups_version = version
        self._moved = False
        return groups


@dataclass
class Lane:
    """Per-replicate ingredients of one batched lane.

    Every stochastic component is per lane — seed, network (loss channels),
    environment processes, observers — exactly as a serial trial would own
    them, so each lane reproduces the corresponding serial run bit-for-bit.
    """

    seed: int | None = None
    network: Network | None = None
    processes: Sequence[EnvironmentProcess] = ()
    observers: Sequence[TraceObserver] = ()


class _LaneContext:
    """Everything one lane owns besides the shared state matrices."""

    __slots__ = ("index", "seed", "network", "processes", "observers",
                 "recorder", "state", "facade", "rng", "last_wake", "done")

    def __init__(self, index: int, lane: Lane, record_trace: bool):
        self.index = index
        self.seed = lane.seed
        self.network = lane.network or Network()
        self.processes = list(lane.processes)
        self.recorder = TraceRecorder() if record_trace else None
        self.observers: List[TraceObserver] = (
            ([self.recorder] if self.recorder is not None else [])
            + list(lane.observers))
        self.rng = spawn_rng(lane.seed, "engine")
        self.state: CompiledSystemState | None = None
        self.facade: "_LaneEngine" | None = None
        self.last_wake: Dict[int, float] = {}
        self.done = False


class _LaneEngine:
    """Engine facade handed to one lane's processes, couplings and resets.

    Implements the :class:`SimulationEngine` surface those components use —
    ``now``, ``state``, ``rng``, ``inject_event``, ``set_variable``,
    ``location_of`` — scoped to a single lane of the batch.
    """

    __slots__ = ("_engine", "_ctx")

    kind = "batched-lane"

    def __init__(self, engine: "BatchedEngine", ctx: _LaneContext):
        self._engine = engine
        self._ctx = ctx

    @property
    def now(self) -> float:
        return self._ctx.state.time

    @property
    def state(self) -> CompiledSystemState:
        return self._ctx.state

    @property
    def rng(self):
        return self._ctx.rng

    @property
    def network(self) -> Network:
        return self._ctx.network

    @property
    def system(self) -> HybridSystem:
        return self._engine.system

    @property
    def seed(self) -> int | None:
        return self._ctx.seed

    def location_of(self, automaton_name: str) -> str:
        return self._ctx.state.location_of(automaton_name)

    def set_variable(self, automaton_name: str, variable: str, value: float) -> None:
        self._ctx.state.runtime(automaton_name).set(variable, float(value))

    def inject_event(self, root: str, *, sender: str = "environment") -> None:
        self._engine._broadcast_lane(self._ctx, root, sender)


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

class BatchedEngine:
    """Execute ``B`` replicates of one hybrid system in vectorized lockstep.

    Batch mode: pass ``lanes=[Lane(...), ...]``; :meth:`run` returns one
    trace (or ``None`` with ``record_trace=False``) per lane, and per-lane
    results are bit-identical to serial reference/compiled runs with the
    same per-lane ingredients.

    Single-lane mode: constructed exactly like
    :class:`~repro.hybrid.simulate.engine.SimulationEngine` /
    :class:`~repro.hybrid.simulate.compiled.CompiledEngine` (``network=``,
    ``processes=``, ``seed=``...), :meth:`run` returns the single trace —
    this is what ``build_engine(kind="batched")`` produces, making the
    kernel a drop-in third engine tier.
    """

    kind = "batched"

    def __init__(self, system: HybridSystem | CompiledSystem, *,
                 lanes: Sequence[Lane] | None = None,
                 network: Network | None = None,
                 processes: Sequence[EnvironmentProcess] = (),
                 couplings: Sequence[Coupling] = (),
                 seed: int | None = None,
                 dt_max: float = 0.1,
                 max_cascade: int = 200,
                 record_variables: Iterable[tuple[str, str]] = (),
                 sample_interval: float = 0.25,
                 observers: Sequence[TraceObserver] = (),
                 record_trace: bool = True,
                 buffers: "ExternalBatchBuffers | None" = None):
        _require_numpy()
        self.compiled = (system if isinstance(system, CompiledSystem)
                         else compile_system(system))
        self.system = self.compiled.system
        self.tables = self.compiled.batched_tables()
        self._single = lanes is None
        if lanes is None:
            lanes = [Lane(seed=seed, network=network, processes=processes,
                          observers=observers)]
        if not lanes:
            raise SimulationError("a batched engine needs at least one lane")
        self.batch = len(lanes)
        self.couplings: List[Coupling] = list(couplings)
        self.dt_max = float(dt_max)
        self.max_cascade = int(max_cascade)
        self.record_variables = list(record_variables)
        self.sample_interval = float(sample_interval)
        self._record_trace = record_trace
        self._ext_buffers = buffers
        self._ctxs = [_LaneContext(i, lane, record_trace)
                      for i, lane in enumerate(lanes)]
        for ctx in self._ctxs:
            ctx.facade = _LaneEngine(self, ctx)
        self._autos: List[_BatchedAutomaton] = []
        self._base_needs_sampling = bool(self.couplings) or bool(self.record_variables)
        self._times = np.zeros(self.batch, dtype=np.float64)
        self._next_sample = [0.0] * self.batch
        self._pending_mask = np.zeros(self.batch, dtype=bool)
        self._coupling_programs: List = []
        self._act_version = 0
        self._build_state()

    # -- single-lane compatibility surface --------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time of lane 0 (single-lane compatibility)."""
        return self._ctxs[0].state.time

    @property
    def state(self) -> CompiledSystemState:
        """Lane 0's system state (single-lane compatibility)."""
        return self._ctxs[0].state

    @property
    def trace(self) -> Trace | None:
        """Lane 0's recorded trace (``None`` when ``record_trace=False``)."""
        recorder = self._ctxs[0].recorder
        return recorder.trace if recorder is not None else None

    @property
    def traces(self) -> List[Trace | None]:
        """Every lane's recorded trace, in lane order."""
        return [ctx.recorder.trace if ctx.recorder is not None else None
                for ctx in self._ctxs]

    @property
    def rng(self):
        return self._ctxs[0].rng

    @property
    def network(self) -> Network:
        return self._ctxs[0].network

    @property
    def seed(self) -> int | None:
        return self._ctxs[0].seed

    @property
    def processes(self) -> List[EnvironmentProcess]:
        return self._ctxs[0].processes

    @property
    def observers(self) -> List[TraceObserver]:
        return self._ctxs[0].observers

    def location_of(self, automaton_name: str) -> str:
        return self._ctxs[0].state.location_of(automaton_name)

    def set_variable(self, automaton_name: str, variable: str, value: float) -> None:
        self._ctxs[0].state.runtime(automaton_name).set(variable, float(value))

    def inject_event(self, root: str, *, sender: str = "environment") -> None:
        self._broadcast_lane(self._ctxs[0], root, sender)

    def check_invariants(self) -> None:
        """Raise :class:`TimeBlockError` if any lane violates an invariant now."""
        for auto in self._autos:
            for rt in auto.lanes:
                if not rt.location.invariant.evaluate(rt.view):
                    raise TimeBlockError(
                        f"automaton {rt.name!r} violates the invariant of "
                        f"location {rt.location.name!r} at "
                        f"t={self._ctxs[rt.lane].state.time:.6f}s and no edge "
                        "fired")

    # -- state construction ------------------------------------------------------
    def _build_state(self) -> None:
        self._autos = [_BatchedAutomaton(self, tab, self.batch)
                       for tab in self.tables.automata]
        self._rebuild_matrices()
        self._nonconst_autos = [
            auto for auto in self._autos
            if any(bl.scalar_advance for bl in auto.tab.locations)]
        for ctx in self._ctxs:
            runtimes = [auto.lanes[ctx.index] for auto in self._autos]
            ctx.state = CompiledSystemState(runtimes)
            ctx.last_wake = {}
            ctx.done = False
        self._times = np.zeros(self.batch, dtype=np.float64)
        self._next_sample = [0.0] * self.batch
        self._pending_mask = np.zeros(self.batch, dtype=bool)
        self._base_needs_sampling = bool(self.couplings) or bool(self.record_variables)
        # Automata that still need per-location-group scheduling work after
        # the global crossing table (dynamic/generic predicates, box and
        # boolean-composition programs, sampling requests).
        self._sched_autos = [
            auto for auto in self._autos
            if any(bl.dynamic or bl.vec_cross or bl.scalar_cross
                   or (bl.sampling_only and not self._base_needs_sampling)
                   for bl in auto.tab.locations)]
        self._coupling_programs = [self._lower_coupling(c) for c in self.couplings]
        self._act_version += 1

    def _rebuild_matrices(self) -> None:
        """(Re)allocate the global state/rate/driven/crossing matrices.

        With matching :class:`ExternalBatchBuffers` attached, the matrices
        are the caller's arrays, zero-initialized here exactly like the
        private ``np.zeros``/``np.full`` allocations — lane results never
        depend on where the storage lives.  Buffers that do not fit (a
        runtime-grown automaton widened the layout) detach permanently.
        """
        total = sum(auto.width for auto in self._autos)
        cross_total = sum(auto.tab.cross_width for auto in self._autos)
        ext = self._ext_buffers
        if ext is not None and not ext.matches(self.batch, total, cross_total):
            ext = self._ext_buffers = None
        if ext is not None:
            self._X = ext.X
            self._R = ext.R
            self._D = ext.D
            self._C_col = ext.C_col
            self._C_thr = ext.C_thr
            self._C_rate = ext.C_rate
            self._C_sign = ext.C_sign
            self._C_sthr = ext.C_sthr
            self._C_strict = ext.C_strict
            self._C_eq = ext.C_eq
            self._C_want = ext.C_want
            self._X[:] = 0.0
            self._R[:] = 0.0
            self._D[:] = False
            self._C_col[:] = 0
            self._C_thr[:] = math.inf
            self._C_rate[:] = 1.0
            self._C_sign[:] = 1.0
            self._C_sthr[:] = math.inf
            self._C_strict[:] = False
            self._C_eq[:] = False
            self._C_want[:] = False
        else:
            self._X = np.zeros((self.batch, total), dtype=np.float64)
            self._R = np.zeros((self.batch, total), dtype=np.float64)
            self._D = np.zeros((self.batch, total), dtype=bool)
            self._C_col = np.zeros((self.batch, cross_total), dtype=np.intp)
            self._C_thr = np.full((self.batch, cross_total), math.inf)
            self._C_rate = np.ones((self.batch, cross_total), dtype=np.float64)
            self._C_sign = np.ones((self.batch, cross_total), dtype=np.float64)
            self._C_sthr = np.full((self.batch, cross_total), math.inf)
            self._C_strict = np.zeros((self.batch, cross_total), dtype=bool)
            self._C_eq = np.zeros((self.batch, cross_total), dtype=bool)
            self._C_want = np.zeros((self.batch, cross_total), dtype=bool)
        self._cross_total = cross_total
        self._cross_has_eq = any(
            bool(row[6].any())
            for auto in self._autos for row in auto.tab.cross_rows)
        col_offset = 0
        cross_offset = 0
        for auto in self._autos:
            auto.attach(self._X, self._R, self._D, col_offset, cross_offset)
            col_offset += auto.width
            cross_offset += auto.tab.cross_width

    def _grow_automaton(self, grown: _BatchedAutomaton) -> None:
        """A runtime-added variable overflowed an automaton's column block."""
        old = {auto.ca.name: (np.array(auto.arr), np.array(auto.rates),
                              np.array(auto.driven)) for auto in self._autos}
        grown.width += _SPARE_COLUMNS
        # External buffers are sized for the compile-time layout; a grown
        # layout detaches them (the rebuild below re-checks the fit).
        self._rebuild_matrices()
        for auto in self._autos:
            arr, rates, driven = old[auto.ca.name]
            auto.arr[:, :arr.shape[1]] = arr
            auto.rates[:, :arr.shape[1]] = rates
            auto.driven[:, :arr.shape[1]] = driven

    def _auto_of(self, automaton_name: str) -> _BatchedAutomaton:
        return self._autos[self.compiled.index_of[automaton_name]]

    def _lower_coupling(self, coupling: Coupling):
        """Vector twins of the canonical couplings; scalar fallback otherwise.

        Mirrors the compiled kernel's lowering, including its side effect of
        materialising the target slot in every lane at lowering time.
        """
        if type(coupling) is LocationIndicatorCoupling:
            src = self._auto_of(coupling.source_automaton)
            tgt = self._auto_of(coupling.target_automaton)
            for rt in tgt.lanes:
                rt.set(coupling.target_variable,
                       rt.get(coupling.target_variable))
            slot = tgt.col_of[coupling.target_variable]
            lut = np.array([cl.name in coupling.source_locations
                            for cl in src.ca.locations], dtype=bool)
            true_value = float(coupling.true_value)
            false_value = float(coupling.false_value)

            def indicator_program(act):
                tgt.arr[act, slot] = np.where(lut[src.locs[act]],
                                              true_value, false_value)

            return indicator_program
        if type(coupling) is VariableCopyCoupling and coupling.transform is None:
            src = self._auto_of(coupling.source_automaton)
            tgt = self._auto_of(coupling.target_automaton)
            for rt in tgt.lanes:
                rt.set(coupling.target_variable,
                       rt.get(coupling.target_variable))
            tslot = tgt.col_of[coupling.target_variable]
            sslot = src.ca.slot_of.get(coupling.source_variable)
            if sslot is not None:
                def copy_program(act):
                    tgt.arr[act, tslot] = src.arr[act, sslot]

                return copy_program
            source_variable = coupling.source_variable

            def dynamic_copy_program(act):
                # The source variable did not exist at compile time: read it
                # through each lane's live slot map (it may appear later in
                # some lanes only), exactly like the compiled fallback.
                for b in act.tolist():
                    tgt.arr[b, tslot] = src.lanes[b].get(source_variable, 0.0)

            return dynamic_copy_program

        def generic_program(act, coupling=coupling):
            for b in act.tolist():
                coupling.apply(self._ctxs[b].facade)

        return generic_program

    # -- main loop ----------------------------------------------------------------
    def run(self, horizon: float):
        """Run every lane from time zero to ``horizon`` seconds.

        Returns the single lane's trace (or ``None``) in single-lane mode,
        otherwise the list of per-lane traces in lane order.
        """
        if horizon <= 0:
            raise SimulationError("simulation horizon must be positive")
        horizon = float(horizon)
        for ctx in self._ctxs:
            ctx.network.reset(ctx.seed)
        self._initialize()

        act_list = list(self._ctxs)
        act_rows = np.arange(self.batch, dtype=np.intp)
        times = self._times
        while True:
            alive = [ctx for ctx in act_list
                     if times[ctx.index] < horizon - EPSILON]
            if len(alive) != len(act_list):
                for ctx in act_list:
                    if times[ctx.index] >= horizon - EPSILON:
                        for observer in ctx.observers:
                            observer.end_run(horizon)
                        ctx.done = True
                act_list = alive
                act_rows = np.array([ctx.index for ctx in act_list],
                                    dtype=np.intp)
                self._act_version += 1
            if not act_list:
                break
            self._apply_couplings(act_rows)
            next_times = self._next_time(act_rows, act_list, horizon)
            self._advance_continuous(act_rows, next_times - times)
            times[act_rows] = next_times[act_rows]
            now_values = times.tolist()
            for ctx in act_list:
                ctx.state.time = now_values[ctx.index]
            self._apply_couplings(act_rows)
            self._wake_processes(act_list)
            self._process_discrete(act_rows, act_list)
            self._maybe_sample(act_list)

        if self._single:
            return self.trace
        return self.traces

    # -- initialization -----------------------------------------------------------
    def _initialize(self) -> None:
        self._build_state()
        risky = self.system.risky_locations()
        for ctx in self._ctxs:
            for observer in ctx.observers:
                observer.begin_run(risky)
            for auto in self._autos:
                rt = auto.lanes[ctx.index]
                for observer in ctx.observers:
                    observer.register_automaton(rt.name, rt.location.name,
                                                auto.ca.risky_locations)
            for process in ctx.processes:
                process.initialize(ctx.facade)
        all_rows = np.arange(self.batch, dtype=np.intp)
        self._apply_couplings(all_rows)
        self._wake_processes(self._ctxs)
        self._process_discrete(all_rows, self._ctxs)
        self._maybe_sample(self._ctxs, force=True)

    # -- continuous phase -----------------------------------------------------------
    def _apply_couplings(self, act_rows) -> None:
        for program in self._coupling_programs:
            program(act_rows)

    def _next_time(self, act_rows, act_list, horizon: float):
        """Vectorized earliest-relevant-instant per lane (absolute times)."""
        times = self._times
        best = np.full(self.batch, horizon, dtype=np.float64)
        needs_sampling = np.zeros(self.batch, dtype=bool)
        if self._base_needs_sampling:
            needs_sampling[act_rows] = True
        if self._cross_total:
            # One 2-D pass over the global crossing table schedules every
            # stacked linear crossing of every automaton and lane.  Entries
            # that are satisfied (0), unreachable (inf) or within EPSILON
            # map to inf exactly as the scheduler ignores them, so the row
            # minimum equals folding each crossing separately.
            rows = act_rows
            V = self._X[rows[:, None], self._C_col[rows]]
            thr = self._C_thr[rows]
            sthr = self._C_sthr[rows]
            u = V * self._C_sign[rows]
            cur = np.where(self._C_strict[rows], u < sthr, u <= sthr)
            delay = (thr - V) / self._C_rate[rows]
            out = np.where(delay < 0, math.inf, np.maximum(delay, 0.0))
            if self._cross_has_eq:
                eq = self._C_eq[rows]
                cur = np.where(eq, np.abs(V - thr) <= EPSILON, cur)
                out = np.where(eq, np.where(delay > 0, delay, math.inf), out)
            out = np.where(cur == self._C_want[rows], 0.0, out)
            out = np.where(out > EPSILON, out, math.inf)
            best[rows] = np.minimum(best[rows], times[rows] + out.min(axis=1))
        version = self._act_version
        for auto in self._sched_autos:
            arr = auto.arr
            for loc_index, rows in auto.groups(act_rows, version):
                bl = auto.tab.locations[loc_index]
                if bl.sampling_only:
                    if not self._base_needs_sampling:
                        needs_sampling[rows] = True
                    continue
                if bl.dynamic:
                    self._next_time_dynamic(auto, loc_index, rows, best,
                                            needs_sampling)
                    continue
                if bl.vec_cross:
                    now_rows = times[rows]
                    for entry in bl.vec_cross:
                        delay = entry.delay(arr, rows)
                        if entry.may_sample:
                            invalid = np.isnan(delay)
                            if invalid.any():
                                needs_sampling[rows[invalid]] = True
                        ok = np.isfinite(delay) & (delay > EPSILON)
                        best[rows] = np.minimum(
                            best[rows],
                            np.where(ok, now_rows + delay, math.inf))
                if bl.scalar_cross:
                    self._next_time_scalar(auto, bl, rows, best, needs_sampling)
        for ctx in act_list:
            index = ctx.index
            now = ctx.state.time
            for process in ctx.processes:
                wakeup = process.next_wakeup(now)
                if wakeup is not None and math.isfinite(wakeup):
                    candidate = max(wakeup, now)
                    if candidate < best[index]:
                        best[index] = candidate
        if needs_sampling.any():
            cap = times + self.dt_max
            best = np.where(needs_sampling & (cap < best), cap, best)
        next_times = np.minimum(best, horizon)
        forced = next_times <= times + EPSILON
        if forced.any():
            next_times = np.where(forced,
                                  np.minimum(times + _MIN_ADVANCE, horizon),
                                  next_times)
        return next_times

    def _next_time_scalar(self, auto: _BatchedAutomaton, bl: BatchedLocation,
                          rows, best, needs_sampling) -> None:
        """Per-lane generic crossing programs (non-vectorizable predicates)."""
        times = self._times
        lanes = auto.lanes
        for b in rows.tolist():
            rt = lanes[b]
            values = rt.values
            view = rt.view
            now = times[b]
            for program in bl.scalar_cross:
                delay = program(values, view)
                if delay is None:
                    needs_sampling[b] = True
                elif math.isfinite(delay) and delay > EPSILON:
                    candidate = now + delay
                    if candidate < best[b]:
                        best[b] = candidate

    def _next_time_dynamic(self, auto: _BatchedAutomaton, loc_index: int,
                           rows, best, needs_sampling) -> None:
        """Affine flow of unknown shape: reference semantics per lane."""
        times = self._times
        cl = auto.ca.locations[loc_index]
        for b in rows.tolist():
            rt = auto.lanes[b]
            now = times[b]
            rates = cl.flow.rates(rt.view)
            for ce in cl.asap_edges:
                delay = ce.edge.guard.time_until_true(rt.view, rates)
                if delay is None:
                    needs_sampling[b] = True
                elif math.isfinite(delay) and delay > EPSILON:
                    candidate = now + delay
                    if candidate < best[b]:
                        best[b] = candidate
            inv_delay = cl.invariant.time_until_false(rt.view, rates)
            if inv_delay is None:
                needs_sampling[b] = True
            elif math.isfinite(inv_delay) and inv_delay > EPSILON:
                candidate = now + inv_delay
                if candidate < best[b]:
                    best[b] = candidate

    def _advance_continuous(self, act_rows, dt) -> None:
        positive = dt > 0
        # Forced progress in _next_time makes dt > 0 for every active lane
        # except at the horizon clamp, so skip the filtering gather then.
        all_positive = bool(positive[act_rows].all())
        moving_all = act_rows if all_positive else act_rows[positive[act_rows]]
        if moving_all.size:
            # Every constant-rate slot of every automaton and lane advances
            # in one masked operation; the driven mask copies non-driven
            # slots through bit-exactly (no ``x + 0.0*dt`` sign flips).
            segment = self._X[moving_all]
            self._X[moving_all] = np.where(
                self._D[moving_all],
                segment + self._R[moving_all] * dt[moving_all, None],
                segment)
        version = self._act_version
        for auto in self._nonconst_autos:
            for loc_index, rows in auto.groups(act_rows, version):
                bl = auto.tab.locations[loc_index]
                if not bl.scalar_advance:
                    continue
                moving = rows if all_positive else rows[positive[rows]]
                if moving.size == 0:
                    continue
                self._advance_scalar(auto, loc_index, moving, dt)

    def _advance_scalar(self, auto: _BatchedAutomaton, loc_index: int,
                        rows, dt) -> None:
        """Per-lane fallback: the compiled kernel's advance, lane by lane."""
        cl = auto.ca.locations[loc_index]
        dts = dt.tolist()
        lanes = rows.tolist()
        if cl.advance_program is not None:
            # The lowered RK4 runs on plain-float copies of the lanes' rows
            # (exact round trip), written back in one assignment.
            block = auto.arr[rows].tolist()
            for values, b in zip(block, lanes):
                cl.advance_program(values, dts[b], auto.lanes[b])
            auto.arr[rows] = block
            return
        for b in lanes:
            rt = auto.lanes[b]
            new_valuation = cl.flow.advance(rt.view, dts[b])
            # Every write goes through rt.set: a runtime-new variable can
            # grow the state matrix mid-loop, which rebinds rt.values — a
            # captured local would write into the detached old array.
            for name, value in new_valuation.items():
                rt.set(name, value)

    # -- environment ----------------------------------------------------------------
    def _wake_processes(self, act_list) -> None:
        for ctx in act_list:
            now = ctx.state.time
            for process in ctx.processes:
                wakeup = process.next_wakeup(now)
                if wakeup is None or wakeup > now + EPSILON:
                    continue
                key = id(process)
                if ctx.last_wake.get(key) == now:
                    continue
                ctx.last_wake[key] = now
                process.wake(ctx.facade, now)

    # -- discrete phase ----------------------------------------------------------------
    def _process_discrete(self, act_rows, act_list) -> None:
        """Vectorized may-fire pre-check, then per-lane cascades where needed."""
        maybe = self._pending_mask.copy()
        version = self._act_version
        for auto in self._autos:
            arr = auto.arr
            for loc_index, rows in auto.groups(act_rows, version):
                bl = auto.tab.locations[loc_index]
                if not bl.has_asap:
                    continue
                if bl.precheck_always:
                    maybe[rows] = True
                    continue
                hit = bl.precheck_guards[0].evaluate(arr, rows)
                for guard in bl.precheck_guards[1:]:
                    hit = hit | guard.evaluate(arr, rows)
                if hit.any():
                    maybe[rows[hit]] = True
        if not maybe.any():
            return
        ctxs = self._ctxs
        for index in np.flatnonzero(maybe).tolist():
            self._process_discrete_lane(ctxs[index])

    def _process_discrete_lane(self, ctx: _LaneContext) -> None:
        for _ in range(self.max_cascade):
            fired_any = False
            for auto in self._autos:
                if self._fire_one(ctx, auto):
                    fired_any = True
            if not fired_any:
                break
        else:
            raise ZenoError(
                f"more than {self.max_cascade} cascaded transition rounds at "
                f"t={ctx.state.time:.6f}s; the model is (quasi-)Zeno")
        # Unconsumed events do not persist across time instants.
        for auto in self._autos:
            auto.lanes[ctx.index].pending.clear()
        self._pending_mask[ctx.index] = False

    def _fire_one(self, ctx: _LaneContext, auto: _BatchedAutomaton) -> bool:
        """Fire at most one enabled edge of this lane's automaton."""
        rt = auto.lanes[ctx.index]
        location = rt.location
        edges = location.edges
        if not edges:
            return False
        pending = rt.pending
        if not pending and not location.has_asap:
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
        self._take_edge(ctx, rt, chosen, trigger_root)
        return True

    def _take_edge(self, ctx: _LaneContext, rt: _LaneRuntime, ce: CompiledEdge,
                   trigger_root: str | None) -> None:
        now = ctx.state.time
        if ce.assignments is not None:
            values = rt.values
            for slot, value in ce.assignments:
                values[slot] = value
        else:
            new_valuation = ce.edge.reset.apply(rt.view)
            for name, value in new_valuation.items():
                rt.set(name, value)
        rt.move_to(ce.target_index, now)
        record = TransitionRecord(
            time=now, automaton=rt.name, source=ce.source_name,
            target=ce.target_name, reason=ce.reason, trigger_root=trigger_root,
            emitted=ce.emits)
        for observer in ctx.observers:
            observer.on_transition(record)
        for process in ctx.processes:
            process.notify_transition(ctx.facade, record)
        for root in ce.emits:
            self._broadcast_lane(ctx, root, rt.name)

    def _broadcast_lane(self, ctx: _LaneContext, root: str, sender: str) -> None:
        """Deliver event ``root`` to every interested receiver of one lane."""
        receivers = self.compiled.receivers_of(root)
        sender_entity = self.compiled.entity_of.get(sender, sender)
        now = ctx.state.time
        index = ctx.index
        delivered_any = False
        for receiver_index, receiver_name, lossy, receiver_entity in receivers:
            if receiver_name == sender:
                continue
            same_entity = sender_entity == receiver_entity
            if lossy and not same_entity:
                delivered = ctx.network.attempt_delivery(
                    sender_entity, receiver_entity, root, now)
            else:
                delivered = True
            record = EventRecord(
                time=now, root=root, sender=sender, receiver=receiver_name,
                delivered=delivered, lossy=lossy and not same_entity)
            for observer in ctx.observers:
                observer.on_event(record)
            if delivered:
                self._autos[receiver_index].lanes[index].pending.append(
                    _PendingEvent(root, sender))
                delivered_any = True
        if delivered_any:
            self._pending_mask[index] = True

    # -- sampling ----------------------------------------------------------------------
    def _maybe_sample(self, act_list, force: bool = False) -> None:
        if not self.record_variables:
            return
        next_sample = self._next_sample
        for ctx in act_list:
            index = ctx.index
            now = ctx.state.time
            if not force and now + EPSILON < next_sample[index]:
                continue
            state = ctx.state
            for automaton_name, variable in self.record_variables:
                value = float(state.value_of(automaton_name, variable))
                for observer in ctx.observers:
                    observer.on_sample(automaton_name, variable, now, value)
            next_sample[index] = now + self.sample_interval
