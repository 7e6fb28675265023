"""Generated programs of the compiled kernel.

:class:`~repro.hybrid.simulate.compiled.CompiledEngine` runs its hot paths
as Python source generated here, compiled once per source text into a
code cache kept on the
:class:`~repro.hybrid.simulate.compiled.CompiledSystem`.  This module is
the only place where predicates are lowered:

* :func:`lower_guard` -- an edge's guard as one expression
  (:func:`guard_source`): True/False/Linear/Box/Not/And/Or nodes become
  inline comparisons, a comparison's EPSILON tolerance folded into its
  bound;
* :func:`lower_derive` -- the crossing candidate of one static-affine
  location, with every crossing transcribed operation for operation:
  Linear inequalities (equalities included) and Boxes from their
  ``_crossing_delay``, Not by flipping the wanted truth, And/Or as the
  ``min``/``max`` of their operands and the probe just after it;
* :func:`lower_step` -- the step program of one location vector: the
  quiet stretch (consecutive quiet steps as one loop) and the full step
  that follows it, with the RK4 bodies of the locations' flows
  (:func:`~repro.hybrid.simulate.rk4.advance_source`), the couplings as
  slot moves, the watched ASAP guards inline and sampling straight into
  the observers' ``on_sample``.

Every block performs the reference engine's float operations in their
order, so traces stay bit-identical.  A shape a generator cannot express
keeps its call: a generic flow's ``advance``, a kernel that
:class:`~repro.hybrid.simulate.rk4.KernelTranslation` rejects, a generic
coupling, a generic predicate node (its ``evaluate`` or
``time_until_*``), sampling of a variable that had no slot at lowering.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Sequence

from repro.hybrid.expressions import (And, BoxPredicate, Comparison, FalsePredicate,
                                      LinearInequality, Not, Or, Predicate, TruePredicate)
from repro.hybrid.flows import CallableFlow
from repro.hybrid.simulate.engine import _MIN_ADVANCE
from repro.hybrid.simulate.rk4 import advance_source
from repro.util.timebase import EPSILON

#: ``Comparison.evaluate(v, t)`` is ``v <op> t + tolerance`` for these:
#: the operator's source text and the tolerance.
BOUNDS = {Comparison.LE: ("<=", EPSILON),
          Comparison.GE: (">=", -EPSILON),
          Comparison.LT: ("<", -EPSILON),
          Comparison.GT: (">", EPSILON)}


def _literal(env: Dict[str, object], value) -> str:
    """Source text of ``value``: a literal when it is exact, else a bound name."""
    if type(value) in (int, float) and math.isfinite(value):
        text = repr(value)
        return f"({text})" if text.startswith("-") else text
    name = f"k{len(env)}"
    env[name] = value
    return name


def _bound(env: Dict[str, object], name: str, value) -> str:
    """``name``, bound to ``value`` in ``env``: sources that differ only in
    such values are one source."""
    env[name] = value
    return name


#: Numbers each compiled source, so no two share a code object's
#: ``(co_filename, co_firstlineno, co_name)``: profilers key their
#: statistics by that triple and would merge the programs that share one.
_SOURCE_NUMBERS = itertools.count()


def _compile(text: str, code_cache: Dict[str, object], kind: str):
    code = code_cache.get(text)
    if code is None:
        filename = f"<{kind} {next(_SOURCE_NUMBERS)}>"
        code = code_cache[text] = compile(text, filename, "exec")
    return code


def _indent(lines: List[str], depth: int = 1) -> List[str]:
    pad = "    " * depth
    return [pad + line for line in lines] or [pad + "pass"]


# -- guards ----------------------------------------------------------------------

def _leaf_test(leaf, value: str, env: Dict[str, object]) -> str:
    """An expression whose truth is ``leaf.holds(value)`` for a Linear/Box leaf."""
    if isinstance(leaf, LinearInequality) and leaf.op in BOUNDS:
        op, tolerance = BOUNDS[leaf.op]
        return f"({value} {op} {_literal(env, leaf.threshold + tolerance)})"
    if type(leaf) is LinearInequality:  # EQ: abs(value - t) <= EPSILON
        return f"(abs({value} - {_literal(env, leaf.threshold)}) <= EPSILON)"
    if type(leaf) is BoxPredicate:
        return (f"({_literal(env, leaf.low - EPSILON)} <= {value}"
                f" <= {_literal(env, leaf.high + EPSILON)})")
    return f"{_literal(env, leaf.holds)}({value})"


def guard_source(predicate: Predicate, slot_of, values: str, view: str,
                 env: Dict[str, object]) -> str:
    """An expression whose truth is ``predicate.evaluate``'s on the slots.

    True/False/Linear/Box/Not/And/Or nodes become inline comparisons over
    the slot list named ``values``, a comparison's EPSILON tolerance folded
    into its bound; any other node calls its ``evaluate`` on ``view``.
    """
    if isinstance(predicate, (TruePredicate, FalsePredicate)):
        return repr(isinstance(predicate, TruePredicate))
    if isinstance(predicate, (LinearInequality, BoxPredicate)):
        return _leaf_test(predicate, f"{values}[{slot_of[predicate.variable]}]", env)
    if isinstance(predicate, Not):
        return f"(not {guard_source(predicate.operand, slot_of, values, view, env)})"
    if isinstance(predicate, (And, Or)):
        parts = [guard_source(p, slot_of, values, view, env) for p in predicate.operands]
        if not parts:
            return repr(isinstance(predicate, And))
        return "(" + (" and " if isinstance(predicate, And) else " or ").join(parts) + ")"
    return f"{_literal(env, predicate.evaluate)}({view})"


def lower_guard(predicate: Predicate, slot_of, code_cache: Dict[str, object]):
    """An edge's guard as ``guard(values, view)``, true when ``predicate``
    holds on the slots; ``None`` for TRUE."""
    if isinstance(predicate, TruePredicate):
        return None
    env: Dict[str, object] = {"EPSILON": EPSILON}
    test = guard_source(predicate, slot_of, "values", "view", env)
    exec(_compile(f"def guard(values, view):\n    return {test}", code_cache, "guard"), env)
    return env["guard"]


# -- crossing candidates -------------------------------------------------------

def _leaf_delay(leaf, want: bool, rate: float, slot: int, out: str,
                env: Dict[str, object]) -> List[str]:
    """Lines setting ``out`` to ``leaf._crossing_delay(values[slot], rate, want)``.

    A subclass of a Linear inequality or a Box may override its crossing,
    so it keeps the call.  ``max(d, 0.0)`` after the ``d < 0`` test of a
    Linear leaf is ``d`` itself, so it is left out.
    """
    if type(leaf) not in (LinearInequality, BoxPredicate):
        return [f"{out} = {_literal(env, leaf._crossing_delay)}"
                f"(values[{slot}], {_literal(env, rate)}, {want})"]

    def lit(value) -> str:
        return _literal(env, value)

    lines = [f"x = values[{slot}]",
             f"if {'' if want else 'not '}{_leaf_test(leaf, 'x', env)}:",
             f"    {out} = 0.0",
             "else:"]
    if abs(rate) <= EPSILON:
        return lines + [f"    {out} = inf"]
    if type(leaf) is LinearInequality:
        delay = f"    {out} = ({lit(leaf.threshold)} - x) / {lit(rate)}"
        if leaf.op is not Comparison.EQ:
            return lines + [delay, f"    if {out} < 0:", f"        {out} = inf"]
        if want:  # an equality is reached only by moving toward it
            return lines + [delay, f"    if not {out} > 0:", f"        {out} = inf"]
        # It holds (within EPSILON of the threshold) and stops holding EPSILON later.
        return lines + [f"    {out} = EPSILON"]
    low, high = lit(leaf.low), lit(leaf.high)
    if not want:
        bound = high if rate > 0 else low
        return lines + [f"    {out} = ({bound} - x) / {lit(rate)}",
                        f"    if 0.0 > {out}:", f"        {out} = 0.0"]
    if rate > 0:
        return lines + [f"    {out} = ({low} - x) / {lit(rate)} if x < {low} else inf"]
    if rate < 0:
        return lines + [f"    {out} = (x - {high}) / {lit(-rate)} if x > {high} else inf"]
    return lines + [f"    {out} = inf"]


def _crossing(predicate: Predicate, want: bool, rates, slot_of, out: str,
              env: Dict[str, object]) -> tuple[List[str], bool]:
    """Lines setting ``out`` to ``predicate.time_until_true(view, rates)``
    (``want``) or ``time_until_false``, and whether that may be ``None``.

    Not nodes flip ``want``; an And/Or node folds its operands' delays
    into ``out`` as ``min``/``max`` would, operand ``k``'s delay in
    ``{out}_{k}``, and stops at the first ``None``; a generic node calls
    its own method.
    """
    while isinstance(predicate, Not):
        predicate, want = predicate.operand, not want
    if isinstance(predicate, (TruePredicate, FalsePredicate)):
        return [f"{out} = {0.0 if isinstance(predicate, TruePredicate) == want else 'inf'}"], False
    if isinstance(predicate, (LinearInequality, BoxPredicate)):
        lines = _leaf_delay(predicate, want, rates.get(predicate.variable, 0.0),
                            slot_of[predicate.variable], out, env)
        return lines, type(predicate) not in (LinearInequality, BoxPredicate)
    if not isinstance(predicate, (And, Or)):
        method = predicate.time_until_true if want else predicate.time_until_false
        return [f"{out} = {_literal(env, method)}(view, rates)"], True
    # And-until-false and Or-until-true take the earliest operand crossing;
    # And-until-true and Or-until-false the latest, kept only if the probe
    # just after it confirms that it sticks (And holds there, Or does not).
    latest = isinstance(predicate, And) == want
    compare = ">" if latest else "<"
    lines = [f"{out} = {0.0 if latest else 'inf'}"] if not predicate.operands else []
    maybe_none = False
    for k, operand in enumerate(predicate.operands):
        name = f"{out}_{k}" if k else out
        part, part_none = _crossing(operand, want, rates, slot_of, name, env)
        if k:
            fold = [f"if {name} {compare} {out}:", f"    {out} = {name}"]
            if part_none:
                fold = [f"if {name} is None:", f"    {out} = None", "el" + fold[0], fold[1]]
            part += fold
        lines += [f"if {out} is not None:", *_indent(part)] if maybe_none else part
        maybe_none = maybe_none or part_none
    if not latest:
        return lines, maybe_none
    # The probe is view.advanced(rates, out + EPSILON) in slots.
    test = guard_source(predicate, slot_of, "probe", "SlotValuation(view._slots, probe)", env)
    probe = [f"if {out} == inf or {out} == -inf:",
             f"    {out} = inf",
             "else:",
             f"    dt = {out} + EPSILON",
             "    probe = values[:]"]
    probe += [f"    probe[{slot_of[name]}] = probe[{slot_of[name]}] + {_literal(env, rate)} * dt"
              for name, rate in rates.items() if name in slot_of]
    probe += [f"    if {'not ' if want else ''}{test}:", f"        {out} = None"]
    return lines + ([f"if {out} is not None:", *_indent(probe)] if maybe_none else probe), True


def lower_derive(sources: Sequence, rates, slot_of, code_cache: Dict[str, object]):
    """The crossing candidate of one static-affine location as one function.

    ``sources`` are the location's ``(predicate, want)`` deadline sources
    (ASAP guards until true, the invariant until false).  Returns
    ``derive(values, view, now, cacheable) -> (candidate, cacheable,
    needs_sampling)``, the result of ``CompiledEngine._derive`` over
    their crossings: every crossing is transcribed (:func:`_crossing`),
    whether a leaf's rate passes ``abs(rate) <= EPSILON`` decided here.
    """
    from repro.hybrid.simulate.compiled import SlotValuation  # compiled imports this module

    env: Dict[str, object] = {"EPSILON": EPSILON, "inf": math.inf, "rates": rates,
                              "SlotValuation": SlotValuation}
    src = ["def derive(values, view, now, cacheable):",
           "    best = inf",
           "    needs_sampling = False"]
    for predicate, want in sources:
        lines, maybe_none = _crossing(predicate, want, rates, slot_of, "d", env)
        consume = ["if d > EPSILON:",
                   "    if d != inf:",
                   "        candidate = now + d",
                   "        if candidate < best:",
                   "            best = candidate",
                   "else:",
                   "    cacheable = False"]
        if maybe_none:
            consume = ["if d is None:",
                       "    needs_sampling = True",
                       "    cacheable = False",
                       "el" + consume[0], *consume[1:]]
        src += _indent(lines + consume)
    src.append("    return best, cacheable, needs_sampling")
    exec(_compile("\n".join(src), code_cache, "crossing candidate"), env)
    return env["derive"]


# -- step programs ---------------------------------------------------------------

def lower_step(locations: Sequence, layout: tuple, watched: tuple, samples: tuple | None,
               observers: int, idempotent: bool, code_cache: Dict[str, object]):
    """Generate the step program of one location vector.

    ``locations`` holds each runtime's current location, ``layout`` the
    engine's couplings (see ``CompiledEngine._plan_quiet_steps``),
    ``watched`` the runtimes whose ASAP guards a quiet step evaluates,
    ``samples`` the recorded ``(runtime, slot, automaton, variable)``
    targets (``None``: some target had no slot at lowering, so sampling
    calls ``_maybe_sample``) and ``observers`` how many observers the run
    has.  Returns ``bind(engine) -> step``; ``step(horizon, until)`` runs
    steps of the run loop, the first one counted and its pre-step
    couplings applied, with the run loop's exact operations.

    Each pass of its loop is one step.  A quiet step runs the clock
    increments, RK4 bodies, couplings as slot moves (an indicator is a
    constant while no location changes), the watched guards and the
    sample-due test, and calls nothing (but a flow or kernel that keeps
    its call) unless a guard fires, a generic coupling runs or a sample is
    due.  The loop ends after a step fires,
    a generic coupling invalidates the cache, the horizon is reached, step
    ``until`` (unless ``None``) is complete or a *full* step ran: the
    next time from ``_next_time``, the same continuous phase and
    couplings, the process wakeups, ``_process_discrete`` and sampling.
    ``engine.steps`` is brought up to date before any firing or sample, so
    observers read the step they run in.  Location-specific numbers (rates,
    indicator values) are bound by name, so vectors of equal shape share
    one compiled source.
    """
    env: Dict[str, object] = {"EPSILON": EPSILON, "MIN_ADVANCE": _MIN_ADVANCE}
    advance = []
    for i, loc in enumerate(locations):
        if loc.const_items is not None:
            advance += [f"v{i}[{slot}] += dt" if rate == 1.0 else
                        f"v{i}[{slot}] += {_bound(env, f'a{i}_{slot}', rate)} * dt"
                        for slot, rate in loc.const_items]
        elif isinstance(loc.flow, CallableFlow):
            advance += advance_source(loc.flow, loc.slot_of, env, f"r{i}_", f"v{i}",
                                      f"rt{i}")
        else:
            advance.append(f"advance_flow(rt{i}, dt)")
    generic = False
    couplings = []
    for k, item in enumerate(layout):
        if item[0] == "indicator":
            _, source, wanted, true_value, false_value, target, slot = item
            value = true_value if locations[source].name in wanted else false_value
            couplings.append(f"v{target}[{slot}] = {_bound(env, f'indicator{k}', value)}")
        elif item[0] == "copy":
            _, source, source_slot, target, slot = item
            couplings.append(f"v{target}[{slot}] = v{source}[{source_slot}]")
        else:
            generic = True
            couplings += [f"c{item[1]}()", "deadline = engine._deadline"]
    tests = []
    for i in watched:
        terms = []
        for ce in locations[i].asap_edges:
            terms.append("True" if ce.guard_program is None else
                         guard_source(ce.edge.guard, locations[i].slot_of, f"v{i}",
                                      f"w{i}", env))
        tests.append((i, " or ".join(terms) or "False"))
    if samples is None:
        sample = ["sample(True)",
                  "next_sample = engine._next_sample_time"]
    else:
        sample = []
        for index, slot, automaton, variable in samples:
            sample.append(f"value = v{index}[{slot}]")
            sample += [f"o{k}({automaton!r}, {variable!r}, now, value)"
                       for k in range(observers)]
        sample += ["next_sample = now + interval",
                   "engine._next_sample_time = next_sample"]

    discrete = []
    for k, (i, test) in enumerate(tests):
        discrete += [f"{'elif' if k else 'if'} {test}:",
                     "    engine.steps = base + steps",
                     f"    process(start + cushion, {i})",
                     "    settled = False",
                     "    done = True"]
    discrete += (["else:", f"    settled = {idempotent}"] if tests
                 else [f"settled = {idempotent}"])
    if generic:
        # A generic coupling may have invalidated the cache: full discrete phase.
        discrete = ["if deadline > start + cushion:", *_indent(discrete),
                    "else:",
                    "    engine.steps = base + steps",
                    "    wake()",
                    "    process()",
                    "    settled = False",
                    "    done = True"]
    step = ["engine.steps += 1",
            "if not engine._settled:", *_indent(couplings),
            "now = state.time",
            "end = horizon - EPSILON",
            "deadline = engine._deadline",
            "quiet = deadline > now + cushion",
            "next_sample = engine._next_sample_time",
            "base = engine.steps",
            # -1 never matches: a step count small enough for the
            # interpreter's fast integer compare.
            "room = -1 if until is None else until - base",
            "steps = quiet_steps = 0",
            "settled = done = False",
            "while True:",
            "    start = now",
            "    if quiet:",
            "        quiet_steps += 1",
            "        next_time = now + dt_max",
            "        if horizon < next_time:",
            "            next_time = horizon",
            "        if next_time <= now + EPSILON:",
            "            next_time = min(now + MIN_ADVANCE, horizon)",
            "    else:",
            "        engine.steps = base + steps",
            "        next_time = next_time_of(horizon)",
            "        engine._settled = False",
            "    dt = next_time - now",
            "    if dt > 0:", *_indent(advance, 2),
            "    now = next_time",
            "    state.time = now", *_indent(couplings),
            "    if quiet:", *_indent(discrete, 2),
            "    else:",
            "        threshold = start + cushion",
            "        if not engine._wake_at > threshold:",
            "            wake()",
            "        process(threshold)",
            "        settled = False",
            "        done = True"]
    if samples != ():
        step += ["    if not now + EPSILON < next_sample:",
                 "        engine.steps = base + steps", *_indent(sample, 2)]
    step += ["    if done or steps == room or not now < end:",
             "        break",
             "    steps += 1",
             "    if not settled:", *_indent(couplings, 2),
             "    quiet = deadline > now + cushion",
             "engine.steps = base + steps",
             "engine.quiet_steps += quiet_steps",
             "engine._settled = settled"]
    n = len(locations)
    src = ["def bind(engine):",
           "    runtimes = engine._runtimes",
           "    state = engine.state",
           "    dt_max = engine.dt_max",
           "    cushion = engine._cushion",
           "    process = engine._process_discrete",
           "    wake = engine._wake_processes",
           "    next_time_of = engine._next_time",
           "    sample = engine._maybe_sample",
           "    advance_flow = engine._advance_flow",
           "    programs = engine._coupling_programs",
           "    interval = engine.sample_interval"]
    src += [f"    o{k} = engine.observers[{k}].on_sample" for k in range(observers)]
    src += [f"    c{item[1]} = programs[{item[1]}]" for item in layout if item[0] == "call"]
    src += [f"    rt{i} = runtimes[{i}]" for i in range(n)]
    src += [f"    v{i} = rt{i}.values" for i in range(n)]
    src += [f"    w{i} = rt{i}.view" for i in range(n)]
    src += ["    def step(horizon, until):", *_indent(step, 2),
            "    return step"]
    exec(_compile("\n".join(src), code_cache, "step program"), env)
    return env["bind"]
