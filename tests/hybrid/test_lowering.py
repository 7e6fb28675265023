"""Property tests of the compiled lowerings against the reference methods.

Lowerings replace generic calls on the hot path of every fast tier:

* a :class:`CallableFlow` declaration becomes an RK4 over plain slot
  floats, run by the compiled kernel (and so by every batched lane), with
  the kernel's body inlined into the stages when the translator can
  reproduce it and a call per stage otherwise;
* an edge's guard becomes one generated expression of inline
  comparisons (the step programs inline the same expression), and a
  static-affine location's crossing candidate becomes one generated
  function with every crossing transcribed: Linear/Box leaves, Not,
  And/Or with their probes, a generic node's own ``time_until_*`` call.

Both must agree with the reference methods bit for bit, ``None``
("sample instead") results included.
"""

import functools
import math
import struct
from dataclasses import dataclass

from hypothesis import given, settings, strategies as st

from repro.casestudy.config import PatientModel
from repro.casestudy.patient import SPO2, VENTILATED, build_patient
from repro.hybrid import (And, BoxPredicate, CallableFlow, HybridAutomaton, HybridSystem,
                          Location, Not, Or, compile_system)
from repro.hybrid.expressions import (FALSE, TRUE, Comparison, FunctionPredicate,
                                      LinearInequality)
from repro.hybrid.simulate.compiled import SlotValuation, _AutomatonRuntime, _skips
from repro.hybrid.simulate.programs import lower_derive, lower_guard
from repro.hybrid.simulate.rk4 import KernelTranslation, lower_callable_advance
from repro.hybrid.variables import Valuation
from repro.util.timebase import EPSILON


def bits(value):
    """Exact identity of a result: ``None``, or the float's bit pattern."""
    return None if value is None else struct.pack("<d", value)


# ---------------------------------------------------------------------------
# CallableFlow: reference advance vs compiled RK4
# ---------------------------------------------------------------------------

MODEL = PatientModel()
SUBSTEP = 0.05

spo2_values = st.one_of(
    st.sampled_from([MODEL.spo2_baseline, MODEL.spo2_floor, MODEL.spo2_threshold,
                     MODEL.spo2_baseline - 1e-9, MODEL.spo2_floor + 1e-9]),
    st.floats(MODEL.spo2_floor - 5.0, MODEL.spo2_baseline + 5.0))
ventilated_values = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))
dt_values = st.one_of(
    st.sampled_from([0.0, 1e-13, 5e-13, SUBSTEP, 2 * SUBSTEP, 0.1, 0.123, 0.07]),
    st.floats(0.0, 1.0))


def flow_system(flow, variables, initial):
    automaton = HybridAutomaton("plant", variables=variables, initial_valuation=initial)
    automaton.add_location(Location("Flow", flow=flow))
    automaton.initial_location = "Flow"
    system = HybridSystem("lowering")
    system.add(automaton, entity="node")
    return system


def compiled_advance(system, start, dt):
    ca = compile_system(system).automata[0]
    rt = _AutomatonRuntime(ca)
    for name, value in start.items():
        rt.values[ca.slot_of[name]] = value
    advance_program(system)(rt.values, dt, rt)
    return {name: rt.values[slot] for name, slot in ca.slot_of.items()}


def advance_program(system):
    """The RK4 program of the system's first automaton: the RK4 body that
    the compiled tier's step programs inline, as a function."""
    ca = compile_system(system).automata[0]
    return lower_callable_advance(ca.locations[0].flow, ca.slot_of)


def calls_kernel(program):
    """Whether a lowered RK4 program calls its kernel (rather than inlining it)."""
    return "kernel" in program.__code__.co_names


def patient_flow():
    return build_patient(MODEL, substep=SUBSTEP).location("Physiology").flow


@settings(max_examples=200, deadline=None)
@given(spo2=spo2_values, ventilated=ventilated_values, dt=dt_values)
def test_patient_rk4_is_bit_identical_on_every_tier(spo2, ventilated, dt):
    flow = patient_flow()
    start = {SPO2: spo2, VENTILATED: ventilated}
    expected = flow.advance(Valuation(start), dt)[SPO2]
    system = HybridSystem("patient")
    system.add(build_patient(MODEL, substep=SUBSTEP), entity="patient")
    compiled = compiled_advance(system, start, dt)
    assert bits(compiled[SPO2]) == bits(expected)
    assert compiled[VENTILATED] == ventilated


def test_patient_program_inlines_the_kernel():
    system = HybridSystem("patient")
    system.add(build_patient(MODEL, substep=SUBSTEP), entity="patient")
    program = advance_program(system)
    # No kernel call and no global read: the model's fields and the
    # substep are literals and ``ventilated`` is decided once per advance.
    assert program.__code__.co_names == ()
    assert KernelTranslation(patient_flow()).decided == "(u1 > 0.5)"


def oscillator(x, v, gain, damping):
    """A two-output kernel (damped oscillator) with model parameters."""
    return v, -gain * x - damping * v


@settings(max_examples=100, deadline=None)
@given(x=st.floats(-5.0, 5.0), v=st.floats(-5.0, 5.0), drift=st.floats(-2.0, 2.0),
       dt=dt_values)
def test_multi_output_rk4_is_bit_identical(x, v, drift, dt):
    flow = CallableFlow(oscillator, inputs={"x": 0.0, "v": 0.0}, outputs=("x", "v"),
                        params=(3.0, 0.4), substep=0.03)
    # A second flow whose output the kernel never reads (pure drift).
    ramp = CallableFlow(lambda: drift, inputs={}, outputs=("r",), substep=0.03)
    for flow_, start in ((flow, {"x": x, "v": v}), (ramp, {"r": x})):
        expected = flow_.advance(Valuation(start), dt)
        system = flow_system(flow_, list(start), dict(start))
        compiled = compiled_advance(system, start, dt)
        for name in start:
            assert bits(compiled[name]) == bits(expected[name])


# ---------------------------------------------------------------------------
# Kernel translation: fixed kernel shapes, inlined or called
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Limits:
    low: float = -1.0
    high: float = 2.0
    drift: float = 0.3
    damping: float = 0.4


@dataclass
class MutableRate:
    rate: float = 0.5


def gated_decay(x, gate, rate):
    """Decays while the gate is open and holds otherwise."""
    if gate > 0.5:
        return -rate * x
    return 0.0


def ramp_then_hold(x):
    if x < 1.0:
        return 1.0
    return 0.25 * x


def piecewise(x, mode, limits):
    if mode > 0.5:
        if x > limits.high:
            return limits.high - x
        elif x < limits.low:
            return limits.low - x
        return 0.0
    if mode < -0.5:
        if x > 0.0:
            return -x
    if x < limits.high:
        return limits.drift
    return -limits.drift


def braked_oscillator(x, v, brake, gain, limits):
    if brake > 0.5:
        return v, -gain * x - limits.damping * v
    return v, -gain * x - limits.damping * v * 0.5


def guarded_ratio(x, u):
    if x > 0.0:
        if 1.0 / u > 2.0:
            return -x
        return x
    return 0.0


GLOBAL_RATE = 0.5


def global_decay(x):
    return -GLOBAL_RATE * x


def builtin_clip(x):
    return min(x, 1.0)


def mutable_decay(x, params):
    return -params.rate * x


def make_scaled(scale):
    def scaled(x):
        return -scale * x
    return scaled


@dataclass
class Scale:
    """A callable (and, comparing by value, unhashable) kernel object."""
    gain: float = 0.5

    def __call__(self, x):
        return -self.gain * x


def counting(kernel):
    """``kernel`` wrapped with a call counter, as a tracer wraps one."""
    calls = [0]

    @functools.wraps(kernel)
    def wrapper(*args):
        calls[0] += 1
        return kernel(*args)

    wrapper.calls = calls
    return wrapper


TRANSLATION_DTS = (0.0, 5e-13, 0.03, 0.1, 0.37, 1.3)


def one_variable_flow(kernel, params=(), **inputs):
    return CallableFlow(kernel, inputs={"x": 0.0, **inputs}, outputs=("x",),
                        params=params, substep=0.05)


class TestKernelTranslation:
    """Each shape's compiled RK4 matches ``CallableFlow.advance`` bit for bit."""

    @staticmethod
    def assert_bit_identical(flow, starts, dts=TRANSLATION_DTS):
        names = [name for name, _ in flow.inputs] + [
            name for name in flow.outputs if name not in dict(flow.inputs)]
        system = flow_system(flow, names, dict.fromkeys(names, 0.0))
        for start in starts:
            for dt in dts:
                expected = flow.advance(Valuation(start), dt)
                compiled = compiled_advance(system, start, dt)
                for name in start:
                    assert bits(compiled[name]) == bits(expected[name]), (start, dt, name)
        return advance_program(system)

    def test_branch_on_a_step_constant_input(self):
        flow = one_variable_flow(gated_decay, params=(0.7,), gate=1.0)
        starts = [{"x": x, "gate": gate} for x in (2.0, -0.3) for gate in (0.0, 0.5, 1.0)]
        assert not calls_kernel(self.assert_bit_identical(flow, starts))
        assert KernelTranslation(flow).decided == "(u1 > 0.5)"

    def test_branch_on_an_output_stays_in_the_stages(self):
        # x crosses 1.0 inside one advance, so a test decided once is wrong.
        flow = one_variable_flow(ramp_then_hold)
        starts = [{"x": x} for x in (0.9, 0.99, 1.0, 3.0)]
        assert not calls_kernel(self.assert_bit_identical(flow, starts))
        assert KernelTranslation(flow).decided is None

    def test_nested_branches(self):
        flow = one_variable_flow(piecewise, params=(Limits(),), mode=0.0)
        starts = [{"x": x, "mode": mode} for x in (-1.5, 0.5, 1.95, 2.5)
                  for mode in (-1.0, 0.0, 1.0)]
        assert not calls_kernel(self.assert_bit_identical(flow, starts))
        # The outermost step-constant test is decided; the others stay.
        assert KernelTranslation(flow).decided == "(u1 > 0.5)"

    def test_tuple_returns(self):
        flow = CallableFlow(braked_oscillator, inputs={"x": 0.0, "v": 0.0, "brake": 0.0},
                            outputs=("x", "v"), params=(3.0, Limits()), substep=0.03)
        starts = [{"x": x, "v": v, "brake": brake} for x, v in ((1.0, 0.0), (-0.4, 2.5))
                  for brake in (0.0, 1.0)]
        assert not calls_kernel(self.assert_bit_identical(flow, starts))

    def test_frozen_parameters_are_bound_as_constants(self):
        flow = one_variable_flow(piecewise, params=(Limits(low=-0.0, drift=math.inf),),
                                 mode=1.0)
        starts = [{"x": x, "mode": 1.0} for x in (-0.5, 0.5, 3.0)]
        program = self.assert_bit_identical(flow, starts)
        # -0.0 and inf have no exact literal: they are bound by name.
        assert set(program.__code__.co_names) == {"c0", "c1"}

    def test_a_test_that_may_raise_stays_in_the_stages(self):
        # 1.0 / u raises at u == 0.0, which the kernel never divides by
        # while x <= 0.0; decided up front it would.
        flow = one_variable_flow(guarded_ratio, u=0.0)
        starts = [{"x": -1.5, "u": 0.0}] + [{"x": 1.5, "u": u} for u in (0.25, 1.0)]
        assert not calls_kernel(self.assert_bit_identical(flow, starts))
        assert KernelTranslation(flow).decided is None

    def test_closures_lambdas_globals_and_builtins_keep_the_call(self):
        for kernel in (make_scaled(0.5), lambda x: -0.5 * x, global_decay, builtin_clip,
                       abs, Scale()):
            flow = one_variable_flow(kernel)
            program = self.assert_bit_identical(flow, [{"x": 0.7}, {"x": -2.0}])
            assert calls_kernel(program), kernel

    def test_a_wrapped_kernel_is_called_once_per_stage(self):
        kernel = counting(gated_decay)
        flow = one_variable_flow(kernel, params=(0.7,), gate=1.0)
        program = self.assert_bit_identical(flow, [{"x": 2.0, "gate": 1.0}])
        assert calls_kernel(program)
        system = flow_system(flow, ["x", "gate"], {"x": 2.0, "gate": 1.0})
        kernel.calls[0] = 0
        flow.advance(Valuation({"x": 2.0, "gate": 1.0}), 0.1)
        reference = kernel.calls[0]
        kernel.calls[0] = 0
        compiled_advance(system, {"x": 2.0, "gate": 1.0}, 0.1)
        assert kernel.calls[0] == reference == 4 * 2

    def test_a_mutable_parameter_is_read_at_every_call(self):
        params = MutableRate()
        flow = one_variable_flow(mutable_decay, params=(params,))
        system = flow_system(flow, ["x"], {"x": 1.0})
        program = advance_program(system)
        assert calls_kernel(program)
        params.rate = 2.0
        values = [1.0]
        program(values, 0.2, None)
        expected = flow.advance(Valuation({"x": 1.0}), 0.2)["x"]
        assert bits(values[0]) == bits(expected)


def test_reference_func_is_derived_from_the_kernel():
    flow = patient_flow()
    assert flow.func(Valuation({SPO2: 90.0, VENTILATED: 0.0})) == {
        SPO2: -MODEL.desaturation_rate}
    # Missing inputs take their declared defaults (initial SpO2, ventilated).
    assert flow.func(Valuation({})) == {SPO2: 0.0}
    assert flow.driven_variables() == {SPO2}


# ---------------------------------------------------------------------------
# Generated guards and crossings vs evaluate / time_until_true / time_until_false
# ---------------------------------------------------------------------------

VARIABLES = ("x", "y", "z")
THRESHOLDS = (0.0, 1.0, 2.5, -1.0)
SLOTS = {name: index for index, name in enumerate(VARIABLES)}

leaves = st.one_of(
    st.builds(LinearInequality, st.sampled_from(VARIABLES),
              st.sampled_from(list(Comparison)), st.sampled_from(THRESHOLDS)),
    st.builds(lambda var, low, width: BoxPredicate(var, low, low + width),
              st.sampled_from(VARIABLES), st.sampled_from(THRESHOLDS),
              st.sampled_from([0.0, 0.5, 2.0])),
    st.sampled_from([TRUE, FALSE]),
    # An unknown predicate type: its node keeps the generic fallback.
    st.sampled_from(VARIABLES).map(lambda var: FunctionPredicate(
        lambda valuation, var=var: valuation.get(var, 0.0) > 0.5, f"{var} > 0.5")),
)
predicates = st.recursive(
    leaves,
    lambda children: st.one_of(
        children.map(Not),
        st.lists(children, min_size=0, max_size=3).map(And),
        st.lists(children, min_size=0, max_size=3).map(Or)),
    max_leaves=8)
values = st.one_of(
    st.sampled_from([t + offset for t in THRESHOLDS + (3.0, 0.5)
                     for offset in (0.0, EPSILON, -EPSILON, 2 * EPSILON)]),
    st.floats(-4.0, 4.0))
rate_values = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 0.5, EPSILON, -EPSILON / 2]),
                        st.floats(-3.0, 3.0))
# Variables missing from the rate map stay put, even under an And/Or probe.
rate_maps = st.dictionaries(st.sampled_from(VARIABLES), rate_values)


def evaluates(predicate, slots):
    """``lower_guard``'s program on ``slots`` (``None`` is TRUE)."""
    guard = lower_guard(predicate, SLOTS, {})
    return True if guard is None else bool(guard(slots, SlotValuation(SLOTS, slots)))


def test_each_guard_source_gets_its_own_code_identity():
    # Profilers key their statistics by (file, first line, name): two
    # guards sharing that triple would be reported as one.
    def identity(guard):
        code = guard.__code__
        return code.co_filename, code.co_firstlineno, code.co_name

    cache = {}
    low = lower_guard(LinearInequality("x", Comparison.LE, 1.0), SLOTS, cache)
    high = lower_guard(LinearInequality("y", Comparison.GE, 2.5), SLOTS, cache)
    again = lower_guard(LinearInequality("x", Comparison.LE, 1.0), SLOTS, cache)
    assert identity(low) != identity(high)
    assert again.__code__ is low.__code__
    assert len(cache) == 2


def reference_derive(delays, now, cacheable):
    """``CompiledEngine._derive``'s fold of the reference crossing delays."""
    best, needs_sampling = math.inf, False
    for delay in delays:
        if delay is None:
            needs_sampling, cacheable = True, False
        elif delay > EPSILON:
            if delay != math.inf:
                best = min(best, now + delay)
        else:
            cacheable = False
    return best, cacheable, needs_sampling


def derive_bits(result):
    best, cacheable, needs_sampling = result
    return bits(best), cacheable, needs_sampling


def reference_delay(predicate, want, state, rates):
    valuation = Valuation(dict(zip(VARIABLES, state)))
    if want:
        return predicate.time_until_true(valuation, rates)
    return predicate.time_until_false(valuation, rates)


def assert_derives(sources, state, rates, now=0.0, cacheable=True):
    """``lower_derive``'s function agrees with the reference delays' fold.

    At ``now == 0.0`` the candidate is the earliest delay itself, so its
    bits are pinned.
    """
    slots = list(state)
    derive = lower_derive(sources, rates, SLOTS, {})
    reference = [reference_delay(predicate, want, state, rates) for predicate, want in sources]
    got = derive_bits(derive(slots, SlotValuation(SLOTS, slots), now, cacheable))
    assert got == derive_bits(reference_derive(reference, now, cacheable)), (sources, state)
    return reference


@settings(max_examples=400, deadline=None)
@given(predicate=predicates, state=st.tuples(values, values, values), rates=rate_maps)
def test_predicate_programs_are_bit_identical(predicate, state, rates):
    assert evaluates(predicate, list(state)) == predicate.evaluate(
        Valuation(dict(zip(VARIABLES, state))))
    for want in (True, False):
        [expected] = assert_derives([(predicate, want)], state, rates)
        if _skips(predicate, rates):
            # Skipped crossings never schedule a deadline nor request sampling.
            assert expected is not None
            assert expected == 0.0 or math.isinf(expected)


def test_skipped_crossings_are_never_candidates():
    """The skip rule drops a leaf only at ``|rate| <= EPSILON``."""
    for leaf in (LinearInequality("x", Comparison.GE, 1.0), BoxPredicate("x", 1.0, 2.0)):
        for predicate in (leaf, Not(leaf)):
            for rate in (0.0, EPSILON / 2, EPSILON, -EPSILON, 1.5 * EPSILON, -2 * EPSILON):
                for x in (1.0 - 3 * EPSILON, 1.0, 2.0 + 3 * EPSILON):
                    for want in (True, False):
                        expected = reference_delay(predicate, want, (x, 0.0, 0.0),
                                                   {"x": rate})
                        if _skips(predicate, {"x": rate}):
                            assert expected == 0.0 or math.isinf(expected)
                        else:
                            assert abs(rate) > EPSILON
    assert _skips(TRUE, {}) and _skips(Not(FALSE), {})
    # And/Or and generic nodes are never skipped, whatever their rates.
    assert not _skips(And((LinearInequality("x", Comparison.GE, 1.0),)), {})


def test_and_crossing_returns_none_when_the_probe_fails():
    # x rises into [0, 1] but leaves it again before y reaches 2: no closed form.
    guard = And((BoxPredicate("x", 0.0, 1.0), LinearInequality("y", Comparison.GE, 2.0)))
    rates = {"x": 1.0, "y": 1.0}
    [expected] = assert_derives([(guard, True)], (-0.5, 0.0, 0.0), rates)
    assert expected is None


def test_not_and_until_false_probes_the_and():
    # Not(And) stops holding when the And starts to: at the later operand
    # crossing, if the probe just after it holds.
    guard = Not(And((LinearInequality("x", Comparison.GE, 1.0),
                     LinearInequality("y", Comparison.GE, 2.0))))
    assert assert_derives([(guard, False)], (0.0, 0.0, 0.0), {"x": 1.0, "y": 1.0}) == [2.0]
    # x leaves [0, 1] again before y reaches 2: no closed form.
    shrinking = Not(And((BoxPredicate("x", 0.0, 1.0), LinearInequality("y", Comparison.GE, 2.0))))
    assert assert_derives([(shrinking, False)], (-0.5, 0.0, 0.0),
                          {"x": 1.0, "y": 1.0}) == [None]


def test_or_until_false_takes_the_latest_crossing_and_probes_it():
    # x <= 8 stops holding at 2.0 and y <= 1 at 0.5: the Or at the later.
    guard = Or((LinearInequality("x", Comparison.LE, 8.0),
                LinearInequality("y", Comparison.LE, 1.0)))
    assert assert_derives([(guard, False)], (0.0, 0.0, 0.0), {"x": 4.0, "y": 2.0}) == [2.0]
    # y >= 0.25 turns true before x <= 1 stops holding: the probe fails.
    rising = Or((LinearInequality("x", Comparison.LE, 1.0),
                 LinearInequality("y", Comparison.GE, 0.25)))
    assert assert_derives([(rising, False)], (0.0, 0.0, 0.0), {"x": 2.0, "y": 1.0}) == [None]


def test_equality_crossings_both_ways():
    equal = LinearInequality("x", Comparison.EQ, 1.0)
    cases = [((0.0, 0.0, 0.0), 0.5, True, 2.0),           # reached moving toward it
             ((2.0, 0.0, 0.0), 0.5, True, math.inf),      # moving away
             ((1.0, 0.0, 0.0), 0.5, True, 0.0),           # holds already
             ((1.0, 0.0, 0.0), 0.5, False, EPSILON),      # leaves EPSILON later
             ((0.0, 0.0, 0.0), 0.5, False, 0.0),          # does not hold
             ((0.0, 0.0, 0.0), EPSILON, True, math.inf)]  # frozen
    for state, rate, want, expected in cases:
        for predicate, wanted in ((equal, want), (Not(equal), not want)):
            assert assert_derives([(predicate, wanted)], state, {"x": rate}) == [expected]
    # Inside an And the equality's EPSILON sets the probe: x has left the
    # threshold's tolerance 2*EPSILON later, not yet EPSILON later.
    guard = And((Not(equal), LinearInequality("y", Comparison.GE, 0.0)))
    assert assert_derives([(guard, True)], (1.0, 0.0, 0.0), {"x": 0.75}) == [EPSILON]


def test_generic_node_in_an_and_probe_reads_the_probed_values():
    # y < 1 holds now (y = 0.5) but not at the probe after x's crossing.
    below = FunctionPredicate(lambda valuation: valuation.get("y", 0.0) < 1.0, "y < 1")
    guard = And((LinearInequality("x", Comparison.GE, 1.0), below))
    assert assert_derives([(guard, True)], (0.0, 0.5, 0.0), {"x": 1.0, "y": 1.0}) == [None]
    # It also holds at the probe when y stays put.
    assert assert_derives([(guard, True)], (0.0, 0.5, 0.0), {"x": 1.0}) == [1.0]


#: Non-finite thresholds on top of the finite ones.
WIDE_THRESHOLDS = THRESHOLDS + (math.inf, -math.inf)

wide_leaves = st.one_of(
    st.builds(LinearInequality, st.sampled_from(VARIABLES),
              st.sampled_from(list(Comparison)),
              st.sampled_from(WIDE_THRESHOLDS + (math.nan,))),
    st.builds(lambda var, low, width: BoxPredicate(var, low, low + width),
              st.sampled_from(VARIABLES), st.sampled_from(WIDE_THRESHOLDS),
              st.sampled_from([0.0, 0.5, 2.0, math.inf])),
    st.sampled_from([TRUE, FALSE]),
    st.sampled_from(VARIABLES).map(lambda var: FunctionPredicate(
        lambda valuation, var=var: valuation.get(var, 0.0) > 0.5, f"{var} > 0.5")),
)
wide_predicates = st.recursive(
    wide_leaves,
    lambda children: st.one_of(
        children.map(Not),
        st.lists(children, min_size=0, max_size=3).map(And),
        st.lists(children, min_size=0, max_size=3).map(Or)),
    max_leaves=6)
wide_values = st.one_of(values, st.sampled_from([math.inf, -math.inf, math.nan]))
# Rates at and below EPSILON reach the generated leaves, which decide
# ``abs(rate) <= EPSILON`` when they are generated.
wide_rates = st.dictionaries(st.sampled_from(VARIABLES), st.one_of(
    rate_values, st.sampled_from([EPSILON / 2, -EPSILON, 2 * EPSILON, 1e-300])))


@settings(max_examples=400, deadline=None)
@given(predicate=wide_predicates, state=st.tuples(wide_values, wide_values, wide_values))
def test_inline_guards_are_bit_identical(predicate, state):
    expected = predicate.evaluate(Valuation(dict(zip(VARIABLES, state))))
    assert evaluates(predicate, list(state)) == expected


@settings(max_examples=400, deadline=None)
@given(sources=st.lists(st.tuples(wide_predicates, st.booleans()), min_size=1, max_size=3),
       state=st.tuples(wide_values, wide_values, wide_values), rates=wide_rates,
       now=st.sampled_from([0.0, 3.25, 1e6]), cacheable=st.booleans())
def test_generated_derive_is_bit_identical(sources, state, rates, now, cacheable):
    assert_derives(sources, state, rates, now, cacheable)


def test_generated_derive_covers_every_leaf_shape():
    """Each Linear op, Box and a Not of each, both ways, at crossing rates."""
    leaves = [LinearInequality("x", op, 1.0) for op in Comparison]
    leaves += [BoxPredicate("x", -1.0, 1.0)]
    for leaf in leaves:
        for predicate in (leaf, Not(leaf)):
            for want in (True, False):
                for rate in (1.0, -0.5, EPSILON, 0.0):
                    for x in (-3.0, -1.0, 0.0, 1.0 - EPSILON, 1.0, 2.0):
                        assert_derives([(predicate, want)], (x, 0.0, 0.0), {"x": rate})
