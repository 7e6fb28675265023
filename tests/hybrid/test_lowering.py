"""Property tests of the compiled lowerings against the reference methods.

Two lowerings replace generic calls on the hot path of every fast tier:

* a :class:`CallableFlow` declaration becomes an RK4 over plain slot
  floats, run by the compiled kernel (and so by every batched lane);
* True/False/Linear/Box/Not/And/Or predicate trees become slot-indexed
  ``evaluate`` / ``time_until_true`` / ``time_until_false`` programs.

Both must agree with the reference methods bit for bit, ``None``
("sample instead") results included.
"""

import math
import struct

from hypothesis import given, settings, strategies as st

from repro.casestudy.config import PatientModel
from repro.casestudy.patient import SPO2, VENTILATED, build_patient
from repro.hybrid import (And, BoxPredicate, CallableFlow, HybridAutomaton, HybridSystem,
                          Location, Not, Or, compile_system)
from repro.hybrid.expressions import (FALSE, TRUE, Comparison, FunctionPredicate,
                                      LinearInequality)
from repro.hybrid.simulate.compiled import (_STATIC_SKIP, SlotValuation, _AutomatonRuntime,
                                            _lower_crossing, _lower_delay, _lower_eval)
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
    rt.location.advance_program(rt.values, dt, rt)
    return {name: rt.values[slot] for name, slot in ca.slot_of.items()}


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


def test_reference_func_is_derived_from_the_kernel():
    flow = patient_flow()
    assert flow.func(Valuation({SPO2: 90.0, VENTILATED: 0.0})) == {
        SPO2: -MODEL.desaturation_rate}
    # Missing inputs take their declared defaults (initial SpO2, ventilated).
    assert flow.func(Valuation({})) == {SPO2: 0.0}
    assert flow.driven_variables() == {SPO2}


# ---------------------------------------------------------------------------
# Predicate programs vs evaluate / time_until_true / time_until_false
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


@settings(max_examples=400, deadline=None)
@given(predicate=predicates, state=st.tuples(values, values, values), rates=rate_maps)
def test_predicate_programs_are_bit_identical(predicate, state, rates):
    valuation = Valuation(dict(zip(VARIABLES, state)))
    slots = list(state)
    view = SlotValuation(SLOTS, slots)
    assert _lower_eval(predicate, SLOTS)(slots, view) == predicate.evaluate(valuation)
    for want, reference in ((True, predicate.time_until_true),
                            (False, predicate.time_until_false)):
        expected = reference(valuation, rates)
        assert bits(_lower_delay(predicate, rates, SLOTS, want)(slots, view)) == bits(expected)
        crossing = _lower_crossing(predicate, rates, SLOTS, want)
        if crossing is _STATIC_SKIP:
            # Skipped crossings never schedule a deadline nor request sampling.
            assert expected is not None
            assert expected == 0.0 or math.isinf(expected)
        else:
            assert bits(crossing(slots, view)) == bits(expected)


def test_and_crossing_returns_none_when_the_probe_fails():
    # x rises into [0, 1] but leaves it again before y reaches 2: no closed form.
    guard = And((BoxPredicate("x", 0.0, 1.0), LinearInequality("y", Comparison.GE, 2.0)))
    rates = {"x": 1.0, "y": 1.0}
    state = [-0.5, 0.0, 0.0]
    valuation = Valuation(dict(zip(VARIABLES, state)))
    assert guard.time_until_true(valuation, rates) is None
    program = _lower_delay(guard, rates, SLOTS, True)
    assert program(state, SlotValuation(SLOTS, state)) is None
