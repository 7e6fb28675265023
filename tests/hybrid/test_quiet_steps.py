"""Differential tests of the compiled engine's quiet-step path.

A quiet step skips the scheduler scan, process polling, the guard scans of
runtimes that cannot fire and (when settled) the pre-step couplings, and
runs of quiet steps execute as one generated stretch loop.  Each test here
runs the reference engine and the compiled engine on fresh ingredients
and compares transitions, event deliveries and samples bit for bit
(``sample_interval`` is below ``dt_max`` unless a test sets it, so every
step time is sampled).  The fixed systems each break one eligibility rule
of a naive quiet path; ``tools/engine_mutants.py`` checks that they catch
a mutant of each rule.  The generated ones mix long quiet stretches with
the constructs those rules guard.
"""

import copy
import dis
import functools
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.casestudy import CaseStudyConfig
from repro.casestudy.emulation import build_case_study
from repro.hybrid import (And, BoxPredicate, CallableFlow, CallbackProcess,
                          CompiledEngine, Edge, EnvironmentProcess, FunctionCoupling,
                          HybridAutomaton, HybridSystem, LocationIndicatorCoupling,
                          Location, Not, Or, Predicate, Reset, SimulationEngine, TRUE,
                          VariableCopyCoupling, clock_flow, compile_system, receive, var_ge,
                          var_le)
from repro.util.timebase import EPSILON

DT_MAX = 0.1
HORIZON = 40.0

#: Below ``DT_MAX``: every step lands on a sample, so samples pin step times.
EVERY_STEP = 0.01


def source_automaton(output: str = "y") -> HybridAutomaton:
    """Non-affine automaton ``src`` whose ``output`` grows at rate 3."""
    flow = CallableFlow(lambda y: 3.0, inputs={output: 0.0}, outputs=(output,),
                        description="ramp", substep=0.05)
    automaton = HybridAutomaton("src", variables=[output],
                                initial_valuation={output: 0.0})
    automaton.add_location(Location("src.Run", flow=flow))
    automaton.initial_location = "src.Run"
    return automaton


def relax_automaton() -> HybridAutomaton:
    """Non-affine automaton ``ode`` relaxing ``y`` toward its inputs ``u + v``."""
    flow = CallableFlow(lambda y, u, v: 0.7 * (u + v - y),
                        inputs={"y": 0.0, "u": 0.0, "v": 0.0}, outputs=("y",),
                        description="relaxation", substep=0.05)
    automaton = HybridAutomaton("ode", variables=["y", "u", "v"],
                                initial_valuation={"y": 0.0, "u": 0.0, "v": 0.0})
    automaton.add_location(Location("ode.Track", flow=flow))
    automaton.initial_location = "ode.Track"
    return automaton


def one_shot(name: str, guard: Predicate, rates: dict, invariant=TRUE,
             initial: dict | None = None, emits=()) -> HybridAutomaton:
    """Affine automaton taking one ASAP edge ``Wait -> Done`` on ``guard``."""
    automaton = HybridAutomaton(name, variables=[*rates, *(initial or {})],
                                initial_valuation=initial or {})
    automaton.add_location(Location(f"{name}.Wait", flow=clock_flow(extra=rates),
                                    invariant=invariant))
    automaton.add_location(Location(f"{name}.Done", flow=clock_flow(extra=rates)))
    automaton.initial_location = f"{name}.Wait"
    automaton.add_edge(Edge(f"{name}.Wait", f"{name}.Done", guard=guard,
                            emits=emits, reason="fire"))
    return automaton


def run_pair(build, *, horizon=HORIZON, record=(("src", "y"),), runs=1,
             sample_interval=EVERY_STEP):
    """Run ``build()``'s system on both engines; return (reference, compiled).

    ``build`` returns ``(system, processes, couplings)`` and is called once
    per engine, so stateful processes and couplings start fresh.  Each
    engine runs ``runs`` times; the last trace is returned.
    """
    results = []
    for engine_cls in (SimulationEngine, CompiledEngine):
        system, processes, couplings = build()
        engine = engine_cls(system, processes=processes, couplings=couplings,
                            seed=11, dt_max=DT_MAX, record_variables=list(record),
                            sample_interval=sample_interval)
        for _ in range(runs):
            trace = engine.run(horizon)
        results.append((engine, trace))
    (_, reference), (compiled, trace) = results
    assert reference.transitions == trace.transitions
    assert reference.events == trace.events
    assert reference.end_time == trace.end_time
    for automaton, variable in record:
        assert reference.series(automaton, variable) == trace.series(automaton, variable)
    return reference, compiled


def fire_time(trace, automaton: str) -> float:
    """Time of ``automaton``'s first transition."""
    return trace.transitions_of(automaton)[0].time


# ---------------------------------------------------------------------------
# Fixed systems, one per eligibility rule
# ---------------------------------------------------------------------------

class TestRegressionSystems:
    def test_guard_on_coupled_slot(self):
        """``x' = 1`` guard ``x >= 50`` whose ``x`` a faster source overwrites."""
        def build():
            system = HybridSystem("coupled-guard")
            system.add(source_automaton())
            system.add(one_shot("watch", var_ge("x", 50.0), {"x": 1.0}))
            couplings = [VariableCopyCoupling(source_automaton="src", source_variable="y",
                                              target_automaton="watch",
                                              target_variable="x")]
            return system, [], couplings

        reference, compiled = run_pair(build)
        assert fire_time(reference, "watch") == pytest.approx(16.7, abs=0.05)
        assert compiled.quiet_steps > 0

    def test_plan_follows_couplings_changed_between_runs(self):
        """One lowered system and one engine per tier, run without, with and
        again without the coupling that makes the guard's ``x`` a hazard,
        then at another ``dt_max``: each run gets its own quiet-step plan."""
        system = HybridSystem("coupled-guard")
        system.add(source_automaton())
        system.add(one_shot("watch", var_ge("x", 50.0), {"x": 1.0}))
        lowered = compile_system(system)
        copy = VariableCopyCoupling(source_automaton="src", source_variable="y",
                                    target_automaton="watch", target_variable="x")
        options = dict(seed=11, record_variables=[("src", "y")], sample_interval=EVERY_STEP)
        engines = (SimulationEngine(system, dt_max=DT_MAX, **options),
                   CompiledEngine(lowered, dt_max=DT_MAX, **options))
        for couplings in ([], [copy], []):
            for engine in engines:
                engine.couplings[:] = couplings
            reference, trace = (engine.run(HORIZON) for engine in engines)
            assert reference.transitions == trace.transitions
            assert reference.series("src", "y") == trace.series("src", "y")
            assert len(trace.transitions) == len(couplings)
        engines = (SimulationEngine(system, dt_max=0.3, couplings=[copy], **options),
                   CompiledEngine(lowered, dt_max=0.3, couplings=[copy], **options))
        reference, trace = (engine.run(HORIZON) for engine in engines)
        assert reference.transitions == trace.transitions
        assert reference.series("src", "y") == trace.series("src", "y")
        assert len(lowered.quiet_plans) == 3

    def test_guard_on_tiny_rate(self):
        """``x >= 1e-7`` under ``x' = 4e-9`` turns true 0.25 s early."""
        def build():
            system = HybridSystem("tiny-rate")
            system.add(source_automaton())
            system.add(one_shot("watch", var_ge("x", 1e-7), {"x": 4e-9}))
            return system, [], []

        reference, compiled = run_pair(build)
        assert fire_time(reference, "watch") == pytest.approx(24.8, abs=0.05)
        assert compiled.quiet_steps > 0

    @pytest.mark.parametrize("rate", [5e-10, 0.5 * EPSILON / DT_MAX,
                                      EPSILON / DT_MAX, 2.0 * EPSILON / DT_MAX])
    def test_rates_around_the_tolerance_bound(self, rate):
        def build():
            system = HybridSystem("rates")
            system.add(source_automaton())
            system.add(one_shot("watch", var_ge("x", rate * 17.3), {"x": rate}))
            return system, [], []

        run_pair(build)

    def test_short_and_window_behind_a_none_probe(self):
        """An And whose probe fails (``None``) although it holds for 0.04 s.

        ``x >= th`` (rate 2e-8, just above ``EPSILON/dt_max``) turns true
        0.05 s before its crossing at 20.03 s; ``w <= 3`` stops holding at
        20.02 s.  The step at 20.0 s lands in the window.
        """
        x_rate, w_rate = 2e-8, 3.0 / 20.02
        guard = And((var_ge("x", x_rate * 20.03), var_le("w", 3.0)))

        def build():
            system = HybridSystem("short-window")
            system.add(source_automaton())
            system.add(one_shot("watch", guard, {"x": x_rate, "w": w_rate}))
            return system, [], []

        reference, compiled = run_pair(build)
        assert fire_time(reference, "watch") == pytest.approx(20.0, abs=1e-6)

    def test_box_invariant_entered_and_left(self):
        """Outside the box the invariant's delay is 0; inside it is the exit."""
        def build():
            flow = clock_flow("c", "x")
            watch = HybridAutomaton("watch", variables=["c", "x"])
            watch.add_location(Location("watch.Start", flow=flow))
            watch.add_location(Location("watch.Boxed", flow=flow,
                                        invariant=BoxPredicate("x", 5.0, 10.03)))
            watch.initial_location = "watch.Start"
            watch.add_edge(Edge("watch.Start", "watch.Boxed", guard=var_ge("c", 0.5),
                                reason="arm"))
            system = HybridSystem("box-invariant")
            system.add(source_automaton())
            system.add(watch)
            return system, [], []

        _, compiled = run_pair(build)
        assert compiled.quiet_steps > 0

    def test_generic_predicate_guard(self):
        """A predicate claiming no crossing (``inf``) but turning true."""
        class Threshold(Predicate):
            def evaluate(self, valuation):
                return valuation.get("x", 0.0) >= 7.33

            def time_until_true(self, valuation, rates):
                return 0.0 if self.evaluate(valuation) else math.inf

        def build():
            system = HybridSystem("generic")
            system.add(source_automaton())
            system.add(one_shot("watch", Threshold(), {"x": 1.0}))
            return system, [], []

        reference, compiled = run_pair(build)
        assert fire_time(reference, "watch") == pytest.approx(7.4, abs=0.05)
        assert compiled.quiet_steps > 0

    def test_non_idempotent_coupling_order(self):
        """``v <- w`` runs before ``w <- y``: applying the pair twice moves ``v``.

        The flow integrates ``v`` between the pre- and post-step couplings,
        so skipping the pre-step pass would integrate a stale input.
        """
        def build():
            system = HybridSystem("coupling-order")
            system.add(source_automaton(output="s"))
            system.add(relax_automaton())
            system.add(one_shot("sink", var_ge("c", 1e9), {"c": 1.0},
                                initial={"w": 0.0}))
            couplings = [
                VariableCopyCoupling(source_automaton="sink", source_variable="w",
                                     target_automaton="ode", target_variable="v"),
                VariableCopyCoupling(source_automaton="src", source_variable="s",
                                     target_automaton="sink", target_variable="w"),
            ]
            return system, [], couplings

        _, compiled = run_pair(build, record=(("ode", "y"),))
        assert compiled.quiet_steps > 0

    def test_firings_finish_the_round_in_order(self):
        """A quiet-step firing broadcasts to runtimes before and after it.

        ``mid`` (scanned: its guard reads a coupled slot) emits ``go``;
        ``late`` must take its edge in the same round, ``early`` in the next.
        Both then reach a clock deadline 0.35 s later, which the quiet path
        must not step over.
        """
        def listener(name: str) -> HybridAutomaton:
            clock = f"c_{name}"
            automaton = HybridAutomaton(name, variables=[clock])
            for loc in ("Idle", "Got", "Over"):
                automaton.add_location(Location(f"{name}.{loc}", flow=clock_flow(clock)))
            automaton.initial_location = f"{name}.Idle"
            automaton.add_edge(Edge(f"{name}.Idle", f"{name}.Got",
                                    trigger=receive("go"), reset=Reset({clock: 0.0}),
                                    reason="got"))
            automaton.add_edge(Edge(f"{name}.Got", f"{name}.Over",
                                    guard=var_ge(clock, 0.35), reason="over"))
            return automaton

        def build():
            system = HybridSystem("round-order")
            system.add(listener("early"), entity="early")
            system.add(one_shot("mid", var_ge("v", 30.0), {"c": 1.0}, emits=["go"]),
                       entity="mid")
            system.add(listener("late"), entity="late")
            system.add(source_automaton(), entity="src")
            couplings = [VariableCopyCoupling(source_automaton="src", source_variable="y",
                                              target_automaton="mid",
                                              target_variable="v")]
            return system, [], couplings

        reference, compiled = run_pair(build)
        assert [r.automaton for r in reference.transitions] == [
            "mid", "late", "early", "early", "late"]
        assert compiled.quiet_steps > 0

    def test_guard_within_epsilon_of_a_short_window(self):
        """A scan sees ``Or(box, c >= 20)`` cross in 5e-10 s (``<= EPSILON``).

        ``x = 1 + 4t`` passes the 0.01-wide box between two steps, so the
        guard does not fire; its next crossing is ``c = 20``.
        """
        def build():
            flow = clock_flow("c", extra={"x": 4.0})
            watch = HybridAutomaton("watch", variables=["c", "x"])
            for loc in ("Start", "Wait", "Done"):
                watch.add_location(Location(f"watch.{loc}", flow=flow))
            watch.initial_location = "watch.Start"
            watch.add_edge(Edge("watch.Start", "watch.Wait", guard=var_ge("c", 0.5),
                                reset=Reset({"c": 0.0, "x": 1.0}), reason="arm"))
            low = 1.0 + 2e-9
            watch.add_edge(Edge("watch.Wait", "watch.Done",
                                guard=Or((BoxPredicate("x", low, low + 0.01),
                                          var_ge("c", 20.0))),
                                reason="late"))
            system = HybridSystem("epsilon-window")
            system.add(source_automaton())
            system.add(watch)
            return system, [], []

        reference, compiled = run_pair(build)
        assert fire_time(reference, "watch") == 0.5
        assert reference.transitions_of("watch")[1].time == pytest.approx(20.5)
        assert compiled.quiet_steps > 0

    def test_or_invariant_probe_turns_into_an_exit(self):
        """``Or(box, c <= 4)``'s probe fails (``None``) until x enters the box.

        ``x = 2t`` is in the box on [2.5, 5.015] s; inside it the
        invariant's exit at 5.015 s becomes a deadline.
        """
        def build():
            system = HybridSystem("or-invariant")
            system.add(source_automaton())
            system.add(one_shot("watch", var_ge("c", 1e9), {"c": 1.0, "x": 2.0},
                                invariant=Or((BoxPredicate("x", 5.0, 10.03),
                                              var_le("c", 4.0)))))
            return system, [], []

        _, compiled = run_pair(build)
        assert compiled.quiet_steps > 0

    def test_process_polled_every_step(self):
        """A ``-inf`` wakeup is never a deadline, yet wakes on every step."""
        class Poller(EnvironmentProcess):
            def initialize(self, engine):
                self.wakes = 0

            def next_wakeup(self, now):
                return -math.inf

            def wake(self, engine, now):
                self.wakes += 1
                if self.wakes == 150:
                    engine.inject_event("poke")

        def build():
            watch = one_shot("watch", var_ge("x", 1e9), {"x": 1.0})
            watch.add_edge(Edge("watch.Wait", "watch.Done", trigger=receive("poke"),
                                reason="poked"))
            system = HybridSystem("poller")
            system.add(source_automaton())
            system.add(watch)
            return system, [Poller()], []

        reference, _ = run_pair(build)
        assert fire_time(reference, "watch") == pytest.approx(14.9, abs=0.05)

    @pytest.mark.parametrize("rate", [2e-8, 3e-8, 7e-8])
    def test_crossing_far_from_zero_drifts(self, rate):
        """At ``x ~ 1e6`` each ``x += r*dt`` rounds by ~3 ms of crossing time."""
        def build():
            system = HybridSystem("drift")
            system.add(source_automaton())
            system.add(one_shot("watch", var_ge("x", 1e6 + rate * 30.0), {"x": rate},
                                initial={"x": 1e6}))
            return system, [], []

        run_pair(build)

    def test_coupling_calling_set_variable(self):
        """A generic coupling writing a guarded slot once, mid quiet stretch."""
        def build():
            done = []

            def kick(engine):
                if engine.now >= 12.0 and not done:
                    done.append(engine.now)
                    engine.set_variable("watch", "x", 30.0)

            system = HybridSystem("set-variable")
            system.add(source_automaton())
            system.add(one_shot("watch", var_ge("x", 25.0), {"x": 1.0}))
            return system, [], [FunctionCoupling(kick)]

        reference, compiled = run_pair(build)
        assert fire_time(reference, "watch") == pytest.approx(12.0, abs=0.15)
        assert compiled.quiet_steps > 0

    def test_coupling_calling_inject_event(self):
        """A generic coupling injecting an event once, mid quiet stretch."""
        def build():
            done = []

            def poke(engine):
                if engine.now >= 12.0 and not done:
                    done.append(engine.now)
                    engine.inject_event("poke")

            watch = one_shot("watch", var_ge("x", 1e9), {"x": 1.0})
            watch.add_edge(Edge("watch.Wait", "watch.Done", trigger=receive("poke"),
                                reason="poked"))
            system = HybridSystem("inject-event")
            system.add(source_automaton())
            system.add(watch)
            return system, [], [FunctionCoupling(poke)]

        reference, compiled = run_pair(build)
        assert fire_time(reference, "watch") == pytest.approx(12.0, abs=0.15)
        assert compiled.quiet_steps > 0

    def test_second_run_on_the_same_engine(self):
        """A run must not start from the previous run's cached deadline."""
        def build():
            system = HybridSystem("rerun")
            system.add(source_automaton())
            system.add(one_shot("watch", var_ge("x", 7.0), {"x": 1.0}))
            return system, [], [VariableCopyCoupling(
                source_automaton="src", source_variable="y",
                target_automaton="watch", target_variable="u")]

        reference, compiled = run_pair(build, runs=2)
        assert fire_time(reference, "watch") == pytest.approx(7.0, abs=1e-9)

    def test_process_wakes_that_set_and_inject(self):
        def build():
            watch = one_shot("watch", var_ge("x", 20.0), {"x": 1.0})
            watch.add_edge(Edge("watch.Done", "watch.Wait", trigger=receive("poke"),
                                reset=Reset({"x": 0.0}), reason="poked"))
            system = HybridSystem("wakes")
            system.add(source_automaton())
            system.add(watch)
            process = CallbackProcess([
                (5.05, lambda e: e.set_variable("watch", "x", 19.0)),
                (9.5, lambda e: e.inject_event("poke")),
                (30.0, lambda e: e.inject_event("poke")),
            ])
            return system, [process], []

        reference, compiled = run_pair(build)
        assert len(reference.transitions) == 4
        assert compiled.quiet_steps > 0


# ---------------------------------------------------------------------------
# Fixed systems for quiet stretches, the cushion and per-automaton deadlines
# ---------------------------------------------------------------------------

def event_listener(name: str, trigger: str, far: float = 300.0) -> HybridAutomaton:
    """``Idle --trigger?--> Got --0.35 s--> Over``; ``Idle`` also times out at ``far``."""
    clock = f"c_{name}"
    automaton = HybridAutomaton(name, variables=[clock])
    for loc in ("Idle", "Got", "Over", "Bored"):
        automaton.add_location(Location(f"{name}.{loc}", flow=clock_flow(clock)))
    automaton.initial_location = f"{name}.Idle"
    automaton.add_edge(Edge(f"{name}.Idle", f"{name}.Got", trigger=receive(trigger),
                            reset=Reset({clock: 0.0}), reason="got"))
    automaton.add_edge(Edge(f"{name}.Got", f"{name}.Over", guard=var_ge(clock, 0.35),
                            reason="over"))
    automaton.add_edge(Edge(f"{name}.Idle", f"{name}.Bored", guard=var_ge(clock, far),
                            reason="bored"))
    return automaton


class Alarm(EnvironmentProcess):
    """Injects ``poke`` ``delay`` seconds after each transition of ``watched``."""

    def __init__(self, watched: str, delay: float):
        self.watched = watched
        self.delay = delay

    def initialize(self, engine):
        self.at = None

    def next_wakeup(self, now):
        return self.at

    def notify_transition(self, engine, record):
        if record.automaton == self.watched:
            self.at = record.time + self.delay

    def wake(self, engine, now):
        self.at = None
        engine.inject_event("poke")


def reasons(trace) -> list:
    return [(r.automaton, r.reason) for r in trace.transitions]


class TestStretchesAndDeadlines:
    def test_guard_tolerance_reaches_past_the_sample_cap(self):
        """``x >= r*20.02`` under ``x' = r = 3e-8`` holds from 19.9867 s.

        The step from 19.9 s lands on 20.0 s, inside the guard's
        ``EPSILON/r`` (1/30 s) tolerance although its crossing lies 0.12 s
        away: the cushion must be ``dt_max`` plus that tolerance.
        """
        rate = 3e-8

        def build():
            system = HybridSystem("tolerance")
            system.add(source_automaton())
            system.add(one_shot("watch", var_ge("x", rate * 20.02), {"x": rate}))
            return system, [], []

        reference, compiled = run_pair(build)
        assert fire_time(reference, "watch") == pytest.approx(20.0, abs=1e-6)
        assert compiled.quiet_steps > 0.9 * compiled.steps

    def test_broadcast_to_a_runtime_with_a_kept_candidate(self):
        """``fire`` crosses at 5.05 s and emits ``go`` to the earlier ``hear``.

        ``hear`` (timeout at 300 s) and ``far`` (200 s) keep candidates far
        away.  ``hear`` must still be scanned for its pending event, and its
        new location's 0.35 s deadline must replace its kept candidate.
        """
        def build():
            system = HybridSystem("broadcast")
            system.add(event_listener("hear", "go"), entity="hear")
            system.add(one_shot("fire", var_ge("c_fire", 5.05), {"c_fire": 1.0},
                                emits=["go"]), entity="fire")
            system.add(one_shot("far", var_ge("c_far", 200.0), {"c_far": 1.0}), entity="far")
            system.add(source_automaton(), entity="src")
            return system, [], []

        reference, compiled = run_pair(build)
        assert reasons(reference) == [("fire", "fire"), ("hear", "got"), ("hear", "over")]
        assert reference.transitions[2].time == pytest.approx(5.4)
        assert compiled.quiet_steps > 0.9 * compiled.steps

    def test_wakeup_moved_by_a_transition(self):
        """``fire``'s transition at 5.05 s arms an alarm for 6.28 s.

        The wakeup candidate cached before the transition (none) must not
        survive it, while ``hear`` and ``far`` keep their far candidates.
        """
        def build():
            system = HybridSystem("alarm")
            system.add(one_shot("fire", var_ge("c_fire", 5.05), {"c_fire": 1.0}))
            system.add(event_listener("hear", "poke"))
            system.add(one_shot("far", var_ge("c_far", 200.0), {"c_far": 1.0}))
            system.add(source_automaton())
            return system, [Alarm("fire", 1.23)], []

        reference, compiled = run_pair(build)
        assert reasons(reference) == [("fire", "fire"), ("hear", "got"), ("hear", "over")]
        assert reference.transitions[1].time == pytest.approx(6.28)
        assert compiled.quiet_steps > 0.9 * compiled.steps

    def test_horizon_ends_mid_stretch(self):
        def build():
            system = HybridSystem("horizon")
            system.add(source_automaton())
            system.add(one_shot("watch", var_ge("c", 100.0), {"c": 1.0}))
            return system, [], []

        reference, compiled = run_pair(build, horizon=40.05)
        times, _ = reference.series("src", "y")
        assert times[-1] == 40.05
        assert compiled.steps - compiled.quiet_steps < 5

    @pytest.mark.parametrize("interval", [0.25, 0.37])
    def test_sample_interval_not_a_multiple_of_dt_max(self, interval):
        def build():
            system = HybridSystem("samples")
            system.add(source_automaton())
            system.add(one_shot("watch", var_ge("c", 17.33), {"c": 1.0}))
            return system, [], []

        reference, compiled = run_pair(build, sample_interval=interval)
        times, _ = reference.series("src", "y")
        assert len(times) < 0.5 * compiled.steps
        assert compiled.quiet_steps > 0.9 * compiled.steps

    def test_sampling_a_variable_without_a_slot(self):
        """A recorded variable no automaton declares samples through the engine."""
        def build():
            system = HybridSystem("unslotted")
            system.add(source_automaton())
            system.add(one_shot("watch", var_ge("c", 17.33), {"c": 1.0}))
            return system, [], []

        reference, compiled = run_pair(build, record=(("src", "y"), ("watch", "nope")),
                                       sample_interval=0.25)
        times, values = reference.series("watch", "nope")
        assert len(times) > 100 and set(values) == {0.0}
        assert compiled.quiet_steps > 0.9 * compiled.steps

    def test_a_copied_run_binds_its_own_generic_coupling(self):
        """A paused run's copy applies a generic coupling to itself.

        The coupling copies ``src.y`` into ``watch.u`` through the engine
        API; ``watch`` fires when ``u`` reaches 30 (10 s).
        """
        def build():
            system = HybridSystem("copied")
            system.add(source_automaton())
            system.add(one_shot("watch", var_ge("u", 30.0), {"c": 1.0},
                                initial={"u": 0.0}))
            coupling = FunctionCoupling(lambda engine: engine.set_variable(
                "watch", "u", engine.state.value_of("src", "y")))
            return CompiledEngine(system, couplings=[coupling], seed=11, dt_max=DT_MAX,
                                  record_variables=[("watch", "u")])

        straight = build().run(20.0)
        paused = build()
        paused.start(20.0)
        paused.advance(50)
        twin = copy.deepcopy(paused)
        for engine in (twin, paused):
            engine.advance()
            trace = engine.finish()
            assert trace.transitions == straight.transitions
            assert trace.series("watch", "u") == straight.series("watch", "u")

    def test_two_watched_automata_fire_in_one_quiet_step(self):
        """``u`` and ``v`` copy the ramp ``y = 3t``; both guards turn true at 10 s.

        ``second`` then waits, still watched, for ``v >= 45`` (15 s), which
        it reaches alone on a quiet step.
        """
        def build():
            first = one_shot("first", var_ge("u", 29.95), {"c1": 1.0}, initial={"u": 0.0})
            first.add_edge(Edge("first.Done", "first.Wait", guard=var_ge("u", 1e9),
                                reason="never"))
            second = HybridAutomaton("second", variables=["c2", "v"])
            for loc in ("Wait", "Mid", "Done"):
                second.add_location(Location(f"second.{loc}", flow=clock_flow("c2")))
            second.initial_location = "second.Wait"
            second.add_edge(Edge("second.Wait", "second.Mid", guard=var_ge("v", 29.98),
                                 reason="mid"))
            second.add_edge(Edge("second.Mid", "second.Done", guard=var_ge("v", 45.0),
                                 reason="done"))
            system = HybridSystem("two-watched")
            system.add(first)
            system.add(second)
            system.add(source_automaton())
            couplings = [VariableCopyCoupling(source_automaton="src", source_variable="y",
                                              target_automaton=name, target_variable=var)
                         for name, var in (("first", "u"), ("second", "v"))]
            return system, [], couplings

        reference, compiled = run_pair(build)
        assert reasons(reference) == [("first", "fire"), ("second", "mid"),
                                      ("second", "done")]
        first, mid, done = (r.time for r in reference.transitions)
        assert first == mid == pytest.approx(10.0)
        assert done == pytest.approx(15.0)
        assert compiled.quiet_steps > 0.9 * compiled.steps

    def test_quiet_firing_moves_an_indicator_source(self):
        """``gate`` opens at 10 s on a quiet step; the ODE's input follows.

        The indicator ``gate@Open -> ode.u`` changes with the firing, so
        the next step must apply the pre-step couplings again.
        """
        def build():
            gate = HybridAutomaton("gate", variables=["g", "s"])
            for loc in ("Closed", "Open"):
                gate.add_location(Location(f"gate.{loc}", flow=clock_flow("g")))
            gate.initial_location = "gate.Closed"
            gate.add_edge(Edge("gate.Closed", "gate.Open", guard=var_ge("s", 29.95),
                               reason="open"))
            system = HybridSystem("indicator-source")
            system.add(gate)
            system.add(relax_automaton())
            system.add(source_automaton(output="z"))
            couplings = [
                VariableCopyCoupling(source_automaton="src", source_variable="z",
                                     target_automaton="gate", target_variable="s"),
                LocationIndicatorCoupling(source_automaton="gate",
                                          source_locations={"gate.Open"},
                                          target_automaton="ode", target_variable="u"),
            ]
            return system, [], couplings

        reference, compiled = run_pair(build, record=(("ode", "y"),))
        assert fire_time(reference, "gate") == pytest.approx(10.0)
        assert compiled.quiet_steps > 0.9 * compiled.steps

    def test_sampling_stops_while_a_candidate_is_kept(self):
        """``src`` leaves its non-affine ramp at 5 s, and nothing samples after.

        ``watch``'s crossing at 20 s was cached while steps were sampled;
        once they are not, the next step must land exactly on it.
        """
        def build():
            src = source_automaton()
            src.add_location(Location("src.Still", flow=clock_flow("y")))
            src.add_edge(Edge("src.Run", "src.Still", guard=var_ge("y", 15.0),
                              reason="still"))
            system = HybridSystem("stop-sampling")
            system.add(src)
            system.add(one_shot("watch", var_ge("c", 20.0), {"c": 1.0}))
            return system, [], []

        reference, compiled = run_pair(build, record=())
        assert fire_time(reference, "watch") == pytest.approx(20.0)
        assert compiled.quiet_steps > 0


# ---------------------------------------------------------------------------
# The R/C lung: inhale/pause/exhale phases over a non-affine volume flow
# ---------------------------------------------------------------------------

def lung_system():
    """A volume-controlled ventilator driving a one-compartment R/C lung.

    Respiratory rate 15/min (4 s cycles): a 1 s inhale at tidal volume
    350 ml, a 0.25 s pause, a 2.75 s passive exhale through
    ``R = 3 cmH2O/l/s`` into ``C = 60 ml/cmH2O``.  The lung's volume flow
    is non-affine; it flags over-distension with ASAP guards on that volume.
    """
    t_i, t_ip, t_e = 1.0, 0.25, 2.75
    flow_in = 350.0 / t_i
    tau = (3.0 / 1000.0) * 60.0
    vent = HybridAutomaton("vent", variables=["c"])
    for phase in ("Inhale", "Pause", "Exhale"):
        vent.add_location(Location(f"vent.{phase}", flow=clock_flow("c")))
    vent.initial_location = "vent.Exhale"
    for source, target, duration in (("Inhale", "Pause", t_i), ("Pause", "Exhale", t_ip),
                                     ("Exhale", "Inhale", t_e)):
        vent.add_edge(Edge(f"vent.{source}", f"vent.{target}",
                           guard=var_ge("c", duration), reset=Reset({"c": 0.0}),
                           reason=target.lower()))
    volume = CallableFlow(lambda v, inhaling: flow_in if inhaling else -v / tau,
                          inputs={"v": 0.0, "inhaling": 0.0}, outputs=("v",),
                          description="R/C lung", substep=0.01)
    lung = HybridAutomaton("lung", variables=["v", "inhaling"],
                           initial_valuation={"v": 0.0, "inhaling": 0.0})
    lung.add_location(Location("lung.Normal", flow=volume))
    lung.add_location(Location("lung.Distended", flow=volume))
    lung.initial_location = "lung.Normal"
    lung.add_edge(Edge("lung.Normal", "lung.Distended", guard=var_ge("v", 300.0),
                       reason="distended"))
    lung.add_edge(Edge("lung.Distended", "lung.Normal", guard=var_le("v", 250.0),
                       reason="relaxed"))
    system = HybridSystem("rc-lung")
    system.add(vent)
    system.add(lung)
    couplings = [LocationIndicatorCoupling(source_automaton="vent",
                                           source_locations={"vent.Inhale"},
                                           target_automaton="lung",
                                           target_variable="inhaling")]
    return system, [], couplings


def test_rc_lung_phases_are_bit_identical():
    reference, compiled = run_pair(lung_system, horizon=60.0,
                                   record=(("lung", "v"),))
    reasons = {r.reason for r in reference.transitions}
    assert {"inhale", "pause", "exhale", "distended", "relaxed"} <= reasons
    assert compiled.quiet_steps > 0.3 * compiled.steps


# ---------------------------------------------------------------------------
# Generated systems with long quiet stretches
# ---------------------------------------------------------------------------

#: Rates of the watched variable: both sides of EPSILON/dt_max, <= EPSILON, 0.
RATES = (1.0, 0.37, -0.5, 3.0 * EPSILON / DT_MAX, 0.4 * EPSILON / DT_MAX,
         0.5 * EPSILON, 0.0)
GUARDS = ("ge", "box-enter", "not-box", "and", "or", "and-none", "coupled")
INVARIANTS = ("true", "box")
ACTIONS = ("set", "poke")


def _window(rate: float, start: float, end: float) -> tuple[float, float]:
    """Bounds of the values ``rate * t`` takes on ``[start, end]``."""
    low, high = sorted((rate * start, rate * end))
    return (low, high) if rate else (1.0, 2.0)


def _leaf(x: str, rate: float, at: float) -> Predicate:
    """A leaf on ``x`` that turns true ``at`` seconds in (never if frozen)."""
    if rate > 0:
        return var_ge(x, rate * at)
    if rate < 0:
        return var_le(x, rate * at)
    return var_ge(x, 1.0)


def _guard(kind: str, i: int, rate: float, at: float, other: float) -> Predicate:
    x, c = f"x{i}", f"c{i}"
    if kind == "ge":
        return _leaf(x, rate, at)
    if kind == "box-enter":
        return BoxPredicate(x, *_window(rate, at, at + other))
    if kind == "not-box":
        return Not(BoxPredicate(x, *_window(rate, -1.0, at)))
    if kind == "and":
        return And((var_ge(c, other), _leaf(x, rate, at)))
    if kind == "or":
        return Or((var_ge(c, other), _leaf(x, rate, at)))
    if kind == "and-none":
        # The probe fails: c <= at stops holding before x gets there.
        return And((_leaf(x, rate, at + other), var_le(c, at)))
    return var_ge(f"u{i}", 0.6)


@st.composite
def quiet_specs(draw):
    """Plain-data description of one generated system."""
    times = st.floats(min_value=3.0, max_value=15.0)
    members = draw(st.lists(st.fixed_dictionaries({
        "rate": st.sampled_from(RATES),
        "guard": st.sampled_from(GUARDS),
        "at": times,
        "other": times,
        "back": times,
        "invariant": st.sampled_from(INVARIANTS),
        "reply": st.booleans(),
    }), min_size=1, max_size=3))
    wakes = draw(st.lists(st.tuples(st.floats(min_value=0.0, max_value=HORIZON),
                                    st.sampled_from(ACTIONS),
                                    st.integers(min_value=0, max_value=2)),
                          max_size=3))
    return {"members": members, "wakes": wakes,
            "swapped_copies": draw(st.booleans()),
            "kick_at": draw(st.none() | st.floats(min_value=1.0, max_value=HORIZON)),
            "kick": draw(st.sampled_from(ACTIONS)),
            "echo": draw(st.none() | st.floats(min_value=0.5, max_value=5.0))}


def build_generated(spec):
    """Build a fresh ``(system, processes, couplings)`` from ``spec``.

    Member ``a{i}`` owns clock ``c{i}``, the watched ``x{i}``, the coupled
    ``u{i}`` and the copy chain's ``w{i}``.  Events cross between members
    both ways: ``a{i}`` emits ``tick{i}``, which moves ``a{i+1}`` on and
    (with ``reply``) sends ``a{i-1}`` back from ``B``; with ``echo``, an alarm pokes
    every member that long after each transition of the last one.
    """
    system = HybridSystem("generated")
    count = len(spec["members"])
    for i, member in enumerate(spec["members"]):
        name, c, x = f"a{i}", f"c{i}", f"x{i}"
        rate = member["rate"]
        rates = {c: 1.0, x: rate}
        automaton = HybridAutomaton(name, variables=[c, x, f"u{i}", f"w{i}"])
        invariant = TRUE
        if member["invariant"] == "box":
            # On B, which x may enter outside the box and then cross it.
            invariant = BoxPredicate(x, *_window(rate, member["other"],
                                                 member["other"] + member["at"]))
        automaton.add_location(Location(f"{name}.A", flow=clock_flow(extra=rates)))
        automaton.add_location(Location(f"{name}.B", flow=clock_flow(extra=rates),
                                        invariant=invariant))
        automaton.initial_location = f"{name}.A"
        automaton.add_edge(Edge(f"{name}.A", f"{name}.B",
                                guard=_guard(member["guard"], i, rate, member["at"],
                                             member["other"]),
                                reset=Reset({c: 0.0}), emits=[f"tick{i}"], reason="ab"))
        automaton.add_edge(Edge(f"{name}.B", f"{name}.A", guard=var_ge(c, member["back"]),
                                reset=Reset({c: 0.0, x: 0.0}), reason="ba"))
        automaton.add_edge(Edge(f"{name}.B", f"{name}.A", trigger=receive("poke"),
                                reset=Reset({c: 0.0, x: 0.0}), reason="poked"))
        if i:
            automaton.add_edge(Edge(f"{name}.A", f"{name}.B",
                                    trigger=receive(f"tick{i - 1}"),
                                    reset=Reset({c: 0.0}), reason="chained"))
        if member["reply"]:
            # After 0.5 s in B only, so that replies cannot cycle (Zeno).
            automaton.add_edge(Edge(f"{name}.B", f"{name}.A",
                                    trigger=receive(f"tick{(i + 1) % count}"),
                                    guard=var_ge(c, 0.5), reset=Reset({c: 0.0}),
                                    reason="reply"))
        system.add(automaton, entity=name)
    system.add(relax_automaton(), entity="ode")
    last = count - 1
    couplings = [
        LocationIndicatorCoupling(source_automaton="a0", source_locations={"a0.B"},
                                  target_automaton="ode", target_variable="u"),
        *(VariableCopyCoupling(source_automaton="ode", source_variable="y",
                               target_automaton=f"a{i}", target_variable=f"u{i}")
          for i in range(count)),
    ]
    # In list order the pair is not idempotent: v reads the w it precedes.
    copies = [VariableCopyCoupling(source_automaton=f"a{last}", source_variable=f"w{last}",
                                   target_automaton="ode", target_variable="v"),
              VariableCopyCoupling(source_automaton="ode", source_variable="y",
                                   target_automaton=f"a{last}", target_variable=f"w{last}")]
    couplings += copies if spec["swapped_copies"] else copies[::-1]

    def act(kind, index):
        i = index % count
        if kind == "set":
            return lambda engine: engine.set_variable(f"a{i}", f"x{i}", 0.0)
        return lambda engine: engine.inject_event("poke")

    processes = [CallbackProcess([(when, act(kind, index))
                                  for when, kind, index in spec["wakes"]])]
    if spec["echo"] is not None:
        processes.append(Alarm(f"a{last}", spec["echo"]))
    if spec["kick_at"] is not None:
        done, kick = [], act(spec["kick"], 0)

        def kick_once(engine):
            if engine.now >= spec["kick_at"] and not done:
                done.append(True)
                kick(engine)

        couplings.append(FunctionCoupling(kick_once))
    return system, processes, couplings


#: Sampled by the generated runs: the non-affine output and a0's state.
GENERATED_RECORD = (("ode", "y"), ("a0", "x0"))


@settings(max_examples=30, deadline=None)
@given(spec=quiet_specs())
def test_generated_systems_are_bit_identical(spec):
    run_pair(lambda: build_generated(spec), record=GENERATED_RECORD)


def test_generated_shape_goes_quiet():
    """The generator's systems do spend most steps on the quiet path."""
    spec = {"members": [{"rate": 1.0, "guard": "and", "at": 9.0, "other": 4.0,
                         "back": 6.0, "invariant": "box", "reply": True},
                        {"rate": 0.37, "guard": "box-enter", "at": 12.0,
                         "other": 5.0, "back": 7.0, "invariant": "true", "reply": False}],
            "wakes": [(17.5, "set", 1), (26.0, "poke", 0)],
            "swapped_copies": True, "kick_at": None, "kick": "set", "echo": 2.5}
    _, compiled = run_pair(lambda: build_generated(spec), record=GENERATED_RECORD)
    assert compiled.quiet_steps > 0.6 * compiled.steps


# ---------------------------------------------------------------------------
# Engine counters
# ---------------------------------------------------------------------------

def test_table1_trial_is_mostly_quiet():
    """A 300 s Table I trial takes the quiet path on at least 85% of steps."""
    config = CaseStudyConfig()
    case = build_case_study(config, with_lease=True, seed=7)
    engine = case.engine(seed=7, kind="compiled", record_trace=False,
                         record_variables=[("patient", "spo2")])
    engine.run(300.0)
    assert engine.steps >= 3000
    assert engine.quiet_steps / engine.steps >= 0.85
    engine.run(10.0)
    assert engine.steps < 3000


def test_table1_serial_seed1_counters(monkeypatch):
    """perfbench's table1-serial seed-1 campaign: two 1800 s Table I trials.

    Step counts are fixed by the reference semantics (18102 and 18077).
    Before the leaf-derived cushion and per-automaton deadlines the same
    trials took 1871 and 1733 full steps, each deriving all three affine
    automata's candidates.
    """
    from repro.campaign import run_campaign, table1_spec

    counters = []
    run = CompiledEngine.run

    def counting_run(self, horizon):
        trace = run(self, horizon)
        counters.append((self.steps, self.steps - self.quiet_steps, self.rescans))
        return trace

    monkeypatch.setattr(CompiledEngine, "run", counting_run)
    run_campaign(table1_spec(mean_toffs=(18.0,), duration=1800.0), seed=1,
                 engine="compiled", max_workers=1)
    assert [steps for steps, _, _ in counters] == [18102, 18077]
    for (_, full, rescans), parent_full in zip(counters, (1871, 1733)):
        assert full < parent_full
        assert type(rescans) is int and rescans < 3 * full


def test_table1_step_programs_call_no_rk4_program_guard_or_sample():
    """A Table I trial's quiet steps call nothing but the observers.

    The RK4 body, the watched guards and sampling are inline in each step
    program; what it calls is the full step's scheduler, processes,
    discrete phase and the observers' ``on_sample``.
    """
    config = CaseStudyConfig()
    case = build_case_study(config, with_lease=True, seed=7)
    engine = case.engine(seed=7, kind="compiled", record_variables=[("patient", "spo2")])
    engine.start(300.0)
    engine.advance()
    programs = list(engine._steps.values())
    engine.finish()
    assert len(programs) >= 10
    for step in programs:
        code = step.__code__
        loaded = {instruction.argval for instruction in dis.get_instructions(code)
                  if instruction.opname == "LOAD_GLOBAL"}
        # Globals are constants (rates, indicator values bound by name).
        calls = {name for name in loaded
                 if not isinstance(step.__globals__.get(name), (int, float))}
        assert calls == {"min"}, loaded
        assert set(code.co_freevars) <= {
            "engine", "state", "dt_max", "cushion", "process", "wake", "next_time_of",
            "interval", "o0", *(f"{kind}{i}" for kind in "rvw" for i in range(4))}
        assert "r3_remaining" in code.co_varnames  # the patient's RK4 body
    # Some vectors watch the supervisor's guard on the coupled SpO2 slot.
    assert any("process(start + cushion, 0)" in text and "(not (v0[3] > 92.000000001))" in text
               for text in engine.compiled.program_code)


def test_wrapped_kernel_runs_four_times_per_substep_in_a_stretch():
    """A kernel the translator rejects keeps its call in every RK4 stage."""
    calls = [0]

    def decay(x):
        return -0.5 * x

    @functools.wraps(decay)
    def counted(*args):
        calls[0] += 1
        return decay(*args)

    def build():
        automaton = HybridAutomaton("plant", variables=["x"], initial_valuation={"x": 1.0})
        automaton.add_location(Location("Flow", flow=CallableFlow(
            counted, inputs={"x": 1.0}, outputs=("x",), substep=0.05)))
        automaton.initial_location = "Flow"
        system = HybridSystem("wrapped")
        system.add(automaton, entity="plant")
        return system, [], []

    counts = []
    for engine_cls in (SimulationEngine, CompiledEngine):
        calls[0] = 0
        system, _, _ = build()
        engine = engine_cls(system, dt_max=DT_MAX, record_variables=[("plant", "x")],
                            sample_interval=0.25)
        engine.run(10.0)
        counts.append(calls[0])
    assert engine.quiet_steps > 0.9 * engine.steps
    # Two 0.05 s substeps per 0.1 s step, four stages each.
    assert counts[0] == counts[1] == 4 * 2 * engine.steps
