"""Property-based equivalence: the fast kernels vs the reference engine.

The compiled kernel and the batched lane driver are only allowed to be
*faster*: for every seed, every loss process and every model shape they
must produce bit-identical traces (transitions, event deliveries,
samples, timestamps) and bit-identical trial statistics.  These tests pit
the engines against each other on randomized hybrid systems, on the
laser-tracheotomy case study in both lease modes, and on the Table I
campaign — the batched engine additionally across batch widths, since
every lane must stay exactly equal to a serial run with the same seed
while sharing one lowered system with the other lanes — and also pin the
streaming observer pipeline against the historical post-hoc trace scan.
"""

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.casestudy import CaseStudyConfig, emulation, run_trial, run_trial_batch
from repro.casestudy.emulation import build_case_study, lease_ledger_from_trace
from repro.core.monitor import PTEMonitor
from repro.hybrid import (BatchedEngine, BoxPredicate, CallableFlow, CallbackProcess,
                          CompiledEngine, Edge, HybridAutomaton, HybridSystem, Lane,
                          Location, Reset, SimulationEngine, VariableCopyCoupling,
                          clock_flow, compile_system, receive_lossy, var_ge, var_le)
from repro.hybrid.simulate import TraceRecorder, build_engine, resolve_engine_kind
from repro.errors import SimulationError
from repro.hybrid.simulate.engine import Network
from repro.util.seeding import derive_seed


class SeededLossyNetwork(Network):
    """Deterministic Bernoulli loss network (fresh stream per reset)."""

    def __init__(self, loss: float):
        self.loss = loss
        self._rng = random.Random(0)

    def attempt_delivery(self, sender_entity, receiver_entity, root, now):
        return self._rng.random() >= self.loss

    def reset(self, seed=None):
        self._rng = random.Random(seed)


def periodic_automaton(name: str, period: float, *, emits=(), listens=None,
                       priority: int = 0) -> HybridAutomaton:
    """Two-location clock automaton, optionally reacting to an event."""
    clock = f"c_{name}"
    automaton = HybridAutomaton(name, variables=[clock])
    automaton.add_location(Location(f"{name}.A", flow=clock_flow(clock)))
    automaton.add_location(Location(f"{name}.B", flow=clock_flow(clock)))
    automaton.initial_location = f"{name}.A"
    automaton.add_edge(Edge(f"{name}.A", f"{name}.B", guard=var_ge(clock, period),
                            reset=Reset({clock: 0.0}), emits=list(emits),
                            reason="tick", priority=priority))
    automaton.add_edge(Edge(f"{name}.B", f"{name}.A", guard=var_ge(clock, period),
                            reset=Reset({clock: 0.0}), reason="tock"))
    if listens is not None:
        automaton.add_edge(Edge(f"{name}.B", f"{name}.A",
                                trigger=receive_lossy(listens),
                                reset=Reset({clock: 0.0}), reason="poked",
                                priority=1))
    return automaton


def bouncer_automaton(name: str) -> HybridAutomaton:
    """Box-invariant automaton bouncing a variable between 0 and 1."""
    var = f"x_{name}"
    automaton = HybridAutomaton(name, variables=[var])
    automaton.add_location(Location(f"{name}.Up", flow=clock_flow(extra={var: 0.5}),
                                    invariant=BoxPredicate(var, 0.0, 1.0)))
    automaton.add_location(Location(f"{name}.Down", flow=clock_flow(extra={var: -0.5}),
                                    invariant=BoxPredicate(var, 0.0, 1.0)))
    automaton.initial_location = f"{name}.Up"
    automaton.add_edge(Edge(f"{name}.Up", f"{name}.Down", guard=var_ge(var, 1.0),
                            reason="top"))
    automaton.add_edge(Edge(f"{name}.Down", f"{name}.Up", guard=var_le(var, 0.0),
                            reason="bottom"))
    return automaton


def ode_automaton(name: str, gain: float) -> HybridAutomaton:
    """Non-affine automaton relaxing a value toward a coupled input."""
    out, target = f"y_{name}", f"u_{name}"
    flow = CallableFlow(
        lambda y, u: gain * (u - y), inputs={out: 0.0, target: 0.0}, outputs=(out,),
        description="first-order relaxation", substep=0.05)
    automaton = HybridAutomaton(name, variables=[out, target],
                                initial_valuation={out: 0.0, target: 0.0})
    automaton.add_location(Location(f"{name}.Track", flow=flow))
    automaton.initial_location = f"{name}.Track"
    return automaton


def build_random_system(periods, loss, inject_at, gain):
    """One randomized hybrid system plus per-run engine ingredients."""
    system = HybridSystem("equivalence")
    names = [f"t{i}" for i in range(len(periods))]
    for i, (name, period) in enumerate(zip(names, periods)):
        emits = [f"ev{i}"]
        listens = f"ev{(i + 1) % len(names)}" if len(names) > 1 else None
        system.add(periodic_automaton(name, period, emits=emits, listens=listens),
                   entity=f"node-{i}")
    system.add(bouncer_automaton("bounce"), entity="node-0")
    system.add(ode_automaton("ode", gain), entity="node-0")

    def make_processes():
        return [CallbackProcess([(t, lambda e: e.inject_event("ev0"))
                                 for t in sorted(inject_at)])]

    def make_couplings():
        return [VariableCopyCoupling(
            source_automaton="bounce", source_variable="x_bounce",
            target_automaton="ode", target_variable="u_ode")]

    return system, make_processes, make_couplings


def run_engine(engine_cls, system, make_processes, make_couplings, loss, seed,
               horizon):
    engine = engine_cls(system, network=SeededLossyNetwork(loss),
                        processes=make_processes(), couplings=make_couplings(),
                        seed=seed, dt_max=0.25,
                        record_variables=[("ode", "y_ode")],
                        sample_interval=0.5)
    return engine.run(horizon)


def assert_traces_identical(reference, compiled):
    assert reference.transitions == compiled.transitions
    assert reference.events == compiled.events
    assert reference.end_time == compiled.end_time
    for automaton in reference.automata:
        assert compiled.visits(automaton) == reference.visits(automaton)


class TestRandomizedEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(
        periods=st.lists(st.floats(min_value=0.3, max_value=4.0,
                                   allow_nan=False, allow_infinity=False),
                         min_size=1, max_size=3),
        loss=st.floats(min_value=0.0, max_value=1.0),
        inject_at=st.lists(st.floats(min_value=0.0, max_value=9.0,
                                     allow_nan=False, allow_infinity=False),
                           max_size=3),
        gain=st.floats(min_value=0.1, max_value=2.0),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_random_systems_are_bit_identical(self, periods, loss, inject_at,
                                              gain, seed):
        system, make_processes, make_couplings = build_random_system(
            periods, loss, inject_at, gain)
        reference = run_engine(SimulationEngine, system, make_processes,
                               make_couplings, loss, seed, 10.0)
        compiled = run_engine(CompiledEngine, system, make_processes,
                              make_couplings, loss, seed, 10.0)
        assert_traces_identical(reference, compiled)
        assert reference.series("ode", "y_ode") == compiled.series("ode", "y_ode")


#: Batch widths the lane tests sweep: the degenerate single lane, a small
#: batch, and a wide one.
BATCH_WIDTHS = (1, 3, 17)


class TestBatchedEquivalence:
    """Every lane of a batched run == the serial reference run of its seed."""

    @pytest.mark.parametrize("width", BATCH_WIDTHS)
    def test_random_system_lanes_are_bit_identical(self, width):
        rng = random.Random(width)
        periods = [rng.uniform(0.3, 4.0) for _ in range(3)]
        loss = 0.4
        inject_at = [1.0, 4.5, 7.25]
        system, make_processes, make_couplings = build_random_system(
            periods, loss, inject_at, gain=0.9)
        seeds = [derive_seed(2013, f"batched:{width}:{lane}")
                 for lane in range(width)]
        references = [run_engine(SimulationEngine, system, make_processes,
                                 make_couplings, loss, seed, 10.0)
                      for seed in seeds]
        lanes = [Lane(seed=seed, network=SeededLossyNetwork(loss),
                      processes=make_processes()) for seed in seeds]
        engine = BatchedEngine(compile_system(system), lanes=lanes,
                               couplings=make_couplings(), dt_max=0.25,
                               record_variables=[("ode", "y_ode")],
                               sample_interval=0.5)
        traces = engine.run(10.0)
        assert len(traces) == width
        for reference, lane_trace in zip(references, traces):
            assert_traces_identical(reference, lane_trace)
            assert (reference.series("ode", "y_ode")
                    == lane_trace.series("ode", "y_ode"))

    @pytest.mark.parametrize("width", BATCH_WIDTHS)
    @pytest.mark.parametrize("with_lease", [True, False])
    def test_case_study_batch_matches_reference_trials(self, width, with_lease):
        config = CaseStudyConfig()
        seeds = [derive_seed(7, f"case:{width}:{lane}") for lane in range(width)]
        batch = run_trial_batch(config, with_lease=with_lease, seeds=seeds,
                                duration=200.0)
        assert len(batch) == width
        for seed, result in zip(seeds, batch):
            reference = run_trial(config, with_lease=with_lease, seed=seed,
                                  duration=200.0, engine="reference")
            assert result.table_row() == reference.table_row()
            assert result.ventilator_pauses == reference.ventilator_pauses
            assert result.max_emission_duration == reference.max_emission_duration
            assert result.max_pause_duration == reference.max_pause_duration
            assert result.min_spo2 == reference.min_spo2
            assert result.supervisor_aborts == reference.supervisor_aborts
            assert result.surgeon_requests == reference.surgeon_requests
            assert result.observed_loss_ratio == reference.observed_loss_ratio
            assert result.monitor is not None
            assert result.monitor.failure_count == reference.monitor.failure_count
            assert result.trace is None

    @pytest.mark.parametrize("with_lease", [True, False])
    def test_table1_lanes_equal_compiled_trials_and_stay_quiet(self, monkeypatch,
                                                               with_lease):
        # Four lanes of a 300 s Table I cell return exactly the results of
        # four serial compiled trials, and the lanes keep the compiled
        # kernel's quiet steps (a slower lane path would lose them).
        engines = []

        class RecordingEngine(BatchedEngine):
            def run(self, horizon):
                engines.append(self)
                return super().run(horizon)

        monkeypatch.setattr(emulation, "BatchedEngine", RecordingEngine)
        config = CaseStudyConfig()
        seeds = [derive_seed(1, f"lanes:{lane}") for lane in range(4)]
        batch = run_trial_batch(config, with_lease=with_lease, seeds=seeds,
                                duration=300.0)
        assert batch == [run_trial(config, with_lease=with_lease, seed=seed,
                                   duration=300.0, engine="compiled")
                         for seed in seeds]
        (engine,) = engines
        assert engine.batch == 4
        assert type(engine.steps) is int and type(engine.quiet_steps) is int
        assert type(engine.rescans) is int
        assert engine.steps == sum(lane.steps for lane in engine.engines)
        assert engine.rescans == sum(lane.rescans for lane in engine.engines)
        assert engine.quiet_steps / engine.steps >= 0.85

    def test_single_lane_mode_is_a_drop_in_engine(self):
        system = HybridSystem()
        system.add(periodic_automaton("t", 1.0))
        reference = SimulationEngine(system, seed=3).run(5.0)
        single = build_engine(system, kind="batched", seed=3)
        assert single.kind == "batched"
        trace = single.run(5.0)
        assert_traces_identical(reference, trace)

    def test_single_lane_surface_is_lane_zero(self):
        system = HybridSystem()
        system.add(periodic_automaton("t", 1.0))
        with pytest.raises(SimulationError):
            BatchedEngine(system, lanes=[])
        engine = BatchedEngine(system, lanes=[Lane(seed=3), Lane(seed=4)])
        lead, other = engine.engines
        assert engine.compiled is lead.compiled is other.compiled
        assert (engine.seed, engine.rng, engine.network) == (3, lead.rng, lead.network)
        engine.run(1.5)
        assert engine.now == lead.now == 1.5
        assert engine.state is lead.state
        assert engine.location_of("t") == lead.location_of("t") == "t.B"
        engine.set_variable("t", "c_t", 7.0)
        assert lead.state.runtime("t").get("c_t") == 7.0
        assert other.state.runtime("t").get("c_t") != 7.0

    def test_case_study_trace_path_matches_reference(self):
        # keep_trace routes the batched engine through its single-lane
        # recording mode; the trace-derived statistics must match too.
        config = CaseStudyConfig()
        reference = run_trial(config, with_lease=True, seed=11, duration=150.0,
                              keep_trace=True, engine="reference")
        batched = run_trial(config, with_lease=True, seed=11, duration=150.0,
                            keep_trace=True, engine="batched")
        assert batched.table_row() == reference.table_row()
        assert batched.min_spo2 == reference.min_spo2


CONFIG = CaseStudyConfig()


class TestCaseStudyEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2013])
    @pytest.mark.parametrize("with_lease", [True, False])
    def test_case_study_traces_bit_identical(self, seed, with_lease):
        traces = {}
        for engine_cls in (SimulationEngine, CompiledEngine):
            case = build_case_study(CONFIG, with_lease=with_lease, seed=seed)
            engine = engine_cls(case.system, network=case.network,
                                processes=[case.surgeon],
                                couplings=case.couplings, seed=seed,
                                dt_max=CONFIG.dt_max,
                                record_variables=[("patient", "spo2")],
                                sample_interval=0.5)
            traces[engine_cls.kind] = engine.run(300.0)
        assert_traces_identical(traces["reference"], traces["compiled"])
        assert (traces["reference"].series("patient", "spo2")
                == traces["compiled"].series("patient", "spo2"))

    @pytest.mark.parametrize("with_lease", [True, False])
    def test_streaming_stats_match_post_hoc_oracle(self, with_lease):
        # Both E(Toff) columns of Table I, over several seeds.
        for seed, config in ((5, CONFIG), (7, CONFIG),
                             (121, CONFIG.with_mean_toff(6.0))):
            self._check_streaming_stats(config, with_lease, seed)

    def _check_streaming_stats(self, config, with_lease, seed):
        oracle = run_trial(config, with_lease=with_lease, seed=seed,
                           duration=400.0, keep_trace=True, engine="reference")
        for engine in ("reference", "compiled"):
            stream = run_trial(config, with_lease=with_lease, seed=seed,
                               duration=400.0, engine=engine)
            assert stream.trace is None
            assert stream.table_row() == oracle.table_row()
            assert stream.ventilator_pauses == oracle.ventilator_pauses
            assert stream.max_emission_duration == oracle.max_emission_duration
            assert stream.max_pause_duration == oracle.max_pause_duration
            assert stream.min_spo2 == oracle.min_spo2
            assert stream.supervisor_aborts == oracle.supervisor_aborts
            assert stream.observed_loss_ratio == oracle.observed_loss_ratio
            # Monitor report and lease ledger are populated by the streaming
            # observer and agree with the trace-derived ones.
            assert stream.monitor is not None and stream.ledger is not None
            assert stream.monitor.failure_count == oracle.monitor.failure_count
            assert stream.monitor.max_dwell == oracle.monitor.max_dwell
            assert stream.monitor.risky_episodes == oracle.monitor.risky_episodes
            oracle_ledger = lease_ledger_from_trace(oracle.trace, config)
            for entity in ("ventilator", "laser_scalpel"):
                assert ([(lease.granted_at, lease.released_at, lease.outcome)
                         for lease in stream.ledger.of(entity)]
                        == [(lease.granted_at, lease.released_at, lease.outcome)
                            for lease in oracle_ledger.of(entity)])

    @pytest.mark.parametrize("engine_cls", [SimulationEngine, CompiledEngine])
    def test_stats_observer_tolerates_partial_systems(self, engine_cls):
        # Monitored entities that never register (subsystem runs) must get
        # empty risky sets, like the trace-based monitor gives them.
        from repro.casestudy import TrialStatsObserver, build_standalone_ventilator

        system = HybridSystem()
        system.add(build_standalone_ventilator(), entity="ventilator")
        stats = TrialStatsObserver(CONFIG)
        engine_cls(system, observers=[stats], record_trace=False).run(30.0)
        assert stats.report is not None
        assert stats.report.max_dwell["laser_scalpel"] == 0.0

    def test_interval_monitor_entry_point_matches_trace_entry_point(self):
        result = run_trial(CONFIG, with_lease=False, seed=9, duration=400.0,
                           keep_trace=True)
        monitor = PTEMonitor(CONFIG.rules())
        from repro.core.intervals import Interval, IntervalSet

        risky_sets = {
            entity: IntervalSet(Interval(s, e) for s, e in
                                result.trace.risky_intervals(entity))
            for entity in monitor.monitored_entities()}
        direct = monitor.check(result.trace)
        via_intervals = monitor.check_risky_intervals(risky_sets,
                                                      result.trace.end_time)
        assert via_intervals.failure_count == direct.failure_count
        assert len(via_intervals.violations) == len(direct.violations)
        assert via_intervals.max_dwell == direct.max_dwell


class TestTable1CampaignEquivalence:
    def test_table1_campaign_identical_across_engines(self):
        import json

        from repro.campaign import run_campaign, table1_spec

        spec = table1_spec(duration=200.0, legacy_seed=2013)
        payloads = {}
        for engine in ("reference", "compiled"):
            campaign = run_campaign(spec, seed=2013, max_workers=1,
                                    engine=engine)
            payloads[engine] = json.dumps(campaign.to_json()["campaign"],
                                          sort_keys=True)
        assert payloads["reference"] == payloads["compiled"]

        # The compiled tier must not cost more CPU than the reference on a
        # Table I trial (best of three; it costs about 1/30 as much).
        best, rows = {}, set()
        for engine in ("reference", "compiled"):
            times = []
            for _ in range(3):
                started = time.process_time()
                result = run_trial(CONFIG, with_lease=True, seed=2013,
                                   duration=200.0, engine=engine)
                times.append(time.process_time() - started)
                rows.add(result.table_row())
            best[engine] = min(times)
        assert len(rows) == 1
        assert best["compiled"] <= best["reference"]


class TestEngineSelection:
    def test_resolve_engine_kind_precedence(self):
        assert resolve_engine_kind(None) == "reference"
        assert resolve_engine_kind(None, default="compiled") == "compiled"
        assert resolve_engine_kind("compiled") == "compiled"
        assert resolve_engine_kind("reference", default="compiled") == "reference"
        with pytest.raises(ValueError):
            resolve_engine_kind("turbo")

    def test_build_engine_returns_requested_kernel(self):
        system = HybridSystem()
        system.add(periodic_automaton("t", 1.0))
        assert build_engine(system, kind="reference").kind == "reference"
        assert build_engine(system, kind="compiled").kind == "compiled"

    def test_record_trace_false_streams_only(self):
        system = HybridSystem()
        system.add(periodic_automaton("t", 1.0))
        recorder = TraceRecorder()
        engine = CompiledEngine(system, record_trace=False, observers=[recorder])
        assert engine.run(5.0) is None
        assert engine.trace is None
        assert len(recorder.trace.transitions) > 0
