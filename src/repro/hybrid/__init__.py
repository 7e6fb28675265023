"""Hybrid automata formalism, composition, elaboration and simulation.

This package is the substrate the paper's design-pattern work stands on:
hybrid automata (Section II-A), hybrid systems (Section II-B), the
elaboration methodology (Section IV-C) and an executable semantics used for
validation.
"""

from repro.hybrid.automaton import HybridAutomaton
from repro.hybrid.edges import Edge, IDENTITY_RESET, Reset
from repro.hybrid.elaboration import (are_independent, are_mutually_independent,
                                      assert_independent, elaborate, elaborate_parallel,
                                      elaboration_history, is_simple)
from repro.hybrid.expressions import (And, BoxPredicate, Comparison, FunctionPredicate,
                                      LinearInequality, Not, Or, Predicate, TRUE, FALSE,
                                      var_eq, var_ge, var_gt, var_le, var_lt)
from repro.hybrid.flows import (CallableFlow, CompositeFlow, ConstantFlow, Flow,
                                STATIONARY, clock_flow)
from repro.hybrid.labels import (Prefix, SyncLabel, internal, parse_label, receive,
                                 receive_lossy, send)
from repro.hybrid.locations import Location
from repro.hybrid.state import AutomatonState, SystemState
from repro.hybrid.system import HybridSystem
from repro.hybrid.trace import EventRecord, LocationVisit, Trace, TransitionRecord
from repro.hybrid.simulate import (BatchedEngine, CallbackProcess, CompiledEngine,
                                   CompiledSystem, Coupling, DwellTracker,
                                   EnvironmentProcess, FunctionCoupling, Lane,
                                   LocationIndicatorCoupling, Network,
                                   PerfectNetwork, SimulationEngine, TraceObserver,
                                   TraceRecorder, VariableCopyCoupling, build_engine,
                                   compile_system, resolve_engine_kind)

__all__ = [
    # automaton building blocks
    "HybridAutomaton", "Location", "Edge", "Reset", "IDENTITY_RESET",
    "Prefix", "SyncLabel", "send", "receive", "receive_lossy", "internal", "parse_label",
    # predicates and flows
    "Predicate", "TRUE", "FALSE", "And", "Or", "Not", "LinearInequality", "BoxPredicate",
    "FunctionPredicate", "Comparison", "var_ge", "var_le", "var_gt", "var_lt", "var_eq",
    "Flow", "ConstantFlow", "CallableFlow", "CompositeFlow", "STATIONARY", "clock_flow",
    # composition and execution
    "HybridSystem", "AutomatonState", "SystemState",
    "Trace", "TransitionRecord", "EventRecord", "LocationVisit",
    "SimulationEngine", "CompiledEngine", "BatchedEngine", "Lane",
    "CompiledSystem", "compile_system",
    "build_engine", "resolve_engine_kind", "Network", "PerfectNetwork",
    "TraceObserver", "TraceRecorder", "DwellTracker",
    "EnvironmentProcess", "CallbackProcess", "Coupling", "FunctionCoupling",
    "LocationIndicatorCoupling", "VariableCopyCoupling",
    # elaboration methodology
    "elaborate", "elaborate_parallel", "elaboration_history", "is_simple",
    "are_independent", "are_mutually_independent", "assert_independent",
]
