"""Simulation engines for hybrid systems (event-driven with exact clock crossings).

Three interchangeable engines execute the same semantics:

* :class:`SimulationEngine` -- the *reference* engine, a direct
  transcription of the paper's semantics (the executable specification and
  equivalence oracle);
* :class:`CompiledEngine` -- the *compiled* kernel, which lowers the model
  to index-based tables once per trial and mutates flat state in place,
  producing bit-identical traces several times faster;
* :class:`BatchedEngine` -- the *batched* lane driver, which runs B
  replicate lanes of one compiled system one after another, each on its
  own compiled engine and bit-identical to a serial run with the same
  seed.

All push observations through the :class:`TraceObserver` pipeline, so
consumers can either record a full :class:`~repro.hybrid.trace.Trace` or
stream statistics without retaining the run.  :func:`build_engine` selects
a kernel by name.
"""

from repro.hybrid.simulate.batched import BatchedEngine, Lane
from repro.hybrid.simulate.compiled import (CompiledEngine, CompiledSystem,
                                            ENGINE_KINDS, build_engine,
                                            compile_system, resolve_engine_kind)
from repro.hybrid.simulate.engine import Network, PerfectNetwork, SimulationEngine
from repro.hybrid.simulate.observers import DwellTracker, TraceObserver, TraceRecorder
from repro.hybrid.simulate.processes import (CallbackProcess, Coupling, EnvironmentProcess,
                                             FunctionCoupling, LocationIndicatorCoupling,
                                             VariableCopyCoupling)

__all__ = [
    "SimulationEngine",
    "CompiledEngine",
    "BatchedEngine",
    "Lane",
    "CompiledSystem",
    "compile_system",
    "build_engine",
    "resolve_engine_kind",
    "ENGINE_KINDS",
    "Network",
    "PerfectNetwork",
    "TraceObserver",
    "TraceRecorder",
    "DwellTracker",
    "EnvironmentProcess",
    "CallbackProcess",
    "Coupling",
    "FunctionCoupling",
    "LocationIndicatorCoupling",
    "VariableCopyCoupling",
]
