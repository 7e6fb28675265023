"""Batched lanes: B replicates of one compiled system, run one after another.

Monte-Carlo campaigns run many independent replicates of the *same* hybrid
model; only the seed and the stochastic components differ per trial.  A
campaign task hands such a chunk of replicates to :class:`BatchedEngine`
as :class:`Lane` objects.  Every lane runs to the horizon on its own
:class:`~repro.hybrid.simulate.compiled.CompiledEngine`, one lane after
another, and all lanes share the task's
:class:`~repro.hybrid.simulate.compiled.CompiledSystem`, so the model is
lowered once per task rather than once per trial.

Each lane owns its seed, network, environment processes and observers,
exactly as a serial trial would, so every lane's trace and statistics are
bit-identical to a serial compiled (or reference) run of its seed
(enforced by ``tests/hybrid/test_compiled_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence

from repro.errors import SimulationError
from repro.hybrid.simulate.compiled import (CompiledEngine, CompiledSystem,
                                            CompiledSystemState, compile_system)
from repro.hybrid.simulate.engine import Network
from repro.hybrid.simulate.observers import TraceObserver
from repro.hybrid.simulate.processes import Coupling, EnvironmentProcess
from repro.hybrid.system import HybridSystem
from repro.hybrid.trace import Trace


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


class BatchedEngine:
    """Run ``B`` replicate lanes of one hybrid system on the compiled kernel.

    Batch mode: pass ``lanes=[Lane(...), ...]``; :meth:`run` returns one
    trace (or ``None`` with ``record_trace=False``) per lane, and per-lane
    results are bit-identical to serial reference/compiled runs with the
    same per-lane ingredients.

    Single-lane mode: constructed exactly like
    :class:`~repro.hybrid.simulate.compiled.CompiledEngine` (``network=``,
    ``processes=``, ``seed=``...), :meth:`run` returns the single trace —
    this is what ``build_engine(kind="batched")`` produces.  The
    single-lane helpers (``now``, ``state``, ``inject_event``, the paused
    run's ``start``/``advance``/``finish``...) act on lane 0.
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
                 record_trace: bool = True):
        self.compiled = (system if isinstance(system, CompiledSystem)
                         else compile_system(system))
        self.system = self.compiled.system
        self._single = lanes is None
        if lanes is None:
            lanes = [Lane(seed=seed, network=network, processes=processes,
                          observers=observers)]
        if not lanes:
            raise SimulationError("a batched engine needs at least one lane")
        self.batch = len(lanes)
        # Iterators would be used up by the first lane's engine.
        couplings = list(couplings)
        record_variables = list(record_variables)
        #: One compiled engine per lane, in lane order.
        self.engines: List[CompiledEngine] = [
            CompiledEngine(self.compiled, network=lane.network,
                           processes=lane.processes, couplings=couplings,
                           seed=lane.seed, dt_max=dt_max,
                           max_cascade=max_cascade,
                           record_variables=record_variables,
                           sample_interval=sample_interval,
                           observers=lane.observers,
                           record_trace=record_trace)
            for lane in lanes]
        self._lead = self.engines[0]

    def run(self, horizon: float):
        """Run every lane from time zero to ``horizon`` seconds.

        Returns the single lane's trace (or ``None``) in single-lane mode,
        otherwise the list of per-lane traces in lane order.
        """
        traces = [engine.run(horizon) for engine in self.engines]
        return traces[0] if self._single else traces

    @property
    def steps(self) -> int:
        """Global steps of the last run, summed over the lanes."""
        return sum(engine.steps for engine in self.engines)

    @property
    def quiet_steps(self) -> int:
        """Quiet steps of the last run, summed over the lanes."""
        return sum(engine.quiet_steps for engine in self.engines)

    @property
    def rescans(self) -> int:
        """Per-automaton candidate derivations of the last run, summed over the lanes."""
        return sum(engine.rescans for engine in self.engines)

    @property
    def traces(self) -> List[Trace | None]:
        """Every lane's recorded trace, in lane order."""
        return [engine.trace for engine in self.engines]

    # -- single-lane surface: lane 0's engine ------------------------------------
    @property
    def trace(self) -> Trace | None:
        return self._lead.trace

    @property
    def now(self) -> float:
        return self._lead.now

    @property
    def state(self) -> CompiledSystemState:
        return self._lead.state

    @property
    def rng(self):
        return self._lead.rng

    @property
    def network(self) -> Network:
        return self._lead.network

    @property
    def seed(self) -> int | None:
        return self._lead.seed

    @property
    def processes(self) -> List[EnvironmentProcess]:
        return self._lead.processes

    @property
    def observers(self) -> List[TraceObserver]:
        return self._lead.observers

    def start(self, horizon: float) -> None:
        self._lead.start(horizon)

    def advance(self, until: int | None = None) -> None:
        self._lead.advance(until)

    def finish(self) -> Trace | None:
        return self._lead.finish()

    def location_of(self, automaton_name: str) -> str:
        return self._lead.location_of(automaton_name)

    def set_variable(self, automaton_name: str, variable: str, value: float) -> None:
        self._lead.set_variable(automaton_name, variable, value)

    def inject_event(self, root: str, *, sender: str = "environment") -> None:
        self._lead.inject_event(root, sender=sender)
