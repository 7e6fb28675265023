"""Emulation harness for the laser-tracheotomy case study (Table I).

This module assembles the whole wireless CPS -- supervisor, ventilator,
laser-scalpel, patient physiology, surgeon behaviour and the interfered
wireless network -- and runs timed trials, collecting exactly the
statistics reported in the paper's Table I:

* number of laser emissions,
* number of PTE safety-rule violations (failures),
* number of ``evtToStop`` events (lease expirations forcing the laser to
  stop emitting),

plus a set of auxiliary measurements (maximum pause / emission durations,
observed packet loss, supervisor aborts, lease ledger) used by the other
experiments and by the documentation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Sequence

from repro.casestudy.config import (CaseStudyConfig, LASER, PATIENT, SUPERVISOR,
                                    VENTILATOR)
from repro.casestudy.laser import EMITTING_LOCATION, LASER_INDEX, build_laser
from repro.casestudy.observers import (LEASE_CORE_LOCATIONS, OUTCOME_OF_REASON,
                                       VENTILATOR_RISKY_CORE, TrialStatsObserver,
                                       lease_contracts)
from repro.casestudy.patient import SPO2, VENTILATED, build_patient
from repro.casestudy.supervisor import SUPERVISOR_SPO2, build_tracheotomy_supervisor
from repro.casestudy.surgeon import SurgeonProcess
from repro.casestudy.ventilator import build_ventilator, ventilating_locations
from repro.core.leases import LeaseLedger, LeaseOutcome
from repro.core.monitor import MonitorReport, PTEMonitor
from repro.core.rules import PTERuleSet
from repro.hybrid.simulate import (BatchedEngine, Lane, TraceObserver, build_engine,
                                   compile_system, resolve_engine_kind)
from repro.hybrid.simulate.compiled import CompiledSystem
from repro.hybrid.simulate.processes import (Coupling, LocationIndicatorCoupling,
                                             VariableCopyCoupling)
from repro.hybrid.system import HybridSystem
from repro.hybrid.trace import Trace
from repro.wireless.channel import Channel
from repro.wireless.network import SinkWirelessNetwork

if TYPE_CHECKING:  # pragma: no cover - repro.campaign builds on this module
    from repro.campaign.aggregate import TrialSummary

__all__ = ["CaseStudySystem", "StreamedTrial", "TrialResult",
           "VENTILATOR_RISKY_CORE", "build_case_study", "lease_ledger_from_trace",
           "run_trial", "run_trial_batch", "run_table1_trials"]


@dataclass
class CaseStudySystem:
    """Everything needed to run one laser-tracheotomy trial."""

    system: HybridSystem
    network: SinkWirelessNetwork
    surgeon: SurgeonProcess
    couplings: List[Coupling]
    rules: PTERuleSet
    config: CaseStudyConfig
    with_lease: bool
    #: Pre-lowered system shared across trials of one campaign cell (set by
    #: the per-worker cache); compiled/batched engines reuse it instead of
    #: lowering the model again for every trial.
    lowered: CompiledSystem | None = field(default=None, repr=False)

    def engine(self, *, seed: int | None = None,
               record_variables: Sequence[tuple[str, str]] = (),
               sample_interval: float = 0.5,
               kind: str | None = None,
               observers: Sequence[TraceObserver] = (),
               record_trace: bool = True):
        """Build a simulation engine for one trial with the given seed.

        Args:
            seed: Master seed for the trial's stochastic components.
            record_variables: ``(automaton, variable)`` pairs to sample.
            sample_interval: Sampling period for ``record_variables``.
            kind: Simulation kernel (``"reference"`` / ``"compiled"``);
                ``None`` selects the reference kernel.
            observers: Streaming observers attached to the run.
            record_trace: When False no trace is recorded (observers only).
        """
        return build_engine(
            self.lowered if self.lowered is not None else self.system,
            kind=kind,
            network=self.network,
            processes=[self.surgeon],
            couplings=self.couplings,
            seed=seed,
            dt_max=self.config.dt_max,
            record_variables=record_variables,
            sample_interval=sample_interval,
            observers=observers,
            record_trace=record_trace)


def build_case_study(config: CaseStudyConfig, *, with_lease: bool = True,
                     seed: int | None = None,
                     channel: Channel | None = None,
                     surgeon: SurgeonProcess | None = None) -> CaseStudySystem:
    """Assemble the laser-tracheotomy wireless CPS.

    Args:
        config: Case-study configuration (paper defaults).
        with_lease: False removes the lease-expiry edges from the ventilator
            and the laser-scalpel, producing the Table I baseline.
        seed: Seed for the surgeon model (channels are re-seeded per trial
            by the engine through the network's :meth:`reset`).
        channel: Wireless loss model; defaults to the burst-loss channel
            calibrated from ``config.interference``.
        surgeon: Optional replacement surgeon process (e.g. a
            :class:`~repro.casestudy.surgeon.ScriptedSurgeon` for scenario
            experiments).

    Returns:
        A :class:`CaseStudySystem` ready to produce simulation engines.
    """
    pattern_config = config.pattern_with_resends()
    supervisor = build_tracheotomy_supervisor(pattern_config, config.patient,
                                              name=SUPERVISOR)
    ventilator = build_ventilator(pattern_config, name=VENTILATOR,
                                  lease_enabled=with_lease)
    laser = build_laser(pattern_config, name=LASER, lease_enabled=with_lease)
    patient = build_patient(config.patient, name=PATIENT)

    system = HybridSystem("laser-tracheotomy-cps")
    system.add(supervisor, entity=SUPERVISOR)
    system.add(ventilator, entity=VENTILATOR)
    system.add(laser, entity=LASER)
    system.add(patient, entity=PATIENT)

    network = _trial_network(config, channel, seed)

    couplings: List[Coupling] = [
        # Physical coupling: the patient is ventilated exactly while the
        # ventilator automaton dwells in its pumping locations.
        LocationIndicatorCoupling(
            source_automaton=VENTILATOR,
            source_locations=ventilating_locations(ventilator),
            target_automaton=PATIENT, target_variable=VENTILATED),
        # Wired oximeter: the supervisor reads the patient's SpO2 directly.
        VariableCopyCoupling(
            source_automaton=PATIENT, source_variable=SPO2,
            target_automaton=SUPERVISOR, target_variable=SUPERVISOR_SPO2),
    ]
    surgeon_process = _trial_surgeon(config, surgeon, seed)
    return CaseStudySystem(
        system=system, network=network, surgeon=surgeon_process,
        couplings=couplings, rules=config.rules(), config=config,
        with_lease=with_lease)


#: Per-process cache of lowered case studies, keyed by the (hashable)
#: configuration and lease mode — i.e. by campaign cell.  Campaign workers
#: build and lower each cell's hybrid system once and reuse it for every
#: trial of that cell (the model is identical across replicates, only the
#: seeds differ); both the compiled and the batched engine paths go through
#: it.  The reference engine deliberately does not: the executable
#: specification keeps building everything from scratch.
_CASE_CACHE: Dict[tuple, "tuple[CaseStudySystem, CompiledSystem]"] = {}
_CASE_CACHE_LIMIT = 8


def _lowered_case_study(config: CaseStudyConfig, with_lease: bool):
    """Template case study + lowered system for one campaign cell (cached)."""
    key = (config, with_lease)
    hit = _CASE_CACHE.get(key)
    if hit is None:
        case = build_case_study(config, with_lease=with_lease, seed=0)
        if len(_CASE_CACHE) >= _CASE_CACHE_LIMIT:
            _CASE_CACHE.pop(next(iter(_CASE_CACHE)))
        hit = (case, compile_system(case.system))
        _CASE_CACHE[key] = hit
    return hit


def _trial_network(config: CaseStudyConfig, channel: Channel | None,
                   seed: int | None) -> SinkWirelessNetwork:
    """Fresh per-trial wireless network (also used by ``build_case_study``)."""
    return SinkWirelessNetwork(
        base_station=SUPERVISOR,
        remote_entities=[VENTILATOR, LASER],
        default_channel=channel or config.interference.to_channel(seed))


def _trial_surgeon(config: CaseStudyConfig, surgeon: SurgeonProcess | None,
                   seed: int | None) -> SurgeonProcess:
    """Fresh per-trial surgeon process (also used by ``build_case_study``)."""
    return surgeon or SurgeonProcess(
        config.surgeon, laser_name=LASER, initializer_index=LASER_INDEX, seed=seed)


@dataclass
class TrialResult:
    """Statistics of one emulation trial (one row's worth of Table I data)."""

    with_lease: bool
    mean_toff: float
    duration: float
    seed: int | None
    laser_emissions: int
    failures: int
    evt_to_stop: int
    ventilator_pauses: int
    max_emission_duration: float
    max_pause_duration: float
    min_spo2: float
    supervisor_aborts: int
    surgeon_requests: int
    surgeon_cancels: int
    observed_loss_ratio: float
    monitor: MonitorReport | None = field(repr=False, default=None)
    ledger: LeaseLedger | None = field(repr=False, default=None)
    trace: Trace | None = field(repr=False, default=None)

    @property
    def mode(self) -> str:
        """``"with Lease"`` or ``"without Lease"`` (Table I's Trial Mode)."""
        return "with Lease" if self.with_lease else "without Lease"

    def table_row(self) -> tuple:
        """The row of Table I this trial contributes."""
        return (self.mode, self.mean_toff, self.laser_emissions,
                self.failures, self.evt_to_stop)


def lease_ledger_from_trace(trace: Trace, config: CaseStudyConfig) -> LeaseLedger:
    """Reconstruct the lease ledger of one trial from its trace.

    A lease opens when an entity enters its "Risky Core" and closes when it
    leaves it; the closing transition's reason tells whether the lease
    expired, was aborted, or was released cooperatively.
    """
    ledger = LeaseLedger()
    contracts = lease_contracts(config)
    for entity, core_location in LEASE_CORE_LOCATIONS.items():
        for record in trace.transitions_of(entity):
            if record.target == core_location:
                ledger.open(entity, record.time, contracts[entity])
            elif record.source == core_location:
                outcome = OUTCOME_OF_REASON.get(record.reason, LeaseOutcome.COMPLETED)
                ledger.close(entity, outcome, record.time)
    return ledger


def run_trial(config: CaseStudyConfig, *, with_lease: bool = True,
              seed: int | None = 0, duration: float | None = None,
              channel: Channel | None = None,
              surgeon: SurgeonProcess | None = None,
              keep_trace: bool = False,
              record_variables: Sequence[tuple[str, str]] = (),
              engine: str | None = None,
              observers: Sequence = ()) -> TrialResult:
    """Run one emulation trial and collect the Table I statistics.

    By default the statistics stream through a
    :class:`~repro.casestudy.observers.TrialStatsObserver`: no trace is
    ever materialised, so memory does not grow with the trial duration.
    ``keep_trace=True`` records the full trace instead and computes the
    same statistics from it post hoc (the historical oracle path); the two
    paths produce identical numbers for any seed and either kernel.

    Args:
        config: Case-study configuration.
        with_lease: Trial mode (Table I's first column).
        seed: Master seed for every stochastic component of the trial.
        duration: Trial length; defaults to ``config.trial_duration`` (30 min).
        channel: Optional wireless loss model override.
        surgeon: Optional surgeon process override.
        keep_trace: Keep the full trace on the result (memory heavy) and
            derive the statistics from it instead of streaming.
        record_variables: ``(automaton, variable)`` pairs to sample.
        engine: Simulation kernel (``"reference"`` / ``"compiled"`` /
            ``"batched"``); ``None`` selects the reference kernel.
        observers: Extra :class:`~repro.hybrid.simulate.observers.TraceObserver`
            instances attached after the statistics observer (streaming
            path only; ignored with ``keep_trace=True``).  The rare-event
            splitting estimator attaches its
            :class:`~repro.casestudy.observers.RiskLevelObserver` here.

    Returns:
        The trial's :class:`TrialResult`.
    """
    if not keep_trace:
        trial = StreamedTrial(config, with_lease=with_lease, seed=seed,
                              duration=duration, channel=channel, surgeon=surgeon,
                              record_variables=record_variables, engine=engine,
                              observers=observers)
        trial.engine.run(trial.duration)
        return trial.result()

    duration = config.trial_duration if duration is None else float(duration)
    kind = resolve_engine_kind(engine)
    case = _trial_case(config, with_lease=with_lease, seed=seed, channel=channel,
                       surgeon=surgeon, kind=kind)
    sampled = list(record_variables) or [(PATIENT, SPO2)]
    surgeon_process = case.surgeon
    sim = case.engine(seed=seed, record_variables=sampled, kind=kind)
    trace = sim.run(duration)
    report = PTEMonitor(case.rules).check(trace)
    emission_intervals = trace.dwell_intervals(LASER, {EMITTING_LOCATION})
    pause_intervals = trace.risky_intervals(VENTILATOR)
    spo2_times, spo2_values = trace.series(PATIENT, SPO2)
    return TrialResult(
        with_lease=with_lease,
        mean_toff=config.surgeon.mean_toff,
        duration=duration,
        seed=seed,
        laser_emissions=trace.count_entries(LASER, EMITTING_LOCATION),
        failures=report.failure_count,
        evt_to_stop=len(trace.transitions_of(LASER, reason="lease_expiry",
                                             source=EMITTING_LOCATION)),
        ventilator_pauses=trace.count_entries(VENTILATOR,
                                              VENTILATOR_RISKY_CORE),
        max_emission_duration=max((e - s for s, e in emission_intervals),
                                  default=0.0),
        max_pause_duration=max((e - s for s, e in pause_intervals),
                               default=0.0),
        min_spo2=min(spo2_values, default=config.patient.initial_spo2),
        supervisor_aborts=len([r for r in trace.transitions_of(SUPERVISOR)
                               if r.reason == "approval_violated"]),
        surgeon_requests=getattr(surgeon_process, "requests_issued", 0),
        surgeon_cancels=getattr(surgeon_process, "cancels_issued", 0),
        observed_loss_ratio=case.network.observed_loss_ratio(),
        monitor=report,
        ledger=lease_ledger_from_trace(trace, config),
        trace=trace,
    )


def _trial_case(config: CaseStudyConfig, *, with_lease: bool, seed: int | None,
                channel: Channel | None, surgeon: SurgeonProcess | None,
                kind: str) -> CaseStudySystem:
    """The case study one trial runs on ``kind``'s kernel."""
    if kind == "reference":
        return build_case_study(config, with_lease=with_lease, seed=seed,
                                channel=channel, surgeon=surgeon)
    # Fast kernels reuse the per-process lowered model of this campaign
    # cell; only the trial's stochastic ingredients are rebuilt.
    template, lowered = _lowered_case_study(config, with_lease)
    return CaseStudySystem(
        system=template.system,
        network=_trial_network(config, channel, seed),
        surgeon=_trial_surgeon(config, surgeon, seed),
        couplings=template.couplings, rules=template.rules,
        config=config, with_lease=with_lease, lowered=lowered)


class StreamedTrial:
    """One assembled trial whose statistics stream through observers.

    :func:`run_trial`'s streaming path, with the run left to the caller:
    ``engine`` runs it in one ``run(duration)`` or as ``start`` /
    ``advance`` / ``finish`` with pauses in between, and :meth:`result`
    reads the finished trial's :class:`TrialResult`.  The arguments are
    :func:`run_trial`'s.
    """

    def __init__(self, config: CaseStudyConfig, *, with_lease: bool = True,
                 seed: int | None = 0, duration: float | None = None,
                 channel: Channel | None = None,
                 surgeon: SurgeonProcess | None = None,
                 record_variables: Sequence[tuple[str, str]] = (),
                 engine: str | None = None,
                 observers: Sequence[TraceObserver] = ()):
        kind = resolve_engine_kind(engine)
        self.seed = seed
        self.duration = config.trial_duration if duration is None else float(duration)
        self.case = _trial_case(config, with_lease=with_lease, seed=seed,
                                channel=channel, surgeon=surgeon, kind=kind)
        self.stats = TrialStatsObserver(config)
        self.engine = self.case.engine(
            seed=seed, record_variables=list(record_variables) or [(PATIENT, SPO2)],
            kind=kind, observers=[self.stats, *observers], record_trace=False)

    def result(self) -> TrialResult:
        """The statistics of the finished trial."""
        case = self.case
        return _streamed_result(case.config, with_lease=case.with_lease,
                                seed=self.seed, duration=self.duration,
                                stats=self.stats, network=case.network,
                                surgeon=case.surgeon)


def _streamed_result(config: CaseStudyConfig, *, with_lease: bool,
                     seed: int | None, duration: float,
                     stats: TrialStatsObserver, network: SinkWirelessNetwork,
                     surgeon: SurgeonProcess) -> TrialResult:
    """The trace-free :class:`TrialResult` of one finished streamed trial.

    The one place where a :class:`StreamedTrial` and each lane of
    :func:`run_trial_batch` read a trial's statistics off its observer,
    network and surgeon.
    """
    return TrialResult(
        with_lease=with_lease,
        mean_toff=config.surgeon.mean_toff,
        duration=duration,
        seed=seed,
        laser_emissions=stats.laser_emissions,
        failures=stats.failures,
        evt_to_stop=stats.evt_to_stop,
        ventilator_pauses=stats.ventilator_pauses,
        max_emission_duration=stats.max_emission_duration,
        max_pause_duration=stats.max_pause_duration,
        min_spo2=stats.min_spo2,
        supervisor_aborts=stats.supervisor_aborts,
        surgeon_requests=getattr(surgeon, "requests_issued", 0),
        surgeon_cancels=getattr(surgeon, "cancels_issued", 0),
        observed_loss_ratio=network.observed_loss_ratio(),
        monitor=stats.report,
        ledger=stats.ledger,
    )


def run_trial_batch(config: CaseStudyConfig, *, with_lease: bool = True,
                    seeds: Sequence[int], duration: float | None = None,
                    channel_builder=None, surgeon_builder=None,
                    record_variables: Sequence[tuple[str, str]] = ()
                    ) -> List[TrialResult]:
    """Run one batch of replicate trials as the lanes of one engine.

    The campaign counterpart of :func:`run_trial`: all trials share one
    cached, pre-lowered model (they are replicates of the same campaign
    cell) and execute as lanes of a single
    :class:`~repro.hybrid.simulate.batched.BatchedEngine`, each lane with
    its own seed, wireless network, surgeon process and streaming
    statistics observer.  Per seed the returned :class:`TrialResult` is
    identical to ``run_trial(config, seed=seed, ...)`` on any kernel.

    Args:
        config: Case-study configuration of the cell.
        with_lease: Trial mode (Table I's first column).
        seeds: One master seed per replicate lane.
        duration: Trial length; defaults to ``config.trial_duration``.
        channel_builder: Optional ``seed -> Channel | None`` factory (e.g.
            ``spec.channel.build``); ``None``/returned ``None`` uses the
            configuration's calibrated burst channel seeded per trial.
        surgeon_builder: Optional ``seed -> SurgeonProcess`` factory for
            scripted surgeons; ``None`` uses the stochastic surgeon model
            seeded per trial.
        record_variables: ``(automaton, variable)`` pairs to sample.

    Returns:
        One :class:`TrialResult` per seed, in seed order.
    """
    duration = config.trial_duration if duration is None else float(duration)
    template, lowered = _lowered_case_study(config, with_lease)
    sampled = list(record_variables) or [(PATIENT, SPO2)]
    lanes: List[Lane] = []
    stats_list: List[TrialStatsObserver] = []
    networks: List[SinkWirelessNetwork] = []
    surgeons: List[SurgeonProcess] = []
    for seed in seeds:
        channel = channel_builder(seed) if channel_builder is not None else None
        network = _trial_network(config, channel, seed)
        surgeon = _trial_surgeon(
            config, surgeon_builder(seed) if surgeon_builder is not None else None,
            seed)
        stats = TrialStatsObserver(config)
        lanes.append(Lane(seed=seed, network=network, processes=[surgeon],
                          observers=[stats]))
        stats_list.append(stats)
        networks.append(network)
        surgeons.append(surgeon)
    # Same sampling cadence as CaseStudySystem.engine's default, so lane
    # statistics match run_trial's streaming path sample for sample.
    engine = BatchedEngine(lowered, lanes=lanes, couplings=template.couplings,
                           dt_max=config.dt_max, record_variables=sampled,
                           sample_interval=0.5, record_trace=False)
    engine.run(duration)
    return [_streamed_result(config, with_lease=with_lease, seed=seed,
                             duration=duration, stats=stats, network=network,
                             surgeon=surgeon)
            for seed, stats, network, surgeon in zip(seeds, stats_list,
                                                     networks, surgeons)]


def run_table1_trials(config: CaseStudyConfig | None = None, *,
                      seed: int = 2013, max_workers: int = 1,
                      **axes: object) -> List["TrialSummary"]:
    """Run the four trials of Table I (with/without lease x E(Toff) values).

    Routes through the campaign layer and returns the campaign's per-trial
    :class:`~repro.campaign.aggregate.TrialSummary` records: every scalar
    statistic of a :class:`TrialResult`, without the monitor report, lease
    ledger or trace (re-run one trial with :func:`run_trial` for those).
    Trial seeds are pinned to the historical per-trial derivation, so
    results are identical for any worker count and to the pre-campaign
    serial loop.  Like every campaign entry point this runs the compiled
    kernel (bit-identical to the reference engine, several times faster).

    Args:
        config: Base case-study configuration (paper defaults when omitted).
        seed: Master seed; each trial derives its own sub-seed.
        max_workers: Worker processes (1 = serial in-process execution).
        **axes: The ``table1`` preset's other axes, at its defaults when
            omitted.

    Returns:
        Trial summaries ordered exactly like the rows of Table I.
    """
    # Imported lazily: repro.campaign builds on this module.
    from repro.campaign.executor import run_campaign
    from repro.campaign.presets import PRESETS

    spec = PRESETS["table1"].build(config, legacy_seed=seed, **axes)
    campaign = run_campaign(spec, seed=seed, max_workers=max_workers)
    return list(campaign.summaries)
