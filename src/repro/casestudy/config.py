"""Parameters of the laser-tracheotomy case study (paper Section V).

Everything the emulation needs is collected in :class:`CaseStudyConfig`:
the paper's lease-pattern time constants, the PTE safeguards and the
1-minute dwelling bound, the surgeon's exponential timers, the SpO2
physiology used to drive the Supervisor's ``ApprovalCondition``, and the
wireless interference description.  The default values are the ones given
in the paper; experiments construct variations through ``dataclasses.replace``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.configuration import PatternConfiguration, laser_tracheotomy_configuration
from repro.core.rules import PTERuleSet, laser_tracheotomy_rules
from repro.wireless.interference import InterferenceSource

#: Canonical entity names used throughout the case study.
SUPERVISOR = "supervisor"
VENTILATOR = "ventilator"
LASER = "laser_scalpel"
PATIENT = "patient"


@dataclass(frozen=True)
class PatientModel:
    """First-order SpO2 physiology of the (simulated) human subject.

    While the ventilator ventilates, the blood oxygen saturation relaxes
    toward ``spo2_baseline``; while ventilation is paused it falls at
    ``desaturation_rate``.  The supervisor aborts a round whenever the
    oximeter reading drops to ``spo2_threshold`` or below
    (``ApprovalCondition``: ``SpO2(t) > threshold``).
    """

    spo2_baseline: float = 98.0
    spo2_floor: float = 70.0
    spo2_threshold: float = 92.0
    desaturation_rate: float = 0.10       # %/s while ventilation is paused
    resaturation_gain: float = 0.20       # 1/s relaxation rate while ventilated
    initial_spo2: float = 98.0

    def __post_init__(self) -> None:
        if not self.spo2_floor < self.spo2_threshold < self.spo2_baseline:
            raise ValueError("patient model requires floor < threshold < baseline")
        if self.desaturation_rate <= 0 or self.resaturation_gain <= 0:
            raise ValueError("patient model rates must be positive")


@dataclass(frozen=True)
class SurgeonModel:
    """Stochastic surgeon behaviour used by the paper's own emulation.

    ``mean_ton`` is the expectation of the exponential timer armed whenever
    the laser-scalpel dwells in Fall-Back (time until the surgeon requests
    an emission); ``mean_toff`` is the expectation of the timer armed while
    the laser emits (time until the surgeon cancels).

    ``resample_quantum`` caps how far ahead either timer commits to a
    single RNG draw.  ``None`` (the default) draws each delay in one shot,
    which is the cheapest implementation but fixes the whole delay at arm
    time.  A positive quantum instead re-draws the remaining delay every
    ``resample_quantum`` seconds; by the memorylessness of the exponential
    distribution the fire-time law is *exactly* unchanged, but the draw is
    spread over many RNG calls.  The rare-event splitting estimator
    (:mod:`repro.verify.rare`) relies on this: a trial forked mid-emission
    can only diverge from its parent through RNG draws made *after* the
    fork point, so a one-shot delay makes every clone mirror its parent
    until the emission ends, while quantised re-arming restores fresh
    randomness each quantum.
    """

    mean_ton: float = 30.0
    mean_toff: float = 18.0
    resample_quantum: float | None = None

    def __post_init__(self) -> None:
        if self.mean_ton <= 0 or self.mean_toff <= 0:
            raise ValueError("surgeon timer expectations must be positive")
        if self.resample_quantum is not None and self.resample_quantum <= 0:
            raise ValueError("resample_quantum must be positive when set")


@dataclass(frozen=True)
class CaseStudyConfig:
    """Full description of one laser-tracheotomy emulation trial family.

    Attributes:
        pattern: Lease-pattern configuration (paper values by default).
        surgeon: Surgeon behaviour model.
        patient: SpO2 physiology model.
        interference: WiFi interferer next to the base station.
        trial_duration: Length of one trial (the paper uses 30 minutes).
        dwelling_bound: Rule 1 bound used for failure counting (1 minute).
        enter_safeguard: ``T^min_risky:1->2`` (3 s).
        exit_safeguard: ``T^min_safe:2->1`` (1.5 s).
        supervisor_resend_limit: Cancel/abort retransmissions of the
            (reconstructed) supervisor.
        dt_max: Simulator sampling cap (needed for the SpO2 ODE and the
            threshold predicate).
    """

    pattern: PatternConfiguration = field(default_factory=laser_tracheotomy_configuration)
    surgeon: SurgeonModel = field(default_factory=SurgeonModel)
    patient: PatientModel = field(default_factory=PatientModel)
    interference: InterferenceSource = field(
        default_factory=lambda: InterferenceSource(duty_cycle=0.18,
                                                   mean_burst_duration=50.0))
    trial_duration: float = 1800.0
    dwelling_bound: float = 60.0
    enter_safeguard: float = 3.0
    exit_safeguard: float = 1.5
    supervisor_resend_limit: int = 8
    dt_max: float = 0.1

    def with_mean_toff(self, mean_toff: float) -> "CaseStudyConfig":
        """Copy of this configuration with a different surgeon E(Toff)."""
        return replace(self, surgeon=replace(self.surgeon, mean_toff=mean_toff))

    def rules(self) -> PTERuleSet:
        """The PTE rule set checked during emulation trials.

        These are the trial rules of Section V: ventilator pause must
        properly temporally embed laser emission with the 3 s / 1.5 s
        safeguards, and neither may last longer than one minute.
        """
        return laser_tracheotomy_rules(
            ventilator=VENTILATOR, laser=LASER,
            enter_safeguard=self.enter_safeguard,
            exit_safeguard=self.exit_safeguard,
            dwelling_bound=self.dwelling_bound)

    def pattern_with_resends(self) -> PatternConfiguration:
        """The pattern configuration with the supervisor resend limit applied."""
        return replace(self.pattern, supervisor_resend_limit=self.supervisor_resend_limit)
