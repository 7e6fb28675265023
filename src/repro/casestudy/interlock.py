"""Industrial-interlock trial runner: the furnace line as a campaign cell.

The paper's introduction motivates PTE safety rules beyond surgery: any
distributed procedure whose entities must enter "risky" modes in a fixed
order with minimum spacings and leave in reverse order.  This module is
the campaign-grade version of ``examples/industrial_interlock.py`` — a
four-entity furnace line (exhaust fan, coolant pump, conveyor, plasma
torch) whose wireless link suffers bursty 90% loss — packaged as a trial
runner the executor dispatches via ``TrialSpec(runner="interlock")``.

The runner maps the interlock's statistics onto the campaign's
:class:`~repro.casestudy.emulation.TrialResult` container: the plasma
torch (the Initializer, the laser's counterpart) fills the emission
columns, the exhaust fan (the outermost entity, the ventilator's
counterpart) fills the pause columns, and the PTE verdict of
:func:`repro.core.check_trace` fills ``failures``.  Surgery-only fields
(SpO2, E(Toff)) are zeroed.

Like every campaign path this is engine-agnostic: the pattern system is
lowered once per worker process and the compiled/batched kernels produce
traces bit-identical to the reference engine.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.casestudy.emulation import TrialResult
from repro.core import (build_baseline_system, build_pattern_system, check_trace,
                        synthesize_configuration)
from repro.hybrid import CallbackProcess
from repro.hybrid.simulate import build_engine, resolve_engine_kind
from repro.hybrid.simulate.compiled import CompiledSystem, compile_system
from repro.wireless import GilbertElliottChannel

#: The furnace line's entities, in PTE (enter) order.
ENTITIES = ("exhaust_fan", "coolant_pump", "conveyor", "plasma_torch")

#: The Initializer entity (fires last, stops first) — the "laser" of this
#: system — and the outermost entity — its "ventilator".
INITIALIZER = ENTITIES[-1]
OUTERMOST = ENTITIES[0]

#: Default trial horizon in seconds (matches the example).
DEFAULT_HORIZON = 250.0

#: Simulation time at which the operator requests the procedure.
_REQUEST_AT = 6.0

#: Per-process cache of built-and-lowered interlock systems, keyed by
#: lease mode — the interlock counterpart of
#: :func:`repro.casestudy.emulation._lowered_case_study`, so pooled
#: campaigns lower the pattern once per worker, not once per trial.
_SYSTEM_CACHE: Dict[bool, Tuple[object, CompiledSystem]] = {}


def _interlock_system(with_lease: bool):
    """Build (or fetch) the furnace-line pattern system and its lowering.

    Args:
        with_lease: ``True`` builds the lease design, ``False`` the
            no-lease baseline (same topology, no lease-expiry edges).

    Returns:
        ``(pattern, compiled)``: the built
        :class:`~repro.core.pattern.builder.PatternSystem` and its
        pre-lowered :class:`~repro.hybrid.simulate.compiled.CompiledSystem`.
    """
    cached = _SYSTEM_CACHE.get(with_lease)
    if cached is not None:
        return cached
    config = synthesize_configuration(
        n_entities=len(ENTITIES),
        enter_safeguards=[4.0, 2.0, 2.0],
        exit_safeguards=[2.0, 1.0, 1.0],
        t_fallback_min=5.0)
    builder = build_pattern_system if with_lease else build_baseline_system
    pattern = builder(config, entity_names=list(ENTITIES),
                      supervisor_name="plc")
    cached = (pattern, compile_system(pattern.system))
    _SYSTEM_CACHE[with_lease] = cached
    return cached


def run_interlock_trial(*, with_lease: bool, seed: int | None,
                        duration: float | None = None,
                        engine: str | None = None) -> TrialResult:
    """Run one furnace-interlock trial under bursty wireless loss.

    The trial places the four-entity line under a Gilbert-Elliott channel
    (90% loss in the bad state) seeded with the trial seed, injects one
    operator request at t=6s, and scores the run with the PTE monitor.
    With leases the entry/exit order survives arbitrary loss; the baseline
    violates it under the same loss trace.

    Args:
        with_lease: Trial mode (lease design vs. no-lease baseline).
        seed: Trial seed for the channel and the engine.
        duration: Trial horizon in seconds (``None`` =
            :data:`DEFAULT_HORIZON`).
        engine: Simulation kernel (``None`` selects the reference kernel;
            the campaign executor passes its resolved default).

    Returns:
        The trial's statistics in the campaign's
        :class:`~repro.casestudy.emulation.TrialResult` container:
        Initializer (plasma-torch) activations as emissions, outermost
        (exhaust-fan) activations as pauses, PTE violations as failures.
    """
    horizon = DEFAULT_HORIZON if duration is None else float(duration)
    kind = resolve_engine_kind(engine)
    pattern, compiled = _interlock_system(with_lease)
    system = pattern.system if kind == "reference" else compiled
    operator = CallbackProcess([
        (_REQUEST_AT,
         lambda e: e.inject_event(pattern.vocabulary.command_request)),
    ])
    channel = GilbertElliottChannel(mean_good_duration=40.0,
                                    mean_bad_duration=30.0,
                                    loss_good=0.1, loss_bad=0.9, seed=seed)
    network = pattern.build_network(default_channel=channel)
    sim = build_engine(system, kind=kind, network=network,
                       processes=[operator], seed=seed)
    trace = sim.run(horizon)
    report = check_trace(trace, pattern.rules)
    torch_intervals = trace.risky_intervals(INITIALIZER)
    fan_intervals = trace.risky_intervals(OUTERMOST)
    return TrialResult(
        with_lease=with_lease,
        mean_toff=0.0,
        duration=horizon,
        seed=seed,
        laser_emissions=len(torch_intervals),
        failures=report.failure_count,
        evt_to_stop=len(trace.transitions_of(INITIALIZER,
                                             reason="lease_expiry")),
        ventilator_pauses=len(fan_intervals),
        max_emission_duration=max((e - s for s, e in torch_intervals),
                                  default=0.0),
        max_pause_duration=max((e - s for s, e in fan_intervals),
                               default=0.0),
        min_spo2=0.0,
        supervisor_aborts=0,
        surgeon_requests=1,
        surgeon_cancels=0,
        observed_loss_ratio=network.observed_loss_ratio(),
        monitor=report,
    )


#: The horizon a trial runs when its campaign sets none; the executor's
#: task sizing reads it from the runner.
run_interlock_trial.default_horizon = DEFAULT_HORIZON
