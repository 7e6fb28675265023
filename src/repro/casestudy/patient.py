"""Patient (SpO2 physiology) and oximeter model.

In the paper's emulation the "patient" is a real human subject breathing in
sync with the ventilator emulator, wearing a Nonin 9843 oximeter wired to
the supervisor computer.  Here the patient is a hybrid automaton with a
single location whose flow is a first-order saturation/desaturation ODE:

* while ventilated, ``SpO2`` relaxes toward the baseline with rate
  ``resaturation_gain``;
* while the ventilator is paused, ``SpO2`` falls at ``desaturation_rate``
  until it reaches the physiological floor.

The ``ventilated`` input variable is driven by a physical coupling from the
ventilator automaton's current location (not by wireless messages), and the
oximeter reading reaches the supervisor through another wired coupling --
mirroring the paper's layout where the SpO2 sensor is wired to the
supervisor, forming entity ``xi_0``.
"""

from __future__ import annotations

from repro.casestudy.config import PATIENT, PatientModel
from repro.hybrid.automaton import HybridAutomaton
from repro.hybrid.flows import CallableFlow
from repro.hybrid.locations import Location

#: Variable names of the patient automaton.
SPO2 = "spo2"
VENTILATED = "ventilated"


def spo2_derivative(spo2: float, ventilated: float, model: PatientModel) -> float:
    """Right-hand side of the SpO2 ODE: the patient flow's float kernel.

    This is the one declaration of the patient dynamics; every engine tier
    integrates it (see :class:`~repro.hybrid.flows.CallableFlow`).
    """
    if ventilated > 0.5:
        if spo2 >= model.spo2_baseline:
            return 0.0
        return model.resaturation_gain * (model.spo2_baseline - spo2)
    if spo2 <= model.spo2_floor:
        return 0.0
    return -model.desaturation_rate


def spo2_derivative_vector(spo2, ventilated, model: PatientModel):
    """Lane-wise :func:`spo2_derivative` over arrays of SpO2 and ventilation.

    A convenience for analysing many replicate states at once; it applies
    the scalar kernel to each lane, so its values are exactly the kernel's.
    No engine calls it: every engine integrates the scalar kernel.
    """
    import numpy as np

    spo2, ventilated = np.broadcast_arrays(np.asarray(spo2, dtype=float),
                                           np.asarray(ventilated, dtype=float))
    return np.array([spo2_derivative(s, v, model)
                     for s, v in zip(spo2.ravel().tolist(), ventilated.ravel().tolist())],
                    dtype=float).reshape(spo2.shape)


def build_patient(model: PatientModel, *, name: str = PATIENT,
                  substep: float = 0.05) -> HybridAutomaton:
    """Build the patient automaton with its SpO2 physiology flow.

    Args:
        model: Physiological parameters.
        name: Automaton name.
        substep: RK4 integration sub-step for the SpO2 ODE.

    Returns:
        A single-location hybrid automaton with variables ``spo2`` and
        ``ventilated``.
    """
    flow = CallableFlow(
        spo2_derivative, inputs={SPO2: model.initial_spo2, VENTILATED: 1.0},
        outputs=(SPO2,), params=(model,),
        description="first-order SpO2 saturation/desaturation",
        substep=substep)
    automaton = HybridAutomaton(
        name,
        variables=[SPO2, VENTILATED],
        initial_valuation={SPO2: model.initial_spo2, VENTILATED: 1.0},
        metadata={"description": "patient SpO2 physiology + wired oximeter"},
    )
    automaton.add_location(Location(name="Physiology", flow=flow))
    automaton.initial_location = "Physiology"
    automaton.validate()
    return automaton


def time_to_threshold(model: PatientModel, *, from_spo2: float | None = None) -> float:
    """Seconds of ventilation pause before SpO2 crosses the abort threshold.

    A closed-form helper used by tests and by the experiment documentation:
    starting from ``from_spo2`` (default: the baseline) and desaturating at
    the model's constant rate, how long until the supervisor's
    ``ApprovalCondition`` (``SpO2 > threshold``) is violated?
    """
    start = model.spo2_baseline if from_spo2 is None else from_spo2
    if start <= model.spo2_threshold:
        return 0.0
    return (start - model.spo2_threshold) / model.desaturation_rate
