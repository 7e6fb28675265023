"""Configuration parameters of the lease-based design pattern.

The design pattern of Section IV-A is parameterized by a handful of
software (cyber) time constants:

* supervisor: ``T^min_fb,0`` (minimum Fall-Back dwell before accepting a
  new request) and ``T^max_wait`` (per-step coordination timeout);
* initializer ``xi_N``: ``T^max_req,N`` (requesting timeout) plus the lease
  trio ``T^max_enter,N``, ``T^max_run,N``, ``T_exit,N``;
* each participant ``xi_i``: its lease trio ``T^max_enter,i``,
  ``T^max_run,i``, ``T_exit,i``;
* the physical safeguard requirements ``T^min_risky:i->i+1`` and
  ``T^min_safe:i+1->i`` the configuration must protect.

:class:`PatternConfiguration` bundles all of them; Theorem 1's closed-form
constraints over these values are implemented in
:mod:`repro.core.constraints`, and :func:`synthesize_configuration` builds
a feasible configuration from the safeguard requirements alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Sequence

from repro.core.rules import PTEOrderSpec, PTERuleSet
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class EntityTiming:
    """Lease timing of one remote entity (participant or initializer).

    Attributes:
        t_enter_max: ``T^max_enter,i`` -- dwell in the "Entering" location
            before reaching "Risky Core".
        t_run_max: ``T^max_run,i`` -- the lease duration: maximum dwell in
            "Risky Core" before the entity exits on its own.
        t_exit: ``T_exit,i`` -- mandatory dwell in the "Exiting" locations
            on the way back to "Fall-Back".
    """

    t_enter_max: float
    t_run_max: float
    t_exit: float

    @property
    def total(self) -> float:
        """``T^max_enter + T^max_run + T_exit`` -- worst-case round trip."""
        return self.t_enter_max + self.t_run_max + self.t_exit


@dataclass(frozen=True)
class PatternConfiguration:
    """Full parameterization of the lease design pattern for ``N`` entities.

    Entities are indexed ``1..N`` in PTE order; index ``N`` is the
    Initializer, indices ``1..N-1`` are Participants.  ``entity_timing[i-1]``
    holds entity ``xi_i``'s lease trio.

    Attributes:
        t_fallback_min: ``T^min_fb,0`` of the Supervisor.
        t_wait_max: ``T^max_wait`` of the Supervisor.
        t_req_max: ``T^max_req,N`` of the Initializer.
        entity_timing: Lease timings in PTE order (``xi_1`` first).
        enter_safeguards: ``T^min_risky:i->i+1`` for consecutive pairs.
        exit_safeguards: ``T^min_safe:i+1->i`` for consecutive pairs.
        supervisor_resend_limit: How many times the (reconstructed)
            Supervisor re-sends an unconfirmed cancel/abort before giving up
            and waiting out the lease horizon.  This is an implementation
            parameter of our conservative supervisor reconstruction, not a
            paper constant; it does not affect safety, only liveness.
    """

    t_fallback_min: float
    t_wait_max: float
    t_req_max: float
    entity_timing: tuple[EntityTiming, ...]
    enter_safeguards: tuple[float, ...]
    exit_safeguards: tuple[float, ...]
    supervisor_resend_limit: int = 0

    def __init__(self, *, t_fallback_min: float, t_wait_max: float, t_req_max: float,
                 entity_timing: Sequence[EntityTiming],
                 enter_safeguards: Sequence[float],
                 exit_safeguards: Sequence[float],
                 supervisor_resend_limit: int = 0):
        timings = tuple(entity_timing)
        if len(timings) < 2:
            raise ConfigurationError(
                "the design pattern requires at least two remote entities (N >= 2)")
        if len(enter_safeguards) != len(timings) - 1:
            raise ConfigurationError(
                "need exactly one enter-risky safeguard per consecutive entity pair")
        if len(exit_safeguards) != len(timings) - 1:
            raise ConfigurationError(
                "need exactly one exit-risky safeguard per consecutive entity pair")
        object.__setattr__(self, "t_fallback_min", float(t_fallback_min))
        object.__setattr__(self, "t_wait_max", float(t_wait_max))
        object.__setattr__(self, "t_req_max", float(t_req_max))
        object.__setattr__(self, "entity_timing", timings)
        object.__setattr__(self, "enter_safeguards",
                           tuple(float(v) for v in enter_safeguards))
        object.__setattr__(self, "exit_safeguards",
                           tuple(float(v) for v in exit_safeguards))
        object.__setattr__(self, "supervisor_resend_limit", int(supervisor_resend_limit))

    # -- derived quantities --------------------------------------------------------
    @property
    def n_entities(self) -> int:
        """Number of remote entities ``N``."""
        return len(self.entity_timing)

    def timing(self, index: int) -> EntityTiming:
        """Lease timing of entity ``xi_index`` (1-based, in PTE order)."""
        if not 1 <= index <= self.n_entities:
            raise ConfigurationError(
                f"entity index must lie in 1..{self.n_entities}, got {index}")
        return self.entity_timing[index - 1]

    @property
    def initializer_timing(self) -> EntityTiming:
        """Lease timing of the Initializer ``xi_N``."""
        return self.entity_timing[-1]

    @property
    def t_ls1_max(self) -> float:
        """``T^max_LS1 = T^max_enter,1 + T^max_run,1 + T_exit,1`` (condition c2)."""
        return self.entity_timing[0].total

    @property
    def dwelling_bound(self) -> float:
        """Theorem 1's bound on any entity's continuous risky dwelling.

        Theorem 1 guarantees every entity's continuous risky dwelling is at
        most ``T^max_wait + T^max_LS1``.
        """
        return self.t_wait_max + self.t_ls1_max

    @property
    def round_horizon(self) -> float:
        """Time by which every entity is guaranteed back in Fall-Back.

        Measured from the instant the Supervisor issues
        ``evt xi0->xi1 LeaseReq`` (i.e. from the start of a coordination
        round); equal to the Rule 1 bound ``T^max_wait + T^max_LS1``.
        """
        return self.dwelling_bound

    def initializer_horizon(self) -> float:
        """Worst-case time for the Initializer to return to Fall-Back.

        Measured from the instant the Supervisor approves (or would have
        approved) the Initializer; accounts for the possibility that the
        approval was lost and the Initializer instead times out of its
        "Requesting" location.
        """
        timing = self.initializer_timing
        return max(self.t_req_max, timing.total)

    def enter_safeguard(self, inner_index: int) -> float:
        """``T^min_risky:i->i+1`` for the pair ``(xi_i, xi_{i+1})``."""
        return self.enter_safeguards[inner_index - 1]

    def exit_safeguard(self, inner_index: int) -> float:
        """``T^min_safe:i+1->i`` for the pair ``(xi_i, xi_{i+1})``."""
        return self.exit_safeguards[inner_index - 1]

    # -- conversions -----------------------------------------------------------------
    def to_rule_set(self, entity_names: Sequence[str],
                    dwelling_bound: float | None = None) -> PTERuleSet:
        """Build the PTE rule set this configuration is meant to guarantee.

        Args:
            entity_names: Names of the ``N`` remote entities in PTE order.
            dwelling_bound: Rule 1 bound; defaults to Theorem 1's
                ``T^max_wait + T^max_LS1``.
        """
        if len(entity_names) != self.n_entities:
            raise ConfigurationError(
                f"expected {self.n_entities} entity names, got {len(entity_names)}")
        bound = self.dwelling_bound if dwelling_bound is None else float(dwelling_bound)
        order = PTEOrderSpec(entities=list(entity_names),
                             enter_safeguards=list(self.enter_safeguards),
                             exit_safeguards=list(self.exit_safeguards))
        return PTERuleSet(order=order,
                          dwelling_bounds={name: bound for name in entity_names},
                          default_dwelling_bound=bound)

    def with_timing(self, index: int, timing: EntityTiming) -> "PatternConfiguration":
        """Return a copy with entity ``xi_index``'s timing replaced."""
        timings = list(self.entity_timing)
        timings[index - 1] = timing
        return replace(self, entity_timing=tuple(timings))


def laser_tracheotomy_configuration(*, supervisor_resend_limit: int = 0) -> PatternConfiguration:
    """The exact parameter values used by the paper's case study (Section V).

    ``N = 2``: the ventilator is Participant ``xi_1`` and the laser-scalpel
    is Initializer ``xi_2``.
    """
    return PatternConfiguration(
        t_fallback_min=13.0,
        t_wait_max=3.0,
        t_req_max=5.0,
        entity_timing=(
            EntityTiming(t_enter_max=3.0, t_run_max=35.0, t_exit=6.0),   # ventilator
            EntityTiming(t_enter_max=10.0, t_run_max=20.0, t_exit=1.5),  # laser-scalpel
        ),
        enter_safeguards=(3.0,),
        exit_safeguards=(1.5,),
        supervisor_resend_limit=supervisor_resend_limit,
    )


def synthesize_configuration(*, n_entities: int,
                             enter_safeguards: Sequence[float],
                             exit_safeguards: Sequence[float],
                             t_wait_max: float = 3.0,
                             t_fallback_min: float = 10.0,
                             initializer_timing: EntityTiming | None = None,
                             margin: float = 1.0) -> PatternConfiguration:
    """Constructively synthesize a configuration satisfying Theorem 1.

    The construction works backwards from the Initializer:

    * ``T^max_enter`` grows along the PTE order so that condition c5 holds
      with ``margin`` to spare;
    * ``T_exit,i`` is set above the exit safeguard (condition c7);
    * ``T^max_run,i`` is set from condition c6 so each entity's natural
      lease outlasts its successor's whole round trip plus ``T^max_wait``;
    * ``T^max_req,N`` is placed between ``(N-1) T^max_wait`` and
      ``T^max_LS1`` (condition c3).

    The result is validated against all of c1--c7 before being returned.

    Raises:
        ConfigurationError: If the inputs are inconsistent (wrong number of
            safeguards, non-positive margin or timeout).
    """
    from repro.core.constraints import assert_valid  # local import avoids a cycle

    if n_entities < 2:
        raise ConfigurationError("the design pattern requires N >= 2")
    if len(enter_safeguards) != n_entities - 1 or len(exit_safeguards) != n_entities - 1:
        raise ConfigurationError(
            "need exactly one enter and one exit safeguard per consecutive pair")
    if margin <= 0 or t_wait_max <= 0 or t_fallback_min <= 0:
        raise ConfigurationError("margin, T_wait_max and T_fb_min must be positive")

    initializer = initializer_timing or EntityTiming(
        t_enter_max=float(enter_safeguards[-1]) + 2.0 * margin if enter_safeguards else 2.0 * margin,
        t_run_max=10.0 * margin,
        t_exit=float(exit_safeguards[-1]) + margin if exit_safeguards else margin)

    # Enter times grow along the order (condition c5): start from xi_1 and
    # make sure xi_N's given t_enter_max is still large enough; otherwise
    # scale the chain down to fit under it.
    enters: List[float] = [margin]
    for safeguard in enter_safeguards[:-1]:
        enters.append(enters[-1] + float(safeguard) + margin)
    required_last = enters[-1] + float(enter_safeguards[-1]) + margin
    if initializer.t_enter_max < required_last:
        initializer = EntityTiming(required_last, initializer.t_run_max, initializer.t_exit)

    # Exit dwell above the exit safeguard (condition c7).
    exits: List[float] = [float(g) + margin for g in exit_safeguards]

    # Run times from condition c6, computed from the initializer backwards.
    timings: List[EntityTiming] = [initializer]
    successor = initializer
    for i in range(n_entities - 2, -1, -1):
        run = (t_wait_max + successor.total + margin) - enters[i]
        run = max(run, margin)
        timing = EntityTiming(t_enter_max=enters[i], t_run_max=run, t_exit=exits[i])
        timings.insert(0, timing)
        successor = timing

    t_ls1 = timings[0].total
    t_req = min(max((n_entities - 1) * t_wait_max + margin, initializer.t_run_max / 2.0),
                t_ls1 - margin)
    config = PatternConfiguration(
        t_fallback_min=t_fallback_min,
        t_wait_max=t_wait_max,
        t_req_max=t_req,
        entity_timing=tuple(timings),
        enter_safeguards=tuple(float(v) for v in enter_safeguards),
        exit_safeguards=tuple(float(v) for v in exit_safeguards))
    assert_valid(config)
    return config
