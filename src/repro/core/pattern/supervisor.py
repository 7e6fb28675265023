"""The Supervisor design-pattern automaton ``A_supvsr`` (Section IV-A, Figs. 3-4).

The Supervisor ``xi_0`` (the base station) coordinates a lease round:

1. In "Fall-Back", after dwelling at least ``T^min_fb,0`` and provided the
   application-dependent ``ApprovalCondition`` holds, a request from the
   Initializer starts a round: the Supervisor leases Participants
   ``xi_1 .. xi_{N-1}`` in PTE order and finally approves the Initializer.
2. In each "Lease xi_i" it waits at most ``T^max_wait`` for the
   Participant's approval; a denial, a timeout, a cancellation from the
   Initializer or a violated ``ApprovalCondition`` makes it unwind the
   round (cancel or abort chain) in *reverse* PTE order.
3. In "Lease xi_N" it waits for the Initializer to finish (Exit
   confirmation) or for the Initializer's worst-case horizon, then cancels
   the Participants in reverse order.
4. "Cancel Lease xi_i" / "Abort Lease xi_i" send the cancel/abort to entity
   ``xi_i`` and advance to ``xi_{i-1}`` only once that entity confirms it is
   back in Fall-Back.  Without a confirmation the Supervisor (optionally
   re-sends and then) retreats to "Settle", where it simply waits out the
   global lease horizon ``T^max_wait + T^max_LS1`` -- by then every lease
   has expired and every entity has reset itself, in the order guaranteed
   by conditions c5-c7.

Reconstruction note
-------------------
The paper only sketches the flow-block internals of the "Lease/Cancel/Abort"
locations (Fig. 4 a-c) and leaves the details to its technical report.  The
automaton built here is a *conservative* reconstruction documented in
DESIGN.md: the Supervisor never sends a cancel/abort to ``xi_i`` before
``xi_{i+1}`` is either confirmed back in Fall-Back or past its worst-case
self-reset horizon.  Safety rests on the remote entities' leases and on
conditions c1-c7, exactly as in the paper's Theorem 1 argument; the
Supervisor's details only affect liveness.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.configuration import PatternConfiguration
from repro.core.pattern import events
from repro.core.pattern.roles import (FALL_BACK, SETTLE, Role, abort_location,
                                      cancel_location, lease_location, qualified)
from repro.hybrid.automaton import HybridAutomaton
from repro.hybrid.edges import Edge, Reset
from repro.hybrid.expressions import And, Not, Predicate, TRUE, TruePredicate, var_ge, var_le
from repro.hybrid.flows import clock_flow
from repro.hybrid.labels import receive_lossy
from repro.hybrid.locations import Location


def _conjoin(a: Predicate, b: Predicate) -> Predicate:
    if isinstance(a, TruePredicate):
        return b
    if isinstance(b, TruePredicate):
        return a
    return And((a, b))


def build_supervisor(config: PatternConfiguration, *,
                     entity_id: str = "xi0",
                     name: str | None = None,
                     approval_condition: Predicate = TRUE,
                     extra_variables: Mapping[str, float] | None = None,
                     use_abort_on_violation: bool = True) -> HybridAutomaton:
    """Build the Supervisor automaton ``A_supvsr``.

    Args:
        config: Pattern configuration (supplies ``T^min_fb,0``,
            ``T^max_wait``, every entity's lease trio and the resend limit).
        entity_id: Identifier namespacing locations and clocks (``"xi0"``).
        name: Automaton name; defaults to ``entity_id``.
        approval_condition: Application-dependent ``ApprovalCondition``
            evaluated over this automaton's variables (e.g. an ``spo2``
            variable fed by a wired oximeter coupling).  A round is only
            started while it holds, and its violation aborts a running
            round.
        extra_variables: Additional data state variables (name -> initial
            value) referenced by ``approval_condition`` or by couplings.
        use_abort_on_violation: When False the Supervisor never reacts to
            ``ApprovalCondition`` violations mid-round (used by ablation
            experiments); rounds are still only started while the condition
            holds.

    Returns:
        The Supervisor :class:`~repro.hybrid.automaton.HybridAutomaton`.
    """
    n = config.n_entities
    entity_id = entity_id or "xi0"
    clock = f"c_{entity_id}"
    round_clock = f"g_{entity_id}"
    resend_counter = f"r_{entity_id}"
    variables = [clock, round_clock, resend_counter]
    initial_values = {clock: 0.0, round_clock: 0.0, resend_counter: 0.0}
    for variable, value in (extra_variables or {}).items():
        variables.append(variable)
        initial_values[variable] = float(value)

    flow = clock_flow(clock, round_clock)

    def loc(base: str) -> str:
        return qualified(entity_id, base)

    automaton = HybridAutomaton(
        name or entity_id,
        variables=variables,
        initial_valuation=initial_values,
        metadata={"role": Role.SUPERVISOR.value, "entity_index": 0,
                  "entity_id": entity_id},
    )

    # Locations: Fall-Back, Lease/Cancel/Abort xi_i for i = 1..N, Settle.
    automaton.add_location(Location(name=loc(FALL_BACK), flow=flow))
    for i in range(1, n + 1):
        automaton.add_location(Location(name=loc(lease_location(i)), flow=flow))
        automaton.add_location(Location(name=loc(cancel_location(i)), flow=flow))
        automaton.add_location(Location(name=loc(abort_location(i)), flow=flow))
    automaton.add_location(Location(name=loc(SETTLE), flow=flow))
    automaton.initial_location = loc(FALL_BACK)

    step_reset = Reset({clock: 0.0, resend_counter: 0.0})
    round_reset = Reset({clock: 0.0, round_clock: 0.0, resend_counter: 0.0})
    initializer = config.n_entities
    violation_guard = Not(approval_condition)

    # ---- Fall-Back: start a round --------------------------------------------------
    automaton.add_edge(Edge(
        loc(FALL_BACK), loc(lease_location(1)),
        trigger=receive_lossy(events.request(initializer)),
        guard=_conjoin(var_ge(clock, config.t_fallback_min), approval_condition),
        emits=[events.lease_request(1)],
        reset=round_reset, reason="round_start"))

    # ---- Lease xi_i for participants (i = 1 .. N-1) ---------------------------------
    for i in range(1, n):
        here = loc(lease_location(i))
        # Approval received: lease the next entity (or approve the Initializer).
        if i + 1 <= n - 1:
            next_location = loc(lease_location(i + 1))
            next_emit = events.lease_request(i + 1)
        else:
            next_location = loc(lease_location(n))
            next_emit = events.approve(initializer)
        automaton.add_edge(Edge(
            here, next_location,
            trigger=receive_lossy(events.lease_approve(i)),
            emits=[next_emit], reset=step_reset, reason="participant_approved"))

        # Denial: unwind from the previous participant (nothing to cancel for i = 1).
        if i > 1:
            automaton.add_edge(Edge(
                here, loc(cancel_location(i - 1)),
                trigger=receive_lossy(events.lease_deny(i)),
                emits=[events.cancel(i - 1)], reset=step_reset,
                reason="participant_denied"))
        else:
            automaton.add_edge(Edge(
                here, loc(FALL_BACK),
                trigger=receive_lossy(events.lease_deny(i)),
                reset=step_reset, reason="participant_denied"))

        # Initializer cancelled while we were still leasing: cancel xi_i itself
        # (it may have approved even though we did not hear it).
        automaton.add_edge(Edge(
            here, loc(cancel_location(i)),
            trigger=receive_lossy(events.request_cancel(initializer)),
            emits=[events.cancel(i)], reset=step_reset,
            reason="initializer_cancelled"))

        # Coordination timeout: the approval never arrived.
        automaton.add_edge(Edge(
            here, loc(cancel_location(i)),
            guard=var_ge(clock, config.t_wait_max),
            emits=[events.cancel(i)], reset=step_reset,
            reason="lease_wait_timeout"))

        # ApprovalCondition violated: switch to the abort chain.
        if use_abort_on_violation:
            automaton.add_edge(Edge(
                here, loc(abort_location(i)),
                guard=violation_guard,
                emits=[events.abort(i)], reset=step_reset,
                reason="approval_violated", priority=2))

    # ---- Lease xi_N: the Initializer holds its lease ---------------------------------
    lease_n = loc(lease_location(n))
    after_initializer = loc(cancel_location(n - 1))
    automaton.add_edge(Edge(
        lease_n, after_initializer,
        trigger=receive_lossy(events.exited(initializer)),
        emits=[events.cancel(n - 1)], reset=step_reset, reason="initializer_done"))
    automaton.add_edge(Edge(
        lease_n, loc(cancel_location(n)),
        trigger=receive_lossy(events.request_cancel(initializer)),
        emits=[events.cancel(n)], reset=step_reset, reason="initializer_cancelled"))
    automaton.add_edge(Edge(
        lease_n, after_initializer,
        guard=var_ge(clock, config.initializer_horizon()),
        emits=[events.cancel(n - 1)], reset=step_reset, reason="initializer_horizon"))
    if use_abort_on_violation:
        automaton.add_edge(Edge(
            lease_n, loc(abort_location(n)),
            guard=violation_guard,
            emits=[events.abort(n)], reset=step_reset,
            reason="approval_violated", priority=2))

    # ---- Cancel / Abort chains ----------------------------------------------------------
    def unwind_chain(kind: str, location_of, message_of) -> None:
        """Create the reverse-order unwind chain ("cancel" or "abort")."""
        for i in range(1, n + 1):
            here = loc(location_of(i))
            confirm_timeout = config.timing(i).t_exit + config.t_wait_max
            if i > 1:
                confirmed_target = loc(location_of(i - 1))
                confirmed_emits = [message_of(i - 1)]
            else:
                confirmed_target = loc(FALL_BACK)
                confirmed_emits = []
            automaton.add_edge(Edge(
                here, confirmed_target,
                trigger=receive_lossy(events.exited(i)),
                emits=confirmed_emits, reset=step_reset,
                reason=f"{kind}_confirmed"))
            if kind == "cancel" and i == n:
                # "Cancel Lease xi_N" is only ever entered after the
                # Initializer itself announced a cancellation, i.e. it has
                # already left its risky locations and is guaranteed back in
                # Fall-Back within T_exit,N even if every message is lost.
                # After waiting that horizon the Supervisor may therefore
                # safely proceed down the chain without a confirmation.
                automaton.add_edge(Edge(
                    here, confirmed_target,
                    guard=var_ge(clock, confirm_timeout),
                    emits=confirmed_emits, reset=step_reset,
                    reason="cancel_initializer_horizon"))
                continue
            if config.supervisor_resend_limit > 0:
                automaton.add_edge(Edge(
                    here, here,
                    guard=_conjoin(var_ge(clock, confirm_timeout),
                                   var_le(resend_counter,
                                          config.supervisor_resend_limit - 1)),
                    emits=[message_of(i)],
                    reset=Reset({clock: 0.0},
                                function=lambda v, _rc=resend_counter: {_rc: v[_rc] + 1.0}),
                    reason=f"{kind}_resend"))
                giveup_guard = _conjoin(var_ge(clock, confirm_timeout),
                                        var_ge(resend_counter,
                                               config.supervisor_resend_limit))
            else:
                giveup_guard = var_ge(clock, confirm_timeout)
            automaton.add_edge(Edge(
                here, loc(SETTLE),
                guard=giveup_guard, reset=step_reset,
                reason=f"{kind}_unconfirmed"))

    unwind_chain("cancel", cancel_location, events.cancel)
    unwind_chain("abort", abort_location, events.abort)

    # ---- Settle: wait out the global lease horizon, then return to Fall-Back ------------
    automaton.add_edge(Edge(
        loc(SETTLE), loc(FALL_BACK),
        guard=var_ge(round_clock, config.round_horizon),
        reset=step_reset, reason="settled"))

    automaton.validate()
    return automaton
