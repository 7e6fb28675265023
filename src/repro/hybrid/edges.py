"""Edges (discrete transitions) of a hybrid automaton (Section II-A, items 5-8).

An edge carries a guard, a reset function and synchronization information.
Relative to the bare formal definition we add two pragmatic fields that the
paper expresses through zero-dwell intermediate locations:

* ``emits`` -- events broadcast when the edge fires (the paper's ``!l``
  labels on the outgoing half of an intermediate location);
* ``reason`` -- a human-readable tag recording *why* a transition exists
  (``"lease_expiry"``, ``"abort"``, ...).  The Table I statistic
  ``evtToStop`` is counted by filtering transition records on this tag.

Edges are *event-triggered* when :attr:`Edge.trigger` is set (they fire when
the event is delivered and the guard holds) and *ASAP* otherwise (they fire
as soon as the guard becomes true).  ASAP semantics realise the usual
"urgent transition" idiom of timed automata, which is how every dwell-time
bound in the design pattern is expressed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

from repro.hybrid.expressions import Predicate, TRUE
from repro.hybrid.labels import Prefix, SyncLabel
from repro.hybrid.variables import Valuation


@dataclass(frozen=True)
class Reset:
    """A reset function ``r_e`` applied to the data state when an edge fires.

    The default reset is the identity.  Assignments are applied on top of
    the current valuation, so variables that are not mentioned keep their
    value (this is the overwhelmingly common case: clocks are reset to zero,
    everything else is untouched).
    """

    assignments: Mapping[str, float] = field(default_factory=dict)
    function: Callable[[Valuation], Mapping[str, float]] | None = None

    def apply(self, valuation: Valuation) -> Valuation:
        """Return the post-transition valuation."""
        updated = valuation
        if self.assignments:
            updated = updated.updated(self.assignments)
        if self.function is not None:
            updated = updated.updated(self.function(updated))
        return updated

    @property
    def is_identity(self) -> bool:
        """True when this reset leaves every variable unchanged."""
        return not self.assignments and self.function is None

    def __repr__(self) -> str:
        if self.is_identity:
            return "Reset(identity)"
        inner = ", ".join(f"{k}:={v:g}" for k, v in sorted(self.assignments.items()))
        if self.function is not None:
            inner = (inner + ", " if inner else "") + "<function>"
        return f"Reset({inner})"


IDENTITY_RESET = Reset()


@dataclass(frozen=True)
class Edge:
    """A discrete transition between two locations.

    Attributes:
        source: Name of the source location ``src(e)``.
        target: Name of the destination location ``des(e)``.
        guard: Guard predicate ``g(e)``; the edge may fire only when it holds.
        reset: Reset function applied to the data state when firing.
        trigger: Optional receive label (``?root`` or ``??root``).  When
            set, the edge fires only upon delivery of the event.
        emits: Event roots broadcast when the edge fires.
        reason: Free-form tag describing the purpose of the transition.
        priority: Larger priorities win when several edges are enabled at
            the same instant (ties broken by declaration order).
        metadata: Additional annotations.
    """

    source: str
    target: str
    guard: Predicate = TRUE
    reset: Reset = IDENTITY_RESET
    trigger: SyncLabel | None = None
    emits: tuple[str, ...] = ()
    reason: str = ""
    priority: int = 0
    metadata: Mapping[str, object] = field(default_factory=dict)

    def __init__(self, source: str, target: str, *, guard: Predicate = TRUE,
                 reset: Reset = IDENTITY_RESET, trigger: SyncLabel | None = None,
                 emits: Sequence[str] = (), reason: str = "", priority: int = 0,
                 metadata: Mapping[str, object] | None = None):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "guard", guard)
        object.__setattr__(self, "reset", reset)
        object.__setattr__(self, "trigger", trigger)
        object.__setattr__(self, "emits", tuple(emits))
        object.__setattr__(self, "reason", reason)
        object.__setattr__(self, "priority", int(priority))
        object.__setattr__(self, "metadata", dict(metadata or {}))
        if trigger is not None and not trigger.is_receive:
            raise ValueError(
                f"edge trigger must be a receive label (? or ??), got {trigger}")

    # -- classification ----------------------------------------------------
    @property
    def is_event_triggered(self) -> bool:
        """True when this edge waits for an event delivery."""
        return self.trigger is not None

    @property
    def is_asap(self) -> bool:
        """True when this edge fires as soon as its guard becomes true."""
        return self.trigger is None

    def sync_labels(self) -> set[SyncLabel]:
        """All synchronization labels attached to this edge.

        The trigger label (if any) plus one ``!root`` send label per emitted
        event, matching the paper's labelling convention.
        """
        labels: set[SyncLabel] = set()
        if self.trigger is not None:
            labels.add(self.trigger)
        for root in self.emits:
            labels.add(SyncLabel(Prefix.SEND, root))
        return labels

    def renamed(self, mapping: Mapping[str, str]) -> "Edge":
        """Return a copy with source/target renamed through ``mapping``."""
        return replace(
            self,
            source=mapping.get(self.source, self.source),
            target=mapping.get(self.target, self.target),
        )

    def retargeted(self, *, source: str | None = None, target: str | None = None) -> "Edge":
        """Return a copy with the source and/or target replaced."""
        return replace(
            self,
            source=self.source if source is None else source,
            target=self.target if target is None else target,
        )

    def __repr__(self) -> str:
        trig = f" on {self.trigger}" if self.trigger else ""
        emit = f" emits {list(self.emits)}" if self.emits else ""
        why = f" [{self.reason}]" if self.reason else ""
        return f"Edge({self.source} -> {self.target}{trig}{emit}{why})"
