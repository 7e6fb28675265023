"""Lease bookkeeping.

The lease design philosophy (paper Section IV-A, after Gray & Cheriton):
every dwelling of an entity in its risky locations happens under a *lease*,
a contract with a start time and an expiration time; if the supervisor has
not cancelled or aborted the lease by its expiration, the entity exits its
risky locations on its own.

Inside the hybrid automata, leases are realized by clock guards
(``c >= T^max_run``), so the automata need no extra machinery.  This module
provides an explicit :class:`Lease` / :class:`LeaseLedger` representation
that the emulation harness reconstructs from traces: it is what lets the
Table I benchmark count how often a lease expiration actually rescued the
system (the ``evtToStop`` column) and audit that no lease ever overran its
contract.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Dict, List

from repro.util.timebase import EPSILON


class LeaseOutcome(enum.Enum):
    """How a lease ended."""

    ACTIVE = "active"               # still running at the end of the trace
    COMPLETED = "completed"         # cancelled or released through messages
    EXPIRED = "expired"             # the lease timer fired (auto-reset)
    ABORTED = "aborted"             # supervisor abort (ApprovalCondition)


@dataclass(frozen=True)
class Lease:
    """One lease: a bounded permission to dwell in risky locations.

    Attributes:
        holder: Entity holding the lease.
        granted_at: Time the entity entered its risky locations.
        duration: Contracted maximum risky dwell (``T^max_run + T_exit``
            when measured over the full risky partition).
        outcome: How the lease ended.
        released_at: Time the entity actually left its risky locations.
    """

    holder: str
    granted_at: float
    duration: float
    outcome: LeaseOutcome = LeaseOutcome.ACTIVE
    released_at: float | None = None

    @property
    def expires_at(self) -> float:
        """Contractual expiration instant."""
        return self.granted_at + self.duration

    @property
    def overran(self) -> bool:
        """True when the entity stayed risky beyond the contract.

        A correct lease-based design never overruns; the no-lease baseline
        of Table I does.
        """
        if self.released_at is None:
            return False
        return self.released_at > self.expires_at + EPSILON

    def closed(self, outcome: LeaseOutcome, released_at: float) -> "Lease":
        """Return a finished copy of this lease."""
        return replace(self, outcome=outcome, released_at=released_at)


@dataclass
class LeaseLedger:
    """A per-entity record of every lease taken during one trial."""

    leases: Dict[str, List[Lease]] = field(default_factory=dict)

    def open(self, holder: str, granted_at: float, duration: float) -> Lease:
        """Record the start of a new lease for ``holder``."""
        lease = Lease(holder=holder, granted_at=granted_at, duration=duration)
        self.leases.setdefault(holder, []).append(lease)
        return lease

    def close(self, holder: str, outcome: LeaseOutcome, released_at: float) -> Lease:
        """Close the most recent open lease of ``holder``."""
        history = self.leases.get(holder, [])
        for index in range(len(history) - 1, -1, -1):
            if history[index].outcome is LeaseOutcome.ACTIVE:
                history[index] = history[index].closed(outcome, released_at)
                return history[index]
        raise ValueError(f"entity {holder!r} has no open lease to close")

    def of(self, holder: str) -> List[Lease]:
        """Every lease taken by ``holder`` (chronological)."""
        return list(self.leases.get(holder, []))

    def all_leases(self) -> List[Lease]:
        """Every lease across all entities (chronological per entity)."""
        return [lease for history in self.leases.values() for lease in history]

    def count(self, holder: str, outcome: LeaseOutcome) -> int:
        """Number of ``holder``'s leases that ended with ``outcome``."""
        return sum(1 for lease in self.of(holder) if lease.outcome is outcome)

    def overruns(self, holder: str | None = None) -> int:
        """Number of leases whose holder overstayed the contract."""
        leases = self.all_leases() if holder is None else self.of(holder)
        return sum(1 for lease in leases if lease.overran)
