"""Event vocabulary of the lease design pattern.

The design pattern automata of Section IV-A communicate through a fixed
family of events.  The paper names them ``evt xiN To xi0 Req``,
``evt xi0 To xii LeaseReq`` and so on; this module generates the
corresponding machine-friendly roots from entity indices so every automaton
builder and every test uses exactly the same spelling.

Entity index 0 is always the Supervisor (base station); indices ``1..N``
are the remote entities in PTE order, with ``N`` the Initializer.
"""

from __future__ import annotations

from dataclasses import dataclass


def request(initializer_index: int) -> str:
    """``evt xiN -> xi0 Req``: the Initializer asks to enter risky locations."""
    return f"evt_xi{initializer_index}_to_xi0_req"


def request_cancel(initializer_index: int) -> str:
    """``evt xiN -> xi0 Cancel``: the Initializer cancels its request/lease."""
    return f"evt_xi{initializer_index}_to_xi0_cancel"


def lease_request(participant_index: int) -> str:
    """``evt xi0 -> xii LeaseReq``: the Supervisor offers a lease to a Participant."""
    return f"evt_xi0_to_xi{participant_index}_lease_req"


def lease_approve(participant_index: int) -> str:
    """``evt xii -> xi0 LeaseApprove``: the Participant accepts the lease."""
    return f"evt_xi{participant_index}_to_xi0_lease_approve"


def lease_deny(participant_index: int) -> str:
    """``evt xii -> xi0 LeaseDeny``: the Participant refuses the lease."""
    return f"evt_xi{participant_index}_to_xi0_lease_deny"


def approve(initializer_index: int) -> str:
    """``evt xi0 -> xiN Approve``: the Supervisor approves the Initializer."""
    return f"evt_xi0_to_xi{initializer_index}_approve"


def cancel(entity_index: int) -> str:
    """``evt xi0 -> xii Cancel``: the Supervisor cancels an entity's lease."""
    return f"evt_xi0_to_xi{entity_index}_cancel"


def abort(entity_index: int) -> str:
    """``evt xi0 -> xii Abort``: the Supervisor aborts an entity's lease."""
    return f"evt_xi0_to_xi{entity_index}_abort"


def exited(entity_index: int) -> str:
    """``evt xii -> xi0 Exit``: the entity reports it is back in Fall-Back.

    The paper's abort walk-through (Section V) shows the Initializer
    acknowledging an abort with ``evt xi2 -> xi0 Exit``; our reconstruction
    has every remote entity emit this confirmation when it re-enters its
    Fall-Back location, which is what lets the Supervisor cancel leases in
    reverse PTE order without ever outrunning an upstream entity.
    """
    return f"evt_xi{entity_index}_to_xi0_exit"


def command_request(initializer_index: int) -> str:
    """Local (wired) command asking the Initializer to request its lease.

    In the case study this is the surgeon pressing the laser trigger; it is
    delivered reliably because it never crosses the wireless network.
    """
    return f"cmd_initiate_xi{initializer_index}"


def command_cancel(initializer_index: int) -> str:
    """Local (wired) command asking the Initializer to stop."""
    return f"cmd_cancel_xi{initializer_index}"


@dataclass(frozen=True)
class EventVocabulary:
    """All event roots used by one instance of the design pattern.

    Useful for tests and for wiring environment processes: instead of
    recomputing root strings, grab them from here.
    """

    n_entities: int

    def __post_init__(self) -> None:
        if self.n_entities < 2:
            raise ValueError("the design pattern requires N >= 2 remote entities")

    @property
    def initializer_index(self) -> int:
        """Index of the Initializer (``N``)."""
        return self.n_entities

    # -- initializer-side roots ------------------------------------------------
    @property
    def request(self) -> str:
        """Initializer request event."""
        return request(self.initializer_index)

    @property
    def request_cancel(self) -> str:
        """Initializer cancel event."""
        return request_cancel(self.initializer_index)

    @property
    def approve(self) -> str:
        """Supervisor approval of the Initializer."""
        return approve(self.initializer_index)

    @property
    def command_request(self) -> str:
        """Local command that triggers an Initializer request."""
        return command_request(self.initializer_index)

    @property
    def command_cancel(self) -> str:
        """Local command that cancels the Initializer."""
        return command_cancel(self.initializer_index)

    # -- per-entity roots ---------------------------------------------------------
    def lease_request(self, index: int) -> str:
        """Lease offer to Participant ``index``."""
        return lease_request(index)

    def lease_approve(self, index: int) -> str:
        """Lease acceptance from Participant ``index``."""
        return lease_approve(index)

    def cancel(self, index: int) -> str:
        """Supervisor cancel aimed at entity ``index``."""
        return cancel(index)

    def abort(self, index: int) -> str:
        """Supervisor abort aimed at entity ``index``."""
        return abort(index)

    def exited(self, index: int) -> str:
        """Fall-Back confirmation from entity ``index``."""
        return exited(index)
