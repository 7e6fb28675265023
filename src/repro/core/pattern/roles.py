"""Roles and canonical location names of the lease design pattern."""

from __future__ import annotations

import enum


class Role(enum.Enum):
    """The three roles a PTE wireless CPS entity can play (Section IV-A)."""

    SUPERVISOR = "supervisor"      # the base station, xi0
    PARTICIPANT = "participant"    # remote entities xi1 .. xiN-1
    INITIALIZER = "initializer"    # remote entity xiN


# Canonical location base names.  Automata namespace them with their entity
# identifier ("xi1.Fall-Back") because member automata of a hybrid system
# may not share location names.
FALL_BACK = "Fall-Back"
REQUESTING = "Requesting"
L0 = "L0"
ENTERING = "Entering"
RISKY_CORE = "Risky Core"
EXITING_1 = "Exiting 1"
EXITING_2 = "Exiting 2"
SETTLE = "Settle"


def lease_location(index: int) -> str:
    """Supervisor location ``"Lease xi_i"``."""
    return f"Lease xi{index}"


def cancel_location(index: int) -> str:
    """Supervisor location ``"Cancel Lease xi_i"``."""
    return f"Cancel Lease xi{index}"


def abort_location(index: int) -> str:
    """Supervisor location ``"Abort Lease xi_i"``."""
    return f"Abort Lease xi{index}"


def qualified(entity_id: str, base_name: str) -> str:
    """Namespace a canonical location name with its entity identifier."""
    return f"{entity_id}.{base_name}"


#: Location base names belonging to the risky partition of remote entities.
REMOTE_RISKY_BASES = frozenset({RISKY_CORE, EXITING_1})

#: Location base names belonging to the safe partition of remote entities.
REMOTE_SAFE_BASES = frozenset({FALL_BACK, REQUESTING, L0, ENTERING, EXITING_2})
