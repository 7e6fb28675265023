"""Link directions and delivery outcomes of the wireless substrate.

The fault model of the paper (Section II-B) assumes every packet carries a
checksum strong enough to detect any bit error; a corrupted packet is
discarded at the receiver, which from the application's point of view is
indistinguishable from a loss.  The channel models therefore fold
corruption and outright loss into a single "not delivered" outcome, but
:class:`DeliveryOutcome` keeps both causes visible for statistics.
"""

from __future__ import annotations

import enum


class LinkDirection(enum.Enum):
    """Direction of a wireless link in the sink topology."""

    UPLINK = "uplink"      # remote entity -> base station
    DOWNLINK = "downlink"  # base station -> remote entity
    LOCAL = "local"        # same entity (wired / in-process), never lossy


class DeliveryOutcome(enum.Enum):
    """What happened to one transmitted packet."""

    DELIVERED = "delivered"
    LOST = "lost"                  # never arrived at the receiver
    CORRUPTED = "corrupted"        # arrived, failed the checksum, discarded

    @property
    def received_by_application(self) -> bool:
        """True only when the application layer actually sees the packet."""
        return self is DeliveryOutcome.DELIVERED
