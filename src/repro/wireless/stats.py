"""Delivery statistics for wireless links."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.wireless.packet import DeliveryOutcome


@dataclass
class LinkStatistics:
    """Counters for one directed link (sender entity -> receiver entity)."""

    sent: int = 0
    delivered: int = 0
    lost: int = 0
    corrupted: int = 0

    def record(self, outcome: DeliveryOutcome) -> None:
        """Account for one transmission attempt."""
        self.sent += 1
        if outcome is DeliveryOutcome.DELIVERED:
            self.delivered += 1
        elif outcome is DeliveryOutcome.CORRUPTED:
            self.corrupted += 1
        else:
            self.lost += 1


@dataclass
class NetworkStatistics:
    """Per-link and aggregate delivery statistics for a whole network."""

    links: Dict[tuple[str, str], LinkStatistics] = field(default_factory=dict)

    def record(self, sender: str, receiver: str, outcome: DeliveryOutcome) -> None:
        """Account for one transmission attempt on the given link."""
        self.links.setdefault((sender, receiver), LinkStatistics()).record(outcome)

    def link(self, sender: str, receiver: str) -> LinkStatistics:
        """Statistics of one directed link (empty stats when unused)."""
        return self.links.get((sender, receiver), LinkStatistics())

    @property
    def total_sent(self) -> int:
        """Total transmissions across all links."""
        return sum(link.sent for link in self.links.values())

    @property
    def total_delivered(self) -> int:
        """Total successful deliveries across all links."""
        return sum(link.delivered for link in self.links.values())

    @property
    def overall_loss_ratio(self) -> float:
        """Aggregate loss ratio over every link."""
        sent = self.total_sent
        if sent == 0:
            return 0.0
        return 1.0 - self.total_delivered / sent

    def reset(self) -> None:
        """Clear every counter (start of a new trial)."""
        self.links.clear()
