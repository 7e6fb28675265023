"""Sink-based wireless network for distributed CPS entities.

The system model of Section II-B: one central base station and ``N``
remote entities; remote entities never talk to each other directly, only
over *uplinks* (remote -> base station) and *downlinks* (base station ->
remote).  Each directed link has its own loss channel, so uplink and
downlink of the same entity can degrade independently (as they do under
real interference).

:class:`SinkWirelessNetwork` implements the engine-facing
:class:`~repro.hybrid.simulate.engine.Network` protocol: the simulation
engine asks it whether a lossy (``??``) event between two entities gets
through.  Every attempt is counted, by outcome, in the network's
:class:`~repro.wireless.stats.NetworkStatistics` for post-trial reporting.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping

from repro.errors import ModelError
from repro.hybrid.simulate.engine import Network
from repro.wireless.channel import Channel, PerfectChannel
from repro.wireless.packet import LinkDirection
from repro.wireless.stats import NetworkStatistics


class SinkWirelessNetwork(Network):
    """A star-topology wireless network around one base station.

    Args:
        base_station: Entity name of the base station (``xi0`` / Supervisor).
        remote_entities: Names of the remote entities.
        default_channel: Channel model used for links without an explicit
            override.  Each link gets its own reset stream, so two links
            sharing one channel object still see independent randomness
            after :meth:`reset`.
        uplink_channels: Optional per-remote-entity channel overrides for
            the uplink direction.
        downlink_channels: Optional per-remote-entity overrides for the
            downlink direction.

    Traffic between two remote entities raises :class:`ModelError`: the
    topology has no such links.
    """

    def __init__(self, *, base_station: str, remote_entities: Iterable[str],
                 default_channel: Channel | None = None,
                 uplink_channels: Mapping[str, Channel] | None = None,
                 downlink_channels: Mapping[str, Channel] | None = None):
        self.base_station = base_station
        self.remote_entities = list(dict.fromkeys(remote_entities))
        if base_station in self.remote_entities:
            raise ModelError("the base station cannot also be a remote entity")
        self.default_channel = default_channel or PerfectChannel()
        self._uplink: Dict[str, Channel] = dict(uplink_channels or {})
        self._downlink: Dict[str, Channel] = dict(downlink_channels or {})
        self.statistics = NetworkStatistics()

    # -- topology ---------------------------------------------------------------
    def direction(self, sender: str, receiver: str) -> LinkDirection:
        """Classify the link between two entities.

        Raises:
            ModelError: For remote-to-remote traffic, since the system
                model forbids direct links between remote entities.
        """
        if sender == receiver:
            return LinkDirection.LOCAL
        if sender == self.base_station and receiver in self.remote_entities:
            return LinkDirection.DOWNLINK
        if receiver == self.base_station and sender in self.remote_entities:
            return LinkDirection.UPLINK
        raise ModelError(
            f"no wireless link exists between {sender!r} and {receiver!r}: "
            "remote entities only communicate through the base station")

    def channel_for(self, sender: str, receiver: str) -> Channel:
        """The loss channel governing the directed link ``sender -> receiver``."""
        direction = self.direction(sender, receiver)
        if direction is LinkDirection.LOCAL:
            return PerfectChannel()
        if direction is LinkDirection.UPLINK:
            return self._uplink.get(sender, self.default_channel)
        return self._downlink.get(receiver, self.default_channel)

    # -- engine protocol -----------------------------------------------------------
    def attempt_delivery(self, sender_entity: str, receiver_entity: str,
                         root: str, now: float) -> bool:
        """Decide whether one lossy event delivery succeeds.

        The attempt is counted regardless of the outcome so post-trial
        statistics reflect the offered load.
        """
        direction = self.direction(sender_entity, receiver_entity)
        if direction is LinkDirection.LOCAL:
            return True
        channel = self.channel_for(sender_entity, receiver_entity)
        outcome = channel.attempt(now)
        self.statistics.record(sender_entity, receiver_entity, outcome)
        return outcome.received_by_application

    def reset(self, seed: int | None = None) -> None:
        """Reset channels and statistics for a new trial."""
        self.statistics.reset()
        self.default_channel.reset(seed, stream="default")
        for entity, channel in self._uplink.items():
            channel.reset(seed, stream=f"uplink:{entity}")
        for entity, channel in self._downlink.items():
            channel.reset(seed, stream=f"downlink:{entity}")

    # -- reporting -------------------------------------------------------------------
    def observed_loss_ratio(self) -> float:
        """Aggregate loss ratio observed so far in this trial."""
        return self.statistics.overall_loss_ratio

    def describe(self) -> str:
        """Human-readable one-line description of the topology and channels."""
        return (f"sink network: base={self.base_station}, "
                f"remotes={self.remote_entities}, "
                f"default channel={self.default_channel.describe()}")
