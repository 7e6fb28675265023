"""Wireless substrate: sink topology, lossy channels, interference, statistics."""

from repro.wireless.channel import (BernoulliChannel, Channel, GilbertElliottChannel,
                                    LossWindow, PerfectChannel, ScriptedChannel,
                                    TraceChannel)
from repro.wireless.interference import InterferenceSource
from repro.wireless.network import SinkWirelessNetwork
from repro.wireless.packet import DeliveryOutcome, LinkDirection
from repro.wireless.stats import LinkStatistics, NetworkStatistics

__all__ = [
    "Channel",
    "PerfectChannel",
    "BernoulliChannel",
    "GilbertElliottChannel",
    "ScriptedChannel",
    "LossWindow",
    "TraceChannel",
    "InterferenceSource",
    "SinkWirelessNetwork",
    "DeliveryOutcome",
    "LinkDirection",
    "LinkStatistics",
    "NetworkStatistics",
]
