"""Wireless channel loss models.

The paper's fault model admits *arbitrary* packet loss; the emulation in
Section V produces losses with an 802.11g interferer parked next to the
ZigBee motes.  This module provides several loss processes so experiments
can span the whole spectrum:

* :class:`PerfectChannel` -- no losses (control condition).
* :class:`BernoulliChannel` -- independent loss with fixed probability.
* :class:`GilbertElliottChannel` -- two-state burst-loss model: long *good*
  periods with light loss, shorter *bad* periods (interference bursts) with
  heavy loss.  This is the model used to reproduce Table I, because the
  qualitative failure mode of the no-lease baseline requires bursts long
  enough to swallow several retransmissions.
* :class:`ScriptedChannel` -- deterministic loss windows, used by the
  scenario experiments to re-create the paper's qualitative failure stories
  ("the surgeon's cancel is lost", "the supervisor's abort is lost").
* :class:`TraceChannel` -- replay an explicit per-packet loss sequence.

All channels expose the same tiny interface: :meth:`Channel.attempt`
returns a :class:`~repro.wireless.packet.DeliveryOutcome` for one packet at
a given time, and :meth:`Channel.reset` re-seeds the stochastic state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.util.seeding import spawn_rng
from repro.wireless.packet import DeliveryOutcome


class Channel:
    """Base class of all loss models."""

    def attempt(self, now: float) -> DeliveryOutcome:
        """Decide the fate of one packet sent at time ``now``."""
        raise NotImplementedError

    def reset(self, seed: int | None = None, stream: str = "") -> None:
        """Reset stochastic state; called at the start of every trial."""

    def describe(self) -> str:
        """Short human-readable description for reports."""
        return type(self).__name__


class PerfectChannel(Channel):
    """A channel that never loses packets."""

    def attempt(self, now: float) -> DeliveryOutcome:
        return DeliveryOutcome.DELIVERED

    def describe(self) -> str:
        return "perfect"


class BernoulliChannel(Channel):
    """Independent (memoryless) loss with probability ``loss_probability``.

    A small share of the losses is attributed to checksum-detected
    corruption rather than outright loss; the application-visible behaviour
    is identical, the split only feeds the statistics module.
    """

    def __init__(self, loss_probability: float, *, corruption_fraction: float = 0.2,
                 seed: int | None = None):
        if not 0.0 <= loss_probability <= 1.0:
            raise ValueError("loss_probability must be within [0, 1]")
        if not 0.0 <= corruption_fraction <= 1.0:
            raise ValueError("corruption_fraction must be within [0, 1]")
        self.loss_probability = float(loss_probability)
        self.corruption_fraction = float(corruption_fraction)
        self._seed = seed
        self._rng = spawn_rng(seed, "bernoulli:")

    def reset(self, seed: int | None = None, stream: str = "") -> None:
        self._rng = spawn_rng(seed if seed is not None else self._seed,
                              f"bernoulli:{stream}")

    def attempt(self, now: float) -> DeliveryOutcome:
        if self._rng.random() < self.loss_probability:
            if self._rng.random() < self.corruption_fraction:
                return DeliveryOutcome.CORRUPTED
            return DeliveryOutcome.LOST
        return DeliveryOutcome.DELIVERED

    def describe(self) -> str:
        return f"bernoulli(p={self.loss_probability:g})"


class GilbertElliottChannel(Channel):
    """Two-state burst loss model (Gilbert-Elliott) in continuous time.

    The channel alternates between a *good* state and a *bad* state; state
    holding times are exponential with the given means, and each packet is
    lost independently with the state's loss probability.  A WiFi
    interferer blasting a ZigBee band produces exactly this kind of
    behaviour: mostly fine, with bursts during which almost nothing gets
    through.

    Args:
        mean_good_duration: Mean sojourn time in the good state (seconds).
        mean_bad_duration: Mean sojourn time in the bad state (seconds).
        loss_good: Per-packet loss probability while in the good state.
        loss_bad: Per-packet loss probability while in the bad state.
        seed: RNG seed.
    """

    def __init__(self, *, mean_good_duration: float, mean_bad_duration: float,
                 loss_good: float = 0.05, loss_bad: float = 0.95,
                 seed: int | None = None):
        if mean_good_duration <= 0 or mean_bad_duration <= 0:
            raise ValueError("state durations must be positive")
        for name, p in (("loss_good", loss_good), ("loss_bad", loss_bad)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be within [0, 1]")
        self.mean_good_duration = float(mean_good_duration)
        self.mean_bad_duration = float(mean_bad_duration)
        self.loss_good = float(loss_good)
        self.loss_bad = float(loss_bad)
        self._seed = seed
        self._rng = spawn_rng(seed, "gilbert:")
        self._in_bad = False
        self._next_switch = 0.0
        self._initialize_state()

    def _initialize_state(self) -> None:
        self._in_bad = False
        self._next_switch = self._rng.expovariate(1.0 / self.mean_good_duration)

    def reset(self, seed: int | None = None, stream: str = "") -> None:
        self._rng = spawn_rng(seed if seed is not None else self._seed,
                              f"gilbert:{stream}")
        self._initialize_state()

    def _advance_state(self, now: float) -> None:
        while now >= self._next_switch:
            self._in_bad = not self._in_bad
            mean = self.mean_bad_duration if self._in_bad else self.mean_good_duration
            self._next_switch += self._rng.expovariate(1.0 / mean)

    def attempt(self, now: float) -> DeliveryOutcome:
        self._advance_state(now)
        loss_probability = self.loss_bad if self._in_bad else self.loss_good
        if self._rng.random() < loss_probability:
            return DeliveryOutcome.LOST
        return DeliveryOutcome.DELIVERED

    def describe(self) -> str:
        return (f"gilbert-elliott(good~{self.mean_good_duration:g}s@p={self.loss_good:g}, "
                f"bad~{self.mean_bad_duration:g}s@p={self.loss_bad:g})")


@dataclass(frozen=True)
class LossWindow:
    """A closed time window during which a :class:`ScriptedChannel` drops packets."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError("loss window end must not precede its start")

    def contains(self, time: float) -> bool:
        """True when ``time`` falls inside the window (inclusive)."""
        return self.start <= time <= self.end


class ScriptedChannel(Channel):
    """Deterministic channel: packets sent inside a loss window are dropped.

    Used by the scenario experiments to reproduce the paper's qualitative
    failure stories, where a *specific* message (e.g. the surgeon's cancel,
    or the supervisor's abort) is lost at a specific moment.
    """

    def __init__(self, loss_windows: Sequence[LossWindow | tuple[float, float]] = ()):
        self.loss_windows = [w if isinstance(w, LossWindow) else LossWindow(*w)
                             for w in loss_windows]

    def attempt(self, now: float) -> DeliveryOutcome:
        for window in self.loss_windows:
            if window.contains(now):
                return DeliveryOutcome.LOST
        return DeliveryOutcome.DELIVERED

    def describe(self) -> str:
        spans = ", ".join(f"[{w.start:g},{w.end:g}]" for w in self.loss_windows)
        return f"scripted(drop during {spans})" if spans else "scripted(no losses)"


class TraceChannel(Channel):
    """Replay an explicit boolean delivery sequence (True = delivered).

    Once the sequence is exhausted the channel keeps repeating its final
    value (or delivering, when the sequence is empty).
    """

    def __init__(self, deliveries: Sequence[bool]):
        self.deliveries = list(deliveries)
        self._index = 0

    def reset(self, seed: int | None = None, stream: str = "") -> None:
        self._index = 0

    def attempt(self, now: float) -> DeliveryOutcome:
        if not self.deliveries:
            return DeliveryOutcome.DELIVERED
        if self._index < len(self.deliveries):
            delivered = self.deliveries[self._index]
            self._index += 1
        else:
            delivered = self.deliveries[-1]
        return DeliveryOutcome.DELIVERED if delivered else DeliveryOutcome.LOST

    def describe(self) -> str:
        return f"trace({len(self.deliveries)} entries)"
