"""WiFi interference source model.

The paper's emulation places an IEEE 802.11g interferer two meters from the
ZigBee base station, broadcasting at 3 Mbps on an overlapping band.  We do
not model radio propagation; instead we model the *effect* of such an
interferer on a ZigBee link as a burst loss process, and provide a helper
that turns an interferer description into a calibrated
:class:`~repro.wireless.channel.GilbertElliottChannel`.

The mapping is intentionally simple and fully documented so that the
calibration used for Table I is transparent:

* the interferer's duty cycle determines the fraction of time the channel
  spends in the *bad* state;
* heavier traffic (higher data rate relative to channel capacity) raises
  the in-burst loss probability;
* the residual loss outside bursts models ordinary ZigBee losses.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.wireless.channel import Channel, GilbertElliottChannel


@dataclass(frozen=True)
class InterferenceSource:
    """Description of a co-located interfering transmitter.

    Attributes:
        data_rate_mbps: Broadcast data rate of the interferer (Mbps).
        duty_cycle: Fraction of time the interferer is actively bursting.
        mean_burst_duration: Mean duration of one interference burst (s).
        distance_m: Distance between the interferer and the victim receiver.
    """

    data_rate_mbps: float = 3.0
    duty_cycle: float = 0.10
    mean_burst_duration: float = 45.0
    distance_m: float = 2.0

    def __post_init__(self) -> None:
        if not 0.0 < self.duty_cycle < 1.0:
            raise ValueError("duty_cycle must lie strictly between 0 and 1")
        if self.mean_burst_duration <= 0:
            raise ValueError("mean_burst_duration must be positive")
        if self.data_rate_mbps <= 0:
            raise ValueError("data_rate_mbps must be positive")
        if self.distance_m <= 0:
            raise ValueError("distance_m must be positive")

    @property
    def mean_quiet_duration(self) -> float:
        """Mean duration between bursts implied by the duty cycle."""
        return self.mean_burst_duration * (1.0 - self.duty_cycle) / self.duty_cycle

    def in_burst_loss_probability(self) -> float:
        """Per-packet loss probability while a burst is active.

        A 3 Mbps interferer two meters away practically saturates a ZigBee
        channel; the loss probability scales with the interferer rate
        relative to a nominal 3 Mbps saturating rate and decays gently with
        distance, clamped to ``[0.5, 0.99]``.
        """
        saturation = min(self.data_rate_mbps / 3.0, 2.0)
        proximity = min(2.0 / self.distance_m, 2.0)
        raw = 0.75 * saturation * proximity
        return min(max(raw, 0.5), 0.99)

    def background_loss_probability(self) -> float:
        """Residual per-packet loss probability outside bursts."""
        return 0.05

    def to_channel(self, seed: int | None = None) -> Channel:
        """Build the calibrated burst-loss channel for this interferer."""
        return GilbertElliottChannel(
            mean_good_duration=self.mean_quiet_duration,
            mean_bad_duration=self.mean_burst_duration,
            loss_good=self.background_loss_probability(),
            loss_bad=self.in_burst_loss_probability(),
            seed=seed,
        )
