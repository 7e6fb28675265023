"""Tests for the wireless substrate: outcomes, channels, network, statistics."""

import pytest

from repro.errors import ModelError
from repro.wireless import (BernoulliChannel, DeliveryOutcome, GilbertElliottChannel,
                            InterferenceSource, LinkDirection, LossWindow,
                            NetworkStatistics, PerfectChannel, ScriptedChannel,
                            SinkWirelessNetwork, TraceChannel)


class TestDeliveryOutcome:
    def test_delivery_outcome_semantics(self):
        assert DeliveryOutcome.DELIVERED.received_by_application
        assert not DeliveryOutcome.LOST.received_by_application
        assert not DeliveryOutcome.CORRUPTED.received_by_application


class TestChannels:
    def test_perfect_channel_never_loses(self):
        channel = PerfectChannel()
        assert all(channel.attempt(t) is DeliveryOutcome.DELIVERED for t in range(100))

    def test_bernoulli_loss_rate(self):
        channel = BernoulliChannel(0.3, seed=1)
        outcomes = [channel.attempt(float(t)) for t in range(4000)]
        loss = sum(1 for o in outcomes if not o.received_by_application) / len(outcomes)
        assert 0.25 < loss < 0.35

    def test_bernoulli_extremes(self):
        assert BernoulliChannel(0.0, seed=1).attempt(0.0) is DeliveryOutcome.DELIVERED
        assert not BernoulliChannel(1.0, seed=1).attempt(0.0).received_by_application

    def test_bernoulli_rejects_invalid_probability(self):
        with pytest.raises(ValueError):
            BernoulliChannel(1.5)

    def test_bernoulli_reset_reproducibility(self):
        channel = BernoulliChannel(0.5, seed=3)
        first = [channel.attempt(float(t)) for t in range(50)]
        channel.reset(3, stream="")
        second = [channel.attempt(float(t)) for t in range(50)]
        assert first == second

    def test_gilbert_elliott_burstiness(self):
        channel = GilbertElliottChannel(mean_good_duration=100.0, mean_bad_duration=20.0,
                                        loss_good=0.0, loss_bad=1.0, seed=5)
        losses = [not channel.attempt(t * 0.5).received_by_application
                  for t in range(4000)]
        loss_rate = sum(losses) / len(losses)
        # Expected time share in bad state ~ 20/120.
        assert 0.05 < loss_rate < 0.35
        # Losses must be clustered: the number of state flips in the loss
        # sequence is far below what independent losses would produce.
        flips = sum(1 for a, b in zip(losses, losses[1:]) if a != b)
        assert flips < len(losses) * 0.2

    def test_gilbert_invalid_durations(self):
        with pytest.raises(ValueError):
            GilbertElliottChannel(mean_good_duration=0.0, mean_bad_duration=1.0)

    def test_scripted_channel_windows(self):
        channel = ScriptedChannel([LossWindow(10.0, 20.0)])
        assert channel.attempt(5.0) is DeliveryOutcome.DELIVERED
        assert channel.attempt(15.0) is DeliveryOutcome.LOST
        assert channel.attempt(25.0) is DeliveryOutcome.DELIVERED

    def test_loss_window_validation(self):
        with pytest.raises(ValueError):
            LossWindow(5.0, 1.0)

    def test_trace_channel_replays_and_repeats_last(self):
        channel = TraceChannel([True, False, True])
        outcomes = [channel.attempt(float(t)).received_by_application for t in range(5)]
        assert outcomes == [True, False, True, True, True]


class TestInterferenceSource:
    def test_channel_calibration(self):
        source = InterferenceSource(data_rate_mbps=3.0, duty_cycle=0.2,
                                    mean_burst_duration=40.0)
        channel = source.to_channel(seed=1)
        assert isinstance(channel, GilbertElliottChannel)
        assert channel.mean_bad_duration == pytest.approx(40.0)
        assert channel.mean_good_duration == pytest.approx(160.0)
        assert 0.5 <= source.in_burst_loss_probability() <= 0.99

    def test_average_channel_matches_mean_loss(self):
        source = InterferenceSource(duty_cycle=0.2, mean_burst_duration=40.0)
        average = source.to_average_channel(seed=1)
        expected = (0.2 * source.in_burst_loss_probability()
                    + 0.8 * source.background_loss_probability())
        assert average.loss_probability == pytest.approx(expected)

    def test_invalid_duty_cycle(self):
        with pytest.raises(ValueError):
            InterferenceSource(duty_cycle=0.0)


class TestSinkWirelessNetwork:
    def _network(self, channel=None):
        return SinkWirelessNetwork(base_station="base",
                                   remote_entities=["r1", "r2"],
                                   default_channel=channel or PerfectChannel())

    def test_link_directions(self):
        network = self._network()
        assert network.direction("base", "r1") is LinkDirection.DOWNLINK
        assert network.direction("r1", "base") is LinkDirection.UPLINK
        assert network.direction("r1", "r1") is LinkDirection.LOCAL

    def test_remote_to_remote_forbidden(self):
        network = self._network()
        with pytest.raises(ModelError):
            network.direction("r1", "r2")

    def test_delivery_recorded_in_statistics(self):
        network = self._network()
        assert network.attempt_delivery("base", "r1", "evt", 1.0)
        assert network.statistics.link("base", "r1").sent == 1
        assert network.observed_loss_ratio() == 0.0

    def test_per_link_channel_overrides(self):
        network = self._network()
        network.set_downlink_channel("r1", ScriptedChannel([(0.0, 100.0)]))
        assert not network.attempt_delivery("base", "r1", "evt", 5.0)
        assert network.attempt_delivery("base", "r2", "evt", 5.0)
        assert network.attempt_delivery("r1", "base", "evt", 5.0)  # uplink unaffected

    def test_reset_clears_statistics(self):
        network = self._network()
        network.attempt_delivery("base", "r1", "evt", 1.0)
        network.reset(seed=1)
        assert network.statistics.total_sent == 0

    def test_base_station_cannot_be_remote(self):
        with pytest.raises(ModelError):
            SinkWirelessNetwork(base_station="x", remote_entities=["x"])


class TestStatistics:
    def test_aggregation(self):
        stats = NetworkStatistics()
        stats.record("a", "b", DeliveryOutcome.DELIVERED)
        stats.record("a", "b", DeliveryOutcome.LOST)
        stats.record("b", "a", DeliveryOutcome.CORRUPTED)
        assert stats.total_sent == 3
        assert stats.total_delivered == 1
        assert stats.link("a", "b").loss_ratio == pytest.approx(0.5)
        assert stats.overall_loss_ratio == pytest.approx(2.0 / 3.0)
        assert len(stats.summary_rows()) == 2
