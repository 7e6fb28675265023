"""Unit tests for synchronization labels and valuations."""

import pytest

from repro.hybrid.labels import Prefix, SyncLabel, internal, parse_label, receive, receive_lossy, send
from repro.hybrid.variables import Valuation, zero_valuation


class TestSyncLabels:
    def test_parse_send(self):
        label = parse_label("!evtVPumpIn")
        assert label.prefix is Prefix.SEND
        assert label.root == "evtVPumpIn"
        assert label.is_send and not label.is_receive

    def test_parse_reliable_receive(self):
        label = parse_label("?evtVPumpIn")
        assert label.prefix is Prefix.RECEIVE
        assert label.is_receive and not label.is_lossy

    def test_parse_lossy_receive_prefers_longest_prefix(self):
        label = parse_label("??evtVPumpIn")
        assert label.prefix is Prefix.RECEIVE_LOSSY
        assert label.root == "evtVPumpIn"
        assert label.is_lossy

    def test_parse_internal(self):
        label = parse_label("tick")
        assert label.prefix is Prefix.INTERNAL

    def test_labels_with_different_prefixes_are_distinct(self):
        # The paper treats !l, ?l and ??l as three different labels.
        assert len({send("l"), receive("l"), receive_lossy("l"), internal("l")}) == 4

    def test_empty_root_rejected(self):
        with pytest.raises(ValueError):
            SyncLabel(Prefix.SEND, "")

    def test_whitespace_root_rejected(self):
        with pytest.raises(ValueError):
            SyncLabel(Prefix.SEND, "bad root")

    def test_str_round_trip(self):
        for label in (send("x"), receive("x"), receive_lossy("x"), internal("x")):
            assert parse_label(str(label)) == label


class TestValuation:
    def test_zero_valuation(self):
        valuation = zero_valuation(["a", "b"])
        assert valuation["a"] == 0.0 and valuation["b"] == 0.0

    def test_updated_returns_new_object(self):
        original = Valuation({"x": 1.0})
        updated = original.updated({"x": 2.0, "y": 3.0})
        assert original["x"] == 1.0
        assert updated["x"] == 2.0 and updated["y"] == 3.0

    def test_advanced_applies_rates(self):
        valuation = Valuation({"c": 1.0, "h": 0.3})
        advanced = valuation.advanced({"c": 1.0, "h": -0.1}, 2.0)
        assert advanced["c"] == pytest.approx(3.0)
        assert advanced["h"] == pytest.approx(0.1)

    def test_advanced_leaves_unlisted_variables_unchanged(self):
        valuation = Valuation({"c": 5.0, "frozen": 7.0})
        advanced = valuation.advanced({"c": 1.0}, 10.0)
        assert advanced["frozen"] == 7.0

    def test_advanced_rejects_negative_dt(self):
        with pytest.raises(ValueError):
            Valuation({"c": 0.0}).advanced({"c": 1.0}, -1.0)

    def test_get_with_default(self):
        assert Valuation({}).get("missing", 9.0) == 9.0

    def test_equality_with_plain_mapping(self):
        assert Valuation({"x": 1.0}) == {"x": 1.0}
