"""Unit tests for HybridAutomaton, HybridSystem and trace bookkeeping."""

import dataclasses
import pickle

import pytest

from repro.errors import ModelError
from repro.hybrid import (Edge, HybridAutomaton, HybridSystem, Location, Reset,
                          clock_flow, receive_lossy, var_ge)
from repro.hybrid.simulate.observers import DwellTracker
from repro.hybrid.trace import EventRecord, Trace, TransitionRecord


def make_toggle(name: str = "toggle", clock: str = "c") -> HybridAutomaton:
    """A two-location automaton that toggles every 2 seconds."""
    automaton = HybridAutomaton(name, variables=[clock])
    automaton.add_location(Location(f"{name}.Off", flow=clock_flow(clock)))
    automaton.add_location(Location(f"{name}.On", flow=clock_flow(clock), risky=True))
    automaton.initial_location = f"{name}.Off"
    automaton.add_edge(Edge(f"{name}.Off", f"{name}.On", guard=var_ge(clock, 2.0),
                            reset=Reset({clock: 0.0}), reason="on"))
    automaton.add_edge(Edge(f"{name}.On", f"{name}.Off", guard=var_ge(clock, 2.0),
                            reset=Reset({clock: 0.0}), reason="off"))
    return automaton


class TestHybridAutomaton:
    def test_duplicate_location_rejected(self):
        automaton = HybridAutomaton("a")
        automaton.add_location(Location("x"))
        with pytest.raises(ModelError):
            automaton.add_location(Location("x"))

    def test_edge_requires_existing_locations(self):
        automaton = HybridAutomaton("a")
        automaton.add_location(Location("x"))
        with pytest.raises(ModelError):
            automaton.add_edge(Edge("x", "missing"))

    def test_validate_requires_initial_location(self):
        automaton = HybridAutomaton("a")
        automaton.add_location(Location("x"))
        with pytest.raises(ModelError):
            automaton.validate()

    def test_risky_partition(self):
        automaton = make_toggle()
        assert automaton.risky_locations == {"toggle.On"}
        assert automaton.safe_locations == {"toggle.Off"}
        assert automaton.is_risky("toggle.On")

    def test_mark_risky(self):
        automaton = make_toggle()
        automaton.mark_risky("toggle.Off")
        assert automaton.risky_locations == {"toggle.On", "toggle.Off"}
        with pytest.raises(ModelError):
            automaton.mark_risky("nope")

    def test_sync_roots(self):
        automaton = make_toggle()
        automaton.add_edge(Edge("toggle.Off", "toggle.On",
                                trigger=receive_lossy("go"), emits=["ack"]))
        assert automaton.received_roots() == {"go"}
        assert automaton.emitted_roots() == {"ack"}

    def test_initial_valuation_defaults_to_zero(self):
        automaton = make_toggle()
        assert automaton.initial_valuation == {"c": 0.0}

    def test_initial_valuation_must_use_declared_variables(self):
        automaton = make_toggle()
        automaton.initial_valuation = {"unknown": 1.0}
        with pytest.raises(ModelError):
            automaton.validate()

    def test_copy_is_independent(self):
        automaton = make_toggle()
        clone = automaton.copy("clone")
        clone.add_location(Location("clone.Extra"))
        assert "clone.Extra" not in automaton.locations
        assert clone.name == "clone"

    def test_edges_from_and_to(self):
        automaton = make_toggle()
        assert len(automaton.edges_from("toggle.Off")) == 1
        assert len(automaton.edges_to("toggle.Off")) == 1

    def test_dimension(self):
        assert make_toggle().dimension == 1


class TestHybridSystem:
    def test_shared_variable_names_rejected(self):
        system = HybridSystem()
        system.add(make_toggle("a", clock="shared"))
        with pytest.raises(ModelError):
            system.add(make_toggle("b", clock="shared"))

    def test_shared_location_names_rejected(self):
        system = HybridSystem()
        first = make_toggle("a", clock="c1")
        second = make_toggle("a2", clock="c2")
        # Force a clash by renaming one of second's locations to match first's.
        second.add_location(first.location("a.Off").with_name("a.Off"))
        with pytest.raises(ModelError):
            system.add(first) and system.add(second)
        system2 = HybridSystem()
        system2.add(first)
        with pytest.raises(ModelError):
            system2.add(second)

    def test_receivers_and_emitters(self):
        system = HybridSystem()
        sender = make_toggle("sender", clock="cs")
        sender.add_edge(Edge("sender.Off", "sender.On", emits=["ping"]))
        receiver = make_toggle("receiver", clock="cr")
        receiver.add_edge(Edge("receiver.Off", "receiver.On",
                               trigger=receive_lossy("ping")))
        system.add(sender)
        system.add(receiver)
        assert system.receivers_of("ping") == [("receiver", True)]
        assert system.emitters_of("ping") == ["sender"]
        assert system.external_roots() == {"ping"}
        assert system.dangling_receive_roots() == set()

    def test_entity_mapping_defaults_to_name(self):
        system = HybridSystem()
        system.add(make_toggle("a", clock="ca"), entity="machine-1")
        system.add(make_toggle("b", clock="cb"))
        assert system.entity_of("a") == "machine-1"
        assert system.entity_of("b") == "b"
        assert system.entities() == {"machine-1", "b"}

    def test_unknown_member_lookup(self):
        with pytest.raises(ModelError):
            HybridSystem().automaton("missing")


class TestTraceRecords:
    """The records' own constructors keep the frozen-dataclass contract."""

    def test_fields_and_defaults(self):
        assert [(f.name, f.default) for f in dataclasses.fields(TransitionRecord)] == [
            ("time", dataclasses.MISSING), ("automaton", dataclasses.MISSING),
            ("source", dataclasses.MISSING), ("target", dataclasses.MISSING),
            ("reason", ""), ("trigger_root", None), ("emitted", ())]
        assert [f.name for f in dataclasses.fields(EventRecord)] == [
            "time", "root", "sender", "receiver", "delivered", "lossy"]
        record = TransitionRecord(1.0, "a", "x", "y")
        assert (record.reason, record.trigger_root, record.emitted) == ("", None, ())
        assert vars(record) == {"time": 1.0, "automaton": "a", "source": "x", "target": "y",
                                "reason": "", "trigger_root": None, "emitted": ()}

    def test_equality_hash_repr_and_pickling(self):
        records = [
            (TransitionRecord(1.0, "a", "x", "y", "go", "ping", ("pong",)),
             TransitionRecord(time=1.0, automaton="a", source="x", target="y", reason="go",
                              trigger_root="ping", emitted=("pong",))),
            (EventRecord(2.0, "ping", "a", "b", True, False),
             EventRecord(time=2.0, root="ping", sender="a", receiver="b", delivered=True,
                         lossy=False)),
        ]
        for positional, keyword in records:
            assert positional == keyword and hash(positional) == hash(keyword)
            assert positional != dataclasses.replace(positional, time=3.0)
            assert pickle.loads(pickle.dumps(positional)) == positional
        assert repr(records[0][0]) == (
            "TransitionRecord(time=1.0, automaton='a', source='x', target='y', "
            "reason='go', trigger_root='ping', emitted=('pong',))")
        assert repr(records[1][0]) == (
            "EventRecord(time=2.0, root='ping', sender='a', receiver='b', "
            "delivered=True, lossy=False)")

    def test_records_stay_frozen(self):
        for record in (TransitionRecord(1.0, "a", "x", "y"),
                       EventRecord(2.0, "ping", "a", "b", True, False)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                record.time = 5.0
        with pytest.raises(TypeError):
            EventRecord(2.0, "ping", "a", "b", True)


class TestTrace:
    def _simple_trace(self) -> Trace:
        trace = Trace({"a": {"a.On"}})
        trace.register_automaton("a", "a.Off", {"a.On"})
        trace.record_transition(TransitionRecord(2.0, "a", "a.Off", "a.On", reason="on"))
        trace.record_transition(TransitionRecord(5.0, "a", "a.On", "a.Off", reason="off"))
        trace.record_event(EventRecord(2.0, "ping", "a", "b", delivered=True, lossy=True))
        trace.record_event(EventRecord(3.0, "ping", "a", "b", delivered=False, lossy=True))
        trace.close(10.0)
        return trace

    def test_location_at(self):
        trace = self._simple_trace()
        assert trace.location_at("a", 1.0) == "a.Off"
        assert trace.location_at("a", 3.0) == "a.On"
        assert trace.location_at("a", 9.0) == "a.Off"

    def test_risky_intervals(self):
        trace = self._simple_trace()
        assert trace.risky_intervals("a") == [(2.0, 5.0)]

    def test_dwell_merges_contiguous_visits(self):
        trace = Trace()
        trace.register_automaton("a", "x", set())
        trace.record_transition(TransitionRecord(1.0, "a", "x", "y"))
        trace.record_transition(TransitionRecord(2.0, "a", "y", "z"))
        trace.record_transition(TransitionRecord(4.0, "a", "z", "x"))
        trace.close(5.0)
        assert trace.dwell_intervals("a", {"y", "z"}) == [(1.0, 4.0)]

    def test_dwell_tracker_keeps_the_longest_merged_interval(self):
        """A zero-duration excursion extends the last interval and its length."""
        tracker = DwellTracker({"y"})
        for location, time in (("x", 0.0), ("y", 1.0), ("x", 2.0), ("y", 2.0),
                               ("x", 6.5), ("y", 7.0), ("x", 8.0)):
            tracker.enter(location, time)
        tracker.finish(9.0)
        assert tracker.intervals == [(1.0, 6.5), (7.0, 8.0)]
        assert tracker.longest == 5.5

    def test_event_queries(self):
        trace = self._simple_trace()
        assert len(trace.delivered_events("ping")) == 1
        assert len(trace.lost_events("ping")) == 1
        assert trace.loss_ratio() == pytest.approx(0.5)

    def test_count_entries_and_transition_filters(self):
        trace = self._simple_trace()
        assert trace.count_entries("a", "a.On") == 1
        assert trace.transitions_of("a", reason="off")[0].time == 5.0
