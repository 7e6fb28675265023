"""Streaming job events: per-cell aggregate snapshots for ``watch``.

Each running job owns one :class:`EventBus`.  The executor's hooks feed
it — ``on_result`` marks a trial done, ``on_event`` surfaces recovery
actions live, the store's ``on_commit`` hook reports durable checkpoint
progress — and every ``watch`` subscriber drains its own queue of the
resulting event dicts.  The bus also keeps a :class:`CellAggregator` up
to date, so a subscriber attaching mid-run starts from a full snapshot
of the per-cell aggregates instead of an empty screen.

Event shapes (all JSON-ready dicts, ``"event"`` discriminates):

* ``{"event": "state", "state": <job state>}`` — lifecycle transition.
* ``{"event": "trial", "done": N, "total": M, "cell": {...}}`` — one
  trial retired; ``cell`` is the updated aggregate of its cell.
* ``{"event": "checkpoint", "rows": N}`` — one durable store commit.
* ``{"event": "recovery", "kind": ..., "detail": ...}`` — a supervisor
  recovery action (pool respawn, deadline kill, quarantine, ...).
* ``{"event": "snapshot", "done": N, "total": M, "cells": [...]}`` — the
  catch-up snapshot sent to a freshly attached subscriber.
* ``{"event": "done", "state": ..., "error": ...?}`` — terminal; closes
  the stream.
"""

from __future__ import annotations

import bisect
import dataclasses
import queue
import threading
from operator import attrgetter
from typing import Dict, List, Optional

from repro.campaign.aggregate import GroupSummary, TrialSummary

#: Sort key of a cell's summaries: the order ``CampaignResult.groups`` folds.
_REPLICATE = attrgetter("replicate")

#: The fields of a cell aggregate, all JSON primitives.
_CELL_FIELDS = tuple(field.name for field in dataclasses.fields(GroupSummary))


class CellAggregator:
    """Completion-order-independent per-cell (per-label) aggregates.

    Keeps each cell's :class:`~repro.campaign.aggregate.TrialSummary`
    list in replicate order, whatever order trials retire in, and folds it
    through the same
    :meth:`~repro.campaign.aggregate.GroupSummary.from_summaries`
    reduction the final campaign result uses.  The float mean of that
    reduction depends on summation order, so folding in replicate order is
    what makes a streamed snapshot at 100% equal the completed job's group
    rows bit for bit.
    """

    def __init__(self) -> None:
        """Start with no cells."""
        self._cells: Dict[str, List[TrialSummary]] = {}
        self._order: List[str] = []

    def add(self, summary: TrialSummary) -> GroupSummary:
        """Fold one trial summary in and return its cell's new aggregate.

        Args:
            summary: The retired trial's summary.

        Returns:
            The updated aggregate of the trial's cell.
        """
        if summary.label not in self._cells:
            self._cells[summary.label] = []
            self._order.append(summary.label)
        cell = self._cells[summary.label]
        bisect.insort(cell, summary, key=_REPLICATE)
        return GroupSummary.from_summaries(cell)

    @property
    def done(self) -> int:
        """Number of trials folded in so far."""
        return sum(len(cell) for cell in self._cells.values())

    def snapshot(self) -> List[dict]:
        """Return every cell's aggregate as JSON-ready dicts.

        Returns:
            One dict per cell, in first-seen order.
        """
        return [cell_json(GroupSummary.from_summaries(self._cells[label]))
                for label in self._order]


def cell_json(group: GroupSummary) -> dict:
    """Encode one cell aggregate as a JSON-ready dict.

    Args:
        group: The cell's aggregate.

    Returns:
        The aggregate's fields as JSON primitives: a flat dict equal to
        ``dataclasses.asdict(group)``, without its recursive deep copy.
    """
    return {name: getattr(group, name) for name in _CELL_FIELDS}


class EventBus:
    """Fan-out of one job's event stream to any number of subscribers.

    Publishers (the executor hooks, driven from the service's runner
    thread) and subscribers (``watch`` connection threads) never share
    state beyond this class; all methods are thread-safe.
    """

    def __init__(self, total_trials: int) -> None:
        """Create the bus for a job expanding to ``total_trials`` trials.

        Args:
            total_trials: The job's concrete trial count (snapshot and
                trial events carry it as ``total``).
        """
        self.total_trials = int(total_trials)
        self._lock = threading.Lock()
        self._subscribers: List[queue.SimpleQueue] = []
        self._aggregator = CellAggregator()
        self._closed: Optional[dict] = None

    # -- publisher side ----------------------------------------------------

    def publish(self, event: Optional[dict]) -> None:
        """Broadcast one event dict to every current subscriber.

        Args:
            event: A JSON-ready event (see the module docstring shapes),
                or ``None`` to end each stream without a terminal event.
        """
        with self._lock:
            subscribers = list(self._subscribers)
        for subscriber in subscribers:
            subscriber.put(event)

    def trial_done(self, summary: TrialSummary) -> None:
        """Fold one retired trial in and broadcast its ``trial`` event.

        This is the method bound to the executor's ``on_result`` hook.

        Args:
            summary: The retired trial's summary.
        """
        with self._lock:
            cell = self._aggregator.add(summary)
            done = self._aggregator.done
        self.publish({"event": "trial", "done": done,
                      "total": self.total_trials, "cell": cell_json(cell)})

    def recovery(self, kind: str, detail: str) -> None:
        """Broadcast one executor recovery event (``on_event`` hook)."""
        self.publish({"event": "recovery", "kind": kind, "detail": detail})

    def checkpoint(self, rows: int) -> None:
        """Broadcast one durable-commit event (store ``on_commit`` hook)."""
        self.publish({"event": "checkpoint", "rows": int(rows)})

    def state(self, state: str) -> None:
        """Broadcast a job lifecycle transition."""
        self.publish({"event": "state", "state": state})

    def close(self, final_event: dict) -> None:
        """Broadcast the terminal event and mark the stream finished.

        Subscribers attaching after close receive the catch-up snapshot
        plus the terminal event immediately.

        Args:
            final_event: The ``done`` event ending every subscriber's
                stream.
        """
        with self._lock:
            self._closed = final_event
        self.publish(final_event)

    # -- subscriber side ---------------------------------------------------

    def subscribe(self) -> "queue.SimpleQueue[dict]":
        """Attach a new subscriber and seed it with a catch-up snapshot.

        Returns:
            The subscriber's private queue.  The first event is always a
            ``snapshot``; if the job already finished the terminal event
            follows immediately.
        """
        subscriber: "queue.SimpleQueue[dict]" = queue.SimpleQueue()
        with self._lock:
            snapshot = {"event": "snapshot", "done": self._aggregator.done,
                        "total": self.total_trials,
                        "cells": self._aggregator.snapshot()}
            closed = self._closed
            self._subscribers.append(subscriber)
        subscriber.put(snapshot)
        if closed is not None:
            subscriber.put(closed)
        return subscriber

    def unsubscribe(self, subscriber: "queue.SimpleQueue[dict]") -> None:
        """Detach a subscriber (its queue stops receiving events).

        Args:
            subscriber: The queue returned by :meth:`subscribe`.
        """
        with self._lock:
            try:
                self._subscribers.remove(subscriber)
            except ValueError:
                pass
