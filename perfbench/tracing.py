"""Span tracer that wraps the public functions of each layer from outside.

The benchmark never edits the program: a traced pass calls
:func:`install`, which replaces each layer's public functions and methods
with wrappers recording spans (name, start, end, parent) into an
in-memory :class:`Tracer`.  Wrappers are swapped into every module that
bound the original object, so ``from x import f`` imports are traced too.

Two kinds of wrappers:

* **timed** -- a span per call.  Each span's duration is added to its
  parent's child time when it ends, so self time (duration minus child
  spans) is folded per span name as the pass runs.  Coarse spans are also
  kept as raw records and written out at the end; spans of per-event
  hooks (observers, network deliveries) are only folded, because a trial
  makes thousands of them.
* **counted** -- only a call counter, for the two per-RK4-substep
  functions (``spo2_derivative`` and ``SurgeonProcess.next_wakeup``),
  whose per-call timing would distort the kernel it measures.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict

#: Span names that are only folded into totals, never kept as records.
FOLDED_ONLY = frozenset({"observers", "network"})

#: Length prefix of every service frame (a big-endian uint32).
FRAME_HEADER_BYTES = 4


class Tracer:
    """In-memory spans, per-name self-time totals and event counters."""

    def __init__(self):
        self.spans = []
        self.totals = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.counts = defaultdict(int)
        self.marks = defaultdict(list)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self.hot = {}
        # A pool forked while another thread holds the lock must not inherit
        # it held: the child has no thread that would ever release it.
        os.register_at_fork(after_in_child=self._fresh_lock)

    def _fresh_lock(self):
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name, amount=1):
        """Add ``amount`` to the counter ``name`` (thread-safe)."""
        with self._lock:
            self.counts[name] += amount

    def mark(self, name, value):
        """Append one timestamp or value to the series ``name``."""
        with self._lock:
            self.marks[name].append(value)

    def timed(self, name, fn, after=None):
        """Wrap ``fn`` so every call records a span called ``name``.

        ``after(args, result)`` runs once the span has closed, so work it
        does (such as measuring a frame's size) is not charged to the layer.
        """
        keep = name not in FOLDED_ONLY

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            frame = [0.0, next(self._ids)]  # child time, span id
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[0] += duration
                with self._lock:
                    total = self.totals[name]
                    total[0] += 1
                    total[1] += duration
                    total[2] += duration - frame[0]
                    if keep:
                        self.spans.append((frame[1], parent and parent[1], name,
                                           start, end))
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counted(self, name, fn):
        """Wrap ``fn`` with a bare call counter (no clock reads, no lock).

        Only for functions that run on one thread: the engine's hot path.
        """
        cell = [0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        wrapper.calls = cell
        self.hot[name] = wrapper
        return wrapper

    def take(self):
        """Return everything recorded so far as one phase, then start afresh."""
        with self._lock:
            for name, wrapper in self.hot.items():
                self.counts[name] = wrapper.calls[0]
                wrapper.calls[0] = 0
            phase = {
                "spans": [{"id": sid, "parent": parent, "name": name,
                           "start": start, "end": end}
                          for sid, parent, name, start, end in self.spans],
                "totals": {name: {"calls": calls, "total_s": total, "self_s": own}
                           for name, (calls, total, own) in self.totals.items()},
                "counts": dict(self.counts),
                "marks": dict(self.marks),
            }
            self.spans = []
            self.totals.clear()
            self.counts.clear()
            self.marks.clear()
        return phase


def _rebind(original, replacement):
    """Point every module-level name bound to ``original`` at ``replacement``."""
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace:
            continue
        for key, value in list(namespace.items()):
            if value is original:
                setattr(module, key, replacement)


def _wrap_function(module, attr, make):
    original = getattr(module, attr)
    _rebind(original, make(original))


def _wrap_method(cls, attr, make):
    original = cls.__dict__[attr]
    if isinstance(original, classmethod):
        setattr(cls, attr, classmethod(make(original.__func__)))
    else:
        setattr(cls, attr, make(original))


def install(tracer):
    """Wrap every traced layer's public functions so they report to ``tracer``."""
    from repro.campaign import aggregate, executor, shm, store
    from repro.campaign.service import events, protocol
    from repro.casestudy import observers, patient, surgeon
    from repro.hybrid.simulate import batched, compiled
    from repro.verify import rare
    from repro.wireless import network

    def counted(name):
        return lambda fn: tracer.counted(name, fn)

    def timed(name, after=None):
        return lambda fn: tracer.timed(name, fn, after)

    # Engines and lowering.
    _wrap_method(compiled.CompiledEngine, "run", timed("compiled.run"))
    _wrap_method(batched.BatchedEngine, "run", timed(
        "batched.run",
        after=lambda args, _: tracer.add("batched.lanes", args[0].batch)))
    _wrap_function(compiled, "compile_system", timed("lowering"))

    # Case-study model: the per-substep hot functions are only counted.
    _wrap_function(patient, "spo2_derivative", counted("patient.derivative"))
    _wrap_function(patient, "spo2_derivative_vector", counted("patient.vector"))
    _wrap_method(surgeon.SurgeonProcess, "next_wakeup", counted("surgeon.wakeup"))
    for cls in (observers.TrialStatsObserver, observers.RiskLevelObserver):
        for hook in ("begin_run", "register_automaton", "on_transition",
                     "on_sample", "end_run"):
            _wrap_method(cls, hook, timed("observers"))

    # Wireless network: one span per delivery attempt, plus the losses.
    _wrap_method(network.SinkWirelessNetwork, "attempt_delivery", timed(
        "network",
        after=lambda _, delivered: None if delivered else tracer.add("network.lost")))

    # Campaign executor, aggregation, shared memory and the store.
    _wrap_function(executor, "run_campaign", timed("executor.run_campaign"))
    _wrap_function(executor, "execute_batch", timed("executor.batch"))
    _wrap_method(aggregate.TrialSummary, "from_trial", timed("aggregate.summary"))
    _wrap_method(aggregate.CampaignResult, "groups", timed("aggregate.fold"))
    _wrap_method(aggregate.CampaignResult, "to_json", timed("aggregate.fold"))
    _wrap_method(shm.ShmSession, "read", timed("shm.read"))
    _once_per_object(shm.ShmSession, "close",
                     lambda session: tracer.add("shm.fallbacks", session.fallbacks))
    for method in ("begin", "checkpoint_batch", "checkpoint_ring", "mark_complete"):
        _wrap_method(store.CampaignStore, method, timed("store.commit"))
    _once_per_object(store.CampaignStore, "close",
                     lambda st: tracer.add("store.retries", st.commit_retries))

    # Service: frame codec and size, spec codec, job lifecycle instants.
    def frame_size(message):
        body = json.dumps(message, sort_keys=True, separators=(",", ":"))
        tracer.add("service.frames")
        tracer.add("service.bytes", FRAME_HEADER_BYTES + len(body.encode("utf-8")))

    _wrap_function(protocol, "send_frame", timed(
        "service.codec", after=lambda args, _: frame_size(args[1])))
    _wrap_function(protocol, "recv_frame", lambda fn: _after_call(
        fn, lambda message: message is not None and frame_size(message)))
    for name in ("encode_spec", "decode_spec"):
        _wrap_function(protocol, name, timed("service.codec"))
    _wrap_function(store, "spec_fingerprint", timed("service.codec"))
    _wrap_method(events.EventBus, "state", lambda fn: _after_call(
        fn, lambda _: tracer.mark("service.running", time.perf_counter())))
    _wrap_method(events.EventBus, "close", lambda fn: _after_call(
        fn, lambda _: tracer.mark("service.done", time.perf_counter())))

    # Rare-event estimator: one pool_map call per level.
    _wrap_function(rare, "pool_map", timed(
        "rare.level", after=lambda args, _: tracer.add("rare.trials", len(args[1]))))
    _wrap_function(rare, "scored_case_trial", timed("rare.trial"))


def _after_call(fn, after):
    """Wrap ``fn`` so ``after(result)`` runs after each call (no span)."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        after(result)
        return result
    return wrapper


def _once_per_object(cls, attr, before):
    """Run ``before(obj)`` ahead of the first ``cls.attr`` call on each object."""
    seen = set()
    original = cls.__dict__[attr]

    @functools.wraps(original)
    def wrapper(self, *args, **kwargs):
        if id(self) not in seen:
            seen.add(id(self))
            before(self)
        return original(self, *args, **kwargs)

    setattr(cls, attr, wrapper)

