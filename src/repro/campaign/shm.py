"""Zero-copy results ring for pooled campaigns that ask for it.

The ring is opt-in (``run_campaign(shm=True)``, ``--shm``): it costs
NumPy, the segments and multiprocessing's resource tracker, and a
pooled run that does not ask for it pickles its results instead.

One kind of segment exists: **the results ring** (:class:`ResultsRing`),
a plain :mod:`multiprocessing.shared_memory` block holding a single array
of fixed-width numeric records (the
:data:`~repro.campaign.aggregate.SUMMARY_RECORD_FIELDS` columns plus a
trial index and a generation stamp).  Workers write one record per
finished trial straight into their task's slot range; the parent and the
sqlite store read the records in place, so the executor's result pipe
only ever carries tiny ``(ring slot, generation)`` tokens.

Ownership is strictly parent-side: the process that *creates* the
segment is the only one that ever unlinks it (enforced with an
``atexit`` hook so crashes don't leak ``/dev/shm`` entries), while
workers attach without registering with the resource tracker (otherwise
every forked worker would try to clean up — or double-free — the
parent's segment on exit).  Validity of ring records is established by
the pipe token (happens-before via the pool's result future) and
double-checked against the generation stamp; a mismatch means memory
corruption or a protocol bug and raises :class:`ShmError` rather than
silently aggregating garbage.

Segment names carry the ``repro-`` prefix so tests and the CI
crash-cleanup smoke can scan ``/dev/shm`` for leaks.
"""

from __future__ import annotations

import atexit
import importlib.util
import operator
import os
import secrets
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence, Tuple

try:  # pragma: no cover - absent on exotic/embedded builds
    from multiprocessing import resource_tracker, shared_memory
except ImportError:  # pragma: no cover
    resource_tracker = None
    shared_memory = None

from repro.campaign.aggregate import SUMMARY_RECORD_FIELDS, TrialSummary

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    import numpy as np

#: Name prefix of every segment this module creates (leak-scan anchor).
SEGMENT_PREFIX = "repro-"

#: Pulls a summary's record columns as one tuple; numpy coerces the
#: values during the structured-scalar assignment, so this skips the
#: per-field Python conversions of :meth:`TrialSummary.to_record` on the
#: ring's hot write path.
_SUMMARY_GETTER = operator.attrgetter(
    *(name for name, _ in SUMMARY_RECORD_FIELDS))


class ShmError(RuntimeError):
    """A shared-memory protocol violation (stale generation, bad layout)."""


def shared_memory_available() -> bool:
    """Whether the zero-copy path can run on this interpreter/platform.

    NumPy is looked up, not imported: only the ring itself imports it, so
    a run that never creates a ring never pays for NumPy.
    """
    return (shared_memory is not None
            and importlib.util.find_spec("numpy") is not None)


def summary_record_dtype() -> "np.dtype":
    """Structured dtype of one results-ring record.

    ``trial_index`` identifies the trial, ``generation`` stamps which
    allocation of the slot wrote it (guards against stale reads after a
    slot range is recycled); the remaining columns are exactly
    :data:`~repro.campaign.aggregate.SUMMARY_RECORD_FIELDS`.
    """
    import numpy as np

    fields = [("trial_index", "i8"), ("generation", "i8")]
    fields.extend((name, "f8" if kind == "f" else "i8")
                  for name, kind in SUMMARY_RECORD_FIELDS)
    return np.dtype(fields)


# ---------------------------------------------------------------------------
# Raw segment wrapper
# ---------------------------------------------------------------------------

def _attach_segment(name: str) -> "shared_memory.SharedMemory":
    """Attach to an existing segment without resource-tracker registration.

    Workers must not register the parent's segments: the tracker would
    either warn about or unlink them when the worker exits, racing the
    owner.  Python 3.13+ exposes ``track=False``; older versions need the
    well-known unregister workaround.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no ``track`` parameter
        # Suppress (rather than undo) the registration: forked workers
        # share the parent's tracker process, so an unregister here would
        # erase the owner's registration and make the owner's eventual
        # unlink trip a KeyError inside the tracker.
        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


class SharedSegment:
    """One shared-memory block with owner-side lifetime management.

    The owner (creator) registers an ``atexit`` unlink so a crashed parent
    never leaks ``/dev/shm`` entries; attachers only ever ``close()``.
    """

    def __init__(self, seg: "shared_memory.SharedMemory", owner: bool):
        self._seg = seg
        self.owner = owner
        self.name = seg.name
        self._closed = False
        self._owner_pid = os.getpid() if owner else None
        if owner:
            atexit.register(self.destroy)

    @classmethod
    def create(cls, size: int) -> "SharedSegment":
        """Create (and own) a fresh segment of ``size`` bytes."""
        for _ in range(8):
            name = SEGMENT_PREFIX + secrets.token_hex(6)
            try:
                seg = shared_memory.SharedMemory(name=name, create=True,
                                                 size=size)
            except FileExistsError:  # pragma: no cover - 48-bit collision
                continue
            return cls(seg, owner=True)
        raise ShmError("could not find a free shared-memory name")

    @classmethod
    def attach(cls, name: str) -> "SharedSegment":
        """Attach (without owning) an existing segment by name."""
        return cls(_attach_segment(name), owner=False)

    @property
    def buf(self) -> memoryview:
        return self._seg.buf

    def close(self) -> None:
        """Unmap the segment (caller must have dropped all array views)."""
        if not self._closed:
            self._closed = True
            self._seg.close()

    def destroy(self) -> None:
        """Close and, if owner, unlink.  Idempotent and atexit-safe.

        A forked child inheriting the owner object must never unlink the
        parent's segment, hence the owning-pid check.
        """
        self.close()
        if self.owner and os.getpid() == self._owner_pid:
            self.owner = False
            atexit.unregister(self.destroy)
            try:
                self._seg.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass


# ---------------------------------------------------------------------------
# Results ring
# ---------------------------------------------------------------------------

class ResultsRing:
    """Fixed-capacity array of summary records shared between processes.

    Not a lock-free queue: slot ranges are allocated by the parent before
    a task is submitted and the worker's completed future is the
    happens-before edge, so readers and the writer of a slot never race.
    The generation stamp is a belt-and-braces consistency check.
    """

    def __init__(self, segment: SharedSegment, capacity: int):
        import numpy as np

        self.segment = segment
        self.capacity = capacity
        self.records = np.ndarray((capacity,), dtype=summary_record_dtype(),
                                  buffer=segment.buf)

    @classmethod
    def create(cls, capacity: int) -> "ResultsRing":
        ring = cls(SharedSegment.create(capacity
                                        * summary_record_dtype().itemsize),
                   capacity)
        ring.records["generation"] = -1
        return ring

    @classmethod
    def attach(cls, name: str, capacity: int) -> "ResultsRing":
        return cls(SharedSegment.attach(name), capacity)

    def write(self, slot: int, generation: int,
              trial_index: int, summary: TrialSummary) -> None:
        """Publish one trial's summary into ``slot``."""
        # One structured-scalar assignment: numpy unpacks the tuple into
        # the record's fields in declaration order, which is exactly
        # (trial_index, generation) + SUMMARY_RECORD_FIELDS.
        self.records[slot] = (trial_index, generation) + _SUMMARY_GETTER(summary)

    def read(self, start: int, count: int, generation: int,
             labels: Sequence[str]) -> List[TrialSummary]:
        """Decode ``count`` records starting at ``start``, validating stamps.

        Args:
            start: First ring slot of the task's range.
            count: Number of records to read.
            generation: The generation the task was issued with.
            labels: Per-record cell labels (``spec.trials[i].label``),
                aligned with the slots.

        Returns:
            The decoded summaries, in slot order.

        Raises:
            ShmError: If any record's generation stamp does not match —
                i.e. the happens-before protocol was violated.
        """
        block = self.records[start:start + count]
        if not (block["generation"] == generation).all():
            raise ShmError(
                f"stale results-ring records in [{start}, {start + count}): "
                f"expected generation {generation}, "
                f"found {sorted(set(block['generation'].tolist()))}")
        # tolist() converts the whole block to plain Python scalars in one
        # C-level pass; [2:] drops the (trial_index, generation) prefix.
        return [TrialSummary.from_record(row[2:], label)
                for row, label in zip(block.tolist(), labels)]

    def close(self) -> None:
        self.records = None  # drop the view before unmapping
        self.segment.close()

    def destroy(self) -> None:
        self.records = None
        self.segment.destroy()


# ---------------------------------------------------------------------------
# Range allocation
# ---------------------------------------------------------------------------

class _RangeAllocator:
    """First-fit allocator of contiguous ranges over ``[0, capacity)``.

    The executor's in-flight window bounds live ranges, so the free list
    stays tiny; freed neighbours are merged to keep ranges contiguous.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._free: List[Tuple[int, int]] = [(0, capacity)]

    def allocate(self, count: int) -> Optional[int]:
        """Reserve ``count`` contiguous slots; ``None`` when fragmented/full."""
        if count <= 0:
            raise ValueError("count must be positive")
        for i, (start, length) in enumerate(self._free):
            if length >= count:
                if length == count:
                    del self._free[i]
                else:
                    self._free[i] = (start + count, length - count)
                return start
        return None

    def free(self, start: int, count: int) -> None:
        """Return a previously allocated range, merging with neighbours."""
        i = 0
        while i < len(self._free) and self._free[i][0] < start:
            i += 1
        self._free.insert(i, (start, count))
        # merge with right then left neighbour
        if i + 1 < len(self._free):
            s, c = self._free[i]
            ns, nc = self._free[i + 1]
            if s + c == ns:
                self._free[i] = (s, c + nc)
                del self._free[i + 1]
        if i > 0:
            ps, pc = self._free[i - 1]
            s, c = self._free[i]
            if ps + pc == s:
                self._free[i - 1] = (ps, pc + c)
                del self._free[i]


# ---------------------------------------------------------------------------
# Parent-side session
# ---------------------------------------------------------------------------

class PlaneTicket:
    """One task's reservation on the results ring (parent-side)."""

    __slots__ = ("ring_start", "generation")

    def __init__(self, ring_start: int, generation: int):
        self.ring_start = ring_start
        self.generation = generation

    def token(self, session: "ShmSession") -> "ShmToken":
        """The picklable worker-facing handle for this reservation."""
        return ShmToken(ring_name=session.ring.segment.name,
                        ring_capacity=session.ring.capacity,
                        ring_start=self.ring_start,
                        generation=self.generation)


class ShmToken(NamedTuple):
    """What actually travels down the pool's pipe for an shm task.

    The ring's name and size plus the task's ``(ring slot, generation)``
    token of the zero-copy protocol.
    """

    ring_name: str
    ring_capacity: int
    ring_start: int
    generation: int


class ShmSession:
    """Parent-side owner of one campaign run's results ring.

    The ring's capacity is bounded by the executor's in-flight window, not
    by the campaign size, so a million-trial campaign still only maps a
    few hundred kilobytes.  ``close()`` (or the atexit hook the segment
    registers) unlinks it.
    """

    def __init__(self, ring_capacity: int):
        if not shared_memory_available():  # pragma: no cover - gated earlier
            raise ShmError("multiprocessing.shared_memory is unavailable")
        self.ring = ResultsRing.create(ring_capacity)
        self._ring_alloc = _RangeAllocator(ring_capacity)
        self._generation = 0
        self._closed = False
        #: Tasks that fell back to the pickled path because the ring was
        #: momentarily exhausted (observability: the executor surfaces
        #: this as an ``shm-fallback`` recovery event).
        self.fallbacks = 0

    def acquire(self, count: int) -> Optional[PlaneTicket]:
        """Reserve ring slots for one ``count``-trial task.

        Returns:
            The reservation, or ``None`` when the ring cannot fit the task
            right now — the caller then falls back to the pickled path for
            this task (never blocks, never errors).
        """
        ring_start = self._ring_alloc.allocate(count)
        if ring_start is None:
            self.fallbacks += 1
            return None
        self._generation += 1
        return PlaneTicket(ring_start, self._generation)

    def release(self, ticket: PlaneTicket, count: int) -> None:
        """Return a ticket's reservation after its records were consumed."""
        self._ring_alloc.free(ticket.ring_start, count)

    def read(self, ticket: PlaneTicket, count: int,
             labels: Sequence[str]) -> List[TrialSummary]:
        """Decode one completed task's records from the ring."""
        return self.ring.read(ticket.ring_start, count, ticket.generation,
                              labels)

    def records_view(self, ticket: PlaneTicket, count: int) -> "np.ndarray":
        """The raw structured-record block of a completed task (no copy)."""
        return self.ring.records[ticket.ring_start:ticket.ring_start + count]

    def close(self) -> None:
        """Unlink the ring.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        self.ring.destroy()


# ---------------------------------------------------------------------------
# Worker-side attachment cache
# ---------------------------------------------------------------------------

_ATTACHED_RINGS: Dict[str, ResultsRing] = {}


def attach_ring(name: str, capacity: int) -> ResultsRing:
    """Attach (once per worker process) to the parent's results ring."""
    ring = _ATTACHED_RINGS.get(name)
    if ring is None:
        ring = ResultsRing.attach(name, capacity)
        _ATTACHED_RINGS[name] = ring
    return ring


def leaked_segments() -> List[str]:
    """Names of ``repro-`` segments currently present in ``/dev/shm``.

    Linux-only diagnostic used by the crash-cleanup tests and the CI
    smoke; returns an empty list where ``/dev/shm`` does not exist.
    """
    try:
        entries = os.listdir("/dev/shm")
    except OSError:  # pragma: no cover - non-Linux
        return []
    return sorted(e for e in entries if e.startswith(SEGMENT_PREFIX))
