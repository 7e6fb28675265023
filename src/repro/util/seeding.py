"""Deterministic random-number handling.

Every stochastic component of the library (wireless channels, surgeon
behaviour model, campaign trials) draws its randomness from a
``random.Random`` instance obtained through the helpers in this module, so
that a single integer seed reproduces a whole experiment bit-for-bit.
"""

from __future__ import annotations

import bisect
import hashlib
import random
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Tuple


def _stable_mix(seed: int, stream: str) -> int:
    """Deterministically mix a seed and a stream name into one integer.

    Python's built-in ``hash`` of strings is randomized per process, so it
    must not be used here: experiment seeds have to reproduce bit-for-bit
    across processes and machines.
    """
    digest = hashlib.sha256(f"{int(seed)}::{stream}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def derive_seed(seed: int, stream: str) -> int:
    """Derive a deterministic 31-bit child seed for a named stream.

    The campaign executor uses this to give every trial of a batch its own
    decorrelated seed, keyed only by the master seed and the trial's
    position in the campaign spec — never by scheduling — so any worker
    count reproduces the same trials.
    """
    return _stable_mix(seed, stream) & 0x7FFFFFFF


def spawn_rng(seed: int | None, stream: str = "") -> random.Random:
    """Create an independent ``random.Random`` for a named stream.

    Different ``stream`` names derived from the same ``seed`` produce
    decorrelated generators, so adding a new consumer of randomness does not
    perturb the draws seen by existing consumers.

    Inside an active :func:`rng_session` the generator is adopted by the
    session's :class:`RngLedger`: its draws are counted, and — when the
    session's :class:`ForkPlan` carries fork segments — replayed from the
    parent trial's generators up to each recorded watermark before
    switching to fresh child randomness.  Outside a session (every
    pre-existing code path) the behaviour is unchanged.

    Args:
        seed: Master seed.  ``None`` produces an OS-seeded generator.
        stream: Human-readable stream name (e.g. ``"channel:uplink:xi1"``).

    Returns:
        A dedicated ``random.Random`` instance.
    """
    if seed is None:
        return random.Random()
    if _ACTIVE_LEDGER is not None:
        return _ACTIVE_LEDGER.spawn(seed, stream)
    return random.Random(_stable_mix(seed, stream))


# -- RNG forking (rare-event importance splitting) ---------------------------
#
# The splitting estimator in ``repro.verify.rare`` needs *conditional*
# trial continuations: a child trial that is bit-identical to its parent up
# to the moment the parent first reached a risk level, and stochastically
# independent afterwards.  Because every stochastic component draws through
# :func:`spawn_rng`, that fork can be expressed purely in seed space:
# replay the parent's generators for the first ``k`` draws of every stream
# (``k`` recorded at the crossing — the *watermark*), then switch each
# stream to a fresh generator derived from a child seed.  The replayed
# prefix reproduces the parent trajectory exactly on any engine tier, so
# the child is a proper sample from the conditional distribution given the
# parent's level-entrance state.

#: One RNG stream inside a session: ``(stream name, occurrence index)``.
#: The occurrence index counts repeated ``spawn_rng`` calls with the same
#: stream name (e.g. a channel seeded at construction and re-seeded by the
#: engine's per-trial reset), which is deterministic under replay.
StreamKey = Tuple[str, int]


@dataclass(frozen=True)
class ForkSegment:
    """One fork in a trial's lineage.

    Attributes:
        seed: Child seed salting the post-fork randomness of every stream.
        watermark: Per-stream draw counts at the fork point; streams absent
            from the mapping had made no draws yet (or did not exist) when
            the fork was recorded.
        step: Engine step in which the fork point was recorded.  A fork
            group replays its parent up to the boundary just before that
            step and runs the children from copies of the paused trial;
            ``0`` pauses before the run starts, so the children replay the
            whole prefix themselves (same trial, longer prefix).
    """

    seed: int
    watermark: Dict[StreamKey, int]
    step: int = 0

    def to_json(self) -> dict:
        """Encode the segment as JSON-ready primitives."""
        return {"seed": int(self.seed),
                "watermark": [[stream, occ, count] for (stream, occ), count
                              in sorted(self.watermark.items())],
                "step": int(self.step)}

    @classmethod
    def from_json(cls, data: dict) -> "ForkSegment":
        """Rebuild a segment encoded by :meth:`to_json` (no step reads as 0)."""
        return cls(seed=int(data["seed"]),
                   watermark={(stream, int(occ)): int(count)
                              for stream, occ, count in data["watermark"]},
                   step=int(data.get("step", 0)))


@dataclass(frozen=True)
class ForkPlan:
    """The full stochastic identity of one (possibly forked) trial.

    ``segments`` is the trial's fork lineage, oldest first: an empty tuple
    is an ordinary root trial; each segment replays the prefix recorded by
    its watermark and diverges afterwards with randomness salted by the
    segment seed.  Running the same plan reproduces the same trial
    bit-for-bit on any worker and any engine tier.
    """

    root_seed: int
    segments: Tuple[ForkSegment, ...] = ()

    def fork(self, seed: int, watermark: Dict[StreamKey, int],
             step: int = 0) -> "ForkPlan":
        """Extend the lineage with one more fork point."""
        return ForkPlan(self.root_seed,
                        self.segments + (ForkSegment(seed, dict(watermark), step),))

    @property
    def parent(self) -> "ForkPlan":
        """The lineage without its last fork (a root plan is its own parent)."""
        return ForkPlan(self.root_seed, self.segments[:-1]) if self.segments else self

    def to_json(self) -> dict:
        """Encode the plan as JSON-ready primitives."""
        return {"root_seed": int(self.root_seed),
                "segments": [segment.to_json() for segment in self.segments]}

    @classmethod
    def from_json(cls, data: dict) -> "ForkPlan":
        """Rebuild a plan encoded by :meth:`to_json`."""
        return cls(root_seed=int(data["root_seed"]),
                   segments=tuple(ForkSegment.from_json(part)
                                  for part in data["segments"]))


class _ForkedStream(random.Random):
    """A ``random.Random`` that replays parent generators, then diverges.

    Draw ``i`` (counting calls to :meth:`random` and :meth:`getrandbits`,
    the two primitives every other ``random.Random`` method reduces to) is
    served by the parent generator while ``i`` is below the first
    watermark boundary, by the first child generator until the second
    boundary, and so on.  Replaying the same call sequence therefore
    reproduces the parent's draws exactly up to each fork and fresh,
    decorrelated draws afterwards.
    """

    def __init__(self, generators: List[random.Random],
                 boundaries: List[int], draws: int = 0):
        super().__init__(0)
        self._generators = generators
        self._boundaries = boundaries
        self.draws = draws

    def __reduce__(self):
        # random.Random.__reduce__ rebuilds through a no-argument call.
        return type(self), (self._generators, self._boundaries, self.draws)

    def __deepcopy__(self, memo: dict) -> "_ForkedStream":
        # The generators before the one serving the next draw are never
        # drawn from again, so the copy shares them; the others are copied
        # through their state tuples, not int by int.
        current = bisect.bisect_right(self._boundaries, self.draws)
        generators = self._generators[:current]
        for generator in self._generators[current:]:
            clone = random.Random.__new__(random.Random)
            clone.setstate(generator.getstate())
            generators.append(clone)
        clone = memo[id(self)] = type(self)(generators, list(self._boundaries),
                                            self.draws)
        return clone

    def _generator(self) -> random.Random:
        index = bisect.bisect_right(self._boundaries, self.draws)
        self.draws += 1
        return self._generators[index]

    def random(self) -> float:
        """Serve one uniform draw from the lineage-selected generator."""
        return self._generator().random()

    def getrandbits(self, k: int) -> int:
        """Serve one ``getrandbits`` draw from the lineage-selected generator."""
        return self._generator().getrandbits(k)


class RngLedger:
    """Per-trial registry of every RNG stream spawned during a session.

    The ledger exists for two reasons: *counting* (its :meth:`snapshot`
    is the watermark a risk-level observer records when a trial first
    crosses a splitting threshold) and *forking* (streams spawned while a
    plan with fork segments is active replay the parent's draws up to each
    segment's watermark).  Both sides use the same draw counter, so a
    watermark recorded in one run is exact replay state for the next.
    """

    def __init__(self, plan: ForkPlan):
        self.plan = plan
        self._streams: Dict[StreamKey, _ForkedStream] = {}
        self._occurrences: Dict[str, int] = {}

    def spawn(self, seed: int, stream: str) -> random.Random:
        """Create (and track) the generator for one ``spawn_rng`` call."""
        occurrence = self._occurrences.get(stream, 0)
        self._occurrences[stream] = occurrence + 1
        key: StreamKey = (stream, occurrence)
        forked = _ForkedStream([random.Random(_stable_mix(seed, stream))], [])
        for segment in self.plan.segments:
            _extend(forked, key, segment)
        self._streams[key] = forked
        return forked

    def fork(self, plan: ForkPlan) -> None:
        """Continue a paused session as ``plan``, a one-segment extension of it.

        Every stream gains the segment's generator and boundary exactly as
        :meth:`spawn` would have built them under ``plan``, and later
        spawns follow ``plan``.  While every stream's draw count is at or
        below the segment's watermark, the session is then the one
        replaying ``plan`` from the start would have reached.
        """
        if not plan.segments or plan.parent != self.plan:
            raise ValueError("a session forks only into a one-segment extension "
                             "of its plan")
        segment = plan.segments[-1]
        for key, forked in self._streams.items():
            _extend(forked, key, segment)
        self.plan = plan

    def snapshot(self) -> Dict[StreamKey, int]:
        """Current per-stream draw counts (streams with zero draws omitted)."""
        return {key: stream.draws for key, stream in self._streams.items()
                if stream.draws}


def _extend(forked: _ForkedStream, key: StreamKey, segment: ForkSegment) -> None:
    """Append ``segment``'s generator and boundary to one stream."""
    stream, occurrence = key
    forked._generators.append(random.Random(
        _stable_mix(segment.seed, f"fork:{stream}#{occurrence}")))
    forked._boundaries.append(int(segment.watermark.get(key, 0)))


#: The session ledger :func:`spawn_rng` consults; trials run one at a time
#: within a worker process, so a module-global (not thread-local) suffices.
_ACTIVE_LEDGER: RngLedger | None = None


@contextmanager
def rng_session(plan: ForkPlan | RngLedger):
    """Run one trial under a :class:`RngLedger` (fork-aware randomness).

    Every :func:`spawn_rng` call inside the ``with`` block is adopted by
    the yielded ledger.  Sessions do not nest: a trial is the unit of
    forking.

    Args:
        plan: The trial's stochastic identity (root seed + fork lineage),
            or the ledger of a paused trial to continue.

    Yields:
        The session's :class:`RngLedger`.

    Raises:
        RuntimeError: If a session is already active.
    """
    global _ACTIVE_LEDGER
    if _ACTIVE_LEDGER is not None:
        raise RuntimeError("rng_session does not nest: a session is already active")
    ledger = plan if isinstance(plan, RngLedger) else RngLedger(plan)
    _ACTIVE_LEDGER = ledger
    try:
        yield ledger
    finally:
        _ACTIVE_LEDGER = None

