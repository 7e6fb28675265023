"""Durable campaign checkpointing: a sqlite store with crash/resume semantics.

A campaign normally lives and dies with one process, so a crash at trial
900k of a million-trial run loses everything.  The :class:`CampaignStore`
makes completed replicate batches durable as the executor retires them:
``run_campaign(..., store=PATH, resume=True)`` — or ``python -m
repro.campaign --store PATH --resume`` — replays the checkpointed prefix
without re-simulating a single trial and then continues the remainder
live.  See ``docs/checkpoint-format.md`` for the on-disk format and
``docs/ARCHITECTURE.md`` for where the store sits in the data flow.

Three existing properties make resume exact, and the store exploits all of
them:

* **Deterministic seeding** (PR 1): a trial's seed depends only on the
  campaign master seed and the trial's position in the spec — never on
  scheduling — so the concrete trial set is a pure function of
  ``(spec, master_seed)``.
* **Streaming statistics** (PR 2): one trial's contribution to every
  aggregate is the slim :class:`~repro.campaign.aggregate.TrialSummary`
  computed online by the ``TrialStatsObserver`` pipeline (plus a picklable
  ``TrialResult`` for the richer payloads), so a checkpoint is a few
  hundred bytes, not a trace.
* **Spec fingerprinting** (this module): the store binds itself to a
  SHA-256 digest of the canonical encoding of ``(spec, master_seed)``;
  resuming with anything that would change the trial set is rejected
  instead of silently mixing results.  Engine, batch size and worker
  count are deliberately *excluded* — they are throughput knobs that the
  bit-identical equivalence contract guarantees cannot change results.

Recovery follows an explicit state machine (the
:class:`RecoveryStateMachine`)::

    FRESH ──▶ REPLAYING ──▶ LIVE ──▶ COMPLETE
      │            │                    ▲
      │            └────────────────────┤   (everything was checkpointed)
      └─────────────────────────────────┘   (fresh store: nothing to replay)

``FRESH`` covers store-less runs and empty stores; ``REPLAYING`` loads the
checkpointed records back through the exact aggregation path live results
use; ``LIVE`` executes and checkpoints the remaining trials; ``COMPLETE``
marks the store finished (resuming a complete store replays everything and
simulates nothing).

Every commit also passes the store-side injection points of the fault
plan (:mod:`repro.campaign.faults`): ``lock@commit=N`` fails commit N with
a transient lock error, and ``crash@commit=N`` hard-kills the process
(``os._exit``, no cleanup — the moral equivalent of ``SIGKILL``) right
after commit N is durable, leaving a store holding exactly a partial
prefix of the campaign.  The test suite and the CI resume smoke use the
latter to prove resume is bit-identical.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import pathlib
import pickle
import sqlite3
import time
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from repro.campaign.aggregate import SUMMARY_RECORD_FIELDS, TrialSummary
from repro.campaign.faults import FaultPlan, TrialFailure

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    import numpy as np
    from repro.campaign.spec import CampaignSpec
    from repro.casestudy.emulation import TrialResult

#: Version stamp of the sqlite layout; bumped on incompatible changes so a
#: newer library refuses an older store loudly instead of misreading it.
#: Version 2 replaced the JSON-encoded summary column with one plain
#: numeric column per :data:`~repro.campaign.aggregate.SUMMARY_RECORD_FIELDS`
#: field (plus ``label``), eliminating the double-encode on the hot path
#: and letting the shared results ring feed commits directly.  Version 3
#: added the ``failures`` table recording quarantined (permanently failed)
#: trials, so a self-healed campaign documents exactly what it lost.
#: Version 4 added the ``estimator`` table: keyed JSON state documents of
#: the rare-event estimators (importance-splitting level checkpoints,
#: decided SPRT verdicts), so ``--method split`` / ``--method sprt`` runs
#: resume bit-identically alongside the trial rows.
SCHEMA_VERSION = 4

#: Bounded exponential backoff applied to commits that hit a transient
#: ``sqlite3.OperationalError`` ("database is locked" / "database is
#: busy", e.g. a concurrent ``--status`` reader on a filesystem without
#: POSIX locks): up to ``_COMMIT_RETRY_ATTEMPTS`` tries, sleeping
#: ``_COMMIT_RETRY_BASE * 2**n`` seconds between them, capped at
#: ``_COMMIT_RETRY_CAP``.  Non-transient errors re-raise immediately.
_COMMIT_RETRY_ATTEMPTS = 6
_COMMIT_RETRY_BASE = 0.05
_COMMIT_RETRY_CAP = 1.0

#: sqlite column type per record-field kind (REAL round-trips IEEE doubles
#: exactly, so numeric columns lose nothing over the old JSON encoding).
_SQL_TYPE = {"i": "INTEGER", "b": "INTEGER", "f": "REAL"}

#: The summary columns of the ``trials`` table, in record order.
_SUMMARY_COLUMNS = tuple(name for name, _ in SUMMARY_RECORD_FIELDS)

#: Exit status of a process killed by a ``crash@commit`` fault clause,
#: distinguishable from both success (0) and the CLI's check-failure (1) /
#: usage-error (2) statuses.
CRASH_EXIT_CODE = 86

#: One checkpointed trial as the executor and the replay path exchange it:
#: ``(trial_index, summary, full_result_or_None)``.
CheckpointRecord = Tuple[int, TrialSummary, Optional["TrialResult"]]


class CampaignStoreError(RuntimeError):
    """A checkpoint store refused an operation (mismatch, misuse, corruption)."""


class RecoveryStage(enum.Enum):
    """Stages of the campaign recovery state machine, in lifecycle order."""

    FRESH = "fresh"
    REPLAYING = "replaying"
    LIVE = "live"
    COMPLETE = "complete"


#: Legal stage transitions.  ``FRESH -> LIVE`` skips replay for store-less
#: and empty-store runs; ``REPLAYING -> COMPLETE`` skips the live phase
#: when every trial was already checkpointed.
_RECOVERY_TRANSITIONS = {
    RecoveryStage.FRESH: (RecoveryStage.REPLAYING, RecoveryStage.LIVE,
                          RecoveryStage.COMPLETE),
    RecoveryStage.REPLAYING: (RecoveryStage.LIVE, RecoveryStage.COMPLETE),
    RecoveryStage.LIVE: (RecoveryStage.COMPLETE,),
    RecoveryStage.COMPLETE: (),
}


class RecoveryStateMachine:
    """Explicit ``FRESH -> REPLAYING -> LIVE -> COMPLETE`` stage tracker.

    The executor drives one instance per ``run_campaign`` call; the machine
    exists so the recovery flow is a checked protocol rather than implicit
    control flow — an illegal transition (e.g. replaying twice, or going
    live after completion) raises instead of silently corrupting results.
    """

    def __init__(self) -> None:
        """Start a machine in the ``FRESH`` stage."""
        self._stage = RecoveryStage.FRESH

    @property
    def stage(self) -> RecoveryStage:
        """Return the current recovery stage."""
        return self._stage

    def advance(self, next_stage: RecoveryStage) -> RecoveryStage:
        """Move to ``next_stage``, enforcing the legal transition graph.

        Args:
            next_stage: The stage to enter.

        Returns:
            The new (now current) stage.

        Raises:
            CampaignStoreError: If the transition is not legal from the
                current stage.
        """
        if next_stage not in _RECOVERY_TRANSITIONS[self._stage]:
            raise CampaignStoreError(
                f"illegal recovery transition {self._stage.value!r} -> "
                f"{next_stage.value!r}")
        self._stage = next_stage
        return self._stage


def _canonical(value: object) -> object:
    """Reduce a spec value to canonical JSON-ready primitives, recursively.

    Args:
        value: A dataclass instance, tuple/list, dict, or JSON primitive.

    Returns:
        A structure of dicts/lists/primitives whose ``json.dumps`` with
        sorted keys is identical across processes and machines.

    Raises:
        CampaignStoreError: If the value contains something without a
            canonical encoding (e.g. a function), which would make the
            fingerprint unstable.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _canonical(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _canonical(val) for key, val in sorted(value.items())}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise CampaignStoreError(
        f"campaign spec contains a value with no canonical encoding: "
        f"{value!r} ({type(value).__name__})")


def spec_fingerprint(spec: "CampaignSpec", master_seed: int) -> str:
    """Compute the identity digest a checkpoint store binds itself to.

    The digest is a SHA-256 over the canonical JSON encoding of the whole
    campaign spec (name, trial cells, base configuration, duration) plus
    the master seed — exactly the inputs that determine the expanded trial
    set and every per-trial seed.  Execution knobs (engine, batch size,
    worker count) are excluded on purpose: the engine equivalence contract
    guarantees they cannot change results, so they must not invalidate a
    checkpoint.

    Args:
        spec: The campaign description.
        master_seed: The campaign master seed.

    Returns:
        A 64-character lowercase hex digest.
    """
    payload = {"master_seed": int(master_seed), "spec": _canonical(spec)}
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


@dataclasses.dataclass(frozen=True)
class CheckpointStatus:
    """Snapshot of a checkpoint store's progress, as shown by ``--status``."""

    name: str
    fingerprint: str
    master_seed: int
    payload: str
    total_trials: int
    checkpointed: int
    complete: bool
    quarantined: int = 0

    @property
    def stage(self) -> RecoveryStage:
        """Return the stage a resume of this store would start from."""
        if self.complete:
            return RecoveryStage.COMPLETE
        if self.checkpointed:
            return RecoveryStage.REPLAYING
        return RecoveryStage.FRESH

    def to_json(self) -> dict:
        """Return the status as a JSON-ready dict.

        One schema serves both ``--status --json`` and the service's
        ``status`` response, so tooling parses a single shape regardless
        of whether it asked a store file or a daemon.

        Returns:
            A dict of JSON primitives (the ``stage`` enum as its string
            value).
        """
        return {
            "name": self.name,
            "fingerprint": self.fingerprint,
            "master_seed": self.master_seed,
            "payload": self.payload,
            "total_trials": self.total_trials,
            "checkpointed": self.checkpointed,
            "complete": self.complete,
            "quarantined": self.quarantined,
            "stage": self.stage.value,
        }

    def describe(self) -> str:
        """Render a short human-readable status report.

        Returns:
            A multi-line string suitable for printing on the CLI.
        """
        state = ("complete" if self.complete
                 else f"in progress ({self.checkpointed}/{self.total_trials} "
                      f"trials checkpointed)")
        lines = [f"campaign:     {self.name}",
                 f"state:        {state}",
                 f"resume stage: {self.stage.value}",
                 f"master seed:  {self.master_seed}",
                 f"payload:      {self.payload}",
                 f"fingerprint:  {self.fingerprint}"]
        if self.quarantined:
            lines.insert(2, f"quarantined:  {self.quarantined} trial(s)")
        return "\n".join(lines)


class CampaignStore:
    """Durable sqlite checkpoint store for one campaign run.

    One store file holds one campaign: identity metadata (spec fingerprint,
    master seed, payload mode, expected trial count) plus one row per
    completed trial — its position, label, one plain numeric column per
    :class:`~repro.campaign.aggregate.TrialSummary` field (the
    :data:`~repro.campaign.aggregate.SUMMARY_RECORD_FIELDS` layout), and
    only for the ``"stats"`` / ``"full"`` payloads a pickled
    ``TrialResult`` blob.  The executor commits one transaction per
    retired batch, so after a crash the store holds exactly the batches
    that completed.

    Typical lifecycle (driven by ``run_campaign``)::

        store = CampaignStore("campaign.db")
        replayed = store.begin(spec, seed, payload, resume=True)
        ...                       # executor replays, then runs the rest
        store.checkpoint_batch(batch_results)   # once per retired batch
        store.mark_complete()
        store.close()
    """

    def __init__(self, path: str | os.PathLike, *, read_only: bool = False,
                 fault_plan: "FaultPlan | None" = None) -> None:
        """Open (creating if necessary) the store database at ``path``.

        Writable stores run in WAL journal mode with a 5-second
        ``busy_timeout``, so a writer and a concurrent ``--status`` reader
        coexist instead of racing into "database is locked"; commits that
        still hit a transient lock retry with bounded exponential backoff
        (observable via :attr:`commit_retries`).

        Args:
            path: Filesystem path of the sqlite database.  Parent
                directories must exist.
            read_only: Open the database read-only (sqlite URI
                ``mode=ro``) — the right mode for status queries against
                a live run: the reader can never take a write lock, never
                creates the file, and never touches the schema.
            fault_plan: Deterministic fault plan whose ``lock`` clauses
                inject transient ``OperationalError`` failures into
                commits and whose ``crash@commit`` clauses kill the
                process after one (test/chaos harness; see
                :mod:`repro.campaign.faults`).  ``None`` reads
                ``REPRO_FAULT_PLAN``.

        Raises:
            CampaignStoreError: If ``read_only`` is requested for a path
                that does not exist.
        """
        self.path = os.fspath(path)
        self.read_only = bool(read_only)
        self._fault_plan = (fault_plan if fault_plan is not None
                            else FaultPlan.from_env())
        #: Optional hook fired after every durable trial commit with the
        #: number of rows just committed — the service's event fan-out
        #: attaches here to stream checkpoint progress to ``watch``
        #: subscribers.  Exceptions from the hook propagate (a broken
        #: hook is a bug, not a storage condition).
        self.on_commit: Optional[Callable[[int], None]] = None
        #: Transient-lock retries performed by this store's commits (an
        #: observability counter; the executor reports it as an event).
        self.commit_retries = 0
        self._commit_seq = 0
        if read_only:
            if not os.path.exists(self.path):
                raise CampaignStoreError(
                    f"{self.path}: no checkpoint store at this path")
            uri = pathlib.Path(self.path).resolve().as_uri() + "?mode=ro"
            self._conn = sqlite3.connect(uri, uri=True)
        else:
            self._conn = sqlite3.connect(self.path)
            self._conn.execute("PRAGMA busy_timeout = 5000")
            self._conn.execute("PRAGMA journal_mode = WAL")
            summary_cols = ", ".join(
                f"{name} {_SQL_TYPE[kind]} NOT NULL"
                for name, kind in SUMMARY_RECORD_FIELDS)
            with self._conn:
                self._conn.execute(
                    "CREATE TABLE IF NOT EXISTS meta ("
                    " key TEXT PRIMARY KEY, value TEXT NOT NULL)")
                self._conn.execute(
                    "CREATE TABLE IF NOT EXISTS trials ("
                    " trial_index INTEGER PRIMARY KEY,"
                    " label TEXT NOT NULL,"
                    f" {summary_cols},"
                    " result BLOB)")
                self._conn.execute(
                    "CREATE TABLE IF NOT EXISTS failures ("
                    " trial_index INTEGER PRIMARY KEY,"
                    " label TEXT NOT NULL,"
                    " replicate INTEGER NOT NULL,"
                    " seed INTEGER NOT NULL,"
                    " attempts INTEGER NOT NULL,"
                    " kind TEXT NOT NULL,"
                    " message TEXT NOT NULL)")
                self._conn.execute(
                    "CREATE TABLE IF NOT EXISTS estimator ("
                    " kind TEXT NOT NULL,"
                    " identity TEXT NOT NULL,"
                    " state TEXT NOT NULL,"
                    " PRIMARY KEY (kind, identity))")

    def set_fault_plan(self, plan: "FaultPlan | None") -> None:
        """Attach (or clear) the fault plan driving commit injections."""
        self._fault_plan = plan

    def _commit(self, operation: Callable[[], None], what: str) -> None:
        """Run one commit with bounded backoff on transient lock errors.

        A ``crash@commit`` clause matching this commit's number exits the
        process the hard way (no cleanup, no atexit, nothing flushed)
        right after the commit is durable.

        Args:
            operation: Zero-argument callable performing the transaction.
            what: Short description of the commit, for error messages.

        Raises:
            CampaignStoreError: When the database is still locked after
                the retry budget is exhausted.
            sqlite3.OperationalError: Re-raised unchanged for
                non-transient operational errors.
        """
        self._commit_seq += 1
        commit_number = self._commit_seq
        attempt = 0
        while True:
            try:
                if (self._fault_plan is not None
                        and self._fault_plan.lock_commit(commit_number,
                                                         attempt)):
                    raise sqlite3.OperationalError(
                        "database is locked (injected)")
                operation()
                break
            except sqlite3.OperationalError as exc:
                text = str(exc)
                if "locked" not in text and "busy" not in text:
                    raise
                attempt += 1
                if attempt >= _COMMIT_RETRY_ATTEMPTS:
                    raise CampaignStoreError(
                        f"{self.path}: {what} still failing after "
                        f"{attempt} attempts: {exc}") from exc
                self.commit_retries += 1
                time.sleep(min(_COMMIT_RETRY_CAP,
                               _COMMIT_RETRY_BASE * 2 ** (attempt - 1)))
        if (self._fault_plan is not None
                and self._fault_plan.crash_after_commit(commit_number)):
            os._exit(CRASH_EXIT_CODE)

    # -- metadata ----------------------------------------------------------

    def _read_meta(self) -> dict:
        """Return the meta table as a plain dict (empty for a fresh store)."""
        rows = self._conn.execute("SELECT key, value FROM meta").fetchall()
        return dict(rows)

    def _write_meta(self, meta: dict) -> None:
        """Replace the meta table contents with ``meta`` in one transaction."""
        def operation() -> None:
            with self._conn:
                self._conn.executemany(
                    "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                    [(key, str(value)) for key, value in meta.items()])
        self._commit(operation, "meta commit")

    def checkpointed_count(self) -> int:
        """Return how many trials have durable checkpoints."""
        (count,) = self._conn.execute("SELECT COUNT(*) FROM trials").fetchone()
        return int(count)

    def completed_indices(self) -> set:
        """Return the trial indices that already have durable checkpoints."""
        rows = self._conn.execute("SELECT trial_index FROM trials").fetchall()
        return {int(index) for (index,) in rows}

    def status(self) -> CheckpointStatus | None:
        """Return the store's progress snapshot, or ``None`` if it is empty.

        Returns:
            A :class:`CheckpointStatus`, or ``None`` when no campaign has
            been bound to this store yet.
        """
        meta = self._read_meta()
        if not meta:
            return None
        return CheckpointStatus(
            name=meta.get("campaign_name", "?"),
            fingerprint=meta.get("fingerprint", "?"),
            master_seed=int(meta.get("master_seed", -1)),
            payload=meta.get("payload", "?"),
            total_trials=int(meta.get("total_trials", -1)),
            checkpointed=self.checkpointed_count(),
            complete=meta.get("complete") == "1",
            quarantined=len(self.failures()),
        )

    # -- lifecycle ---------------------------------------------------------

    def begin(self, spec: "CampaignSpec", master_seed: int, payload: str, *,
              resume: bool = False) -> List[CheckpointRecord]:
        """Bind the store to one campaign run and return the replayable prefix.

        A fresh (empty) store records the campaign's identity and returns
        nothing to replay.  A store that already holds this campaign is
        validated against the spec fingerprint and payload mode; with
        ``resume=True`` its checkpointed trials are returned for replay,
        without it the call is rejected so a stale store is never
        overwritten by accident.

        Args:
            spec: The campaign description about to run.
            master_seed: The run's master seed.
            payload: The run's payload mode (``"summary"`` / ``"stats"`` /
                ``"full"``); must match the checkpointed mode on resume.
            resume: Whether the caller intends to continue a previous run.

        Returns:
            The checkpointed trials, ordered by trial index (empty for a
            fresh store).

        Raises:
            CampaignStoreError: If the store belongs to a different
                campaign/seed (fingerprint mismatch), was written with a
                different payload mode or schema version, or holds
                checkpoints and ``resume`` was not requested.
        """
        if self.read_only:
            raise CampaignStoreError(
                f"{self.path}: store was opened read-only (status mode); "
                f"it cannot be bound to a campaign run")
        fingerprint = spec_fingerprint(spec, master_seed)
        meta = self._read_meta()
        if not meta:
            self._write_meta({
                "schema_version": SCHEMA_VERSION,
                "campaign_name": spec.name,
                "fingerprint": fingerprint,
                "master_seed": int(master_seed),
                "payload": payload,
                "total_trials": spec.total_trials,
                "complete": 0,
            })
            return []
        version = meta.get("schema_version")
        if version != str(SCHEMA_VERSION):
            raise CampaignStoreError(
                f"{self.path}: store schema version {version!r} is not the "
                f"supported version {SCHEMA_VERSION}")
        if meta.get("fingerprint") != fingerprint:
            raise CampaignStoreError(
                f"{self.path}: store holds campaign "
                f"{meta.get('campaign_name')!r} (master seed "
                f"{meta.get('master_seed')}, fingerprint "
                f"{meta.get('fingerprint')[:12]}…) but this run is "
                f"{spec.name!r} with fingerprint {fingerprint[:12]}…; a "
                f"checkpoint is only valid for the exact spec and master "
                f"seed it was created with — rerun with the original "
                f"arguments, or point --store at a fresh path")
        if meta.get("payload") != payload:
            raise CampaignStoreError(
                f"{self.path}: store was checkpointed with payload mode "
                f"{meta.get('payload')!r}; resuming with {payload!r} would "
                f"replay incomplete per-trial records — rerun with "
                f"--payload {meta.get('payload')}")
        if not resume and self.checkpointed_count():
            raise CampaignStoreError(
                f"{self.path}: store already holds "
                f"{self.checkpointed_count()} checkpointed trial(s) of this "
                f"campaign; pass resume=True (--resume) to continue it, or "
                f"use a fresh store path")
        return self.replay()

    def replay(self) -> List[CheckpointRecord]:
        """Load every checkpointed trial back into executor-shaped records.

        Returns:
            ``(trial_index, summary, result)`` tuples ordered by trial
            index; ``result`` is ``None`` for rows checkpointed without a
            full-result blob (the ``"summary"`` payload).
        """
        columns = ", ".join(_SUMMARY_COLUMNS)
        rows = self._conn.execute(
            f"SELECT trial_index, label, {columns}, result FROM trials "
            "ORDER BY trial_index").fetchall()
        records: List[CheckpointRecord] = []
        for row in rows:
            summary = TrialSummary.from_record(row[2:-1], label=row[1])
            blob = row[-1]
            result = pickle.loads(blob) if blob is not None else None
            records.append((int(row[0]), summary, result))
        return records

    def checkpoint_batch(self, results: List[CheckpointRecord]) -> None:
        """Durably commit one retired batch of trials, atomically.

        The executor calls this *before* publishing the batch to the
        in-memory aggregates and the progress callback, so anything the
        user has seen reported is guaranteed to survive a crash.

        Args:
            results: ``(trial_index, summary, result)`` records of the
                batch; ``result`` may be ``None`` (``"summary"`` payload).
        """
        rows = []
        for index, summary, result in results:
            blob = (sqlite3.Binary(pickle.dumps(result))
                    if result is not None else None)
            rows.append((int(index), summary.label) + summary.to_record()
                        + (blob,))
        self._insert_rows(rows)

    def checkpoint_ring(self, records: "np.ndarray",
                        labels: List[str]) -> None:
        """Durably commit one retired batch straight from the results ring.

        The zero-copy counterpart of :meth:`checkpoint_batch`: ``records``
        is the task's structured-record block of the shared results ring
        (see :func:`repro.campaign.shm.summary_record_dtype`), read in
        place — no :class:`TrialSummary` objects, JSON, or pickling on the
        commit path.  Only valid for the ``"summary"`` payload (the ring
        carries no full-result blob).

        Args:
            records: The task's record block, already generation-validated.
            labels: Per-record cell labels, aligned with ``records``.
        """
        # One C-level pass converts the whole block to Python scalars;
        # [2:] drops the generation stamp ([0] is the trial index).
        rows = [(row[0], label) + tuple(row[2:]) + (None,)
                for row, label in zip(records.tolist(), labels)]
        self._insert_rows(rows)

    def _insert_rows(self, rows: List[tuple]) -> None:
        """Commit prepared trial rows atomically."""
        columns = ", ".join(_SUMMARY_COLUMNS)
        placeholders = ", ".join("?" * (len(_SUMMARY_COLUMNS) + 3))

        def operation() -> None:
            with self._conn:
                self._conn.executemany(
                    f"INSERT OR REPLACE INTO trials "
                    f"(trial_index, label, {columns}, result) "
                    f"VALUES ({placeholders})", rows)
        self._commit(operation, "checkpoint commit")
        if self.on_commit is not None:
            self.on_commit(len(rows))

    def record_failure(self, failure: TrialFailure) -> None:
        """Durably record one quarantined trial in the ``failures`` table.

        Args:
            failure: The structured failure row; keyed by trial index, so
                re-recording after a resume is idempotent.
        """
        def operation() -> None:
            with self._conn:
                self._conn.execute(
                    "INSERT OR REPLACE INTO failures "
                    "(trial_index, label, replicate, seed, attempts, kind,"
                    " message) VALUES (?, ?, ?, ?, ?, ?, ?)",
                    (int(failure.trial_index), failure.label,
                     int(failure.replicate), int(failure.seed),
                     int(failure.attempts), failure.kind, failure.message))
        self._commit(operation, "failure-row commit")

    def failures(self) -> List[TrialFailure]:
        """Return the quarantined-trial rows, ordered by trial index.

        Returns:
            The recorded :class:`~repro.campaign.faults.TrialFailure`
            rows; empty for stores without a ``failures`` table (e.g. a
            read-only view of a pre-v3 database).
        """
        try:
            rows = self._conn.execute(
                "SELECT trial_index, label, replicate, seed, attempts, kind,"
                " message FROM failures ORDER BY trial_index").fetchall()
        except sqlite3.OperationalError:
            return []
        return [TrialFailure(trial_index=int(row[0]), label=row[1],
                             replicate=int(row[2]), seed=int(row[3]),
                             attempts=int(row[4]), kind=row[5],
                             message=row[6])
                for row in rows]

    def save_estimator_state(self, kind: str, identity: str,
                             state: dict) -> None:
        """Durably commit one rare-event estimator's state document.

        The estimator table is orthogonal to the trial rows: a splitting
        run checkpoints its per-level progress here (with no trial rows at
        all), while an SPRT run stores its decided verdict next to the
        ordinary trial checkpoints its sub-campaign committed.  Writing
        the same ``(kind, identity)`` again replaces the document — state
        progresses monotonically, so the latest write is always the most
        advanced checkpoint.

        Args:
            kind: Estimator family (``"split"`` / ``"sprt"``).
            identity: Digest of everything that determines the estimator's
                numbers (spec fingerprint, cell, settings) — never the
                engine or worker count.
            state: JSON-ready state document.
        """
        encoded = json.dumps(state, sort_keys=True, separators=(",", ":"))

        def operation() -> None:
            with self._conn:
                self._conn.execute(
                    "INSERT OR REPLACE INTO estimator (kind, identity, state)"
                    " VALUES (?, ?, ?)", (kind, identity, encoded))
        self._commit(operation, "estimator-state commit")
        if self.on_commit is not None:
            self.on_commit(0)

    def load_estimator_state(self, kind: str, identity: str) -> dict | None:
        """Load one estimator state document, or ``None`` if absent.

        Args:
            kind: Estimator family (``"split"`` / ``"sprt"``).
            identity: The estimator's identity digest.

        Returns:
            The decoded state document, or ``None`` when this estimator
            has no checkpoint (including stores from pre-v4 databases,
            which lack the table entirely).
        """
        try:
            row = self._conn.execute(
                "SELECT state FROM estimator WHERE kind = ? AND identity = ?",
                (kind, identity)).fetchone()
        except sqlite3.OperationalError:
            return None
        return json.loads(row[0]) if row is not None else None

    def mark_complete(self) -> None:
        """Record that every runnable trial of the campaign is checkpointed."""
        def operation() -> None:
            with self._conn:
                self._conn.execute(
                    "INSERT OR REPLACE INTO meta (key, value) VALUES "
                    "('complete', '1')")
        self._commit(operation, "completion commit")

    def close(self) -> None:
        """Close the underlying sqlite connection."""
        self._conn.close()

    def __enter__(self) -> "CampaignStore":
        """Return the store itself (context-manager support)."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Close the store on context exit."""
        self.close()


def enumerate_stores(directory: str | os.PathLike,
                     ) -> List[Tuple[str, CheckpointStatus]]:
    """Scan a directory for campaign stores and snapshot each one's status.

    The service's restart recovery walks its stores directory with this:
    every ``*.db`` file that opens as a campaign store and has been bound
    to a campaign contributes one ``(path, status)`` pair.  Files that are
    not sqlite databases, stores nobody has bound yet, and unreadable
    files are skipped silently — a stores directory is allowed to contain
    strays (WAL side files, half-created databases from a crash).

    Args:
        directory: The directory to scan (non-recursive).

    Returns:
        ``(path, status)`` pairs sorted by path for determinism.
    """
    found: List[Tuple[str, CheckpointStatus]] = []
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".db"):
            continue
        path = os.path.join(os.fspath(directory), name)
        try:
            with CampaignStore(path, read_only=True) as store:
                status = store.status()
        except (CampaignStoreError, sqlite3.Error):
            continue
        if status is not None:
            found.append((path, status))
    return found
