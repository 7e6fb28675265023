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
  computed online by the ``TrialStatsObserver`` pipeline, so a checkpoint
  is one row of plain numeric columns, not a trace.
* **Spec fingerprinting** (this module): the store binds itself to a
  SHA-256 digest of the canonical encoding of ``(spec, master_seed)``;
  resuming with anything that would change the trial set is rejected
  instead of silently mixing results.  Engine, batch size and worker
  count are deliberately *excluded* — they are throughput knobs that the
  bit-identical equivalence contract guarantees cannot change results.

:attr:`CheckpointStatus.stage` reports where a resume of a store would
start, as one of the stages of :class:`RecoveryStage`::

    FRESH ──▶ REPLAYING ──▶ COMPLETE
      │                        ▲
      └────────────────────────┘   (fresh store: nothing to replay)

``FRESH`` covers empty stores; ``REPLAYING`` means ``run_campaign``
loads the checkpointed records back through the exact aggregation path
live results use, then executes and checkpoints the remaining trials;
``COMPLETE`` marks the store finished (resuming a complete store replays
everything and simulates nothing).

A :class:`StoreDatabase` is one sqlite file whose rows are keyed by job:
a one-shot ``--store`` file holds one campaign, and the service daemon
keeps one database per stores directory open for its whole life, with a
:class:`CampaignStore` handle per job on the shared connection.

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
import sqlite3
import threading
import time
from collections import OrderedDict, namedtuple
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from repro.campaign.aggregate import SUMMARY_RECORD_FIELDS, TrialSummary
from repro.campaign.faults import FaultPlan, TrialFailure

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    import numpy as np
    from repro.campaign.spec import CampaignSpec

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
#: resume bit-identically alongside the trial rows.  Version 5 keys every
#: table by an integer job id from a new ``jobs`` table (fingerprint and
#: submission record), so one database holds many campaigns: the service
#: keeps one per stores directory, and a one-shot file is job 1 of its
#: own.  The version moved from the ``meta`` table into sqlite's
#: ``user_version`` header field.
SCHEMA_VERSION = 5

#: The job id of a one-shot store file's only campaign (and of a
#: version-4 store migrated to version 5).
ONE_SHOT_JOB = 1

#: Page-cache bound of every store connection, in KiB.  The service keeps
#: its one connection for its whole life, and sqlite's default 2 MiB cache
#: would fill up and stay resident.
_CACHE_KIB = 128

#: Version-4 ``meta`` keys that version 5 keeps elsewhere: the version in
#: ``user_version``, the identity in the ``jobs`` row.
_IDENTITY_KEYS = ("schema_version", "fingerprint", "master_seed")

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

#: The only payload mode a store records.  Stores written in the removed
#: ``"stats"`` mode (summaries plus a pickled ``TrialResult`` per row) are
#: refused on resume.
PAYLOAD = "summary"

#: One checkpointed trial as the executor and the replay path exchange it:
#: ``(trial_index, summary)``.
CheckpointRecord = Tuple[int, TrialSummary]


#: One job's submission record and how it ended, if it did (``complete``
#: and ``cancelled`` are sqlite's 0/1 truth values).
JobRow = namedtuple("JobRow", "id fingerprint spec master_seed priority"
                              " complete cancelled")


class CampaignStoreError(RuntimeError):
    """A checkpoint store refused an operation (mismatch, misuse, corruption)."""


class RecoveryStage(enum.Enum):
    """Stages of a campaign's recovery, in lifecycle order."""

    FRESH = "fresh"
    REPLAYING = "replaying"
    COMPLETE = "complete"


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


#: Canonical encodings of the specs encoded most recently, keyed by object
#: identity.  Each entry holds its spec, so an id cannot be reused while it
#: is cached, and specs are frozen, so an entry never goes stale.  This is
#: what lets a service job's submit fingerprint, its ``jobs`` row and its
#: store's binding check share one encoding.
_RECENT_ENCODINGS: "OrderedDict[int, Tuple[CampaignSpec, object]]" = OrderedDict()
_RECENT_LIMIT = 64
_RECENT_LOCK = threading.Lock()


def canonical_spec(spec: "CampaignSpec") -> object:
    """Return the canonical encoding of a spec, encoding each spec object once.

    The result is shared with later callers passing the same spec object,
    so it must not be mutated.

    Args:
        spec: The campaign description.

    Returns:
        The :func:`_canonical` encoding of ``spec``.
    """
    with _RECENT_LOCK:
        hit = _RECENT_ENCODINGS.get(id(spec))
    if hit is not None:
        return hit[1]
    encoded = _canonical(spec)
    with _RECENT_LOCK:
        _RECENT_ENCODINGS[id(spec)] = (spec, encoded)
        while len(_RECENT_ENCODINGS) > _RECENT_LIMIT:
            _RECENT_ENCODINGS.popitem(last=False)
    return encoded


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
    payload = {"master_seed": int(master_seed), "spec": canonical_spec(spec)}
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


@dataclasses.dataclass(frozen=True)
class CheckpointStatus:
    """Snapshot of a checkpoint store's progress, as shown by ``--status``."""

    name: str
    fingerprint: str
    master_seed: int
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
                 f"fingerprint:  {self.fingerprint}"]
        if self.quarantined:
            lines.insert(2, f"quarantined:  {self.quarantined} trial(s)")
        return "\n".join(lines)


def _encode_spec(spec: "CampaignSpec") -> str:
    """Return the JSON text of a spec's canonical encoding (a ``jobs`` row)."""
    return json.dumps(canonical_spec(spec), sort_keys=True,
                      separators=(",", ":"))


def _removed_payload_error(path: str, payload: object) -> CampaignStoreError:
    """The error refusing a store checkpointed in a removed payload mode."""
    return CampaignStoreError(
        f"{path}: store was checkpointed with payload mode {payload!r}, "
        f"which has been removed; only {PAYLOAD!r} stores can be resumed — "
        f"point --store at a fresh path")


def _create_schema(conn: sqlite3.Connection) -> None:
    """Create the version-5 tables (inside the caller's transaction)."""
    summary_cols = ", ".join(f"{name} {_SQL_TYPE[kind]} NOT NULL"
                             for name, kind in SUMMARY_RECORD_FIELDS)
    conn.execute(
        "CREATE TABLE jobs ("
        " id INTEGER PRIMARY KEY,"
        " fingerprint TEXT NOT NULL UNIQUE,"
        " spec TEXT,"
        " master_seed INTEGER NOT NULL,"
        " priority INTEGER NOT NULL DEFAULT 0)")
    conn.execute(
        "CREATE TABLE meta ("
        " job_id INTEGER NOT NULL, key TEXT NOT NULL, value TEXT NOT NULL,"
        " PRIMARY KEY (job_id, key)) WITHOUT ROWID")
    conn.execute(
        "CREATE TABLE trials ("
        " job_id INTEGER NOT NULL,"
        " trial_index INTEGER NOT NULL,"
        " label TEXT NOT NULL,"
        f" {summary_cols},"
        " PRIMARY KEY (job_id, trial_index)) WITHOUT ROWID")
    conn.execute(
        "CREATE TABLE failures ("
        " job_id INTEGER NOT NULL,"
        " trial_index INTEGER NOT NULL,"
        " label TEXT NOT NULL,"
        " replicate INTEGER NOT NULL,"
        " seed INTEGER NOT NULL,"
        " attempts INTEGER NOT NULL,"
        " kind TEXT NOT NULL,"
        " message TEXT NOT NULL,"
        " PRIMARY KEY (job_id, trial_index)) WITHOUT ROWID")
    conn.execute(
        "CREATE TABLE estimator ("
        " job_id INTEGER NOT NULL,"
        " kind TEXT NOT NULL,"
        " identity TEXT NOT NULL,"
        " state TEXT NOT NULL,"
        " PRIMARY KEY (job_id, kind, identity)) WITHOUT ROWID")
    conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")


def _legacy_tables(conn: sqlite3.Connection) -> List[str]:
    """Names of a pre-v5 file's store tables (empty for a new file)."""
    return [name for (name,) in conn.execute(
        "SELECT name FROM sqlite_master WHERE type = 'table' AND name IN"
        " ('meta', 'trials', 'failures', 'estimator')")]


def _migrate_v4(conn: sqlite3.Connection, path: str,
                tables: List[str]) -> None:
    """Rewrite a version-4 store as job 1 of a version-5 file.

    Runs inside the caller's transaction, so a crash leaves the file in
    one layout or the other.  Only a ``summary`` store of version 4 (or
    one never bound to a campaign) migrates; anything else is refused
    untouched.
    """
    meta = dict(conn.execute("SELECT key, value FROM meta"))
    version = meta.get("schema_version", "4")
    if version != "4":
        raise CampaignStoreError(
            f"{path}: store schema version {version!r} is not the supported "
            f"version {SCHEMA_VERSION}")
    if meta.get("payload", PAYLOAD) != PAYLOAD:
        raise _removed_payload_error(path, meta["payload"])
    for name in tables:
        conn.execute(f"ALTER TABLE {name} RENAME TO v4_{name}")
    _create_schema(conn)
    job = ONE_SHOT_JOB
    if "fingerprint" in meta:
        conn.execute(
            "INSERT INTO jobs (id, fingerprint, master_seed) VALUES (?, ?, ?)",
            (job, meta["fingerprint"], int(meta["master_seed"])))
    conn.executemany(
        "INSERT INTO meta (job_id, key, value) VALUES (?, ?, ?)",
        [(job, key, value) for key, value in meta.items()
         if key not in _IDENTITY_KEYS])
    columns = ", ".join(("trial_index", "label") + _SUMMARY_COLUMNS)
    copies = {"trials": columns,
              "failures": "trial_index, label, replicate, seed, attempts,"
                          " kind, message",
              "estimator": "kind, identity, state"}
    for name, columns in copies.items():
        if name in tables:
            conn.execute(f"INSERT INTO {name} (job_id, {columns}) "
                         f"SELECT {job}, {columns} FROM v4_{name}")
    for name in tables:
        conn.execute(f"DROP TABLE v4_{name}")


def _view_legacy(conn: sqlite3.Connection, tables: List[str]) -> None:
    """Show a read-only pre-v5 file's tables as job 1 of the v5 layout.

    Temporary views live in the connection's own temp schema and shadow
    the file's tables, so the read queries stay those of the v5 layout
    while the file itself is never written.
    """
    for name in tables:
        conn.execute(f"CREATE TEMP VIEW {name} AS "
                     f"SELECT {ONE_SHOT_JOB} AS job_id, * FROM main.{name}")
    conn.execute(
        f"CREATE TEMP VIEW jobs AS SELECT {ONE_SHOT_JOB} AS id,"
        " f.value AS fingerprint, NULL AS spec,"
        " CAST(s.value AS INTEGER) AS master_seed, 0 AS priority"
        " FROM main.meta AS f, main.meta AS s"
        " WHERE f.key = 'fingerprint' AND s.key = 'master_seed'")


class StoreDatabase:
    """One sqlite database file of campaign stores: job-keyed rows.

    Every table but ``jobs`` carries a ``job_id``; a
    :class:`CampaignStore` handle reads and writes one job's rows.  A
    one-shot ``--store`` file holds one job (:data:`ONE_SHOT_JOB`); the
    service daemon keeps one database per stores directory open for its
    lifetime and adds a job per submission.  The connection may be used
    from several threads: every transaction and every read runs under
    :attr:`lock`.
    """

    def __init__(self, path: str | os.PathLike, *,
                 read_only: bool = False) -> None:
        """Open (creating or migrating if necessary) the database at ``path``.

        Writable databases run in WAL journal mode with a 5-second
        ``busy_timeout``, so a writer and a concurrent ``--status`` reader
        coexist instead of racing into "database is locked", and with a
        page cache bounded to :data:`_CACHE_KIB` KiB, so a long-lived
        connection does not grow the process.  A version-4 file is
        migrated in place, in one transaction, on its first writable
        open; a read-only open shows it through temporary views instead.

        Args:
            path: Filesystem path of the sqlite database.  Parent
                directories must exist.
            read_only: Open the database read-only (sqlite URI
                ``mode=ro``) — the right mode for status queries against
                a live run: the reader can never take a write lock, never
                creates the file, and never touches the schema.

        Raises:
            CampaignStoreError: If ``read_only`` is requested for a path
                that does not exist, or the file holds a store layout
                this version cannot migrate.
        """
        self.path = os.fspath(path)
        self.read_only = bool(read_only)
        self.lock = threading.RLock()
        if read_only:
            if not os.path.exists(self.path):
                raise CampaignStoreError(
                    f"{self.path}: no checkpoint store at this path")
            uri = pathlib.Path(self.path).resolve().as_uri() + "?mode=ro"
            self.conn = sqlite3.connect(uri, uri=True,
                                        check_same_thread=False)
            version = self._version()
            tables = _legacy_tables(self.conn) if version == 0 else []
            if version != SCHEMA_VERSION and "meta" not in tables:
                self.conn.close()
                raise CampaignStoreError(
                    f"{self.path}: not a campaign store of a supported "
                    f"version (file version {version})")
            if tables:
                _view_legacy(self.conn, tables)
            return
        self.conn = sqlite3.connect(self.path, check_same_thread=False)
        self.conn.execute("PRAGMA busy_timeout = 5000")
        self.conn.execute("PRAGMA journal_mode = WAL")
        self.conn.execute(f"PRAGMA cache_size = -{_CACHE_KIB}")
        if self._version() == SCHEMA_VERSION:
            return
        self.conn.execute("BEGIN IMMEDIATE")
        try:
            version = self._version()
            if version != SCHEMA_VERSION:
                if version:
                    raise CampaignStoreError(
                        f"{self.path}: not a campaign store of a supported "
                        f"version (file version {version})")
                tables = _legacy_tables(self.conn)
                if tables:
                    _migrate_v4(self.conn, self.path, tables)
                else:
                    _create_schema(self.conn)
            self.conn.commit()
        except BaseException:
            self.conn.rollback()
            self.conn.close()
            raise

    def _version(self) -> int:
        """Return the file's ``user_version`` (0 before version 5)."""
        (version,) = self.conn.execute("PRAGMA user_version").fetchone()
        return int(version)

    def add_job(self, fingerprint: str, spec: "CampaignSpec",
                master_seed: int, priority: int = 0) -> int:
        """Durably record one job submission and return its job id.

        Args:
            fingerprint: The job's :func:`spec_fingerprint`.
            spec: The submitted campaign.
            master_seed: The campaign master seed.
            priority: The job's queue priority.

        Returns:
            The job's integer id.
        """
        with self.lock, self.conn:
            return self.conn.execute(
                "INSERT INTO jobs (fingerprint, spec, master_seed, priority)"
                " VALUES (?, ?, ?, ?)", (fingerprint, _encode_spec(spec),
                                         int(master_seed), int(priority))
            ).lastrowid

    def jobs(self, prefix: str = "") -> List[JobRow]:
        """Return the jobs whose fingerprint starts with ``prefix``, by id.

        Fingerprints are hex digests, so each one that starts with
        ``prefix`` sorts between it and ``prefix + "\\uffff"``: the
        ``fingerprint`` column's unique index serves the lookup.
        """
        with self.lock:
            rows = self.conn.execute(
                "SELECT j.id, j.fingerprint, j.spec, j.master_seed,"
                " j.priority, m.value IS '1', c.value IS '1' FROM jobs AS j"
                " LEFT JOIN meta AS m ON m.job_id = j.id AND m.key = 'complete'"
                " LEFT JOIN meta AS c ON c.job_id = j.id"
                " AND c.key = 'cancelled' WHERE j.fingerprint BETWEEN ? AND ?"
                " ORDER BY j.id", (prefix, prefix + "\uffff")).fetchall()
        return [JobRow._make(row) for row in rows]

    def mark_cancelled(self, job_id: int) -> None:
        """Durably record that job ``job_id`` was cancelled (a plain
        transaction, not one of the job's numbered store commits)."""
        with self.lock, self.conn:
            self.conn.execute(
                "INSERT OR REPLACE INTO meta (job_id, key, value)"
                " VALUES (?, 'cancelled', '1')", (job_id,))

    def store(self, job_id: int) -> "CampaignStore":
        """Return a store handle on one job's rows of this database."""
        return CampaignStore._on(self, job_id)

    def close(self) -> None:
        """Close the connection."""
        with self.lock:
            self.conn.close()


class CampaignStore:
    """Durable checkpoint store of one campaign run: one job's rows.

    A store holds a campaign's identity (spec fingerprint, master seed,
    expected trial count) plus one row per completed trial — its
    position, label and one plain numeric column per
    :class:`~repro.campaign.aggregate.TrialSummary` field (the
    :data:`~repro.campaign.aggregate.SUMMARY_RECORD_FIELDS` layout).  The
    executor commits one transaction per retired batch, so after a crash
    the store holds exactly the batches that completed.

    ``CampaignStore(path)`` opens a one-shot store file, which holds one
    job; :meth:`StoreDatabase.store` returns a handle on one job of a
    shared database, whose :meth:`close` leaves the database open.

    Typical lifecycle (driven by ``run_campaign``)::

        store = CampaignStore("campaign.db")
        replayed = store.begin(spec, seed, resume=True)
        ...                       # executor replays, then runs the rest
        store.checkpoint_batch(batch_results)   # once per retired batch
        store.mark_complete()
        store.close()
    """

    def __init__(self, path: str | os.PathLike, *, read_only: bool = False,
                 fault_plan: "FaultPlan | None" = None) -> None:
        """Open (creating if necessary) the one-shot store file at ``path``.

        Commits that hit a transient lock retry with bounded exponential
        backoff (observable via :attr:`commit_retries`).

        Args:
            path: Filesystem path of the sqlite database.  Parent
                directories must exist.
            read_only: Open the database read-only (see
                :class:`StoreDatabase`).
            fault_plan: Deterministic fault plan whose ``lock`` clauses
                inject transient ``OperationalError`` failures into
                commits and whose ``crash@commit`` clauses kill the
                process after one (test/chaos harness; see
                :mod:`repro.campaign.faults`).  ``None`` injects nothing;
                the store never reads ``REPRO_FAULT_PLAN`` itself, so
                whoever opens it resolves the plan (``run_campaign``
                attaches its own through :meth:`set_fault_plan`).

        Raises:
            CampaignStoreError: If ``read_only`` is requested for a path
                that does not exist, or the file holds more than one job
                (a service database).
        """
        database = StoreDatabase(path, read_only=read_only)
        (jobs,) = database.conn.execute(
            "SELECT COUNT(*) FROM jobs WHERE id != ?",
            (ONE_SHOT_JOB,)).fetchone()
        if jobs:
            database.close()
            raise CampaignStoreError(
                f"{database.path}: this database holds service jobs; it "
                f"is not a one-shot campaign store")
        self._attach(database, ONE_SHOT_JOB, owned=True)
        self._fault_plan = fault_plan

    @classmethod
    def _on(cls, database: StoreDatabase, job_id: int) -> "CampaignStore":
        """Return a handle on job ``job_id`` of a shared ``database``."""
        store = cls.__new__(cls)
        store._attach(database, job_id, owned=False)
        return store

    def _attach(self, database: StoreDatabase, job_id: int, *,
                owned: bool) -> None:
        """Bind this handle to one job of ``database``."""
        self._database = database
        self._owned = owned
        self._conn = database.conn
        self._lock = database.lock
        self._job = job_id
        self.path = database.path
        self.read_only = database.read_only
        self._fault_plan: "FaultPlan | None" = None
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

    def set_fault_plan(self, plan: "FaultPlan | None") -> None:
        """Attach (or clear) the fault plan driving commit injections."""
        self._fault_plan = plan

    def _commit(self, operation: Callable[[], None], what: str) -> None:
        """Run one commit with bounded backoff on transient lock errors.

        The transaction runs under the database lock; the backoff sleeps
        outside it.  A ``crash@commit`` clause matching this commit's
        number exits the process the hard way (no cleanup, no atexit,
        nothing flushed) right after the commit is durable.

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
                with self._lock, self._conn:
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

    def _read(self, sql: str, *params: object) -> List[tuple]:
        """Run one read query on this job's rows (``?`` 1 is the job id)."""
        with self._lock:
            return self._conn.execute(sql, (self._job,) + params).fetchall()

    # -- metadata ----------------------------------------------------------

    def _read_meta(self) -> dict:
        """Return the job's meta rows as a plain dict (empty for a fresh job)."""
        return dict(self._read("SELECT key, value FROM meta WHERE job_id = ?"))

    def _identity(self) -> Tuple[str, int] | None:
        """Return the job's ``(fingerprint, master_seed)``, if recorded."""
        rows = self._read(
            "SELECT fingerprint, master_seed FROM jobs WHERE id = ?")
        return (rows[0][0], int(rows[0][1])) if rows else None

    def _write_meta(self, meta: dict,
                    new_job: Tuple[str, str, int] | None = None) -> None:
        """Upsert meta rows in one commit, recording a new job row first.

        Args:
            meta: Keys and values to write.
            new_job: ``(fingerprint, encoded spec, master seed)`` of a
                job row to insert in the same transaction, if any.
        """
        def operation() -> None:
            if new_job is not None:
                self._conn.execute(
                    "INSERT INTO jobs (id, fingerprint, spec, master_seed)"
                    " VALUES (?, ?, ?, ?)", (self._job,) + new_job)
            self._conn.executemany(
                "INSERT OR REPLACE INTO meta (job_id, key, value)"
                " VALUES (?, ?, ?)",
                [(self._job, key, str(value)) for key, value in meta.items()])
        self._commit(operation, "meta commit")

    def checkpointed_count(self) -> int:
        """Return how many trials have durable checkpoints."""
        ((count,),) = self._read(
            "SELECT COUNT(*) FROM trials WHERE job_id = ?")
        return int(count)

    def status(self) -> CheckpointStatus | None:
        """Return the store's progress snapshot, or ``None`` if it is empty.

        Returns:
            A :class:`CheckpointStatus`, or ``None`` when no campaign has
            been bound to this store yet.
        """
        with self._lock:
            meta = self._read_meta()
            if "campaign_name" not in meta:  # at most a cancel mark
                return None
            fingerprint, master_seed = self._identity() or ("?", -1)
            return CheckpointStatus(
                name=meta.get("campaign_name", "?"),
                fingerprint=fingerprint,
                master_seed=master_seed,
                total_trials=int(meta.get("total_trials", -1)),
                checkpointed=self.checkpointed_count(),
                complete=meta.get("complete") == "1",
                quarantined=len(self.failures()),
            )

    # -- lifecycle ---------------------------------------------------------

    def begin(self, spec: "CampaignSpec", master_seed: int, *,
              resume: bool = False) -> List[CheckpointRecord]:
        """Bind the store to one campaign run and return the replayable prefix.

        A fresh (empty) store records the campaign's identity and returns
        nothing to replay.  A store that already holds this campaign is
        validated against the spec fingerprint; with ``resume=True`` its
        checkpointed trials are returned for replay, without it the call
        is rejected so a stale store is never overwritten by accident.

        Args:
            spec: The campaign description about to run.
            master_seed: The run's master seed.
            resume: Whether the caller intends to continue a previous run.

        Returns:
            The checkpointed trials, ordered by trial index (empty for a
            fresh store).

        Raises:
            CampaignStoreError: If the store belongs to a different
                campaign/seed (fingerprint mismatch), was written in a
                removed payload mode, or holds checkpoints and ``resume``
                was not requested.
        """
        if self.read_only:
            raise CampaignStoreError(
                f"{self.path}: store was opened read-only (status mode); "
                f"it cannot be bound to a campaign run")
        fingerprint = spec_fingerprint(spec, master_seed)
        with self._lock:
            meta = self._read_meta()
            identity = self._identity()
        if not meta and (identity is None or identity[0] == fingerprint):
            self._write_meta(
                {"campaign_name": spec.name, "payload": PAYLOAD,
                 "total_trials": spec.total_trials, "complete": 0},
                new_job=(None if identity is not None else
                         (fingerprint, _encode_spec(spec), int(master_seed))))
            return []
        if identity is None or identity[0] != fingerprint:
            held, seed = identity or ("?", "?")
            raise CampaignStoreError(
                f"{self.path}: store holds campaign "
                f"{meta.get('campaign_name')!r} (master seed {seed}, "
                f"fingerprint {held[:12]}…) but this run is {spec.name!r} "
                f"with fingerprint {fingerprint[:12]}…; a checkpoint is only "
                f"valid for the exact spec and master seed it was created "
                f"with — rerun with the original arguments, or point --store "
                f"at a fresh path")
        if meta.get("payload") != PAYLOAD:
            raise _removed_payload_error(self.path, meta.get("payload"))
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
            ``(trial_index, summary)`` pairs ordered by trial index.
        """
        columns = ", ".join(_SUMMARY_COLUMNS)
        rows = self._read(
            f"SELECT trial_index, label, {columns} FROM trials "
            "WHERE job_id = ? ORDER BY trial_index")
        return [(int(row[0]), TrialSummary.from_record(row[2:], label=row[1]))
                for row in rows]

    def checkpoint_batch(self, results: List[CheckpointRecord]) -> None:
        """Durably commit one retired batch of trials, atomically.

        The executor calls this *before* publishing the batch to the
        in-memory aggregates and the progress callback, so anything the
        user has seen reported is guaranteed to survive a crash.

        Args:
            results: ``(trial_index, summary)`` records of the batch.
        """
        job = self._job
        self._insert_rows([(job, int(index), summary.label)
                           + summary.to_record()
                           for index, summary in results])

    def checkpoint_ring(self, records: "np.ndarray",
                        labels: List[str]) -> None:
        """Durably commit one retired batch straight from the results ring.

        The zero-copy counterpart of :meth:`checkpoint_batch`: ``records``
        is the task's structured-record block of the shared results ring
        (see :func:`repro.campaign.shm.summary_record_dtype`), read in
        place — no :class:`TrialSummary` objects, JSON, or pickling on the
        commit path.

        Args:
            records: The task's record block, already generation-validated.
            labels: Per-record cell labels, aligned with ``records``.
        """
        # One C-level pass converts the whole block to Python scalars;
        # [2:] drops the generation stamp ([0] is the trial index).
        job = self._job
        rows = [(job, row[0], label) + tuple(row[2:])
                for row, label in zip(records.tolist(), labels)]
        self._insert_rows(rows)

    def _insert_rows(self, rows: List[tuple]) -> None:
        """Commit prepared ``(job_id, trial_index, label, ...)`` rows atomically."""
        columns = ", ".join(_SUMMARY_COLUMNS)
        placeholders = ", ".join("?" * (len(_SUMMARY_COLUMNS) + 3))

        def operation() -> None:
            self._conn.executemany(
                f"INSERT OR REPLACE INTO trials "
                f"(job_id, trial_index, label, {columns}) "
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
            self._conn.execute(
                "INSERT OR REPLACE INTO failures "
                "(job_id, trial_index, label, replicate, seed, attempts,"
                " kind, message) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (self._job, int(failure.trial_index), failure.label,
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
            rows = self._read(
                "SELECT trial_index, label, replicate, seed, attempts, kind,"
                " message FROM failures WHERE job_id = ? ORDER BY trial_index")
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
            self._conn.execute(
                "INSERT OR REPLACE INTO estimator"
                " (job_id, kind, identity, state) VALUES (?, ?, ?, ?)",
                (self._job, kind, identity, encoded))
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
            has no checkpoint (including read-only views of pre-v4
            databases, which lack the table entirely).
        """
        try:
            rows = self._read(
                "SELECT state FROM estimator"
                " WHERE job_id = ? AND kind = ? AND identity = ?",
                kind, identity)
        except sqlite3.OperationalError:
            return None
        return json.loads(rows[0][0]) if rows else None

    def mark_complete(self) -> None:
        """Record that every runnable trial of the campaign is checkpointed."""
        def operation() -> None:
            self._conn.execute(
                "INSERT OR REPLACE INTO meta (job_id, key, value) VALUES "
                "(?, 'complete', '1')", (self._job,))
        self._commit(operation, "completion commit")

    def close(self) -> None:
        """Close a one-shot store's database; a shared one stays open."""
        if self._owned:
            self._database.close()

    def __enter__(self) -> "CampaignStore":
        """Return the store itself (context-manager support)."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Close the store on context exit."""
        self.close()
