"""The campaign service daemon: queued jobs over one warm worker pool.

``python -m repro.campaign serve --socket PATH --stores-dir DIR`` runs a
:class:`CampaignService`: a unix-socket server that accepts
:class:`~repro.campaign.spec.CampaignSpec` submissions, queues them by
priority, and executes them one at a time on a single warm
:class:`~repro.campaign.executor.CampaignPool` — so back-to-back jobs
skip process-pool spin-up entirely (the integration tests assert the
worker PIDs are identical across jobs).

Job identity *is* the spec fingerprint
(:func:`~repro.campaign.store.spec_fingerprint` over the canonical
``(spec, master_seed)`` encoding).  The service opens one WAL database,
``<stores-dir>/jobs.db``, when it is constructed and keeps it until
shutdown: a submission is one durable ``jobs`` row, and each job's
checkpoints are rows keyed by that job's id.  That makes submission
idempotent (re-submitting a spec returns the existing job) and makes
restart recovery trivial: on startup the service reads the ``jobs`` rows
and re-enqueues every job that neither completed nor was cancelled —
``run_campaign(resume=True)`` then replays the checkpointed prefix and
simulates only the remainder, preserving the repo's bit-identity contract
across a mid-job SIGKILL of the daemon itself.

A finished job lives only in the database: a job that completes or is
cancelled leaves memory, and every later read of it resolves its
``jobs`` row and rebuilds its cells from its checkpoints.  Stopping wakes
what it waits for instead of polling (see
:meth:`CampaignService.initiate_shutdown`).

Job lifecycle::

    QUEUED ──▶ RUNNING ──▶ COMPLETE
      │            ├─────▶ FAILED
      └────────────┴─────▶ CANCELLED

COMPLETE and CANCELLED are durable (``complete`` and ``cancelled`` meta
rows); a FAILED job is re-enqueued by the next start.

See ``docs/service.md`` for the wire protocol and operational guidance.
"""

from __future__ import annotations

import enum
import functools
import heapq
import json
import os
import signal
import socket
from contextlib import suppress
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.campaign.aggregate import CampaignResult
from repro.campaign.executor import (CampaignCancelled, CampaignPool,
                                     run_campaign)
from repro.campaign.service import protocol
from repro.campaign.service.events import EventBus, cell_json
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import (PAYLOAD, JobRow, StoreDatabase,
                                  spec_fingerprint)

#: File name of the service's database inside its stores directory.
DATABASE_NAME = "jobs.db"


class JobState(enum.Enum):
    """Lifecycle states of a service job, in order of appearance."""

    QUEUED = "queued"
    RUNNING = "running"
    COMPLETE = "complete"
    FAILED = "failed"
    CANCELLED = "cancelled"


#: States from which a job can never leave.
TERMINAL_STATES = (JobState.COMPLETE, JobState.FAILED, JobState.CANCELLED)


@functools.lru_cache(maxsize=128)
def _decode_row_spec(text: str) -> Optional[CampaignSpec]:
    """The spec a ``jobs`` row stores as JSON ``text`` (``None``: bad spec).

    Memoized by the text: the overview decodes every finished job on each
    call, and the jobs of one spec share one decode.  Specs are frozen,
    so the jobs can share the decoded object.
    """
    try:
        return protocol.decode_spec(json.loads(text))
    except (TypeError, ValueError, protocol.ProtocolError):
        return None


def _finished_state(row: JobRow) -> Optional[JobState]:
    """The durable terminal state a ``jobs`` row records, if any."""
    if row.complete:
        return JobState.COMPLETE
    return JobState.CANCELLED if row.cancelled else None


@dataclass
class Job:
    """One submitted campaign; the service keeps only live ones in memory."""

    fingerprint: str
    job_id: int
    spec: CampaignSpec
    master_seed: int
    priority: int
    state: JobState = JobState.QUEUED
    error: Optional[str] = None
    bus: Optional[EventBus] = field(init=False)  # until the job ends
    cancel: threading.Event = field(default_factory=threading.Event)

    def __post_init__(self) -> None:
        self.bus = (None if self.state in TERMINAL_STATES
                    else EventBus(self.spec.total_trials))

    @classmethod
    def from_row(cls, row: JobRow) -> Optional["Job"]:
        """Decode a job in the state its row records (``None``: bad spec)."""
        spec = _decode_row_spec(row.spec)
        if spec is None:
            return None
        return cls(fingerprint=row.fingerprint, job_id=row.id, spec=spec,
                   master_seed=row.master_seed, priority=row.priority,
                   state=_finished_state(row) or JobState.QUEUED)

    def done_event(self) -> dict:
        """The terminal ``done`` event of a finished job."""
        done = {"event": "done", "state": self.state.value}
        if self.error is not None:
            done["error"] = self.error
        return done

    def to_json(self, cells: List[dict],
                store_status: Optional[dict] = None) -> dict:
        """Encode the job for a ``status`` response.

        ``cells`` are empty until the job ends; ``store_status`` is its
        store's ``CheckpointStatus`` JSON, when the caller read one.
        """
        body = {
            "job": self.fingerprint,
            "name": self.spec.name,
            "state": self.state.value,
            "priority": self.priority,
            "total_trials": self.spec.total_trials,
            "cells": cells,
        }
        if self.error is not None:
            body["error"] = self.error
        if store_status is not None:
            body["store"] = store_status
        return body


class CampaignService:
    """A long-running campaign job server on a unix socket.

    One instance owns the socket, the priority queue, the warm worker
    pool, and the stores directory's database.  :meth:`serve` runs the
    accept loop in the calling thread until a ``shutdown`` request (or
    SIGTERM / SIGINT) stops it; jobs execute sequentially on a dedicated
    runner thread so a slow campaign never blocks status queries.
    """

    def __init__(self, socket_path: str | os.PathLike,
                 stores_dir: str | os.PathLike, *,
                 max_workers: int = 2) -> None:
        """Open the stores directory's database and recover its jobs.

        The socket is not bound yet; :meth:`serve` binds it and closes the
        database on the way out.

        Args:
            socket_path: Unix socket path to listen on; a stale socket
                file from a killed daemon is replaced on startup.
            stores_dir: Directory of the service's database (created if
                missing).
            max_workers: Worker-process count of the shared warm pool.
        """
        self.socket_path = os.fspath(socket_path)
        self.stores_dir = os.fspath(stores_dir)
        self.pool = CampaignPool(max_workers)
        self._lock = threading.Condition()
        self._jobs: Dict[str, Job] = {}  # the live jobs only
        self._queue: List[Tuple[int, int, str]] = []  # (-priority, id, fp)
        self._stopping = False
        self._runner: Optional[threading.Thread] = None
        self._waiting: Set[socket.socket] = set()  # idle or watching
        os.makedirs(self.stores_dir, exist_ok=True)
        self._db = StoreDatabase(os.path.join(self.stores_dir,
                                              DATABASE_NAME))
        self._recover()
        self._server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)

    # -- startup recovery --------------------------------------------------

    def _recover(self) -> None:
        """Re-enqueue every unfinished job: its ``resume=True`` run replays
        its checkpoints, so nothing simulated before a crash runs again."""
        for row in self._db.jobs():
            job = None if _finished_state(row) else Job.from_row(row)
            if job is not None:
                self._enqueue(job)

    def _enqueue(self, job: Job) -> None:
        """Register a queued job and push it onto the priority queue."""
        self._jobs[job.fingerprint] = job
        heapq.heappush(self._queue, (-job.priority, job.job_id,
                                     job.fingerprint))

    # -- job execution -----------------------------------------------------

    def _runner_loop(self) -> None:
        """Execute queued jobs one at a time until asked to stop."""
        while True:
            with self._lock:
                while not self._queue and not self._stopping:
                    self._lock.wait()
                if self._stopping:
                    return
                _, _, fingerprint = heapq.heappop(self._queue)
                job = self._jobs[fingerprint]
                job.state = JobState.RUNNING
            job.bus.state(JobState.RUNNING.value)
            self._run_job(job)

    def _run_job(self, job: Job) -> None:
        """Run one RUNNING job to a terminal state on the warm pool."""
        try:
            store = self._db.store(job.job_id)
            store.on_commit = job.bus.checkpoint
            try:
                run_campaign(
                    job.spec, seed=job.master_seed,
                    max_workers=self.pool.max_workers,
                    store=store, resume=True, pool=self.pool,
                    stop=job.cancel.is_set,
                    on_result=job.bus.trial_done,
                    on_event=job.bus.recovery)
            finally:
                store.close()
            final = JobState.COMPLETE
        except CampaignCancelled:
            self._db.mark_cancelled(job.job_id)
            final = JobState.CANCELLED
        except Exception as exc:  # noqa: BLE001 - a job must never kill the daemon
            job.error = f"{type(exc).__name__}: {exc}"
            traceback.print_exc()
            final = JobState.FAILED
        with self._lock:
            self._end(job, final)

    def _end(self, job: Job, state: JobState) -> None:
        """Move a live job to terminal ``state`` (service lock held).

        Its bus closes and a finished job leaves memory under the lock
        :meth:`_handle_watch` subscribes under, so a watcher either gets
        this ``done`` event or reads the job from the database.  A FAILED
        job stays in memory, but is read as a finished one.
        """
        job.state = state
        job.bus.close(job.done_event())
        job.bus = None
        if state is not JobState.FAILED:
            del self._jobs[job.fingerprint]
        self._lock.notify_all()

    # -- finished jobs -----------------------------------------------------

    def _cells(self, job: Job) -> List[dict]:
        """A job's cells: an ended job's rebuilt from its checkpoints.

        The one rebuild: replay the checkpointed trials and fold them
        through ``CampaignResult.groups()``, as the job's own run did.
        """
        if job.state not in TERMINAL_STATES:
            return []
        summaries = tuple(summary for _, summary
                          in self._db.store(job.job_id).replay())
        result = CampaignResult(spec=job.spec, master_seed=job.master_seed,
                                workers=0, wall_time=0.0, summaries=summaries)
        return [cell_json(group) for group in result.groups()]

    def _known(self, prefix: str = "") -> List[Tuple[JobRow, Optional[Job]]]:
        """``(row, live job or None)`` of each live or finished job whose
        fingerprint starts with ``prefix``, by submission (lock held)."""
        return [(row, self._jobs.get(row.fingerprint))
                for row in self._db.jobs(prefix)
                if row.fingerprint in self._jobs or _finished_state(row)]

    # -- request handlers --------------------------------------------------

    def _find_job(self, token: str) -> Job:
        """Resolve a job by full fingerprint or unambiguous prefix.

        Call with the service lock held.

        Raises:
            KeyError: If no job matches, or the prefix is ambiguous.
        """
        if token in self._jobs:
            return self._jobs[token]
        matches = self._known(token)
        if len(matches) > 1:
            raise KeyError(f"job prefix {token!r} is ambiguous "
                           f"({len(matches)} matches)")
        for row, live in matches:
            job = live or Job.from_row(row)
            if job is not None:
                return job
        raise KeyError(f"no job matches {token!r}")

    def _handle_submit(self, message: dict) -> dict:
        """Queue one campaign submission (idempotent by fingerprint)."""
        spec = protocol.decode_spec(message["spec"])
        master_seed = int(message.get("master_seed", 0))
        payload = str(message.get("payload", PAYLOAD))
        if payload != PAYLOAD:
            return protocol.error(f"unknown payload kind {payload!r}; "
                                  f"only {PAYLOAD!r} is supported")
        priority = int(message.get("priority", 0))
        fingerprint = spec_fingerprint(spec, master_seed)
        with self._lock:
            if self._stopping:
                return protocol.error("service is shutting down")
            for row, live in self._known(fingerprint):
                state = live.state if live else _finished_state(row)
                return protocol.ok(job=fingerprint, state=state.value,
                                   duplicate=True)
            # The fingerprint above canonicalized the spec; the jobs row
            # and the store's binding check reuse that encoding.
            job_id = self._db.add_job(fingerprint, spec, master_seed,
                                      priority)
            self._enqueue(Job(fingerprint=fingerprint, job_id=job_id,
                              spec=spec, master_seed=master_seed,
                              priority=priority))
            position = len(self._queue)
            self._lock.notify_all()
        return protocol.ok(job=fingerprint, state=JobState.QUEUED.value,
                           position=position)

    def _handle_status(self, message: dict) -> dict:
        """Report one job's status, or the whole service's."""
        token = message.get("job")
        if token is None:
            with self._lock:
                known = self._known()
                queued = len(self._queue)
            jobs = [live or Job.from_row(row) for row, live in known]
            return protocol.ok(jobs=[job.to_json(self._cells(job))
                                     for job in jobs if job is not None],
                               queued=queued,
                               pool_pids=list(self.pool.worker_pids()),
                               stores_dir=self.stores_dir)
        try:
            with self._lock:
                job = self._find_job(str(token))
        except KeyError as exc:
            return protocol.error(str(exc))
        snapshot = self._db.store(job.job_id).status()
        return protocol.ok(**job.to_json(
            self._cells(job),
            snapshot.to_json() if snapshot is not None else None))

    def _handle_cancel(self, message: dict) -> dict:
        """Cancel one job: immediately if queued, cooperatively if running."""
        try:
            with self._lock:
                job = self._find_job(str(message.get("job", "")))
                if job.state in TERMINAL_STATES:
                    return protocol.ok(job=job.fingerprint,
                                       state=job.state.value)
                job.cancel.set()
                if job.state is JobState.QUEUED:
                    self._db.mark_cancelled(job.job_id)
                    self._queue.remove((-job.priority, job.job_id,
                                        job.fingerprint))
                    heapq.heapify(self._queue)
                    self._end(job, JobState.CANCELLED)
        except KeyError as exc:
            return protocol.error(str(exc))
        return protocol.ok(job=job.fingerprint, state=job.state.value)

    def _handle_drain(self, message: dict) -> dict:
        """Block until every accepted job reaches a terminal state."""
        with self._lock:
            while not self._stopping and any(
                    job.state not in TERMINAL_STATES
                    for job in self._jobs.values()):
                self._lock.wait()
            if self._stopping:
                return protocol.error("service is shutting down")
            states = {row.fingerprint:
                      (live.state if live else _finished_state(row)).value
                      for row, live in self._known()}
        return protocol.ok(jobs=states)

    def _handle_watch(self, sock: socket.socket, message: dict) -> None:
        """Stream one job's events until its terminal event, EOF or a stop.

        An ended job's stream is its rebuilt cells, then its ``done`` event.
        """
        subscriber = None
        try:
            with self._lock:
                job = self._find_job(str(message.get("job", "")))
                bus = job.bus
                if bus is not None:
                    subscriber = bus.subscribe()
                    if self._stopping:
                        subscriber.put(None)
        except KeyError as exc:
            protocol.send_frame(sock, protocol.error(str(exc)))
            return
        try:
            protocol.send_frame(sock, protocol.ok(job=job.fingerprint,
                                                  state=job.state.value))
            if subscriber is None:
                cells = self._cells(job)
                protocol.send_frame(sock, {
                    "event": "snapshot",
                    "done": sum(cell["trials"] for cell in cells),
                    "total": job.spec.total_trials, "cells": cells})
                protocol.send_frame(sock, job.done_event())
                return
            while True:
                event = subscriber.get()
                if event is None:
                    return  # the service is stopping
                protocol.send_frame(sock, event)
                if event.get("event") == "done":
                    return
        except OSError:
            return  # the client went away
        finally:
            if subscriber is not None:
                bus.unsubscribe(subscriber)

    # -- socket plumbing ---------------------------------------------------

    def _handle_connection(self, sock: socket.socket) -> None:
        """Serve one client connection (one or more request frames)."""
        try:
            while True:
                with self._lock:
                    if self._stopping:
                        return
                    self._waiting.add(sock)
                try:
                    message = protocol.recv_frame(sock)
                except protocol.ProtocolError as exc:
                    with suppress(OSError):
                        protocol.send_frame(sock, protocol.error(str(exc)))
                    return
                except OSError:
                    return  # the client went away (say, mid-watch)
                if message is None:
                    return
                try:
                    protocol.check_version(message)
                    op = message.get("op")
                    if op == "watch":
                        self._handle_watch(sock, message)
                        continue
                    with self._lock:  # a stop spares a reply (a drain's)
                        self._waiting.discard(sock)
                    if op == "shutdown":
                        protocol.send_frame(sock, protocol.ok(stopping=True))
                        self.initiate_shutdown()
                        return
                    handler = {"submit": self._handle_submit,
                               "status": self._handle_status,
                               "cancel": self._handle_cancel,
                               "drain": self._handle_drain}.get(op)
                    response = (handler(message) if handler is not None else
                                protocol.error(f"unknown operation {op!r}"))
                except protocol.ProtocolError as exc:
                    response = protocol.error(str(exc))
                except Exception as exc:  # noqa: BLE001 - report, don't die
                    traceback.print_exc()
                    response = protocol.error(
                        f"{type(exc).__name__}: {exc}")
                try:
                    protocol.send_frame(sock, response)
                except OSError:
                    return
        finally:
            with self._lock:
                self._waiting.discard(sock)
            sock.close()

    def initiate_shutdown(self) -> None:
        """Stop accepting requests and wake everything that waits.

        Graceful: the running job (if any) finishes first; queued jobs stay
        durably recorded for the next start.  Every job's stream ends, and
        shutting sockets down fails a blocked ``accept``, read or ``watch``
        send, even where forked pool workers hold copies of a client's end.
        """
        with self._lock:
            self._stopping = True
            self._lock.notify_all()
            for job in self._jobs.values():
                if job.bus is not None:
                    job.bus.publish(None)
            for sock in (self._server, *self._waiting):
                with suppress(OSError):  # not listening yet, or peer gone
                    sock.shutdown(socket.SHUT_RDWR)

    def serve(self) -> None:
        """Bind the socket and serve requests until shutdown.

        Installs SIGTERM/SIGINT handlers (main thread only) that trigger
        the same graceful shutdown as the ``shutdown`` operation.  The
        socket file is unlinked, the warm pool torn down and the
        database closed on the way out.
        """
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)
        server = self._server
        server.bind(self.socket_path)
        server.listen(16)
        self._runner = threading.Thread(target=self._runner_loop,
                                        name="campaign-runner", daemon=True)
        self._runner.start()
        if threading.current_thread() is threading.main_thread():
            for signum in (signal.SIGTERM, signal.SIGINT):
                signal.signal(signum,
                              lambda *_: self.initiate_shutdown())
        handlers: List[threading.Thread] = []
        try:
            while not self._stopping:
                try:
                    sock, _ = server.accept()
                except OSError:
                    break  # initiate_shutdown shut the socket down
                thread = threading.Thread(target=self._handle_connection,
                                          args=(sock,), daemon=True)
                thread.start()
                handlers = [t for t in handlers if t.is_alive()]
                handlers.append(thread)
        finally:
            server.close()
            if os.path.exists(self.socket_path):
                os.unlink(self.socket_path)
            self._runner.join(timeout=30.0)
            # Only a reply its client never reads can still block a handler.
            deadline = time.monotonic() + 1.0
            for thread in handlers:
                thread.join(max(0.0, deadline - time.monotonic()))
            self.pool.shutdown()
            self._db.close()


def serve_main(socket_path: str, stores_dir: str, *,
               max_workers: int = 2) -> int:
    """Run a campaign service daemon in the foreground.

    Args:
        socket_path: Unix socket path to listen on.
        stores_dir: Directory of the service's database.
        max_workers: Worker-process count of the shared warm pool.

    Returns:
        Process exit status (0 after a graceful shutdown).
    """
    service = CampaignService(socket_path, stores_dir,
                              max_workers=max_workers)
    service.serve()
    return 0
