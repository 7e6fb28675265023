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
restart recovery trivial: on startup the service reads the ``jobs``
rows, registers finished jobs as COMPLETE with their aggregates rebuilt
from their checkpoints and cancelled jobs as CANCELLED, and re-enqueues
the rest —
``run_campaign(resume=True)`` then replays the checkpointed prefix and
simulates only the remainder, preserving the repo's bit-identity contract
across a mid-job SIGKILL of the daemon itself.

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
import heapq
import json
import os
import queue
import signal
import socket
import threading
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.campaign.aggregate import CampaignResult
from repro.campaign.executor import (CampaignCancelled, CampaignPool,
                                     run_campaign)
from repro.campaign.service import protocol
from repro.campaign.service.events import EventBus, cell_json
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import PAYLOAD, StoreDatabase, spec_fingerprint

#: How often (seconds) blocking loops wake to check stop/cancel flags.
_POLL_INTERVAL = 0.2

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


@dataclass
class Job:
    """One submitted campaign and everything the service knows about it.

    ``spec`` and ``cancel`` are only needed until the job ends; :meth:`finish`
    drops them, so a finished job keeps just its status fields and frozen
    event snapshot.
    """

    fingerprint: str
    job_id: int
    spec: Optional[CampaignSpec]
    master_seed: int
    priority: int
    seq: int
    state: JobState = JobState.QUEUED
    error: Optional[str] = None
    pool_pids: Tuple[int, ...] = ()
    cells: List[dict] = field(default_factory=list)
    bus: EventBus = None  # type: ignore[assignment]  # set in __post_init__
    cancel: Optional[threading.Event] = field(default_factory=threading.Event)
    name: str = field(init=False)
    total_trials: int = field(init=False)

    def __post_init__(self) -> None:
        self.name = self.spec.name
        self.total_trials = self.spec.total_trials
        if self.bus is None:
            self.bus = EventBus(self.total_trials)

    def finish(self, state: JobState) -> None:
        """Enter terminal ``state`` and release what only a live job needs.

        Call with the service lock held.
        """
        self.state = state
        self.spec = None
        self.cancel = None

    def done_event(self) -> dict:
        """The terminal ``done`` event of a finished job."""
        done = {"event": "done", "state": self.state.value}
        if self.error is not None:
            done["error"] = self.error
        return done

    def to_json(self, store_status: Optional[dict] = None) -> dict:
        """Encode the job for a ``status`` response.

        Args:
            store_status: The job store's
                :meth:`~repro.campaign.store.CheckpointStatus.to_json`
                snapshot, when the caller read one.

        Returns:
            The JSON-ready job description.
        """
        body = {
            "job": self.fingerprint,
            "name": self.name,
            "state": self.state.value,
            "priority": self.priority,
            "total_trials": self.total_trials,
            "pool_pids": list(self.pool_pids),
            "cells": self.cells,
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

        No socket is opened yet; :meth:`serve` binds it and closes the
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
        self._jobs: Dict[str, Job] = {}
        self._queue: List[Tuple[int, int, str]] = []  # (-priority, seq, fp)
        self._seq = 0
        self._stopping = False
        self._runner: Optional[threading.Thread] = None
        os.makedirs(self.stores_dir, exist_ok=True)
        self._db = StoreDatabase(os.path.join(self.stores_dir,
                                              DATABASE_NAME))
        self._recover()

    # -- startup recovery --------------------------------------------------

    def _recover(self) -> None:
        """Re-register every job recorded in the database.

        Finished jobs come back as COMPLETE entries whose cells are
        folded from their checkpoints, and cancelled jobs as CANCELLED;
        the others are re-enqueued for a ``resume=True`` run (the store
        replays its checkpointed prefix, so nothing simulated before the
        crash is simulated again).
        """
        for (job_id, fingerprint, encoded, master_seed, priority,
             complete, cancelled) in self._db.jobs():
            try:
                spec = protocol.decode_spec(json.loads(encoded))
            except (TypeError, ValueError, protocol.ProtocolError):
                continue
            job = Job(fingerprint=fingerprint, job_id=job_id, spec=spec,
                      master_seed=master_seed, priority=priority,
                      seq=self._next_seq())
            if complete:
                summaries = tuple(summary for _, summary
                                  in self._db.store(job_id).replay())
                result = CampaignResult(spec=spec, master_seed=master_seed,
                                        workers=0, wall_time=0.0,
                                        summaries=summaries)
                job.cells = [cell_json(group) for group in result.groups()]
                job.finish(JobState.COMPLETE)
                job.bus.close(job.done_event(), job.cells)
            elif cancelled:
                job.finish(JobState.CANCELLED)
                job.bus.close(job.done_event())
            else:
                heapq.heappush(self._queue,
                               (-job.priority, job.seq, fingerprint))
            self._jobs[fingerprint] = job

    def _next_seq(self) -> int:
        """Return the next submission sequence number (FIFO tiebreaker)."""
        self._seq += 1
        return self._seq

    # -- job execution -----------------------------------------------------

    def _runner_loop(self) -> None:
        """Execute queued jobs one at a time until asked to stop."""
        while True:
            with self._lock:
                while not self._queue and not self._stopping:
                    self._lock.wait(_POLL_INTERVAL)
                if self._stopping:
                    return
                _, _, fingerprint = heapq.heappop(self._queue)
                job = self._jobs[fingerprint]
                if job.state is not JobState.QUEUED:
                    continue
                job.state = JobState.RUNNING
            job.bus.state(JobState.RUNNING.value)
            self._run_job(job)
            with self._lock:
                self._lock.notify_all()

    def _run_job(self, job: Job) -> None:
        """Run one job to a terminal state on the shared warm pool.

        Args:
            job: The job to execute (already marked RUNNING).
        """
        final: JobState
        try:
            store = self._db.store(job.job_id)
            store.on_commit = job.bus.checkpoint
            try:
                result = run_campaign(
                    job.spec, seed=job.master_seed,
                    max_workers=self.pool.max_workers,
                    store=store, resume=True, pool=self.pool,
                    stop=job.cancel.is_set,
                    on_result=job.bus.trial_done,
                    on_event=job.bus.recovery)
            finally:
                store.close()
            job.cells = [cell_json(group) for group in result.groups()]
            job.pool_pids = self.pool.worker_pids()
            final = JobState.COMPLETE
        except CampaignCancelled:
            self._db.mark_cancelled(job.job_id)
            final = JobState.CANCELLED
        except Exception as exc:  # noqa: BLE001 - a job must never kill the daemon
            job.error = f"{type(exc).__name__}: {exc}"
            traceback.print_exc()
            final = JobState.FAILED
        with self._lock:
            job.finish(final)
        job.bus.close(job.done_event(), job.cells)

    # -- request handlers --------------------------------------------------

    def _find_job(self, token: str) -> Job:
        """Resolve a job by full fingerprint or unambiguous prefix.

        Args:
            token: A fingerprint, or a prefix of one.

        Returns:
            The matching job.

        Raises:
            KeyError: If no job matches, or the prefix is ambiguous.
        """
        if token in self._jobs:
            return self._jobs[token]
        matches = [job for fp, job in self._jobs.items()
                   if fp.startswith(token)]
        if not matches:
            raise KeyError(f"no job matches {token!r}")
        if len(matches) > 1:
            raise KeyError(f"job prefix {token!r} is ambiguous "
                           f"({len(matches)} matches)")
        return matches[0]

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
            existing = self._jobs.get(fingerprint)
            if existing is not None:
                return protocol.ok(job=fingerprint,
                                   state=existing.state.value,
                                   duplicate=True)
            # The fingerprint above canonicalized the spec; the jobs row
            # and the store's binding check reuse that encoding.
            job_id = self._db.add_job(fingerprint, spec, master_seed,
                                      priority)
            job = Job(fingerprint=fingerprint, job_id=job_id, spec=spec,
                      master_seed=master_seed,
                      priority=priority, seq=self._next_seq())
            self._jobs[fingerprint] = job
            heapq.heappush(self._queue, (-priority, job.seq, fingerprint))
            position = len(self._queue)
            self._lock.notify_all()
        return protocol.ok(job=fingerprint, state=JobState.QUEUED.value,
                           position=position)

    def _handle_status(self, message: dict) -> dict:
        """Report one job's status, or the whole service's."""
        token = message.get("job")
        if token is None:
            with self._lock:
                jobs = [job.to_json() for job in
                        sorted(self._jobs.values(), key=lambda j: j.seq)]
                queued = len(self._queue)
            return protocol.ok(jobs=jobs, queued=queued,
                               pool_pids=list(self.pool.worker_pids()),
                               stores_dir=self.stores_dir)
        try:
            with self._lock:
                job = self._find_job(str(token))
        except KeyError as exc:
            return protocol.error(str(exc))
        snapshot = self._db.store(job.job_id).status()
        return protocol.ok(**job.to_json(
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
                    job.finish(JobState.CANCELLED)
        except KeyError as exc:
            return protocol.error(str(exc))
        if job.state is JobState.CANCELLED:
            job.bus.close(job.done_event())
        return protocol.ok(job=job.fingerprint, state=job.state.value)

    def _handle_drain(self, message: dict) -> dict:
        """Block until every accepted job reaches a terminal state."""
        with self._lock:
            while any(job.state not in TERMINAL_STATES
                      for job in self._jobs.values()):
                self._lock.wait(_POLL_INTERVAL)
            states = {job.fingerprint: job.state.value
                      for job in self._jobs.values()}
        return protocol.ok(jobs=states)

    def _handle_watch(self, sock: socket.socket, message: dict) -> None:
        """Stream one job's events until its terminal event (or EOF)."""
        try:
            with self._lock:
                job = self._find_job(str(message.get("job", "")))
        except KeyError as exc:
            protocol.send_frame(sock, protocol.error(str(exc)))
            return
        protocol.send_frame(sock, protocol.ok(job=job.fingerprint,
                                              state=job.state.value))
        subscriber = job.bus.subscribe()
        try:
            while True:
                try:
                    event = subscriber.get(timeout=_POLL_INTERVAL)
                except queue.Empty:
                    with self._lock:
                        if self._stopping:
                            return
                    continue
                protocol.send_frame(sock, event)
                if event.get("event") == "done":
                    return
        except OSError:
            return  # subscriber went away; nothing to clean up but the queue
        finally:
            job.bus.unsubscribe(subscriber)

    # -- socket plumbing ---------------------------------------------------

    def _handle_connection(self, sock: socket.socket) -> None:
        """Serve one client connection (one or more request frames)."""
        with sock:
            while True:
                try:
                    message = protocol.recv_frame(sock)
                except protocol.ProtocolError as exc:
                    try:
                        protocol.send_frame(sock, protocol.error(str(exc)))
                    except OSError:
                        pass
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
                    if op == "submit":
                        response = self._handle_submit(message)
                    elif op == "status":
                        response = self._handle_status(message)
                    elif op == "cancel":
                        response = self._handle_cancel(message)
                    elif op == "drain":
                        response = self._handle_drain(message)
                    elif op == "shutdown":
                        response = protocol.ok(stopping=True)
                        protocol.send_frame(sock, response)
                        self.initiate_shutdown()
                        return
                    else:
                        response = protocol.error(
                            f"unknown operation {op!r}")
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

    def initiate_shutdown(self) -> None:
        """Ask the accept loop and the runner to stop.

        Graceful: the currently running job (if any) finishes first;
        still-queued jobs stay durably recorded in the database and are
        re-enqueued by the next daemon start.
        """
        with self._lock:
            self._stopping = True
            self._lock.notify_all()

    def serve(self) -> None:
        """Bind the socket and serve requests until shutdown.

        Installs SIGTERM/SIGINT handlers (main thread only) that trigger
        the same graceful shutdown as the ``shutdown`` operation.  The
        socket file is unlinked, the warm pool torn down and the
        database closed on the way out.
        """
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)
        server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        server.bind(self.socket_path)
        server.listen(16)
        server.settimeout(_POLL_INTERVAL)
        self._runner = threading.Thread(target=self._runner_loop,
                                        name="campaign-runner", daemon=True)
        self._runner.start()
        if threading.current_thread() is threading.main_thread():
            for signum in (signal.SIGTERM, signal.SIGINT):
                signal.signal(signum,
                              lambda *_: self.initiate_shutdown())
        handlers: List[threading.Thread] = []
        try:
            while True:
                with self._lock:
                    if self._stopping:
                        break
                try:
                    sock, _ = server.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break
                thread = threading.Thread(target=self._handle_connection,
                                          args=(sock,), daemon=True)
                thread.start()
                handlers = [t for t in handlers if t.is_alive()]
                handlers.append(thread)
        finally:
            server.close()
            if os.path.exists(self.socket_path):
                os.unlink(self.socket_path)
            if self._runner is not None:
                self._runner.join(timeout=30.0)
            for thread in handlers:
                thread.join(timeout=1.0)
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
