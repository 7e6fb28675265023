"""Monte-Carlo campaign execution with self-healing supervision.

Every campaign runs through one dispatch loop, the :class:`_Supervisor`,
over one of two backends with the same ``make_pool``/``submit``/``close``
contract:

* the **in-process backend** (``max_workers=1``, or a single task without
  ``pool=``) runs each batch in this process the moment it is submitted
  and hands back an already-settled future, so the loop degenerates to a
  plain serial loop: window 1, no deadline, no pickling;
* a **pool lease** (:meth:`CampaignPool.lease`) runs batches on worker
  processes.  A multi-worker run builds a private :class:`CampaignPool`
  and shuts it down when it returns; the campaign service passes its one
  warm pool in through ``pool=`` and keeps it across jobs.  Either way
  the job's spec, payload mode, engine and fault plan reach the workers
  once, through a pickled spool file each worker loads on its first batch
  of the job (:func:`_run_batch_in_worker`, the single worker entry
  point).

Trials are embarrassingly parallel: every run's seed is derived from the
campaign master seed and the run's position in the spec, never from
scheduling, so any backend and worker count yields bit-identical
aggregates.

The unit of dispatch is a **batch**: a chunk of replicates of one campaign
cell, shipped as ``(spec_index, (index, replicate, seed), ...)`` tuples.
Each worker lowers a cell's hybrid model once (the per-process cache in
:mod:`repro.casestudy.emulation`) and reuses it for every trial of that
cell.  With ``engine="batched"`` the replicates of a chunk additionally
execute in vectorized lockstep as lanes of one
:class:`~repro.hybrid.simulate.batched.BatchedEngine`.

Results stream back as batches complete (``on_result`` fires once per trial
in completion order, for progress reporting); the final
:class:`CampaignResult` orders summaries by trial index, making every
derived statistic order-independent.

With a :class:`~repro.campaign.store.CampaignStore` attached, every retired
batch is additionally committed to the store *before* it is published, and
a resumed run replays the checkpointed prefix through the exact same
aggregation path — see :mod:`repro.campaign.store` and
``docs/checkpoint-format.md``.

The supervisor survives the failure modes of long campaigns instead of
aborting on them:

* a batch that *fails* (an exception from inside a trial) is bisected
  until the offending trial is isolated; the offender is retried up to
  ``max_retries`` times and then **quarantined** — recorded as a
  structured :class:`~repro.campaign.faults.TrialFailure` row in the
  store's ``failures`` table — while the campaign carries on;
* a worker that dies mid-batch (``BrokenProcessPool``) gets the pool
  respawned and its batch rescheduled, against a bounded respawn budget;
* a worker that hangs past ``batch_deadline`` seconds is killed together
  with its pool, the hung batch is charged a failure, and the innocent
  in-flight batches are resubmitted without penalty;
* when several batches are in flight at a pool break, blame is imprecise:
  the suspects are re-run one at a time (an *isolation* queue) without
  being charged an attempt, so an innocent batch can never be quarantined
  by a neighbour's crash.

Because every trial's seed travels inside its task triple, a retried or
rescheduled trial reproduces its original result exactly, and the
aggregates of a faulted-but-recovered run are bit-identical to a clean
serial reference (minus quarantined trials, which are reported, not
silently dropped).  Deterministic fault injection for all of these paths
is one :class:`~repro.campaign.faults.FaultPlan`.

**Service mode** (:mod:`repro.campaign.service`) runs many campaigns on one
warm :class:`CampaignPool`: ``run_campaign(pool=...)`` executes on the
externally owned pool without tearing it down, ``stop=`` gives the caller
a cooperative cancel (:class:`CampaignCancelled`, resumable store), and
``on_event=`` streams recovery events live instead of only on the final
result.  Results are bit-identical to a dedicated-pool run.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import shutil
import signal
import tempfile
import threading
import time
from collections import deque
from concurrent.futures import (FIRST_COMPLETED, Future,
                                ProcessPoolExecutor, wait)
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Deque, Dict, List, Sequence, Tuple

from repro.campaign import shm as shm_plane
from repro.campaign.aggregate import CampaignResult, TrialSummary
from repro.campaign.faults import (BatchContext, FaultPlan, InjectedTrialFault,
                                   TrialFailure, resolve_fault_plan)
from repro.campaign.spec import CampaignSpec, TrialRun
from repro.campaign.store import (CampaignStore, CampaignStoreError,
                                  RecoveryStage, RecoveryStateMachine)
from repro.casestudy.config import CaseStudyConfig
from repro.casestudy.emulation import (TrialResult, _lowered_case_study,
                                       run_trial, run_trial_batch)
from repro.hybrid.simulate import resolve_engine_kind
from repro.hybrid.simulate.batched import build_batched_tables

#: Payload modes, in increasing weight:
#:
#: * ``"summary"`` -- slim :class:`TrialSummary` records only (default);
#: * ``"stats"``  -- additionally the full :class:`TrialResult` per trial,
#:   with monitor report and lease ledger computed by the streaming
#:   observer pipeline (no trace is ever materialised, so worker memory
#:   stays flat regardless of the horizon);
#: * ``"full"``   -- like ``"stats"`` but through the legacy record-a-trace
#:   path (the post-hoc oracle; heavier, numbers identical).  The trace is
#:   dropped before the result leaves the worker.
PAYLOAD_KINDS = ("summary", "stats", "full")

#: Keep at most this many batch futures in flight per worker, so that
#: expanding a 100x campaign does not materialize every pending future up
#: front.
_INFLIGHT_PER_WORKER = 4

#: Largest replicate batch the auto heuristic will put in lockstep; beyond
#: this the vector win flattens while latency and memory keep growing.
_MAX_AUTO_BATCH = 64

#: Below this many lanes the auto heuristic keeps per-trial dispatch even
#: with the batched kernel: micro-calibration (``benchmarks/bench_batched``)
#: shows the vectorized dispatch overhead dominating below ~16 lanes, so a
#: small cell is faster on the scalar path inside each worker.  Explicit
#: ``batch_size`` values are always honoured as given.
MIN_LOCKSTEP_LANES = 16

#: Campaign-level engine default.  Direct engine construction stays on the
#: reference kernel (the executable specification); campaigns default to
#: the soaked compiled kernel.  ``REPRO_ENGINE=reference`` or
#: ``--engine reference`` are the escape hatches.
DEFAULT_CAMPAIGN_ENGINE = "compiled"

#: Default per-trial retry budget: a trial that fails this many times
#: *beyond* its first attempt is quarantined.
DEFAULT_MAX_RETRIES = 2

#: Default pool-respawn budget: more broken pools than this in one run
#: aborts the campaign with :class:`CampaignExecutionError` (the
#: checkpoint store still holds everything retired so far).
DEFAULT_MAX_RESPAWNS = 8

#: One dispatched batch: a campaign-cell index plus (index, replicate,
#: seed) triples of the chunk's runs.  Everything else a worker needs is in
#: the job context it loads once from the pool's spool file.
_BatchTask = Tuple[int, Tuple[Tuple[int, int, int], ...]]

#: The default trial runner: the paper's laser-tracheotomy case study.
#: :class:`~repro.campaign.spec.TrialSpec.runner` selects alternates from
#: :func:`_resolve_trial_runner`'s registry (e.g. ``"interlock"``).
TRIAL_RUNNER_DEFAULT = "tracheotomy"


class CampaignExecutionError(RuntimeError):
    """A campaign aborted after exhausting its recovery budget.

    Carries the checkpoint-store path (when one was attached) and a
    ready-to-paste ``--resume`` command so the operator can continue the
    run without reconstructing the invocation.
    """

    def __init__(self, message: str, *, store_path: str | None = None,
                 resume_command: str | None = None):
        """Build the error, appending resume instructions when possible.

        Args:
            message: What went wrong.
            store_path: Path of the attached checkpoint store, if any.
            resume_command: Exact shell command that resumes the run; a
                generic template is derived from ``store_path`` when the
                caller (e.g. a library user, not the CLI) cannot supply
                the original argv.
        """
        if store_path is not None and resume_command is None:
            resume_command = ("python -m repro.campaign <original arguments> "
                              f"--store {store_path} --resume")
        if store_path is not None:
            message = (f"{message}\ncheckpointed progress survives in "
                       f"{store_path}; resume with:\n  {resume_command}")
        super().__init__(message)
        self.store_path = store_path
        self.resume_command = resume_command


class CampaignInterrupted(BaseException):
    """A campaign was interrupted by SIGINT/SIGTERM (CLI signal handler).

    Derives from :class:`BaseException` (like :class:`KeyboardInterrupt`)
    so no recovery path in the supervisor can swallow it: an interrupt
    must always unwind through ``run_campaign``'s cleanup (which flushes
    the checkpoint store and unlinks shared memory) and out to the CLI.
    """

    def __init__(self, signum: int):
        """Record the delivering signal.

        Args:
            signum: The POSIX signal number that interrupted the run.
        """
        super().__init__(f"campaign interrupted by signal {signum}")
        self.signum = signum


class CampaignCancelled(BaseException):
    """A campaign was cancelled cooperatively through its ``stop`` callable.

    The campaign service's ``cancel``/``shutdown`` operations request this
    by flipping a flag the executor polls between batches.  Like
    :class:`CampaignInterrupted` it derives from :class:`BaseException` so
    no recovery path in the supervisor can swallow it: a cancel always
    unwinds through ``run_campaign``'s cleanup (which flushes the
    checkpoint store and unlinks shared memory) out to the caller, who
    owns the cancelled-job bookkeeping.  An attached store keeps every
    batch retired before the cancel, so a cancelled job is resumable.
    """

    def __init__(self, reason: str = "campaign cancelled"):
        """Record why the run was cancelled.

        Args:
            reason: Human-readable cancellation reason.
        """
        super().__init__(reason)
        self.reason = reason


class _EventLog(list):
    """Recovery-event list that additionally streams appends to a callback.

    ``run_campaign(..., on_event=...)`` swaps this in for the plain event
    list so the campaign service can fan recovery events out to ``watch``
    subscribers *as they happen* instead of after the run returns.
    """

    def __init__(self, callback: Callable[[str, str], None] | None = None):
        """Wrap an empty event list around an optional streaming callback.

        Args:
            callback: Invoked as ``callback(kind, detail)`` on every
                append; ``None`` degrades to a plain list.
        """
        super().__init__()
        self._callback = callback

    def append(self, event: Tuple[str, str]) -> None:
        """Record one ``(kind, detail)`` event and stream it onward.

        Args:
            event: The recovery event being logged.
        """
        super().append(event)
        if self._callback is not None:
            self._callback(*event)


@dataclasses.dataclass(frozen=True)
class _Pending:
    """A batch awaiting (re)dispatch, with its per-trial failure counts."""

    task: _BatchTask
    attempts: Tuple[int, ...]


@dataclasses.dataclass
class _Flight:
    """Book-keeping of one in-flight batch future."""

    pending: _Pending
    ticket: "shm_plane.PlaneTicket | None"
    deadline: float | None
    isolated: bool


def default_worker_count() -> int:
    """Return a sensible default worker count for this machine."""
    return max(1, os.cpu_count() or 1)


def resolve_batch_size(batch_size: int | None, spec: CampaignSpec,
                       workers: int, engine: str) -> int:
    """Resolve the replicate-batch size for one campaign run.

    ``None`` or ``0`` selects the auto heuristic: with the batched kernel,
    split each cell's replicates evenly across the workers (capped at
    ``_MAX_AUTO_BATCH`` lanes — the vector win saturates), unless the split
    lands below the lockstep break-even (:data:`MIN_LOCKSTEP_LANES`),
    where the vector dispatch overhead outweighs the win and per-trial
    dispatch is faster; with the scalar kernels there is nothing to put in
    lockstep, so dispatch per trial.

    Args:
        batch_size: The requested batch size (``None``/``0`` = auto).
        spec: The campaign being run (its largest cell bounds the split).
        workers: The worker-process count of the run.
        engine: The resolved simulation-kernel name.

    Returns:
        The concrete batch size, at least 1.

    Raises:
        ValueError: If an explicit ``batch_size`` is negative.
    """
    if batch_size:
        if batch_size < 1:
            raise ValueError("batch size must be at least 1")
        return int(batch_size)
    if engine != "batched":
        return 1
    largest_cell = max(t.effective_replicates for t in spec.trials)
    per_worker = -(-largest_cell // max(1, workers))  # ceil division
    if per_worker < MIN_LOCKSTEP_LANES:
        return 1
    return min(_MAX_AUTO_BATCH, per_worker)


def _resolve_trial_runner(name: str) -> Callable[..., TrialResult]:
    """Look an alternate trial runner up by its registry name.

    Runners are resolved lazily (imported on first use inside the worker)
    so campaigns that never leave the default case study pay nothing.

    Args:
        name: The :class:`~repro.campaign.spec.TrialSpec.runner` value.

    Returns:
        A callable with the keyword signature ``(with_lease, seed,
        duration, engine, fault)`` returning a
        :class:`~repro.casestudy.emulation.TrialResult`.

    Raises:
        ValueError: If no runner is registered under ``name``.
    """
    if name == "interlock":
        from repro.casestudy.interlock import run_interlock_trial

        return run_interlock_trial
    raise ValueError(f"unknown trial runner {name!r}")


def execute_trial(config: CaseStudyConfig, campaign_duration: float | None,
                  run: TrialRun, payload: str = "summary",
                  engine: str | None = None,
                  fault: Callable[[], None] | None = None,
                  ) -> Tuple[int, TrialSummary, TrialResult | None]:
    """Execute one concrete trial (runs inside a worker process).

    Args:
        config: The campaign-wide case-study configuration.
        campaign_duration: The campaign-level duration default, if any.
        run: The concrete trial to execute (cell, replicate, seed).
        payload: What to return per trial (``"summary"``, ``"stats"``
            or ``"full"``).
        engine: Simulation-kernel override (``None`` = resolve default).
        fault: Optional zero-argument fault-injection hook, invoked after
            the case study is assembled and before the engine runs (see
            :mod:`repro.campaign.faults`).

    Returns:
        The run index (for order restoration), the slim summary, and —
        for the ``"stats"`` / ``"full"`` payloads — the complete
        :class:`TrialResult` (without its trace, which is memory heavy and
        scheduling sensitive).
    """
    if payload not in PAYLOAD_KINDS:
        raise ValueError(f"unknown payload kind {payload!r}")
    spec = run.spec
    duration = spec.duration if spec.duration is not None else campaign_duration
    if spec.runner != TRIAL_RUNNER_DEFAULT:
        runner = _resolve_trial_runner(spec.runner)
        result = runner(with_lease=spec.with_lease, seed=run.seed,
                        duration=duration, engine=engine, fault=fault)
        summary = TrialSummary.from_trial(run, result)
        return run.index, summary, (result if payload != "summary" else None)
    trial_config = spec.configure(config)
    channel = spec.channel.build(run.seed)
    surgeon = spec.surgeon.build() if spec.surgeon is not None else None
    result = run_trial(trial_config, with_lease=spec.with_lease, seed=run.seed,
                       duration=duration, channel=channel, surgeon=surgeon,
                       keep_trace=(payload == "full"), engine=engine,
                       fault=fault)
    if result.trace is not None:
        result.trace = None
    summary = TrialSummary.from_trial(run, result)
    return run.index, summary, (result if payload != "summary" else None)


def _batch_fault_hook(plan: FaultPlan | None, ctx: BatchContext | None,
                      runs_lite: Tuple[Tuple[int, int, int], ...],
                      ) -> Callable[[int], None] | None:
    """Build the per-trial fault hook of one batch from the fault plan.

    Args:
        plan: The run's fault plan (``None``/empty disables injection).
        ctx: Dispatch context carrying the batch's attempt counts.
        runs_lite: The batch's ``(index, replicate, seed)`` triples.

    Returns:
        A hook mapping a lane offset to a possible
        :class:`~repro.campaign.faults.InjectedTrialFault`, or ``None``
        when the plan scripts no in-trial faults.
    """
    if not plan:
        return None

    def hook(offset: int) -> None:
        index = runs_lite[offset][0]
        attempt = ctx.attempts[offset] if ctx is not None else 0
        if plan.raise_in_trial(index, attempt):
            raise InjectedTrialFault(
                f"injected fault in trial {index} (attempt {attempt + 1})")

    return hook


def execute_batch(spec: CampaignSpec, task: _BatchTask, payload: str,
                  engine: str, buffers=None,
                  plan: FaultPlan | None = None,
                  ctx: BatchContext | None = None,
                  ) -> List[Tuple[int, TrialSummary, TrialResult | None]]:
    """Execute one batch of same-cell replicates (runs inside a worker).

    With the batched kernel, multi-trial chunks run in vectorized lockstep
    through :func:`~repro.casestudy.emulation.run_trial_batch`; otherwise
    (and for the trace-scanning ``"full"`` payload, which needs per-trial
    traces) the chunk executes trial by trial — still amortizing the
    per-worker lowered-model cache and the task pickling.

    Args:
        spec: The campaign spec (provides the cell and base config).
        task: The ``(spec_index, runs)`` batch to execute.
        payload: Per-trial payload kind (``"summary"``/``"stats"``/``"full"``).
        engine: The resolved simulation-kernel name.
        buffers: Optional externally allocated engine storage (a
            shared-memory plane's lane range) for the lockstep path;
            ``None`` keeps private allocations.  Never changes results.
        plan: Optional fault plan; its ``raise`` clauses become the
            per-trial fault hooks of this batch.
        ctx: Dispatch context of the batch (dispatch number, per-trial
            attempt counts); lets transient ``raise`` clauses expire.

    Returns:
        One ``(index, summary, result-or-None)`` triple per trial of the
        batch, in replicate order.
    """
    spec_index, runs_lite = task
    trial = spec.trials[spec_index]
    fault_for = _batch_fault_hook(plan, ctx, runs_lite)
    if (engine == "batched" and len(runs_lite) > 1 and payload != "full"
            and trial.runner == TRIAL_RUNNER_DEFAULT):
        trial_config = trial.configure(spec.config)
        duration = trial.duration if trial.duration is not None else spec.duration
        seeds = [seed for _, _, seed in runs_lite]
        results = run_trial_batch(
            trial_config, with_lease=trial.with_lease, seeds=seeds,
            duration=duration, channel_builder=trial.channel.build,
            surgeon_builder=((lambda _seed: trial.surgeon.build())
                             if trial.surgeon is not None else None),
            buffers=buffers, fault=fault_for)
        out = []
        for (index, replicate, seed), result in zip(runs_lite, results):
            run = TrialRun(index=index, spec_index=spec_index,
                           replicate=replicate, seed=seed, spec=trial)
            summary = TrialSummary.from_trial(run, result)
            out.append((index, summary,
                        result if payload != "summary" else None))
        return out
    return [execute_trial(spec.config, spec.duration,
                          TrialRun(index=index, spec_index=spec_index,
                                   replicate=replicate, seed=seed, spec=trial),
                          payload, engine,
                          fault=(None if fault_for is None
                                 else (lambda off=offset: fault_for(off))))
            for offset, (index, replicate, seed) in enumerate(runs_lite)]


#: Per-worker cache of job contexts, keyed by job token.  A pool serves one
#: job at a time, so loading a new job's context evicts the previous one
#: (and with it the old spec's lowered-model cache keys go cold naturally).
_JOB_CTX: Dict[int, tuple] = {}


def _watch_parent(parent_pid: int) -> None:
    """Kill this worker the moment its parent disappears.

    Pool workers block on the pool's call queue, so a SIGKILLed parent
    (say, the service daemon) would otherwise leave them orphaned forever.
    Polling the parent pid is cheap, portable and exactly as prompt as the
    1-second period.

    Args:
        parent_pid: The pid of the process that owns the pool.
    """
    while True:
        if os.getppid() != parent_pid:
            os._exit(0)
        time.sleep(1.0)


def _init_pool_worker(parent_pid: int) -> None:
    """Pool initializer (job-agnostic): start the orphan watchdog.

    Workers receive no campaign context here — each job ships its context
    once through a spool file (see :meth:`CampaignPool.lease`) — so one
    warm pool can serve many campaigns without respawning.

    Args:
        parent_pid: Pid of the pool-owning process, watched so a
            hard-killed parent never leaks worker processes.
    """
    threading.Thread(target=_watch_parent, args=(parent_pid,),
                     daemon=True).start()


def _load_job(job: Tuple[int, str]) -> tuple:
    """Load (and cache) one job's worker context.

    Args:
        job: ``(job_token, spool_path)`` naming the pickled
            ``(spec, payload, engine, plan)`` tuple of the job.

    Returns:
        The job's worker-context tuple.
    """
    token, path = job
    ctx = _JOB_CTX.get(token)
    if ctx is None:
        with open(path, "rb") as handle:
            ctx = pickle.load(handle)
        _JOB_CTX.clear()
        _JOB_CTX[token] = ctx
    return ctx


def _run_batch_in_worker(job: Tuple[int, str], task: _BatchTask,
                         token: "shm_plane.ShmToken | None",
                         ctx: BatchContext):
    """The task entry point inside a pool worker.

    Installs the job's context (loaded once per worker per job, then
    cached by token) and runs the batch.  Without a shared-memory token
    the full result triples travel back through the pool's pipe.  With a
    token, the worker binds the task's shared-plane lane range (if any) as
    the engine's backing storage, writes each trial's summary record
    straight into the shared results ring, and returns only the trial
    count — plus, for the ``"stats"`` payload, the pickled
    ``TrialResult`` objects, whose monitor reports and lease ledgers have
    no fixed-width encoding.

    This is also where the dispatch-keyed fault clauses land: ``crash``
    SIGKILLs the worker before any work happens, ``hang`` sleeps past the
    supervisor's batch deadline, and ``corrupt`` stamps the ring records
    with a *negated* generation — generations are always positive, so a
    corrupted stamp can never collide with a later legitimate allocation
    of the same slots.

    Args:
        job: The job-context reference (token + spool path).
        task: The batch to execute.
        token: Optional shared-memory reservation of the batch.
        ctx: Dispatch context (dispatch number + attempt counts) used by
            the fault plan's injection points.
    """
    spec, payload, engine, plan = _load_job(job)
    if plan is not None:
        if plan.crash_at(ctx.dispatch):
            os.kill(os.getpid(), signal.SIGKILL)
        hang = plan.hang_secs(ctx.dispatch)
        if hang > 0:
            time.sleep(hang)
    if token is None:
        return execute_batch(spec, task, payload, engine, plan=plan, ctx=ctx)
    buffers = None
    if token.plane_name is not None:
        plane = shm_plane.attach_plane(token.plane_name, token.plane_lanes,
                                       token.state_columns,
                                       token.cross_columns)
        buffers = plane.buffers(token.lane_start, token.lane_count)
    results = execute_batch(spec, task, payload, engine, buffers=buffers,
                            plan=plan, ctx=ctx)
    stamp = token.generation
    if plan is not None and plan.corrupt_at(ctx.dispatch):
        stamp = -token.generation
    ring = shm_plane.attach_ring(token.ring_name, token.ring_capacity)
    for offset, (index, summary, _result) in enumerate(results):
        ring.write(token.ring_start + offset, stamp, index, summary)
    if payload == "summary":
        return len(results), None
    return len(results), [result for _, _, result in results]


class CampaignPool:
    """A worker pool that campaign runs lease, one run at a time.

    A multi-worker ``run_campaign`` builds a private pool and shuts it down
    when it returns.  The campaign service holds exactly one for its whole
    life: every queued job executes on the same worker processes
    (``run_campaign(pool=...)``), so jobs after the first skip process
    spin-up entirely and inherit warm per-process lowered-model caches.
    Per-job context travels through a pickled spool file that each worker
    loads lazily on its first batch of the job — the pool itself is
    job-agnostic and never restarts between jobs.

    The supervisor's self-healing paths keep working: when it kills a
    broken/hung pool, the job's lease transparently respawns the executor,
    and subsequent jobs use the replacement.
    """

    def __init__(self, max_workers: int):
        """Create the pool shell (workers spawn on first use).

        Args:
            max_workers: Worker-process count of the pool.

        Raises:
            ValueError: If ``max_workers`` is not positive.
        """
        if max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        self.max_workers = int(max_workers)
        self._executor: ProcessPoolExecutor | None = None
        self._spool = tempfile.mkdtemp(prefix="repro-pool-")
        self._job_seq = 0

    def worker_pids(self) -> Tuple[int, ...]:
        """Return the pids of the live worker processes, sorted.

        Returns:
            The worker pids (empty before the first job spawns workers).
        """
        if self._executor is None:
            return ()
        procs = (getattr(self._executor, "_processes", None) or {}).values()
        return tuple(sorted(proc.pid for proc in procs))

    def _ensure(self) -> ProcessPoolExecutor:
        """Return the live executor, spawning it if needed."""
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.max_workers,
                initializer=_init_pool_worker, initargs=(os.getpid(),))
        return self._executor

    def lease(self, spec: CampaignSpec, payload: str, engine: str,
              plan: FaultPlan | None) -> "_PoolLease":
        """Issue one campaign run's handle on the pool.

        Writes the job's worker context to a spool file (shipped by path,
        loaded once per worker) and returns the lease the executor wires
        into its supervisor as the backend.

        Args:
            spec: The campaign about to run.
            payload: The run's payload mode.
            engine: The resolved simulation-kernel name.
            plan: The run's fault plan, if any.

        Returns:
            The job's pool lease.
        """
        self._job_seq += 1
        path = os.path.join(self._spool, f"job-{self._job_seq}.ctx")
        with open(path, "wb") as handle:
            pickle.dump((spec, payload, engine, plan), handle)
        return _PoolLease(self, self._job_seq, path)

    def shutdown(self, *, kill: bool = False) -> None:
        """Shut the pool down and remove its spool directory.

        Args:
            kill: ``False`` waits for in-flight work; ``True`` SIGKILLs
                the workers (error unwinding, service hard-stop).
        """
        executor, self._executor = self._executor, None
        _shutdown_pool(executor, kill=kill)
        shutil.rmtree(self._spool, ignore_errors=True)


class _PoolLease:
    """One campaign run's backend on a :class:`CampaignPool`.

    ``make_pool`` returns the live executor (respawning it only when the
    supervisor killed the previous one), and ``submit`` routes batches
    through :func:`_run_batch_in_worker` so workers pick the job's context
    up from the spool file.
    """

    def __init__(self, pool: CampaignPool, token: int, ctx_path: str):
        """Bind the lease to its pool and spooled job context.

        Args:
            pool: The leased pool.
            token: The job token keying the workers' context cache.
            ctx_path: Path of the spooled worker-context pickle.
        """
        self.pool = pool
        self.job = (token, ctx_path)
        self._issued: ProcessPoolExecutor | None = None

    def make_pool(self) -> ProcessPoolExecutor:
        """Return the executor for this run (the supervisor's factory).

        The supervisor calls this once at start and again right after
        killing a broken/hung pool: if the executor it killed is still
        the pool's current one, it is dropped so a fresh executor replaces
        it — for this job and every one after it.

        Returns:
            The live executor.
        """
        if self._issued is not None and self._issued is self.pool._executor:
            self.pool._executor = None
        self._issued = self.pool._ensure()
        return self._issued

    def submit(self, pool: ProcessPoolExecutor, task: _BatchTask,
               token, ctx: BatchContext) -> Future:
        """Submit one batch to the worker entry point.

        Args:
            pool: The executor issued by :meth:`make_pool`.
            task: The batch to dispatch.
            token: Optional shared-memory reservation token.
            ctx: The batch's dispatch context.

        Returns:
            The batch future.
        """
        return pool.submit(_run_batch_in_worker, self.job, task, token, ctx)

    def close(self) -> None:
        """Delete the job's spool file (workers keep their cached copy)."""
        try:
            os.unlink(self.job[1])
        except OSError:
            pass


class _InProcessBackend:
    """Serial backend: each batch runs in this process as it is submitted.

    ``submit`` returns an already-settled future, so the supervisor's loop
    (window 1, no deadline) dispatches, bisects, retries and quarantines in
    exactly the order of a plain serial loop.  Dispatch-keyed ``crash`` /
    ``hang`` / ``corrupt`` clauses have no worker to act on and never fire.
    """

    def __init__(self, spec: CampaignSpec, payload: str, engine: str,
                 plan: FaultPlan | None):
        """Capture the run's constants.

        Args:
            spec: The campaign being run.
            payload: The run's payload mode.
            engine: The resolved simulation-kernel name.
            plan: The run's fault plan, if any.
        """
        self.job = (spec, payload, engine, plan)

    def make_pool(self) -> None:
        """There is no pool to spawn (or respawn)."""
        return None

    def submit(self, pool: None, task: _BatchTask, token,
               ctx: BatchContext) -> Future:
        """Run one batch now and return its settled future.

        Args:
            pool: Unused (always ``None``).
            task: The batch to run.
            token: Unused (serial runs never take the shared-memory path).
            ctx: The batch's dispatch context.

        Returns:
            A future already holding the batch's results or its failure.
        """
        spec, payload, engine, plan = self.job
        future: Future = Future()
        try:
            future.set_result(execute_batch(spec, task, payload, engine,
                                            plan=plan, ctx=ctx))
        except Exception as exc:
            future.set_exception(exc)
        return future

    def close(self) -> None:
        """Nothing to release."""


def _chunk_runs(runs: Sequence[TrialRun], batch_size: int) -> List[_BatchTask]:
    """Chunk expanded runs into same-cell batches of at most ``batch_size``."""
    tasks: List[_BatchTask] = []
    current: List[TrialRun] = []
    for run in runs:
        if current and (run.spec_index != current[0].spec_index
                        or len(current) >= batch_size):
            tasks.append((current[0].spec_index,
                          tuple((r.index, r.replicate, r.seed) for r in current)))
            current = []
        current.append(run)
    if current:
        tasks.append((current[0].spec_index,
                      tuple((r.index, r.replicate, r.seed) for r in current)))
    return tasks


def _resolve_shm(shm: bool | None, engine: str, payload: str,
                 pooled: bool) -> bool:
    """Decide whether the shared-memory fast path runs.

    ``None`` auto-enables for pooled batched runs; an explicit ``True``
    extends it to scalar-engine pools (ring only).  Either way the path
    silently degrades to pickling when ``shared_memory`` is unavailable,
    the run is serial (nothing crosses a process boundary), or the payload
    is ``"full"`` (traces have no fixed-width encoding).
    """
    if shm is False:
        return False
    if not (pooled and payload != "full"
            and shm_plane.shared_memory_available()):
        return False
    return True if shm else engine == "batched"


def _cell_plane_geometry(spec: CampaignSpec,
                         spec_index: int) -> Tuple[int, int]:
    """Column counts of one campaign cell's batched state plane."""
    trial = spec.trials[spec_index]
    config = trial.configure(spec.config)
    _, lowered = _lowered_case_study(config, trial.with_lease)
    return build_batched_tables(lowered).plane_columns()


def _shutdown_pool(pool: ProcessPoolExecutor | None, *, kill: bool) -> None:
    """Shut a pool down, gracefully or by force.

    Args:
        pool: The pool (``None`` is a no-op).
        kill: ``False`` waits for in-flight work; ``True`` SIGKILLs every
            worker still alive — the only way to get rid of a hung worker,
            since the pool API has no per-worker cancellation.
    """
    if pool is None:
        return
    if not kill:
        pool.shutdown(wait=True)
        return
    procs = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in procs:
        if proc.is_alive():
            proc.kill()
    for proc in procs:
        proc.join(timeout=5.0)


class _Supervisor:
    """The single, self-healing dispatch loop of every campaign run.

    Owns the dispatch queue, the in-flight window and every recovery
    decision (see the module docs for the failure model); the backend
    (:class:`_InProcessBackend` or a :class:`_PoolLease`) only runs
    batches, and whoever created a pool shuts it down.  The
    result/checkpoint plumbing stays in ``run_campaign``'s closures — the
    supervisor only decides *what runs when* and *who is to blame* when
    something breaks.
    """

    #: Extra seconds granted past a batch deadline before declaring a
    #: hang, absorbing scheduler jitter around the ``wait()`` timeout.
    _DEADLINE_SLACK = 0.05

    def __init__(self, *, tasks: Sequence[_BatchTask], window: int,
                 backend: "_InProcessBackend | _PoolLease",
                 acquire: Callable[[_BatchTask], tuple],
                 publish: Callable[[_BatchTask, object, object], None],
                 release: Callable[[object, int], None],
                 quarantine: Callable[[_Pending, BaseException], None],
                 events: List[Tuple[str, str]],
                 max_retries: int, batch_deadline: float | None,
                 max_respawns: int, store_path: str | None,
                 stop: Callable[[], bool] | None):
        """Wire the supervisor to one campaign run.

        Args:
            tasks: The batches to execute (initial attempt counts zero).
            window: Maximum batches in flight at once.
            backend: Runs the batches: ``make_pool()`` returns a live
                pool (again after a respawn) and ``submit(pool, task,
                token, ctx)`` returns the batch's future.
            acquire: Shared-memory reservation hook; returns a
                ``(ticket, token)`` pair (both ``None`` = pickled path).
            publish: Result sink (checkpoint + aggregate) for a finished
                batch: ``publish(task, ticket, outcome)``.
            release: Returns a ticket's shared-memory reservation without
                consuming results (failed/rescheduled flights).
            quarantine: Sink for trials whose retry budget is exhausted.
            events: Shared recovery-event log.
            max_retries: Per-trial retry budget.
            batch_deadline: Seconds an in-flight batch may take before its
                worker is declared hung (``None`` disables the watchdog).
            max_respawns: Pool-respawn budget for the whole run.
            store_path: Checkpoint-store path for error messages, if any.
            stop: Cooperative-cancel poll; returning ``True`` between
                batches raises :class:`CampaignCancelled`.
        """
        self.queue: Deque[_Pending] = deque(
            _Pending(task, (0,) * len(task[1])) for task in tasks)
        self.isolation: Deque[_Pending] = deque()
        self.inflight: Dict[object, _Flight] = {}
        self.window = window
        self.backend = backend
        self.acquire = acquire
        self.publish = publish
        self.release = release
        self.quarantine = quarantine
        self.events = events
        self.max_retries = max_retries
        self.batch_deadline = batch_deadline
        self.max_respawns = max_respawns
        self.store_path = store_path
        self.stop = stop
        self.dispatch = 0
        self.respawns = 0

    # -- scheduling -------------------------------------------------------

    def run(self) -> None:
        """Execute every batch to completion (or quarantine)."""
        pool = self.backend.make_pool()
        try:
            while self.queue or self.isolation or self.inflight:
                self._check_stop()
                pool = self._fill(pool)
                if not self.inflight:
                    continue
                done, _ = wait(frozenset(self.inflight),
                               timeout=self._wait_timeout(),
                               return_when=FIRST_COMPLETED)
                for future in done:
                    pool = self._retire(pool, future)
                pool = self._check_deadlines(pool)
        except BaseException:
            # Drop this run's pending work.  Batches already on a worker
            # run to completion into discarded futures, which is harmless:
            # nothing unpublished reaches the aggregates or the store, so
            # a resume re-runs them exactly.
            for future in self.inflight:
                future.cancel()
            raise

    def _check_stop(self) -> None:
        """Raise :class:`CampaignCancelled` when a cancel was requested."""
        if self.stop is not None and self.stop():
            raise CampaignCancelled()

    def _capacity(self) -> int:
        """Current in-flight cap: 1 while isolating suspects, else window."""
        if self.isolation or any(f.isolated for f in self.inflight.values()):
            return 1
        return self.window

    def _fill(self, pool: ProcessPoolExecutor) -> ProcessPoolExecutor:
        """Top the in-flight window up from the isolation/regular queues."""
        while len(self.inflight) < self._capacity():
            isolated = bool(self.isolation)
            source = self.isolation if isolated else self.queue
            if not source:
                break
            pending = source.popleft()
            try:
                self._submit_one(pool, pending, isolated)
            except BrokenProcessPool as exc:
                source.appendleft(pending)
                pool = self._handle_pool_break(pool, exc)
        return pool

    def _submit_one(self, pool: ProcessPoolExecutor, pending: _Pending,
                    isolated: bool) -> None:
        """Dispatch one batch into the pool (fresh dispatch number)."""
        ticket, token = self.acquire(pending.task)
        self.dispatch += 1
        ctx = BatchContext(dispatch=self.dispatch, attempts=pending.attempts)
        try:
            future = self.backend.submit(pool, pending.task, token, ctx)
        except BrokenProcessPool:
            self.release(ticket, len(pending.task[1]))
            raise
        deadline = (time.monotonic() + self.batch_deadline
                    if self.batch_deadline is not None else None)
        self.inflight[future] = _Flight(pending=pending, ticket=ticket,
                                        deadline=deadline, isolated=isolated)

    #: Poll period of the cancel check while batches are in flight.
    _STOP_POLL = 0.2

    def _wait_timeout(self) -> float | None:
        """Sleep budget of the next ``wait()``: until the earliest deadline.

        With a ``stop`` poll attached the budget is additionally capped at
        :data:`_STOP_POLL` seconds, so a cancel request interrupts a run
        promptly instead of waiting out a long batch.
        """
        deadlines = [flight.deadline for flight in self.inflight.values()
                     if flight.deadline is not None]
        timeout = None
        if deadlines:
            timeout = max(0.0, min(deadlines) - time.monotonic()
                          + self._DEADLINE_SLACK)
        if self.stop is not None:
            timeout = (self._STOP_POLL if timeout is None
                       else min(timeout, self._STOP_POLL))
        return timeout

    # -- retirement and blame ---------------------------------------------

    def _fail(self, pending: _Pending, exc: BaseException) -> None:
        """Charge a precisely-blamed failure: bisect, retry or quarantine.

        Every trial of the batch is charged one failed attempt.  A
        multi-trial batch is always *bisected* — never quarantined
        wholesale, so an innocent replicate sharing a batch with a poison
        trial keeps its full retry budget as the halves re-run.  A failing
        singleton retries until its budget (``max_retries`` beyond the
        first attempt) is exhausted, then is quarantined.

        Successors go to the front of the isolation queue (left half
        first): they re-run one at a time, so any further failure stays
        precisely attributable.
        """
        spec_index, runs_lite = pending.task
        attempts = tuple(count + 1 for count in pending.attempts)
        if len(runs_lite) > 1:
            mid = len(runs_lite) // 2
            self.events.append((
                "bisect",
                f"batch of {len(runs_lite)} trials (cell {spec_index}) failed "
                f"({type(exc).__name__}: {exc}); splitting to isolate the "
                f"offender"))
            self.isolation.appendleft(
                _Pending((spec_index, runs_lite[mid:]), attempts[mid:]))
            self.isolation.appendleft(
                _Pending((spec_index, runs_lite[:mid]), attempts[:mid]))
            return
        if attempts[0] > self.max_retries:
            self.quarantine(_Pending(pending.task, attempts), exc)
            return
        self.events.append((
            "retry",
            f"trial {runs_lite[0][0]} failed attempt {attempts[0]} "
            f"({type(exc).__name__}: {exc}); retrying"))
        self.isolation.appendleft(_Pending(pending.task, attempts))

    def _release_flight(self, flight: _Flight) -> None:
        """Return a flight's shared-memory reservation unconsumed."""
        self.release(flight.ticket, len(flight.pending.task[1]))

    def _publish_flight(self, flight: _Flight, outcome) -> None:
        """Publish a finished flight, demoting ring corruption to a retry."""
        try:
            self.publish(flight.pending.task, flight.ticket, outcome)
        except shm_plane.ShmError as exc:
            # The worker reported success but its ring records are bad
            # (stale/corrupted generation stamps).  The reservation is
            # recycled and the batch re-runs; its results were never
            # published, so aggregates stay exact.
            self._release_flight(flight)
            self._fail(flight.pending, exc)

    def _retire(self, pool: ProcessPoolExecutor,
                future) -> ProcessPoolExecutor:
        """Retire one completed future (may replace the pool)."""
        flight = self.inflight.pop(future, None)
        if flight is None:  # already drained by a recovery sweep
            return pool
        exc = future.exception()
        if exc is None:
            self._publish_flight(flight, future.result())
            return pool
        if isinstance(exc, BrokenProcessPool):
            # Put the flight back so the break handler sees the complete
            # in-flight picture when it assigns blame.
            self.inflight[future] = flight
            return self._handle_pool_break(pool, exc)
        self._release_flight(flight)
        self._fail(flight.pending, exc)
        return pool

    def _handle_pool_break(self, pool: ProcessPoolExecutor,
                           exc: BaseException) -> ProcessPoolExecutor:
        """Recover from a broken pool: salvage, assign blame, respawn.

        Finished flights are published as usual (their results are safe).
        If exactly one flight was actually lost, the blame is precise and
        it is charged a failure; with several suspects the crash could
        have been any of them, so they re-run one at a time through the
        isolation queue *without* being charged — an innocent batch never
        loses retry budget to a neighbour's crash.
        """
        suspects: List[_Pending] = []
        for future, flight in list(self.inflight.items()):
            if future.done() and future.exception() is None:
                self._publish_flight(flight, future.result())
                continue
            future.cancel()
            broken = future.done() and isinstance(future.exception(),
                                                  BrokenProcessPool)
            self._release_flight(flight)
            if broken or not future.done():
                suspects.append(flight.pending)
            else:  # a real (pickled) exception: precise, pool break or not
                self._fail(flight.pending, future.exception())
        self.inflight.clear()
        if len(suspects) == 1:
            self._fail(suspects[0], exc)
        elif suspects:
            self.events.append((
                "pool-break",
                f"{len(suspects)} batches in flight when the pool broke; "
                f"re-running them in isolation to assign blame"))
            for pending in reversed(suspects):
                self.isolation.appendleft(pending)
        return self._respawn(pool, "pool break", exc)

    def _check_deadlines(self, pool: ProcessPoolExecutor,
                         ) -> ProcessPoolExecutor:
        """Kill the pool if any in-flight batch blew its deadline."""
        if self.batch_deadline is None or not self.inflight:
            return pool
        now = time.monotonic()
        hung = {future for future, flight in self.inflight.items()
                if not future.done() and flight.deadline is not None
                and now >= flight.deadline}
        if not hung:
            return pool
        # A hung worker cannot be cancelled individually; salvage every
        # finished flight, charge the hung ones, resubmit the innocent
        # ones unpenalized, and replace the pool.
        for future, flight in list(self.inflight.items()):
            if future.done() and future.exception() is None:
                self._publish_flight(flight, future.result())
                continue
            future.cancel()
            self._release_flight(flight)
            if future in hung:
                self.events.append((
                    "deadline-kill",
                    f"batch of {len(flight.pending.task[1])} trials exceeded "
                    f"the {self.batch_deadline:g}s deadline; killing its "
                    f"worker"))
                self._fail(flight.pending,
                           TimeoutError(f"batch exceeded deadline "
                                        f"{self.batch_deadline:g}s"))
            elif future.done():  # pickled exception: precise failure
                self._fail(flight.pending, future.exception())
            else:  # innocent bystander: reschedule without charge
                self.queue.appendleft(flight.pending)
        self.inflight.clear()
        return self._respawn(pool, "hung-worker kill",
                             TimeoutError("batch deadline exceeded"))

    def _respawn(self, pool: ProcessPoolExecutor, why: str,
                 exc: BaseException) -> ProcessPoolExecutor:
        """Replace a dead/poisoned pool, against the respawn budget."""
        _shutdown_pool(pool, kill=True)
        self.respawns += 1
        if self.respawns > self.max_respawns:
            raise CampaignExecutionError(
                f"worker pool failed {self.respawns} times (last: {why}: "
                f"{exc}); respawn budget ({self.max_respawns}) exhausted",
                store_path=self.store_path) from exc
        self.events.append(
            ("pool-respawn", f"respawn #{self.respawns} after {why}"))
        return self.backend.make_pool()


def run_campaign(spec: CampaignSpec, *, seed: int = 0, max_workers: int = 1,
                 payload: str = "summary",
                 engine: str | None = None,
                 batch_size: int | None = None,
                 on_result: Callable[[TrialSummary], None] | None = None,
                 store: CampaignStore | str | os.PathLike | None = None,
                 resume: bool = False,
                 shm: bool | None = None,
                 max_retries: int = DEFAULT_MAX_RETRIES,
                 batch_deadline: float | None = None,
                 max_respawns: int = DEFAULT_MAX_RESPAWNS,
                 fault_plan: "FaultPlan | str | None" = None,
                 pool: CampaignPool | None = None,
                 stop: Callable[[], bool] | None = None,
                 on_event: Callable[[str, str], None] | None = None,
                 ) -> CampaignResult:
    """Run a whole campaign, serially or across worker processes.

    Args:
        spec: The campaign description.
        seed: Master seed; every trial derives its own sub-seed from it
            (unless the spec pins explicit seeds).
        max_workers: Worker processes; ``1`` runs the trials serially in
            this process (no pool, no pickling).  More builds a private
            :class:`CampaignPool` of at most that many workers, shut down
            before this call returns.
        payload: ``"summary"`` keeps only slim per-trial statistics;
            ``"stats"`` additionally collects each trial's
            :class:`~repro.casestudy.emulation.TrialResult` computed by the
            streaming observer pipeline (trace-free, flat memory);
            ``"full"`` collects the same results through the legacy
            record-a-trace path.
        engine: Simulation kernel executing the trials (``"reference"`` /
            ``"compiled"`` / ``"batched"``); ``None`` defers to
            ``REPRO_ENGINE`` and then to the compiled kernel (campaigns
            default fast; the reference engine remains the escape hatch).
            All kernels are bit-identical, so this only affects throughput.
        batch_size: Replicates of one cell dispatched (and, with the
            batched kernel, executed in lockstep) as one unit.  ``None`` /
            ``0`` = auto: per-trial dispatch for scalar kernels, an even
            per-worker split of each cell (at most 64 lanes) for the
            batched kernel.
        on_result: Optional streaming callback, fired once per trial —
            first for replayed checkpoints in trial order, then for live
            trials in completion order (useful for progress reporting;
            aggregation itself never depends on completion order).
        store: Optional durable checkpoint store — a
            :class:`~repro.campaign.store.CampaignStore` or a path to one.
            Retired batches are committed to it before they are published,
            so a crashed run can continue where it stopped.  A path is
            opened (and closed) by this call; a store instance stays open.
        resume: Replay the checkpointed trials found in ``store`` instead
            of rejecting a non-empty store, then execute only the
            remainder.  Aggregates are bit-identical to an uninterrupted
            run for any engine, batch size and worker count.  Trials
            quarantined by the interrupted run stay quarantined.
        shm: Shared-memory fast path: workers run batched lanes on a
            parent-owned shared state plane (so one cell's batch spans
            workers) and publish per-trial statistics as fixed-width
            records in a shared results ring instead of pickling them
            through the pool's pipe.  ``None`` (default) auto-enables it
            for multi-worker batched runs; ``True`` forces it on wherever
            possible (including scalar-engine pools, ring only);
            ``False`` disables it.  The path silently falls back to
            pickling when ``multiprocessing.shared_memory`` is
            unavailable, the run is serial, or ``payload="full"`` — and
            per task when the ring/plane is momentarily exhausted.
            Results are bit-identical in every mode.
        max_retries: How many times a failing trial is retried beyond its
            first attempt before it is quarantined (recorded as a
            :class:`~repro.campaign.faults.TrialFailure` and excluded
            from the aggregates, which otherwise stay bit-identical to a
            clean run).
        batch_deadline: Seconds an in-flight batch may take before its
            worker is declared hung and killed (pooled runs only;
            ``None`` disables the watchdog).
        max_respawns: How many pool respawns (worker crashes, hung-worker
            kills) the run tolerates before aborting with
            :class:`CampaignExecutionError`.
        fault_plan: Deterministic fault-injection plan — a
            :class:`~repro.campaign.faults.FaultPlan`, a plan string, or
            ``None`` to defer to the ``REPRO_FAULT_PLAN`` environment
            variable (the usual case: no faults).
        pool: Externally owned warm :class:`CampaignPool` (service mode).
            The run executes on its workers — even a single-task campaign
            goes through the pooled path, so consecutive jobs share one
            set of worker processes — and never shuts it down;
            ``max_workers`` is ignored in favour of the pool's size, which
            also drives the auto batch size and ``CampaignResult.workers``.
        stop: Cooperative-cancel poll, checked between batches; returning
            ``True`` raises :class:`CampaignCancelled` after the store is
            flushed and shared memory unlinked, leaving a resumable
            checkpoint prefix.
        on_event: Optional streaming counterpart of ``recovery_events``:
            invoked as ``on_event(kind, detail)`` the moment an event is
            recorded (the service fans these out to ``watch``
            subscribers).  The final result still carries the full tuple.

    Returns:
        The ordered, aggregated :class:`CampaignResult`.

    Raises:
        ValueError: If ``payload``, ``max_workers``, ``max_retries``,
            ``batch_deadline`` or ``max_respawns`` is invalid.
        CampaignStoreError: If ``store`` belongs to a different campaign,
            a different master seed or payload mode, or holds checkpoints
            while ``resume`` is false.
        CampaignExecutionError: If the pool-respawn budget is exhausted.
        CampaignCancelled: If ``stop`` returned ``True`` mid-run.
    """
    if payload not in PAYLOAD_KINDS:
        raise ValueError(f"unknown payload kind {payload!r}")
    if max_workers < 1:
        raise ValueError("max_workers must be at least 1")
    if max_retries < 0:
        raise ValueError("max_retries must be non-negative")
    if max_respawns < 0:
        raise ValueError("max_respawns must be non-negative")
    if batch_deadline is not None and batch_deadline <= 0:
        raise ValueError("batch_deadline must be positive")
    plan = resolve_fault_plan(fault_plan)
    resolved_engine = resolve_engine_kind(engine,
                                          default=DEFAULT_CAMPAIGN_ENGINE)
    runs = spec.expand(seed)
    summaries: List[TrialSummary | None] = [None] * len(runs)
    full: List[TrialResult | None] = [None] * len(runs)
    quarantined: List[TrialFailure] = []
    events: List[Tuple[str, str]] = _EventLog(on_event)
    recovery = RecoveryStateMachine()

    own_store: CampaignStore | None = None
    if store is None or isinstance(store, CampaignStore):
        store_obj: CampaignStore | None = store
    else:
        store_obj = own_store = CampaignStore(store)
    if store_obj is not None and plan is not None:
        store_obj.set_fault_plan(plan)

    def quarantine(pending: _Pending, exc: BaseException) -> None:
        """Record a trial that exhausted its retry budget and move on."""
        spec_index, runs_lite = pending.task
        index, replicate, seed_value = runs_lite[0]
        failure = TrialFailure(
            trial_index=index, label=spec.trials[spec_index].label,
            replicate=replicate, seed=seed_value,
            attempts=pending.attempts[0], kind=type(exc).__name__,
            message=str(exc) or type(exc).__name__)
        if store_obj is not None:
            store_obj.record_failure(failure)
        quarantined.append(failure)
        events.append(("quarantine", failure.describe()))

    def _publish(index: int, summary: TrialSummary,
                 result: "TrialResult | None") -> None:
        """Publish one finished trial: aggregates, then the callback.

        The single publication path for replayed, pickled and
        shared-memory results — everything the caller observes (the
        ordered aggregates and the ``on_result`` stream) flows through
        here, which is also where the service's event fan-out hooks in.
        """
        summaries[index] = summary
        full[index] = result
        if on_result is not None:
            on_result(summary)

    session: shm_plane.ShmSession | None = None
    own_pool: CampaignPool | None = None
    try:
        live_runs: Sequence[TrialRun] = runs
        replayed_count = 0
        if store_obj is not None:
            replayed = store_obj.begin(spec, seed, payload, resume=resume)
            if replayed:
                recovery.advance(RecoveryStage.REPLAYING)
            for index, summary, result in replayed:
                if not 0 <= index < len(runs) or summaries[index] is not None:
                    raise CampaignStoreError(
                        f"store replayed an impossible trial index {index}")
                _publish(index, summary, result)
                replayed_count += 1
            done_indices = {index for index, _, _ in replayed}
            for failure in store_obj.failures():
                # A trial the interrupted run already gave up on stays
                # quarantined: replaying its failure keeps resumed
                # aggregates identical to the uninterrupted faulted run.
                quarantined.append(failure)
                done_indices.add(failure.trial_index)
            live_runs = [run for run in runs if run.index not in done_indices]

        workers = pool.max_workers if pool is not None else max_workers
        batch = resolve_batch_size(batch_size, spec, workers, resolved_engine)
        tasks = _chunk_runs(live_runs, batch)
        started = time.perf_counter()

        # An external (service) pool takes every job with work to do, even a
        # single-task one, so every job observably runs on the same warm
        # worker processes.
        serial = not tasks or (pool is None
                               and (workers == 1 or len(tasks) == 1))
        if not serial and pool is None:
            pool = own_pool = CampaignPool(min(workers, len(tasks)))
        window = 1 if serial else pool.max_workers * _INFLIGHT_PER_WORKER
        cell_live: Dict[int, int] = {}
        if _resolve_shm(shm, resolved_engine, payload, not serial):
            ring_capacity = max(batch, min(len(live_runs),
                                           (window + 1) * batch))
            session = shm_plane.ShmSession(ring_capacity)
            for spec_index, runs_lite in tasks:
                cell_live[spec_index] = (cell_live.get(spec_index, 0)
                                         + len(runs_lite))

        def record(batch_results) -> None:
            # Durability before publication: once a result is visible to
            # the aggregates or the progress callback, it has survived.
            if store_obj is not None:
                store_obj.checkpoint_batch(batch_results)
            for index, summary, result in batch_results:
                _publish(index, summary, result)

        def record_shm(task: _BatchTask, ticket, outcome) -> None:
            # Shared-memory counterpart: decode the task's ring records in
            # place, commit them (straight from the ring for "summary"),
            # publish, then recycle the reservation.
            spec_index, runs_lite = task
            count, results = outcome
            label = spec.trials[spec_index].label
            labels = [label] * count
            block = session.records_view(ticket, count)
            decoded = session.read(ticket, count, labels)
            expected = [index for index, _, _ in runs_lite]
            if block["trial_index"].tolist() != expected:
                raise shm_plane.ShmError(
                    f"results-ring records for cell {spec_index} carry trial "
                    f"indices {block['trial_index'].tolist()}, expected "
                    f"{expected}")
            if store_obj is not None:
                if results is None:
                    store_obj.checkpoint_ring(block, labels)
                else:
                    store_obj.checkpoint_batch(
                        list(zip(expected, decoded, results)))
            for offset, (index, summary) in enumerate(zip(expected, decoded)):
                _publish(index, summary,
                         results[offset] if results is not None else None)
            session.release(ticket, count)

        def acquire(task: _BatchTask):
            """Reserve shared-memory lanes/slots for one task, if any."""
            if session is None:
                return None, None
            spec_index, runs_lite = task
            count = len(runs_lite)
            want_plane = (resolved_engine == "batched" and count > 1
                          and payload != "full"
                          and (spec.trials[spec_index].runner
                               == TRIAL_RUNNER_DEFAULT))
            if want_plane and session.plane(spec_index) is None:
                state_cols, cross_cols = _cell_plane_geometry(
                    spec, spec_index)
                lanes = max(count, min(cell_live[spec_index],
                                       (window + 1) * batch))
                session.ensure_plane(spec_index, lanes, state_cols,
                                     cross_cols)
            ticket = session.acquire(spec_index, count, want_plane)
            if ticket is None:
                return None, None
            return ticket, ticket.token(session)

        def publish(task: _BatchTask, ticket, outcome) -> None:
            """Checkpoint and aggregate one finished batch."""
            if ticket is None:
                record(outcome)
            else:
                record_shm(task, ticket, outcome)

        def release(ticket, count: int) -> None:
            """Return an unconsumed shared-memory reservation."""
            if ticket is not None and session is not None:
                session.release(ticket, count)

        if tasks:
            recovery.advance(RecoveryStage.LIVE)
        backend = (_InProcessBackend(spec, payload, resolved_engine, plan)
                   if serial
                   else pool.lease(spec, payload, resolved_engine, plan))
        try:
            _Supervisor(
                tasks=tasks, window=window, backend=backend,
                acquire=acquire, publish=publish, release=release,
                quarantine=quarantine, events=events,
                max_retries=max_retries,
                batch_deadline=None if serial else batch_deadline,
                max_respawns=max_respawns,
                store_path=(str(store_obj.path)
                            if store_obj is not None else None),
                stop=stop).run()
        finally:
            backend.close()
        if own_pool is not None:
            own_pool.shutdown()

        wall_time = time.perf_counter() - started
        missing = {run.index for run in runs if summaries[run.index] is None}
        if missing != {failure.trial_index for failure in quarantined}:
            raise RuntimeError(
                "campaign lost trials: not every run reported back")
        if session is not None and session.fallbacks:
            events.append((
                "shm-fallback",
                f"{session.fallbacks} task(s) fell back to the pickled "
                f"results path (ring/plane momentarily exhausted)"))
        if store_obj is not None and store_obj.commit_retries:
            events.append((
                "store-retry",
                f"{store_obj.commit_retries} checkpoint commit(s) retried "
                f"after transient sqlite lock/busy errors"))
        if store_obj is not None:
            store_obj.mark_complete()
        recovery.advance(RecoveryStage.COMPLETE)
    except BaseException:
        # A private pool dies with its run: no worker outlives an error.
        if own_pool is not None:
            own_pool.shutdown(kill=True)
        raise
    finally:
        # Unlink shared segments even on a crashed/broken pool — the
        # session owns them and nothing else will.
        if session is not None:
            session.close()
        if own_store is not None:
            own_store.close()

    return CampaignResult(
        spec=spec,
        master_seed=seed,
        workers=workers,
        wall_time=wall_time,
        summaries=tuple(s for s in summaries if s is not None),
        results=(tuple(full[i] for i, s in enumerate(summaries)
                       if s is not None)
                 if payload != "summary" else None),
        replayed_trials=replayed_count,
        quarantined=tuple(quarantined),
        recovery_events=tuple(events),
    )
