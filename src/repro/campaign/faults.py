"""Deterministic fault injection for self-healing campaign runs.

The campaign executor survives worker crashes, hangs, poison trials,
corrupted shared-memory records and transiently locked checkpoint stores
(see :mod:`repro.campaign.executor`).  This module is the chaos half of
that contract: a :class:`FaultPlan` is a declarative, fully deterministic
script of faults to inject at named points of a run, so every recovery
path has a replayable test.

A plan comes from the ``--fault-plan`` CLI flag or the ``fault_plan=``
argument of ``run_campaign``, else from the ``REPRO_FAULT_PLAN``
environment variable, which only :func:`resolve_fault_plan` reads.  It is
a semicolon-separated list of clauses::

    kind@key=value[,key=value...]

with five clause kinds, each consumed at one injection point:

``crash``
    With ``batch=K``, SIGKILL the pool worker as it picks up batch
    dispatch number ``K`` (1-based, counting every dispatch including
    reschedules); consumed in the worker task entry point, it exercises
    pool respawn.  With ``commit=N``, hard-exit the process
    (``os._exit(86)``, no cleanup — the moral equivalent of SIGKILL)
    right after durable store commit number ``N``, leaving a store that
    holds exactly a partial prefix of the run; consumed inside
    :class:`~repro.campaign.store.CampaignStore`, it exercises
    crash/resume.
``hang``
    Sleep ``secs`` (default 30) inside the worker at dispatch ``batch``.
    Consumed in the worker task entry point; exercises the batch
    deadline / hung-worker kill path.
``raise``
    Raise :class:`InjectedTrialFault` inside trial index ``trial``.
    Without ``times`` the trial is *poison* (fails every attempt and is
    eventually quarantined); ``times=N`` makes the fault transient — the
    first ``N`` attempts fail and the next retry succeeds.  Consumed in
    :func:`repro.campaign.executor.execute_batch` right before the trial
    is handed to its runner (a batched cell checks all its lanes first),
    so it is the one clause that also fires in serial (in-process) runs
    and it reaches every trial runner alike.
``corrupt``
    Stamp-corrupt the shared results-ring generation of dispatch
    ``batch`` (the worker writes records with a wrong generation).
    Consumed on the ring write path; exercises the
    :class:`~repro.campaign.shm.ShmError` detect-and-reschedule path.
``lock``
    Raise a transient ``sqlite3.OperationalError("database is locked")``
    on store commit number ``commit`` for the first ``times`` attempts
    (default 1).  Consumed inside
    :class:`~repro.campaign.store.CampaignStore`; exercises the
    bounded-backoff commit retry.

Store commits are numbered 1-based over every commit of one store object
(campaign metadata, trial batches, failure rows, estimator states and the
completion mark), the same numbering for ``lock`` and ``crash@commit``.
A store gets its plan only from whoever opens it (the ``fault_plan=``
argument, or ``run_campaign`` attaching its resolved plan); it never
reads the environment.  The CLI hands the resolved plan to the estimator
stores it opens, and the campaign service's jobs go through
``run_campaign``.

``crash``, ``hang`` and ``corrupt`` accept ``p=PROB`` (with an optional
``seed=N``) instead of ``batch=K``: the clause then fires on each
dispatch with probability ``p``, decided by a counter-based hash of
``(seed, kind, dispatch)`` — deterministic and scheduling-independent,
so probabilistic chaos runs replay exactly.  ``crash@p=1`` kills every
worker on its first task.

Because a rescheduled batch gets a *fresh* dispatch number, a fault keyed
by ``batch`` fires exactly once: the retry of a crashed or hung batch runs
clean, which is what makes the chaos matrix converge.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from typing import Dict, Optional, Tuple

#: Environment variable holding the fault plan for a run (see module docs).
FAULT_PLAN_ENV_VAR = "REPRO_FAULT_PLAN"

#: The clause kinds a plan may contain, and the keys each accepts.
_CLAUSE_KEYS = {
    "crash": {"batch", "p", "seed", "commit"},
    "hang": {"batch", "p", "seed", "secs"},
    "raise": {"trial", "times"},
    "corrupt": {"batch", "p", "seed"},
    "lock": {"commit", "times"},
}

#: Default sleep of a ``hang`` clause, chosen to sit far beyond any sane
#: ``--batch-deadline`` so the hang is detected, not waited out.
DEFAULT_HANG_SECS = 30.0


class FaultPlanError(ValueError):
    """A fault plan string could not be parsed or is inconsistent."""


class InjectedTrialFault(RuntimeError):
    """The deterministic in-trial fault raised by a ``raise`` clause."""


@dataclasses.dataclass(frozen=True)
class TrialFailure:
    """Structured record of one quarantined (permanently failed) trial.

    Written to the checkpoint store's ``failures`` table (schema v3) and
    carried on :class:`~repro.campaign.aggregate.CampaignResult` so a
    campaign that loses a poison trial still reports exactly what was
    lost, with which seed, after how many attempts, and why.
    """

    trial_index: int
    label: str
    replicate: int
    seed: int
    attempts: int
    kind: str
    message: str

    def describe(self) -> str:
        """Render a one-line human-readable account of the failure."""
        return (f"trial {self.trial_index} ({self.label}, replicate "
                f"{self.replicate}, seed {self.seed}) quarantined after "
                f"{self.attempts} attempt(s): [{self.kind}] {self.message}")

    @staticmethod
    def trial_index_of(detail: str) -> int:
        """Read the trial index back from a :meth:`describe` line.

        Args:
            detail: A ``quarantine`` recovery event's detail, which is the
                failure's :meth:`describe` line.

        Returns:
            The quarantined trial's index.
        """
        return int(detail.split(" ", 2)[1])


@dataclasses.dataclass(frozen=True)
class BatchContext:
    """Per-dispatch metadata the executor attaches to every batch task.

    Attributes:
        dispatch: Global 1-based dispatch sequence number of this
            submission (reschedules get fresh numbers).
        attempts: Per-trial failure counts so far, aligned with the
            batch's runs; lets transient ``raise`` clauses decide whether
            this attempt should still fail.
    """

    dispatch: int
    attempts: Tuple[int, ...]


@dataclasses.dataclass(frozen=True)
class FaultClause:
    """One parsed clause of a fault plan (see the module docs for kinds)."""

    kind: str
    batch: Optional[int] = None
    trial: Optional[int] = None
    commit: Optional[int] = None
    secs: float = DEFAULT_HANG_SECS
    times: Optional[int] = None
    p: Optional[float] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _CLAUSE_KEYS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{sorted(_CLAUSE_KEYS)}")
        if self.kind == "crash":
            if sum(key is not None
                   for key in (self.batch, self.p, self.commit)) != 1:
                raise FaultPlanError(
                    "crash clause needs exactly one of batch=, p= or commit=")
        elif self.kind in ("hang", "corrupt"):
            if (self.batch is None) == (self.p is None):
                raise FaultPlanError(
                    f"{self.kind} clause needs exactly one of batch= or p=")
        if self.kind == "raise" and self.trial is None:
            raise FaultPlanError("raise clause needs trial=")
        if self.kind == "lock" and self.commit is None:
            raise FaultPlanError("lock clause needs commit=")
        if self.p is not None and not 0.0 <= self.p <= 1.0:
            raise FaultPlanError("p must be within [0, 1]")

    def fires_at(self, dispatch: int) -> bool:
        """Whether this dispatch-keyed clause fires on dispatch ``dispatch``."""
        if self.commit is not None:  # commit-keyed: never at a dispatch
            return False
        if self.batch is not None:
            return dispatch == self.batch
        digest = hashlib.sha256(
            f"{self.seed}:{self.kind}:{dispatch}".encode()).digest()
        draw = int.from_bytes(digest[:8], "big") / 2 ** 64
        return draw < self.p

    def describe(self) -> str:
        """Render the clause back into plan syntax."""
        parts = []
        for key in ("batch", "trial", "commit", "p", "seed", "times"):
            value = getattr(self, key)
            if value is not None and not (key == "seed" and value == 0):
                parts.append(f"{key}={value:g}" if isinstance(value, float)
                             else f"{key}={value}")
        if self.kind == "hang":
            parts.append(f"secs={self.secs:g}")
        return f"{self.kind}@{','.join(parts)}"


def _parse_clause(text: str) -> FaultClause:
    """Parse one ``kind@key=value,...`` clause of a plan string."""
    head, sep, tail = text.partition("@")
    kind = head.strip()
    if not sep or not tail.strip():
        raise FaultPlanError(f"fault clause {text!r} is missing '@key=value'")
    allowed = _CLAUSE_KEYS.get(kind)
    if allowed is None:
        raise FaultPlanError(
            f"unknown fault kind {kind!r} in clause {text!r}; expected one "
            f"of {sorted(_CLAUSE_KEYS)}")
    kwargs: Dict[str, object] = {}
    for pair in tail.split(","):
        key, eq, value = pair.partition("=")
        key = key.strip()
        if not eq or key not in allowed:
            raise FaultPlanError(
                f"bad key {pair.strip()!r} in {kind} clause; allowed keys: "
                f"{sorted(allowed)}")
        try:
            kwargs[key] = (float(value) if key in ("p", "secs")
                           else int(value))
        except ValueError as exc:
            raise FaultPlanError(
                f"bad value in fault clause {text!r}: {pair.strip()!r}"
            ) from exc
    return FaultClause(kind=kind, **kwargs)


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """A deterministic, replayable script of faults for one campaign run.

    Frozen and built from primitives, so it pickles cleanly to pool
    workers (inside the executor's spooled job context) and hashes the
    same everywhere.  All query methods are pure functions of the plan
    and the injection-point coordinates — no hidden state, so any two
    runs with the same plan and the same dispatch/commit sequence inject
    the same faults.
    """

    clauses: Tuple[FaultClause, ...] = ()

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse a plan string (see the module docs for the syntax).

        Args:
            text: Semicolon-separated fault clauses; empty/whitespace
                parses to an empty plan.

        Returns:
            The parsed plan.

        Raises:
            FaultPlanError: On unknown kinds, bad keys or bad values.
        """
        clauses = tuple(_parse_clause(part)
                        for part in text.split(";") if part.strip())
        return cls(clauses=clauses)

    @classmethod
    def from_env(cls) -> "FaultPlan | None":
        """Load the plan from ``REPRO_FAULT_PLAN`` (``None`` when unset)."""
        raw = os.environ.get(FAULT_PLAN_ENV_VAR)
        if raw is None or not raw.strip():
            return None
        return cls.parse(raw)

    def _dispatch_fires(self, kind: str, dispatch: int) -> bool:
        """Whether any dispatch-keyed clause of ``kind`` fires here."""
        return any(c.kind == kind and c.fires_at(dispatch)
                   for c in self.clauses)

    def crash_at(self, dispatch: int) -> bool:
        """Whether the worker picking up dispatch ``dispatch`` must die."""
        return self._dispatch_fires("crash", dispatch)

    def hang_secs(self, dispatch: int) -> float:
        """Seconds the worker must sleep at dispatch ``dispatch`` (0 = none)."""
        return sum(c.secs for c in self.clauses
                   if c.kind == "hang" and c.fires_at(dispatch))

    def raise_in_trial(self, trial_index: int, attempt: int) -> bool:
        """Whether attempt number ``attempt`` of trial ``trial_index`` fails.

        Args:
            trial_index: The trial's campaign index.
            attempt: 0-based count of the trial's previous failures.

        Returns:
            True when a ``raise`` clause targets the trial and either has
            no ``times`` bound (poison) or still has firings left.
        """
        return any(c.kind == "raise" and c.trial == trial_index
                   and (c.times is None or attempt < c.times)
                   for c in self.clauses)

    def corrupt_at(self, dispatch: int) -> bool:
        """Whether the ring records of dispatch ``dispatch`` get bad stamps."""
        return self._dispatch_fires("corrupt", dispatch)

    def crash_after_commit(self, commit: int) -> bool:
        """Whether the process must hard-exit after store commit ``commit``."""
        return any(c.kind == "crash" and c.commit == commit
                   for c in self.clauses)

    def lock_commit(self, commit: int, attempt: int) -> bool:
        """Whether store commit ``commit`` must fail on try ``attempt``.

        Args:
            commit: 1-based sequence number of the commit in its store.
            attempt: 0-based retry count of the commit so far.

        Returns:
            True while a matching ``lock`` clause has injected fewer than
            its ``times`` (default 1) failures into this commit.
        """
        return any(c.kind == "lock" and c.commit == commit
                   and attempt < (c.times if c.times is not None else 1)
                   for c in self.clauses)

    def describe(self) -> str:
        """Render the plan back into the ``REPRO_FAULT_PLAN`` syntax."""
        return ";".join(c.describe() for c in self.clauses)

    def __bool__(self) -> bool:
        return bool(self.clauses)


def resolve_fault_plan(plan: "FaultPlan | str | None") -> "FaultPlan | None":
    """Normalize a fault-plan argument (object, plan string, or ``None``).

    Args:
        plan: A ready plan, a plan string to parse, or ``None`` to defer
            to the ``REPRO_FAULT_PLAN`` environment variable.

    Returns:
        The effective plan, or ``None`` when no faults are scripted.
    """
    if plan is None:
        return FaultPlan.from_env()
    if isinstance(plan, str):
        return FaultPlan.parse(plan)
    return plan
