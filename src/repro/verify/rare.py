"""Rare-event violation-probability estimation by importance splitting.

At realistic loss rates PTE violations are rare: crude Monte Carlo needs
on the order of ``1/p`` trials before it sees a single violation, and
``(1-p)/(p * re^2)`` trials for a relative error of ``re``.  This module
estimates the same probability from orders of magnitude fewer trials with
**fixed-effort multilevel splitting** over the monitor's risk levels:

1. Every trial is scored online by the largest fraction of the PTE Rule-1
   dwelling budget any monitored entity consumed in one continuous risky
   dwell (streamed by :class:`~repro.casestudy.observers.RiskLevelObserver`
   — no traces are retained).  A score of 1.0 is the violation boundary.
2. ``N`` trials run per level.  The top quantile (or the survivors of a
   fixed threshold ladder) are *promoted*: each of the next level's ``N``
   trials replays a uniformly chosen survivor's RNG streams up to the
   draw-count watermark recorded when the survivor first crossed the
   threshold, then diverges with fresh randomness derived from the master
   seed (:func:`~repro.util.seeding.rng_session` fork-by-replay).  The
   child is therefore an exact sample of the trial distribution
   conditioned on reaching the level — on any engine tier and any worker
   count.  The children of one survivor at one threshold form a
   :class:`ForkGroup`: one task replays the survivor's prefix once,
   pauses on the step boundary before the crossing and runs every child
   from a copy of the paused trial (:func:`run_fork_group`).
3. The product of the per-level conditional probabilities estimates the
   violation probability, with the standard relative-error bound
   ``re^2 <= sum_j (1 - p_j) / (N * p_j)`` and a lognormal confidence
   interval.  With a **fixed threshold ladder** the estimate is exactly
   unbiased; **adaptive** (quantile-placed) thresholds add the well-known
   ``O(1/N)`` upward bias of adaptive multilevel splitting (Cerou &
   Guyader), which vanishes as the per-level effort grows — the
   statistical test suite pins both behaviours on the toy chain.

The module is deliberately generic: a *trial function* maps a
:class:`~repro.util.seeding.ForkPlan` to a :class:`ScoredTrial` and a
:class:`ForkGroup` to the list of its plans' scored trials.  The
case study's trial function is :func:`scored_case_trial`; an analytically
solvable birth--death chain (:func:`run_chain_trial`) backs the
statistical-correctness test suite.

Estimator progress checkpoints level-by-level into the durable campaign
store's ``estimator`` table (schema v4), so a killed splitting run resumes
bit-identically with ``--resume``.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import json
import math
import sys
import types
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Dict, List, Sequence, Tuple

from repro.casestudy.config import CaseStudyConfig
from repro.casestudy.emulation import StreamedTrial, _lowered_case_study
from repro.casestudy.observers import RiskLevelObserver
from repro.hybrid.simulate import resolve_engine_kind
from repro.util.seeding import (ForkPlan, RngLedger, StreamKey, derive_seed,
                                rng_session, spawn_rng)

if TYPE_CHECKING:  # pragma: no cover - avoids importing the campaign package
    from repro.campaign.spec import ChannelSpec, SurgeonSpec

#: Marker-valued watermark type (draw counts per RNG stream), or ``None``
#: when a trial ran without a ledger attached.
Watermark = Dict[StreamKey, int]

#: A trial function: deterministic map from a fork plan to a scored trial,
#: and from a fork group to its plans' scored trials (in plan order).
TrialFn = Callable[["ForkPlan | ForkGroup"], "ScoredTrial | List[ScoredTrial]"]

#: A map strategy: applies a trial function to many items, order-preserving.
MapFn = Callable[[TrialFn, Sequence], list]

#: Most children one task runs from one paused survivor.  Larger groups are
#: cut into chunks so that a pool spreads a popular survivor over workers.
FORK_CHUNK = 8


# -- scored trials -----------------------------------------------------------
@dataclass(frozen=True)
class ScoredTrial:
    """One executed trial, reduced to what the splitting estimator needs.

    Attributes:
        plan: The trial's full stochastic identity; re-running the plan
            reproduces the trial bit-for-bit.
        score: The risk level reached (fraction of the PTE dwelling
            budget; >= 1.0 on the violation boundary).
        violation: Whether the trial violated the PTE rules.
        staircase: Strictly increasing ``(score, watermark)`` records of
            every new running-maximum score, in time order.  Watermarks
            are ``None`` when the trial ran without an RNG ledger.
        steps: The step each staircase record was made in, or empty when
            unknown (a fork then pauses at step 0: the children replay the
            whole prefix).
    """

    plan: ForkPlan
    score: float
    violation: bool
    staircase: Tuple[Tuple[float, Watermark | None], ...] = ()
    steps: Tuple[int, ...] = ()

    def fork_point(self, threshold: float) -> Tuple[Watermark | None, int]:
        """Watermark and step of the first score record at/above ``threshold``."""
        for index, (score, marks) in enumerate(self.staircase):
            if score >= threshold:
                return marks, self.steps[index] if self.steps else 0
        return None, 0


@dataclass(frozen=True)
class RareEventEstimate:
    """A violation-probability estimate with its error bound.

    Attributes:
        method: ``"crude"`` or ``"split"``.
        probability: The (unbiased) probability estimate.
        rel_error: Estimated relative standard error (``inf`` when no
            violation was observed).
        confidence: Confidence level of ``(ci_low, ci_high)``.
        ci_low: Lower lognormal confidence bound.
        ci_high: Upper lognormal confidence bound.
        thresholds: The splitting levels actually used (empty for crude).
        factors: Per-level conditional probabilities; their product is
            ``probability``.
        trials_used: Total trials executed.
        saturated: True when a splitting level had zero survivors (the
            estimate degenerates to 0 and the error bound is meaningless).
    """

    method: str
    probability: float
    rel_error: float
    confidence: float
    ci_low: float
    ci_high: float
    thresholds: Tuple[float, ...]
    factors: Tuple[float, ...]
    trials_used: int
    saturated: bool = False

    def to_json(self) -> dict:
        """Encode the estimate as JSON-ready primitives."""
        return {"method": self.method, "probability": self.probability,
                "rel_error": self.rel_error, "confidence": self.confidence,
                "ci_low": self.ci_low, "ci_high": self.ci_high,
                "thresholds": list(self.thresholds),
                "factors": list(self.factors),
                "trials_used": self.trials_used, "saturated": self.saturated}

    @classmethod
    def from_json(cls, data: dict) -> "RareEventEstimate":
        """Rebuild an estimate encoded by :meth:`to_json`."""
        return cls(method=data["method"], probability=data["probability"],
                   rel_error=data["rel_error"], confidence=data["confidence"],
                   ci_low=data["ci_low"], ci_high=data["ci_high"],
                   thresholds=tuple(data["thresholds"]),
                   factors=tuple(data["factors"]),
                   trials_used=int(data["trials_used"]),
                   saturated=bool(data["saturated"]))


# -- normal quantiles (no scipy dependency) ----------------------------------
def _normal_quantile(p: float) -> float:
    """Inverse standard-normal CDF (Acklam's rational approximation).

    Accurate to ~1.15e-9 over (0, 1) — far below the statistical noise of
    any estimate this module produces.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("quantile argument must be within (0, 1)")
    a = (-3.969683028665376e+01, 2.209460984245205e+02,
         -2.759285104469687e+02, 1.383577518672690e+02,
         -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02,
         -1.556989798598866e+02, 6.680131188771972e+01,
         -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01,
         -2.400758277161838e+00, -2.549732539343734e+00,
         4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01,
         2.445134137142996e+00, 3.754408661907416e+00)
    p_low, p_high = 0.02425, 1 - 0.02425
    if p < p_low:
        q = math.sqrt(-2 * math.log(p))
        return ((((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q
                 + c[5])
                / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1))
    if p > p_high:
        q = math.sqrt(-2 * math.log(1 - p))
        return -((((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q
                  + c[5])
                 / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1))
    q = p - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r
            + a[5]) * q / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r
                            + b[4]) * r + 1)


def z_value(confidence: float) -> float:
    """Two-sided standard-normal critical value for a confidence level."""
    return _normal_quantile(1.0 - (1.0 - confidence) / 2.0)


def _build_estimate(method: str, factors: Sequence[float],
                    counts: Sequence[int], thresholds: Sequence[float],
                    confidence: float, trials_used: int,
                    saturated: bool = False) -> RareEventEstimate:
    """Fold per-level factors into the estimate + error bound + CI."""
    probability = 1.0
    for factor in factors:
        probability *= factor
    if probability <= 0.0:
        return RareEventEstimate(
            method=method, probability=0.0, rel_error=math.inf,
            confidence=confidence, ci_low=0.0, ci_high=math.inf,
            thresholds=tuple(thresholds), factors=tuple(factors),
            trials_used=trials_used, saturated=saturated)
    re2 = sum((1.0 - factor) / (count * factor)
              for factor, count in zip(factors, counts))
    rel_error = math.sqrt(re2)
    z = z_value(confidence)
    spread = math.exp(z * rel_error)
    return RareEventEstimate(
        method=method, probability=probability, rel_error=rel_error,
        confidence=confidence, ci_low=probability / spread,
        ci_high=min(1.0, probability * spread), thresholds=tuple(thresholds),
        factors=tuple(factors), trials_used=trials_used, saturated=saturated)


# -- map strategies ----------------------------------------------------------
def pool_map(trial_fn: TrialFn, plans: Sequence[ForkPlan], *,
             max_workers: int = 1) -> List[ScoredTrial]:
    """Run plans (or fork groups) through ``trial_fn``, optionally in a pool.

    The pool's ``map`` preserves item order and the items fully determine
    their trials, so results are bit-identical for any ``max_workers``.
    """
    if max_workers <= 1:
        return [trial_fn(plan) for plan in plans]
    with ProcessPoolExecutor(max_workers=max_workers) as pool:
        return list(pool.map(trial_fn, plans))


# -- fork groups -------------------------------------------------------------
def _segment_key(segment) -> tuple:
    return (segment.seed, tuple(sorted(segment.watermark.items())), segment.step)


def _prefix_key(plan: ForkPlan) -> tuple:
    """What the plans of one fork group share: everything but the last seed."""
    if not plan.segments:
        return (plan.root_seed,)
    *head, last = plan.segments
    return (plan.root_seed, tuple(_segment_key(segment) for segment in head),
            tuple(sorted(last.watermark.items())), last.step)


@dataclass(frozen=True)
class ForkGroup:
    """Plans that fork one survivor at one threshold.

    The plans share the root seed, every earlier segment and the last
    segment's watermark and step; only the last segment's seed differs.
    A root plan (no segments) is a group of its own.  :func:`run_fork_group`
    replays the shared prefix once and runs each plan from a copy of it.
    """

    plans: Tuple[ForkPlan, ...]

    def __post_init__(self):
        if not self.plans:
            raise ValueError("a fork group needs at least one plan")
        key = _prefix_key(self.plans[0])
        if any(_prefix_key(plan) != key for plan in self.plans[1:]):
            raise ValueError("the plans of a fork group must fork one parent "
                             "at one point")

    @property
    def parent(self) -> ForkPlan:
        """The plan whose prefix every member replays."""
        return self.plans[0].parent

    @property
    def step(self) -> int:
        """The step the shared prefix pauses before (0: before the start)."""
        segments = self.plans[0].segments
        return segments[-1].step if segments else 0


def fork_groups(plans: Sequence[ForkPlan]) -> Tuple[List[ForkGroup], List[List[int]]]:
    """Cut one level's plans into fork groups of at most :data:`FORK_CHUNK`.

    Returns the groups and each group's slots (the plans' positions in
    ``plans``, in plan order).  Larger groups come first, ties by first
    slot, so that a pool starts the longest tasks first.
    """
    members: Dict[tuple, List[int]] = {}
    for slot, plan in enumerate(plans):
        members.setdefault(_prefix_key(plan), []).append(slot)
    chunks = [shared[first:first + FORK_CHUNK] for shared in members.values()
              for first in range(0, len(shared), FORK_CHUNK)]
    chunks.sort(key=lambda chunk: (-len(chunk), chunk[0]))
    return [ForkGroup(tuple(plans[slot] for slot in chunk)) for chunk in chunks], chunks


def _run_level(trial_fn: TrialFn, plans: Sequence[ForkPlan],
               map_fn: MapFn) -> List[ScoredTrial]:
    """Run one level as fork groups; results come back in slot order."""
    groups, slots = fork_groups(plans)
    results: List[ScoredTrial | None] = [None] * len(plans)
    for group_slots, trials in zip(slots, map_fn(trial_fn, groups)):
        for slot, trial in zip(group_slots, trials):
            results[slot] = trial
    return results


def run_fork_group(group: ForkGroup,
                   begin: Callable[[RngLedger], "PausableRun"]) -> List[ScoredTrial]:
    """Run a fork group: replay the shared prefix once, then every plan.

    ``begin(ledger)`` builds the parent's run inside its RNG session.  The
    run advances to the boundary just before the group's step; each plan
    but the last then continues on a :func:`copy.deepcopy` of the paused
    run (the last one on the run itself), with the ledger forked into the
    plan.  Every plan's scored trial is bit-identical to replaying it from
    the start, because the pause lies at or before the fork point.
    """
    with rng_session(group.parent) as ledger:
        run = begin(ledger)
        if group.step:
            run.advance(group.step - 1)
    pins = run.pins() if len(group.plans) > 1 else {}
    results = []
    for index, plan in enumerate(group.plans):
        child = run if index == len(group.plans) - 1 else copy.deepcopy(run, dict(pins))
        if plan.segments:
            child.ledger.fork(plan)
        with rng_session(child.ledger):
            child.advance()
        results.append(child.scored(plan))
    return results


class PausableRun:
    """What :func:`run_fork_group` drives: one scored trial that can pause.

    Attributes:
        ledger: The run's RNG ledger (copied along with the run).
    """

    ledger: RngLedger

    def advance(self, until: int | None = None) -> None:
        """Run until ``until`` steps are complete, or (``None``) to the end."""
        raise NotImplementedError

    def scored(self, plan: ForkPlan) -> ScoredTrial:
        """The finished run's scored trial, under ``plan``."""
        raise NotImplementedError

    def pins(self) -> dict:
        """A deepcopy memo of what copies of the run may share."""
        return {}


#: Objects :func:`pin_memo` neither pins nor walks into: deepcopy shares
#: functions, types and modules, and copies scalars by value anyway.
_UNPINNED = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType,
             types.MethodType, types.CodeType, int, float, complex, str, bytes,
             bool, type(None))


def pin_memo(*roots) -> dict:
    """A deepcopy memo that maps everything reachable from ``roots`` to itself.

    Copying a paused run with (a copy of) this memo shares the lowered
    model, configuration and other per-cell objects instead of copying
    them.  Only objects no run mutates may be pinned.
    """
    memo: dict = {}
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if isinstance(obj, _UNPINNED) or id(obj) in memo:
            continue
        memo[id(obj)] = obj
        if isinstance(obj, dict):
            stack += obj.keys()
            stack += obj.values()
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack += obj
        else:
            stack += getattr(obj, "__dict__", {}).values()
            for cls in type(obj).__mro__:
                names = cls.__dict__.get("__slots__", ())
                for name in (names,) if isinstance(names, str) else names:
                    if hasattr(obj, name):
                        stack.append(getattr(obj, name))
    return memo


# -- the estimators ----------------------------------------------------------
@dataclass(frozen=True)
class SplitSettings:
    """Knobs of the fixed-effort splitting estimator.

    Attributes:
        trials_per_level: Trials run at every level (the "effort").
        quantile: Fraction of trials promoted per adaptive level (the
            conditional probability each level targets).
        levels: Explicit, strictly increasing score thresholds.  ``None``
            (default) places levels adaptively at the running
            ``1 - quantile`` score quantile.  A fixed ladder makes the
            estimate exactly unbiased; adaptive placement costs an
            ``O(1 / trials_per_level)`` upward bias in exchange for not
            having to know the score landscape in advance.
        max_levels: Hard cap on adaptive levels (the final level always
            estimates the violation probability directly).
        confidence: Confidence level of the reported interval.
    """

    trials_per_level: int = 64
    quantile: float = 0.25
    levels: Tuple[float, ...] | None = None
    max_levels: int = 12
    confidence: float = 0.95

    def __post_init__(self) -> None:
        if self.trials_per_level < 2:
            raise ValueError("trials_per_level must be at least 2")
        if not 0.0 < self.quantile < 1.0:
            raise ValueError("quantile must be within (0, 1)")
        if self.max_levels < 1:
            raise ValueError("max_levels must be at least 1")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must be within (0, 1)")
        if self.levels is not None:
            ladder = tuple(float(level) for level in self.levels)
            if not ladder:
                raise ValueError("explicit levels must be non-empty (or None)")
            if any(b <= a for a, b in zip(ladder, ladder[1:])):
                raise ValueError("explicit levels must be strictly increasing")

    def to_json(self) -> dict:
        """Encode the settings as JSON-ready primitives."""
        return {"trials_per_level": self.trials_per_level,
                "quantile": self.quantile,
                "levels": list(self.levels) if self.levels is not None else None,
                "max_levels": self.max_levels, "confidence": self.confidence}


def _next_threshold(settings: SplitSettings, level: int,
                    thresholds: Sequence[float], scores: Sequence[float],
                    violations: int) -> Tuple[bool, float | None]:
    """Decide the next splitting threshold (or that this level is final).

    ``scores`` must be sorted ascending.  Returns ``(final, threshold)``:
    a final level contributes ``violations / N`` directly.
    """
    n = len(scores)
    if settings.levels is not None:
        if level < len(settings.levels):
            return False, float(settings.levels[level])
        return True, None
    if level >= settings.max_levels:
        return True, None
    if violations / n >= settings.quantile:
        return True, None
    threshold = scores[min(int(n * (1.0 - settings.quantile)), n - 1)]
    if threshold >= 1.0:
        return True, None
    if thresholds and threshold <= thresholds[-1]:
        return True, None
    return False, threshold


def fixed_effort_splitting(trial_fn: TrialFn, *, master_seed: int,
                           settings: SplitSettings | None = None,
                           name: str = "split",
                           map_fn: MapFn | None = None,
                           store=None, identity: str | None = None,
                           resume: bool = False) -> RareEventEstimate:
    """Estimate a rare-event probability by fixed-effort splitting.

    Each level runs ``settings.trials_per_level`` trials, selects the
    survivors at/above the level threshold, and builds the next level's
    plans by forking uniformly chosen survivors at their threshold-crossing
    RNG watermark.  A level reaches ``map_fn`` as fork groups
    (:func:`fork_groups`), and the results are put back in slot order.
    Every random choice (root seeds, survivor selection, fork seeds) is
    derived deterministically from ``master_seed`` and the level/slot
    position, so the estimate is invariant to worker count, engine tier,
    and resume splits.

    Args:
        trial_fn: Deterministic :class:`ForkPlan` -> :class:`ScoredTrial`
            and :class:`ForkGroup` -> ``[ScoredTrial, ...]`` map (must be
            picklable if ``map_fn`` crosses processes).
        master_seed: Root of every derived seed.
        settings: Estimator knobs; ``None`` = defaults.
        name: Seed-derivation namespace; two estimators with different
            names draw decorrelated randomness from the same master seed.
        map_fn: Order-preserving batch runner over a level's fork groups
            (defaults to serial; :func:`pool_map` fans out over processes).
        store: Optional :class:`~repro.campaign.store.CampaignStore`;
            completed levels checkpoint into its ``estimator`` table.
        identity: Estimator-state key within the store (required with
            ``store``); see :func:`split_identity`.
        resume: Continue from the store's checkpointed level instead of
            starting fresh.  A resumed run is bit-identical to an
            uninterrupted one.

    Returns:
        The :class:`RareEventEstimate` (``method="split"``).
    """
    settings = settings or SplitSettings()
    map_fn = map_fn or (lambda fn, plans: [fn(plan) for plan in plans])
    n = settings.trials_per_level
    if store is not None and identity is None:
        raise ValueError("an estimator identity is required with a store")

    level = 0
    factors: List[float] = []
    thresholds: List[float] = []
    trials_used = 0
    plans = [ForkPlan(derive_seed(master_seed, f"{name}:root:{i}"))
             for i in range(n)]
    if store is not None and resume:
        state = store.load_estimator_state("split", identity)
        if state is not None:
            if state.get("done"):
                return RareEventEstimate.from_json(state["estimate"])
            level = int(state["level"])
            factors = [float(f) for f in state["factors"]]
            thresholds = [float(t) for t in state["thresholds"]]
            trials_used = int(state["trials_used"])
            plans = [ForkPlan.from_json(p) for p in state["plans"]]

    def _save(done: bool, estimate: RareEventEstimate | None = None) -> None:
        if store is None:
            return
        store.save_estimator_state("split", identity, {
            "done": done, "level": level, "factors": factors,
            "thresholds": thresholds, "trials_used": trials_used,
            "plans": [plan.to_json() for plan in plans],
            "settings": settings.to_json(),
            "estimate": estimate.to_json() if estimate is not None else None,
        })

    while True:
        results = _run_level(trial_fn, plans, map_fn)
        trials_used += len(results)
        scores = sorted(trial.score for trial in results)
        violations = sum(1 for trial in results if trial.violation)
        final, threshold = _next_threshold(settings, level, thresholds,
                                           scores, violations)
        if final:
            factors.append(violations / n)
            estimate = _build_estimate("split", factors, [n] * len(factors),
                                       thresholds, settings.confidence,
                                       trials_used)
            _save(True, estimate)
            return estimate

        survivors = [trial for trial in results if trial.score >= threshold]
        factors.append(len(survivors) / n)
        thresholds.append(threshold)
        if not survivors:
            estimate = _build_estimate("split", factors, [n] * len(factors),
                                       thresholds, settings.confidence,
                                       trials_used, saturated=True)
            _save(True, estimate)
            return estimate

        # Promote: each next-level slot forks a uniformly chosen survivor
        # at its threshold-crossing watermark and step.  Selection draws
        # through a level-keyed stream so the choice depends only on
        # (master seed, level, slot) — never on scheduling.
        select = spawn_rng(master_seed, f"{name}:select:{level}")
        next_plans: List[ForkPlan] = []
        for i in range(n):
            parent = survivors[select.randrange(len(survivors))]
            marks, step = parent.fork_point(threshold)
            child_seed = derive_seed(master_seed, f"{name}:fork:{level}:{i}")
            next_plans.append(parent.plan.fork(child_seed, marks or {}, step))
        plans = next_plans
        level += 1
        _save(False)


def crude_estimate(trial_fn: TrialFn, *, master_seed: int, trials: int,
                   name: str = "crude", map_fn: MapFn | None = None,
                   confidence: float = 0.95) -> RareEventEstimate:
    """Crude Monte Carlo baseline over the same scored-trial machinery.

    Args:
        trial_fn: Deterministic :class:`ForkPlan` -> :class:`ScoredTrial` map.
        master_seed: Root of every trial seed.
        trials: Number of independent trials.
        name: Seed-derivation namespace.
        map_fn: Order-preserving batch runner (defaults to serial).
        confidence: Confidence level of the reported interval.

    Returns:
        The :class:`RareEventEstimate` (``method="crude"``).
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    map_fn = map_fn or (lambda fn, plans: [fn(plan) for plan in plans])
    plans = [ForkPlan(derive_seed(master_seed, f"{name}:root:{i}"))
             for i in range(trials)]
    results = map_fn(trial_fn, plans)
    violations = sum(1 for trial in results if trial.violation)
    return _build_estimate("crude", [violations / trials], [trials], (),
                           confidence, trials)


def crude_trials_for(probability: float, rel_error: float) -> int:
    """Crude-MC trial count needed for a target relative error.

    The standard ``n = (1 - p) / (p * re^2)`` planning identity — the
    yardstick the splitting benchmark gates against.
    """
    if not 0.0 < probability < 1.0:
        raise ValueError("probability must be within (0, 1)")
    if rel_error <= 0.0:
        raise ValueError("rel_error must be positive")
    return max(1, math.ceil((1.0 - probability)
                            / (probability * rel_error * rel_error)))


# -- analytically solvable toy model (statistical test oracle) ---------------
def chain_success_probability(*, up: float, size: int, start: int = 1) -> float:
    """Exact absorption probability of the birth--death toy chain.

    The gambler's-ruin closed form: starting at ``start``, stepping up
    with probability ``up`` (down otherwise), the chance of hitting
    ``size`` before 0.
    """
    if up == 0.5:
        return start / size
    rho = (1.0 - up) / up
    return (1.0 - rho ** start) / (1.0 - rho ** size)


def run_chain_trial(item: ForkPlan | ForkGroup, *, up: float = 0.4, size: int = 12,
                    start: int = 1) -> ScoredTrial | List[ScoredTrial]:
    """One trial of the toy birth--death chain, scored for splitting.

    The chain starts at ``start`` and steps until absorbed at 0 (no
    violation) or ``size`` (violation).  The score is the maximum state
    reached as a fraction of ``size``, with the RNG watermark and move
    count recorded at every new maximum — exactly the staircase protocol
    of the case-study observer, but with a closed-form true probability
    (:func:`chain_success_probability`) for unbiasedness tests.  A
    :class:`ForkGroup` returns one scored trial per plan.
    """
    group = item if isinstance(item, ForkGroup) else ForkGroup((item,))
    results = run_fork_group(group, lambda ledger: _ChainRun(ledger, up, size, start))
    return results if isinstance(item, ForkGroup) else results[0]


class _ChainRun(PausableRun):
    """The toy chain as a pausable run; a step is one move."""

    def __init__(self, ledger: RngLedger, up: float, size: int, start: int):
        self.ledger = ledger
        self.up = up
        self.size = size
        self.rng = spawn_rng(ledger.plan.root_seed, "chain")
        self.state = self.best = start
        self.steps = 0
        self.staircase: List[Tuple[float, Watermark]] = [(start / size,
                                                          ledger.snapshot())]
        self.entry_steps = [0]

    def advance(self, until: int | None = None) -> None:
        limit = sys.maxsize if until is None else until
        while 0 < self.state < self.size and self.steps < limit:
            self.steps += 1
            self.state += 1 if self.rng.random() < self.up else -1
            if self.state > self.best:
                self.best = self.state
                self.staircase.append((self.best / self.size, self.ledger.snapshot()))
                self.entry_steps.append(self.steps)

    def scored(self, plan: ForkPlan) -> ScoredTrial:
        return ScoredTrial(plan=plan, score=self.best / self.size,
                           violation=(self.state == self.size),
                           staircase=tuple(self.staircase),
                           steps=tuple(self.entry_steps))


# -- the case-study trial function -------------------------------------------

#: Events a :class:`CellTemplate` can estimate the probability of.
CELL_EVENTS = ("violation", "dwell")


@dataclass(frozen=True)
class CellTemplate:
    """Picklable description of one campaign cell's trial family.

    Attributes:
        config: The fully configured case-study configuration (cell
            overrides already applied).
        with_lease: Trial mode.
        duration: Trial length (``None`` defers to the configuration).
        channel: A :class:`~repro.campaign.spec.ChannelSpec`, or ``None``
            for the configuration's calibrated channel.
        surgeon: A :class:`~repro.campaign.spec.SurgeonSpec` or ``None``
            for the stochastic surgeon.
        engine: Simulation kernel (``None`` selects the reference kernel).
        event: The rare event being estimated.  ``"violation"`` counts any
            monitor failure (sudden rule breaches are bumped onto the
            score boundary); ``"dwell"`` counts only exhaustion of the
            Rule-1 dwelling budget -- the event the risk score measures
            directly, and therefore the one multilevel splitting
            accelerates best.
    """

    config: CaseStudyConfig
    with_lease: bool = True
    duration: float | None = None
    channel: ChannelSpec | None = None
    surgeon: SurgeonSpec | None = None
    engine: str | None = None
    event: str = "violation"

    def __post_init__(self):
        if self.event not in CELL_EVENTS:
            raise ValueError(f"unknown cell event {self.event!r}; "
                             f"expected one of {CELL_EVENTS}")


def scored_case_trial(template: CellTemplate,
                      item: ForkPlan | ForkGroup) -> ScoredTrial | List[ScoredTrial]:
    """Run one case-study trial under a fork plan and score its risk level.

    Designed for ``functools.partial(scored_case_trial, template)`` as the
    splitting estimator's (picklable) trial function; a :class:`ForkGroup`
    returns one scored trial per plan (see :func:`run_fork_group`).
    Rule-2 violations that never consumed a full Rule-1 dwelling budget
    are bumped onto the violation boundary with an end-of-trial watermark:
    forking such a survivor replays it verbatim, which keeps the estimator
    unbiased (the clone is a valid — if maximally correlated — conditional
    sample).
    """
    if resolve_engine_kind(template.engine) != "reference":
        # Warm the per-process lowered-model cache *outside* the RNG
        # session: a cache miss draws template randomness, and workers
        # with cold caches must not count draws that warm workers skip.
        _lowered_case_study(template.config, template.with_lease)
    group = item if isinstance(item, ForkGroup) else ForkGroup((item,))
    results = run_fork_group(group, functools.partial(_CaseRun, template))
    return results if isinstance(item, ForkGroup) else results[0]


#: Pins of each lowered case study (see :meth:`_CaseRun.pins`), kept with
#: the lowered object so that its id cannot be reused while cached.
_PINS: Dict[int, Tuple[object, dict]] = {}
_PINS_LIMIT = 8


class _CaseRun(PausableRun):
    """One scored case-study trial, pausable between engine steps."""

    def __init__(self, template: CellTemplate, ledger: RngLedger):
        seed = ledger.plan.root_seed
        self.template = template
        self.ledger = ledger
        self.risk = RiskLevelObserver(template.config, ledger)
        channel = (template.channel.build(seed)
                   if template.channel is not None else None)
        surgeon = template.surgeon.build() if template.surgeon is not None else None
        self.trial = StreamedTrial(template.config, with_lease=template.with_lease,
                                   seed=seed, duration=template.duration,
                                   channel=channel, surgeon=surgeon,
                                   engine=template.engine, observers=[self.risk])
        self.risk.engine = self.trial.engine
        self.started = False

    def advance(self, until: int | None = None) -> None:
        engine = self.trial.engine
        if not self.started:
            engine.start(self.trial.duration)
            self.started = True
        engine.advance(until)
        if until is None:
            engine.finish()

    def scored(self, plan: ForkPlan) -> ScoredTrial:
        risk = self.risk
        score = risk.score
        staircase = [(level, marks) for level, marks, _ in risk.staircase]
        steps = [step for _, _, step in risk.staircase]
        if self.template.event == "dwell":
            # The dwelling-budget event is exactly "the risk score reached
            # 1.0", so no boundary bump is ever needed.
            violation = score >= 1.0
        else:
            violation = self.trial.stats.failures > 0
            if violation and score < 1.0:
                score = 1.0
                staircase.append((1.0, self.ledger.snapshot()))
                steps.append(self.trial.engine.steps)
        return ScoredTrial(plan=plan, score=score, violation=violation,
                           staircase=tuple(staircase), steps=tuple(steps))

    def pins(self) -> dict:
        # The model, couplings, rules and template are per cell; the
        # reference tier builds its system per trial, so only the lowered
        # tiers' pins are cached.  The monitor is read-only and staircase
        # records never change once made, so the copies share them too.
        case = self.trial.case
        if case.lowered is None:
            pins = pin_memo(case.system, case.couplings, case.rules)
        else:
            hit = _PINS.get(id(case.lowered))
            if hit is None:
                if len(_PINS) >= _PINS_LIMIT:
                    _PINS.pop(next(iter(_PINS)))
                hit = _PINS[id(case.lowered)] = (
                    case.lowered, pin_memo(case.lowered, case.couplings, case.rules))
            pins = dict(hit[1])
        pins.update(pin_memo(self.template, self.ledger.plan, self.trial.stats.monitor,
                             *self.risk.staircase))
        return pins


def cell_template(spec, cell_index: int, *,
                  engine: str | None = None,
                  event: str = "violation") -> CellTemplate:
    """Extract a campaign cell into a :class:`CellTemplate`.

    Mirrors the campaign executor's cell-materialization semantics
    (config overrides via ``TrialSpec.configure``, the cell's channel and
    surgeon specs, the cell-then-campaign duration default), so a split
    estimate targets exactly the trials the campaign would run.
    """
    cell = spec.trials[cell_index]
    config = cell.configure(spec.config)
    duration = cell.duration if cell.duration is not None else spec.duration
    return CellTemplate(config=config, with_lease=cell.with_lease,
                        duration=duration, channel=cell.channel,
                        surgeon=cell.surgeon, engine=engine, event=event)


def split_identity(spec, cell_index: int, master_seed: int,
                   settings: SplitSettings) -> str:
    """Stable identity of one cell's splitting run (the store key).

    Covers the campaign spec, the cell, the master seed and the estimator
    settings; deliberately excludes engine and worker count, which do not
    affect the numbers — a run may crash on one tier and resume on
    another.
    """
    from repro.campaign.store import spec_fingerprint
    payload = json.dumps({"spec": spec_fingerprint(spec, master_seed),
                          "cell": int(cell_index),
                          "settings": settings.to_json()},
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def split_estimate_for_cell(spec, cell_index: int = 0, *,
                            master_seed: int = 0,
                            settings: SplitSettings | None = None,
                            engine: str | None = None,
                            max_workers: int = 1,
                            store=None,
                            resume: bool = False) -> RareEventEstimate:
    """Splitting estimate of one campaign cell's violation probability.

    Args:
        spec: The :class:`~repro.campaign.spec.CampaignSpec`.
        cell_index: Which trial cell to estimate.
        master_seed: Campaign master seed.
        settings: Estimator knobs; ``None`` = defaults.
        engine: Simulation kernel (``None`` selects the reference kernel).
        max_workers: Worker processes for each level's trials.
        store: Optional durable store (or path accepted by the caller);
            levels checkpoint into its ``estimator`` table.
        resume: Continue a checkpointed run bit-identically.

    Returns:
        The cell's :class:`RareEventEstimate`.
    """
    settings = settings or SplitSettings()
    template = cell_template(spec, cell_index, engine=engine)
    trial_fn = functools.partial(scored_case_trial, template)
    map_fn = functools.partial(pool_map, max_workers=max_workers)
    return fixed_effort_splitting(
        trial_fn, master_seed=master_seed, settings=settings,
        name=f"split:{spec.name}:{cell_index}", map_fn=map_fn, store=store,
        identity=split_identity(spec, cell_index, master_seed, settings),
        resume=resume)


def cell_campaign(spec, cell_index: int, *, method: str, replicates: int):
    """The single-cell campaign a crude or SPRT estimate executes.

    The cell is copied with ``replicates`` replicates and derived seeds
    (explicit seed lists are dropped: the estimators need the unbounded
    deterministic seed stream).  The campaign is named
    ``{spec.name}:{method}:{cell_index}``, so its store fingerprint never
    collides with the plain campaign's or with another method's.
    """
    from repro.campaign.spec import CampaignSpec

    cell = replace(spec.trials[cell_index], replicates=replicates, seeds=None)
    return CampaignSpec(name=f"{spec.name}:{method}:{cell_index}",
                        trials=(cell,), config=spec.config,
                        duration=spec.duration)


def run_cell_campaign(spec, cell_index: int, *, method: str, replicates: int,
                      master_seed: int = 0, **campaign):
    """Run :func:`cell_campaign` on ``run_campaign``, forwarding its keyword
    arguments (store, resume, fault plan, budgets, ...) unchanged."""
    from repro.campaign.executor import run_campaign

    return run_campaign(cell_campaign(spec, cell_index, method=method,
                                      replicates=replicates),
                        seed=master_seed, **campaign)


def crude_estimate_for_cell(spec, cell_index: int = 0, *,
                            master_seed: int = 0, trials: int = 512,
                            confidence: float = 0.95,
                            **campaign) -> RareEventEstimate:
    """Crude-MC estimate of one campaign cell's violation probability.

    The ``trials`` replicates run through :func:`run_cell_campaign`, which
    forwards ``campaign`` to ``run_campaign``.  A trial is a violation when
    its summary records a monitor failure (as in SPRT and
    ``event="violation"``); quarantined trials are left out of the count.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    result = run_cell_campaign(spec, cell_index, method="crude",
                               replicates=trials, master_seed=master_seed,
                               **campaign)
    done = len(result.summaries)
    violations = sum(1 for summary in result.summaries if summary.failures > 0)
    return _build_estimate("crude", [violations / done if done else 0.0],
                           [done], (), confidence, done)
