"""Sequential probability ratio testing for campaign cells.

Wald's SPRT decides between H0: ``p <= p0`` and H1: ``p >= p1`` (``p`` the
per-trial PTE-violation probability) with configured error rates ``alpha``
(accepting H1 when H0 holds) and ``beta`` (accepting H0 when H1 holds),
stopping as soon as the log-likelihood ratio leaves the continuation band
— typically after a small fraction of the trials a fixed-size campaign
would burn.

Two drivers share the same :class:`SequentialProbabilityRatioTest` core:

* :func:`run_sprt_trials` — a generic sequential loop over any
  :class:`~repro.verify.rare.ScoredTrial` function (the statistical test
  suite runs it on the toy chain).
* :func:`run_sprt_campaign` — wraps one campaign cell in the real
  executor: trial results stream back through ``on_result``, the test
  consumes them **in replicate order** (buffering out-of-order pool
  completions, so the decision is invariant to worker count), and the
  executor's cooperative ``stop`` poll cancels the remaining batches the
  moment the test decides.  The underlying trials checkpoint to the
  durable store like any campaign, and the final test state lands in the
  store's ``estimator`` table (schema v4): a ``--resume`` replays the
  checkpointed prefix through the same consumer — bit-identically — or
  short-circuits entirely when the stored state is already decided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.campaign.faults import TrialFailure
from repro.util.seeding import ForkPlan, derive_seed
from repro.verify.rare import MapFn, TrialFn, cell_campaign, run_cell_campaign


@dataclass(frozen=True)
class SprtSettings:
    """Hypotheses and error budget of one sequential test.

    Attributes:
        p0: Null violation probability (H0: ``p <= p0``).
        p1: Alternative violation probability (H1: ``p >= p1``).
        alpha: Admissible probability of accepting H1 under H0.
        beta: Admissible probability of accepting H0 under H1.
        max_trials: Truncation point; an undecided test is forced by the
            log-likelihood-ratio sign at this many trials.
    """

    p0: float
    p1: float
    alpha: float = 0.05
    beta: float = 0.05
    max_trials: int = 10_000

    def __post_init__(self) -> None:
        if not 0.0 < self.p0 < self.p1 < 1.0:
            raise ValueError("hypotheses must satisfy 0 < p0 < p1 < 1")
        if not 0.0 < self.alpha < 1.0 or not 0.0 < self.beta < 1.0:
            raise ValueError("alpha and beta must be within (0, 1)")
        if self.max_trials < 1:
            raise ValueError("max_trials must be at least 1")

    def to_json(self) -> dict:
        """Encode the settings as JSON-ready primitives."""
        return {"p0": self.p0, "p1": self.p1, "alpha": self.alpha,
                "beta": self.beta, "max_trials": self.max_trials}

    @classmethod
    def from_json(cls, data: dict) -> "SprtSettings":
        """Rebuild settings encoded by :meth:`to_json`."""
        return cls(p0=data["p0"], p1=data["p1"], alpha=data["alpha"],
                   beta=data["beta"], max_trials=int(data["max_trials"]))


class SequentialProbabilityRatioTest:
    """Wald's SPRT over a stream of Bernoulli trial outcomes."""

    def __init__(self, settings: SprtSettings):
        self.settings = settings
        self._step_violation = math.log(settings.p1 / settings.p0)
        self._step_safe = math.log((1.0 - settings.p1) / (1.0 - settings.p0))
        self._upper = math.log((1.0 - settings.beta) / settings.alpha)
        self._lower = math.log(settings.beta / (1.0 - settings.alpha))
        self.llr = 0.0
        self.count = 0
        self.violations = 0
        self.decision: str | None = None

    @property
    def decided(self) -> bool:
        """Whether the test has left the continuation band."""
        return self.decision is not None

    def update(self, violation: bool) -> None:
        """Consume one trial outcome (a no-op once decided)."""
        if self.decision is not None:
            return
        self.count += 1
        if violation:
            self.violations += 1
            self.llr += self._step_violation
        else:
            self.llr += self._step_safe
        if self.llr >= self._upper:
            self.decision = "H1"
        elif self.llr <= self._lower:
            self.decision = "H0"

    def forced_decision(self) -> str:
        """The truncation verdict: the hypothesis the evidence leans to."""
        return "H1" if self.llr >= 0.0 else "H0"


@dataclass(frozen=True)
class SprtResult:
    """Outcome of one sequential test.

    Attributes:
        decision: ``"H0"`` (p <= p0 accepted) or ``"H1"`` (p >= p1
            accepted).
        decided_early: True when the test stopped inside the continuation
            band's error guarantees; False for a truncation verdict.
        trials_used: Trial outcomes consumed.
        violations: Violations among the consumed trials.
        llr: Final log-likelihood ratio.
        p_hat: Empirical violation rate of the consumed trials.
        settings: The test's hypotheses and error budget.
    """

    decision: str
    decided_early: bool
    trials_used: int
    violations: int
    llr: float
    p_hat: float
    settings: SprtSettings

    def to_json(self) -> dict:
        """Encode the result as JSON-ready primitives."""
        return {"decision": self.decision,
                "decided_early": self.decided_early,
                "trials_used": self.trials_used,
                "violations": self.violations, "llr": self.llr,
                "p_hat": self.p_hat, "settings": self.settings.to_json()}

    @classmethod
    def from_json(cls, data: dict) -> "SprtResult":
        """Rebuild a result encoded by :meth:`to_json`."""
        return cls(decision=data["decision"],
                   decided_early=bool(data["decided_early"]),
                   trials_used=int(data["trials_used"]),
                   violations=int(data["violations"]),
                   llr=float(data["llr"]), p_hat=float(data["p_hat"]),
                   settings=SprtSettings.from_json(data["settings"]))


def _result_of(test: SequentialProbabilityRatioTest) -> SprtResult:
    """Snapshot a test into its (possibly truncated) result."""
    decided_early = test.decided
    decision = test.decision or test.forced_decision()
    p_hat = test.violations / test.count if test.count else 0.0
    return SprtResult(decision=decision, decided_early=decided_early,
                      trials_used=test.count, violations=test.violations,
                      llr=test.llr, p_hat=p_hat, settings=test.settings)


def run_sprt_trials(trial_fn: TrialFn, *, master_seed: int,
                    settings: SprtSettings, name: str = "sprt",
                    batch: int = 32,
                    map_fn: MapFn | None = None) -> SprtResult:
    """Sequential test over any scored-trial function.

    Trials run in fixed-size batches (batch boundaries depend only on
    ``batch``, never on scheduling) and feed the test in index order, so
    the decision is bit-identical for any map strategy.

    Args:
        trial_fn: Deterministic :class:`~repro.util.seeding.ForkPlan` ->
            :class:`~repro.verify.rare.ScoredTrial` map.
        master_seed: Root of every trial seed.
        settings: Hypotheses and error budget.
        name: Seed-derivation namespace.
        batch: Trials dispatched per sequential step.
        map_fn: Order-preserving batch runner (defaults to serial).

    Returns:
        The :class:`SprtResult`.
    """
    if batch < 1:
        raise ValueError("batch must be at least 1")
    map_fn = map_fn or (lambda fn, plans: [fn(plan) for plan in plans])
    test = SequentialProbabilityRatioTest(settings)
    index = 0
    while not test.decided and index < settings.max_trials:
        size = min(batch, settings.max_trials - index)
        plans = [ForkPlan(derive_seed(master_seed, f"{name}:root:{i}"))
                 for i in range(index, index + size)]
        index += size
        for trial in map_fn(trial_fn, plans):
            test.update(trial.violation)
            if test.decided:
                break
    return _result_of(test)


def _sprt_identity(sub_spec, master_seed: int, settings: SprtSettings) -> str:
    """Store key of one cell's sequential test."""
    import hashlib
    import json

    from repro.campaign.store import spec_fingerprint
    payload = json.dumps({"spec": spec_fingerprint(sub_spec, master_seed),
                          "settings": settings.to_json()},
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def run_sprt_campaign(spec, cell_index: int = 0, *, master_seed: int = 0,
                      settings: SprtSettings, **campaign) -> SprtResult:
    """Sequentially test one campaign cell through the real executor.

    The cell runs as the single-cell campaign
    ``{spec.name}:sprt:{cell_index}`` with ``settings.max_trials``
    replicates (:func:`~repro.verify.rare.run_cell_campaign`).  Its
    replicates stream back through the executor's ``on_result`` hook;
    outcomes are consumed in replicate order (pool completions may arrive
    out of order and are buffered; a quarantined replicate, announced by
    its ``quarantine`` event, counts as neither outcome), and the
    executor's ``stop`` poll
    cancels all remaining batches once the test decides.  Trials a fast
    pool completed beyond the decision point are simply not consumed, so
    the verdict is invariant to worker count, batch size and engine tier.

    Args:
        spec: The :class:`~repro.campaign.spec.CampaignSpec`.
        cell_index: Which trial cell to test.
        master_seed: Campaign master seed.
        settings: Hypotheses and error budget.
        **campaign: ``run_campaign`` keyword arguments, forwarded
            unchanged (``stop`` is the test's).  A ``store`` must be an
            open :class:`~repro.campaign.store.CampaignStore`; the decided
            test state lands in its ``estimator`` table, and ``resume``
            returns a stored decided result without touching the pool.

    Returns:
        The :class:`SprtResult`.
    """
    from repro.campaign.executor import CampaignCancelled

    cell = {"method": "sprt", "replicates": settings.max_trials}
    store = campaign.get("store")
    identity = None
    if store is not None:
        identity = _sprt_identity(cell_campaign(spec, cell_index, **cell),
                                  master_seed, settings)
        if campaign.get("resume"):
            state = store.load_estimator_state("sprt", identity)
            if state is not None and state.get("done"):
                return SprtResult.from_json(state["result"])

    test = SequentialProbabilityRatioTest(settings)
    #: Replicate -> its outcome, or None for a quarantined replicate,
    #: which counts as neither outcome.
    pending: dict[int, bool | None] = {}
    next_replicate = 0
    replayed_failures = store is not None
    on_result = campaign.pop("on_result", None)
    on_event = campaign.pop("on_event", None)

    def drain() -> None:
        nonlocal next_replicate
        while next_replicate in pending:
            outcome = pending.pop(next_replicate)
            if outcome is not None:
                test.update(outcome)
            next_replicate += 1

    def consume(summary) -> None:
        nonlocal replayed_failures
        if on_result is not None:
            on_result(summary)
        if replayed_failures:
            # Replicates a resumed run's store already quarantined publish
            # no event: skip them with the first outcome.
            replayed_failures = False
            for failure in store.failures():
                pending.setdefault(failure.trial_index, None)
        pending[summary.replicate] = summary.failures > 0
        drain()

    def observe(kind: str, detail: str) -> None:
        if on_event is not None:
            on_event(kind, detail)
        if kind == "quarantine":
            # One cell: a trial's index is its replicate.
            pending[TrialFailure.trial_index_of(detail)] = None
            drain()

    try:
        run_cell_campaign(spec, cell_index, **cell, master_seed=master_seed,
                          on_result=consume, on_event=observe,
                          stop=lambda: test.decided, **campaign)
    except CampaignCancelled:
        pass  # The decided test cancelled the remaining batches.

    result = _result_of(test)
    if store is not None:
        store.save_estimator_state("sprt", identity, {
            "done": True, "result": result.to_json()})
    return result
