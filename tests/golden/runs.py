"""Golden behaviour digests: the pinned runs and how each one is digested.

Every run produces a deterministic JSON payload; its digest is the
SHA-256 of the canonical (sorted-key, compact) JSON of that payload.
Campaign runs digest the result's ``to_json()["campaign"]`` section (plus
the quarantined-trial rows of a faulted run); estimator runs digest the
estimate or verdict's ``to_json()``.  The digests in ``digests.json`` are
a fixed point outside the simulation code: the tier-vs-tier equivalence
tests compare the fast tiers with the reference tier at the same commit,
so a change in code every tier shares would move them all together
unnoticed, but not past these digests.

Regenerate only for an intended change of behaviour::

    python tests/golden/regenerate.py --accept-behaviour-change
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from pathlib import Path

from repro.campaign import PRESETS, run_campaign, table1_spec
from repro.verify.rare import SplitSettings, split_estimate_for_cell
from repro.verify.sprt import SprtSettings, run_sprt_campaign

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

#: Master seed of every pinned run (also the Table I legacy seed).
SEED = 7

#: The short Table I preset every table1-* run shares.
_TABLE1 = {"replicates": 2, "duration": 120.0, "legacy_seed": SEED}


def _campaign(preset: str, kwargs: dict, engine: str = "compiled",
              batch_size: int | None = None, max_workers: int = 1,
              fault_plan: str = ""):
    """Run one preset campaign at the golden seed."""
    return run_campaign(PRESETS[preset].build(**kwargs), seed=SEED,
                        max_workers=max_workers, engine=engine,
                        batch_size=batch_size, fault_plan=fault_plan)


def _campaign_payload(*args, **kwargs) -> dict:
    """The deterministic campaign section of one preset run."""
    return _campaign(*args, **kwargs).to_json()["campaign"]


def _quarantine_payload(*args, **kwargs) -> dict:
    """A faulted run's campaign section plus its quarantined trials."""
    result = _campaign(*args, **kwargs)
    return {"campaign": result.to_json()["campaign"],
            "quarantined": [dataclasses.asdict(f) for f in result.quarantined]}


def _split_payload() -> dict:
    """A fixed-ladder splitting estimate of the short baseline cell."""
    spec = table1_spec(mean_toffs=(18.0,), duration=120.0, replicates=1,
                       legacy_seed=SEED)
    settings = SplitSettings(trials_per_level=8, levels=(0.25, 0.5, 0.75))
    return split_estimate_for_cell(spec, 1, master_seed=SEED, settings=settings,
                                   engine="compiled").to_json()


def _sprt_payload() -> dict:
    """An SPRT verdict on the 300 s baseline cell, through the executor."""
    spec = table1_spec(mean_toffs=(18.0,), duration=300.0, replicates=1,
                       legacy_seed=SEED)
    settings = SprtSettings(p0=0.05, p1=0.3, max_trials=60)
    return run_sprt_campaign(spec, 1, master_seed=SEED, settings=settings,
                             engine="compiled").to_json()


#: name -> zero-argument payload builder
RUNS = {
    "table1-reference": functools.partial(_campaign_payload, "table1", _TABLE1,
                                          "reference"),
    "table1-compiled": functools.partial(_campaign_payload, "table1", _TABLE1),
    # Two lanes per batch, so the batched tier's lockstep path runs.
    "table1-batched": functools.partial(_campaign_payload, "table1", _TABLE1,
                                        "batched", 2),
    # Two worker processes retrying, then quarantining, a poison trial.
    "table1-workers2-raise": functools.partial(
        _quarantine_payload, "table1", _TABLE1, max_workers=2,
        fault_plan="raise@trial=3"),
    "interlock-compiled": functools.partial(_campaign_payload, "interlock", {}),
    "loss_sweep-compiled": functools.partial(
        _campaign_payload, "loss_sweep",
        {"loss_levels": (0.0, 0.5), "duration": 120.0}),
    "scenarios-compiled": functools.partial(_campaign_payload, "scenarios", {}),
    "split-fixed-ladder": _split_payload,
    "sprt-verdict": _sprt_payload,
}


def run_digest(name: str) -> str:
    """Run the pinned run ``name`` and digest its payload."""
    text = json.dumps(RUNS[name](), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_digests() -> dict:
    """The checked-in digests, by run name."""
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
