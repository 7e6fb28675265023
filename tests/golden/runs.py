"""Golden behaviour digests: the pinned runs and how each one is digested.

Every run is a preset campaign on one engine tier; its digest is the
SHA-256 of the canonical (sorted-key, compact) JSON of the result's
deterministic ``to_json()["campaign"]`` payload.  The digests in
``digests.json`` are a fixed point outside the simulation code: the
tier-vs-tier equivalence tests compare the fast tiers with the reference
tier at the same commit, so a change in code every tier shares would move
them all together unnoticed, but not past these digests.

Regenerate only for an intended change of behaviour::

    python tests/golden/regenerate.py --accept-behaviour-change
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.campaign import PRESETS, run_campaign

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

#: Master seed of every pinned run (also the Table I legacy seed).
SEED = 7

#: name -> (preset, preset arguments, engine tier, batch size)
RUNS = {
    "table1-reference": ("table1", {"replicates": 2, "duration": 120.0,
                                    "legacy_seed": SEED}, "reference", None),
    "table1-compiled": ("table1", {"replicates": 2, "duration": 120.0,
                                   "legacy_seed": SEED}, "compiled", None),
    # Two lanes per batch, so the batched tier's lockstep path runs.
    "table1-batched": ("table1", {"replicates": 2, "duration": 120.0,
                                  "legacy_seed": SEED}, "batched", 2),
    "interlock-compiled": ("interlock", {}, "compiled", None),
}


def campaign_digest(name: str) -> str:
    """Run the pinned run ``name`` serially and digest its campaign payload."""
    preset, kwargs, engine, batch_size = RUNS[name]
    result = run_campaign(PRESETS[preset].build(**kwargs), seed=SEED,
                          max_workers=1, engine=engine, batch_size=batch_size)
    text = json.dumps(result.to_json()["campaign"], sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_digests() -> dict:
    """The checked-in digests, by run name."""
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
