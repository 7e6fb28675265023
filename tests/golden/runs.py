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

from repro.campaign import PRESETS, run_campaign, spec_fingerprint, table1_spec
from repro.verify.rare import SplitSettings, split_estimate_for_cell
from repro.verify.sprt import SprtSettings, run_sprt_campaign

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"
FINGERPRINTS_PATH = Path(__file__).resolve().parent / "presets.json"

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
    # One paper-horizon trial per E(Toff)=18 s cell: many lease cycles.
    "table1-paper-horizon": functools.partial(
        _campaign_payload, "table1",
        {"mean_toffs": (18.0,), "replicates": 1, "duration": 1800.0,
         "legacy_seed": SEED}),
    # Two lanes per batch, so the batched engine's lane driver runs.
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


#: Non-default one-shot flags, plus the sweep flags each preset declares.
_FLAGS = ("--replicates", "3", "--duration", "150", "--seed", "7")
_SWEEP_FLAGS = {"table1": ("--mean-toffs", "12,6"),
                "loss_sweep": ("--loss-levels", "0.2,0.4"),
                "grid": ("--mean-toffs", "12,6", "--loss-levels", "0.2,0.4"),
                "scenarios": (), "interlock": ()}


class _Captured(Exception):
    """Raised by the stand-in ``run_campaign`` with the spec and seed it got."""


def _capture(spec, seed=0, **_):
    raise _Captured(spec, seed)


def _captured_fingerprint(module, run, *args) -> str:
    """The fingerprint of the campaign ``run(*args)`` hands to ``module.run_campaign``."""
    original = module.run_campaign
    module.run_campaign = _capture
    try:
        run(*args)
    except _Captured as captured:
        return spec_fingerprint(*captured.args)
    finally:
        module.run_campaign = original
    raise AssertionError(f"{run.__name__} ran no campaign")


def preset_fingerprints() -> dict:
    """The spec fingerprint of every preset at every entry point.

    Fingerprints key stores and service jobs, so each entry point must keep
    naming the same campaign: the one-shot CLI at default and non-default
    flags (at its ``--seed``), ``PRESETS[name].build()`` (at master seed 0)
    and each experiment driver at its defaults (at its own master seed).
    """
    from repro.campaign import cli, executor
    from repro.experiments import run_loss_sweep, run_scenarios, run_table1

    fingerprints = {}
    for name in sorted(PRESETS):
        for case, flags in (("defaults", ()), ("flags", _FLAGS + _SWEEP_FLAGS[name])):
            fingerprints[f"{name}: one-shot {case}"] = _captured_fingerprint(
                cli, cli.main, ["--experiment", name, "--quiet", *flags])
        fingerprints[f"{name}: build()"] = spec_fingerprint(PRESETS[name].build(), 0)
    for driver in (run_loss_sweep, run_scenarios, run_table1):
        fingerprints[f"experiments: {driver.__name__}()"] = _captured_fingerprint(
            executor, driver)
    return fingerprints


def load_fingerprints() -> dict:
    """The checked-in preset fingerprints, by entry point."""
    return json.loads(FINGERPRINTS_PATH.read_text(encoding="utf-8"))
