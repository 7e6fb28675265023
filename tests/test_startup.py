"""Start-up pins: a fresh process loads only what its run uses.

Each check runs in a new interpreter, since the test session itself has
long since imported everything.  NumPy backs only the shared-memory
results ring, which runs only when a pooled campaign asks for it
(``shm=True``); the executor imports the process pool, the ring and the
sqlite store only on the paths that use them, so a serial campaign
without a store loads none of them; the one-shot CLI imports the store
only for ``--store`` and the service client only for a service command.  The package facades import their
re-exports lazily, so building a splitting cell loads neither the
campaign executor nor the sqlite store.  Workers forked for a splitting
level must find every module they need already loaded by the parent: the
estimator starts a fresh pool per level, so a worker-side import would be
paid again at each level.
"""

import importlib.util
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.campaign.faults import FAULT_PLAN_ENV_VAR

_REPO_ROOT = Path(__file__).resolve().parents[1]

#: Builds the rare-split benchmark's splitting cell, as its set-up does.
_SPLIT_CELL = """
import dataclasses, functools, json, sys
from repro.campaign.spec import ChannelSpec
from repro.casestudy.config import CaseStudyConfig, SurgeonModel
from repro.verify import rare

config = dataclasses.replace(
    CaseStudyConfig(), surgeon=SurgeonModel(mean_toff=6.0, resample_quantum=2.0))
template = rare.CellTemplate(
    config=config, with_lease=False, duration=300.0,
    channel=ChannelSpec(kind="bernoulli", loss=1e-4), engine="compiled",
    event="dwell")
"""


def _run(code):
    """Run ``code`` in a fresh interpreter and decode its last stdout line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(_REPO_ROOT / "src") + os.pathsep
                         + env.get("PYTHONPATH", ""))
    env.pop(FAULT_PLAN_ENV_VAR, None)
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=env, cwd=_REPO_ROOT, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_splitting_cell_loads_no_campaign_machinery():
    loaded = _run(_SPLIT_CELL + """
print(json.dumps([name for name in ("numpy", "sqlite3",
                                    "repro.campaign.executor",
                                    "repro.campaign.service")
                  if name in sys.modules]))
""")
    assert loaded == []


def test_serial_campaign_does_not_import_numpy():
    # Nor, without a store, the sqlite store, the process pool or the ring.
    loaded = _run("""
import json, sys
from repro.campaign import run_campaign, table1_spec

spec = table1_spec(mean_toffs=(18.0,), duration=1.0)
result = run_campaign(spec, engine="compiled", max_workers=1)
assert result.total_trials == spec.total_trials
print(json.dumps([name for name in ("numpy", "sqlite3", "multiprocessing",
                                    "concurrent.futures.process",
                                    "repro.campaign.store",
                                    "repro.campaign.shm")
                  if name in sys.modules]))
""")
    assert loaded == []


#: Modules a one-shot CLI run loads only for a store or a service command.
_CLI_LAZY = ("sqlite3", "socket", "repro.campaign.store",
             "repro.campaign.service.client")
#: A short serial one-shot run.
_RUN = ["--experiment", "table1", "--duration", "10", "--quiet"]


@pytest.mark.parametrize("argv, codes, expected", [
    (_RUN, (0, 1), []),
    (_RUN + ["--store", "{tmp}/campaign.db"], (0, 1),
     ["sqlite3", "repro.campaign.store"]),
    (_RUN + ["--method", "split", "--trials-per-level", "4", "--levels", "2"],
     (0, 1), []),
    # No service listens there, so the command exits 2.
    (["status", "--socket", "{tmp}/none.sock"], (2,), list(_CLI_LAZY)),
], ids=["no-store", "store", "split-no-store", "service-command"])
def test_cli_loads_the_store_and_client_only_when_used(argv, codes, expected,
                                                       tmp_path):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    code, loaded = _run(f"""
import contextlib, io, json, sys
from repro.campaign.cli import main

with contextlib.redirect_stdout(io.StringIO()), \\
        contextlib.redirect_stderr(io.StringIO()):
    code = main({argv!r})
print(json.dumps([code, [name for name in {_CLI_LAZY!r}
                         if name in sys.modules]]))
""")
    assert code in codes
    assert loaded == expected


def test_cli_routes_the_client_service_commands():
    from repro.campaign.cli import SERVICE_COMMANDS
    from repro.campaign.service import client

    assert SERVICE_COMMANDS == client.SERVICE_COMMANDS


def test_default_pooled_batched_campaign_pickles_its_results():
    loaded, leaked = _run("""
import json, os, sys
from repro.campaign import run_campaign, table1_spec

def segments():
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("repro-")}
    except OSError:
        return set()

before = segments()
spec = table1_spec(mean_toffs=(18.0,), duration=30.0, replicates=4)
result = run_campaign(spec, engine="batched", max_workers=2, batch_size=2)
assert result.total_trials == spec.total_trials
loaded = [name for name in ("numpy", "repro.campaign.shm") if name in sys.modules]
print(json.dumps([loaded, sorted(segments() - before)]))
""")
    assert loaded == []
    assert leaked == []


@pytest.mark.skipif(importlib.util.find_spec("numpy") is None,
                    reason="the results ring needs NumPy")
def test_pooled_batched_campaign_uses_the_ring():
    reads, loaded = _run("""
import json, sys
from repro.campaign import run_campaign, table1_spec
from repro.campaign.shm import ShmSession

reads = []
original = ShmSession.read

def counted(self, ticket, count, labels):
    reads.append(count)
    return original(self, ticket, count, labels)

ShmSession.read = counted
spec = table1_spec(mean_toffs=(18.0,), duration=30.0, replicates=4)
result = run_campaign(spec, engine="batched", max_workers=2, batch_size=2,
                      shm=True)
assert result.total_trials == spec.total_trials
print(json.dumps([sum(reads), "numpy" in sys.modules]))
""")
    assert reads == 8
    assert loaded is True


def test_splitting_workers_import_nothing_the_parent_lacked():
    extra, levels = _run(_SPLIT_CELL + """
def traced(trial_fn, item):
    return trial_fn(item), sorted(sys.modules)

extra, levels = set(), []

def map_fn(trial_fn, items):
    pairs = rare.pool_map(functools.partial(traced, trial_fn), items,
                          max_workers=2)
    # Between forking its workers and collecting their results the parent
    # only waits, so its modules now are those its workers inherited.
    parent = set(sys.modules)
    for _, modules in pairs:
        extra.update(set(modules) - parent)
    levels.append(len(pairs))
    return [scored for scored, _ in pairs]

rare.fixed_effort_splitting(
    functools.partial(rare.scored_case_trial, template), master_seed=3,
    settings=rare.SplitSettings(trials_per_level=4, max_levels=3),
    name="startup", map_fn=map_fn)
print(json.dumps([sorted(extra), levels]))
""")
    assert len(levels) >= 2  # the root level and at least one fork level
    assert extra == []
