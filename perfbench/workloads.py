"""The four benchmark workloads, driven only through public entry points.

Each workload knows how to set itself up, run one timed operation (a
campaign, a service job or a splitting estimate), check that operation's
output, and run one pass for the traced run.  ``run.py`` owns the timing
loop, the set-up probes and the output format.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

from hostspeed import HostSpeed

#: Seed whose outputs are pinned in ``expected.json``.
DEFAULT_SEED = 1

#: Stride between the master seeds of consecutive operations of one run.
SEED_STRIDE = 1_000_003

#: Worker processes of every pooled workload (the box has two cores).
WORKERS = 2

#: The paper's Table I trial horizon (30 minutes) and the swept E(Toff).
TABLE1_HORIZON = 1800.0
TABLE1_TOFF = 18.0

#: Table I checks that hold for every trial, not just in distribution.
SAFETY_CHECKS = ("with_lease_never_fails", "evt_to_stop_only_with_lease")

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


def master_seed(seed, index):
    """Master seed of operation ``index`` of a run with seed ``seed``."""
    return seed + SEED_STRIDE * index


def cpu_self():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def cpu_children():
    """CPU of reaped child processes (pools count once they have shut down)."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def proc_cpu(pid):
    """CPU seconds of a live process, all of its threads included."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rpartition(")")[2].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb():
    """Largest resident set of this process and of any reaped descendant."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def sha256_json(value):
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_expected():
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


@dataclasses.dataclass
class Op:
    """One timed operation: its size, its cost and its output check."""

    trials: int
    wall: float
    ok: bool
    #: Latency samples in seconds when they are parts of the operation
    #: (the levels of an estimate); ``None`` means the whole operation.
    parts: list = None


class Workload:
    """Shared plumbing; subclasses define the inputs and the operation."""

    name = ""
    #: Fewest operations one timed run makes, whatever ``--seconds`` says.
    min_ops = 1
    #: Set-up repetitions behind the reported median ``setup_s``.
    setup_probes = 7
    #: Whether this process only waits while an operation runs (pooled
    #: workloads), so host speed can be sampled alongside it.
    waits_on_workers = False

    def __init__(self, root, seed, smoke, workdir):
        self.root = Path(root)
        self.seed = seed
        self.smoke = smoke
        self.workdir = Path(workdir)
        self.pinned = seed == DEFAULT_SEED and not smoke
        #: Host-speed samples, taken by the run at idle points.
        self.speed = HostSpeed()

    # -- set-up ----------------------------------------------------------
    def setup(self):
        """Bring the process to where the first timed operation can start."""

    def measure_setup(self):
        """Time ``setup_probes`` fresh set-ups, each in a new interpreter."""
        command = [sys.executable, str(self.root / "perfbench" / "run.py"),
                   "--workload", self.name, "--seed", str(self.seed),
                   "--probe-setup"] + (["--smoke"] if self.smoke else [])
        durations = []
        for _ in range(self.setup_probes):
            self.speed.sample()
            started = time.perf_counter()
            with subprocess.Popen(command, cwd=self.root, stdout=subprocess.PIPE,
                                  text=True) as probe:
                line = probe.stdout.readline()
                durations.append(time.perf_counter() - started)
                probe.stdout.read()
            if line.strip() != "ready" or probe.returncode != 0:
                raise RuntimeError(f"set-up probe of {self.name} failed")
        return durations

    def close(self):
        """Release everything the timed run holds."""

    # -- timed run -------------------------------------------------------
    def cpu_now(self):
        """Cumulative CPU seconds of every process doing this workload's work."""
        return cpu_self() + cpu_children()

    def run_op(self, index):
        raise NotImplementedError

    def record_pin(self):
        """The default seed's pinned output, as ``expected.json`` stores it."""
        raise NotImplementedError

    # -- traced run ------------------------------------------------------
    def trace_pass(self, tracer):
        """Run the traced run's inputs; ``tracer`` is ``None`` when untraced.

        Returns a dict with the ``phases`` (``parent`` runs the workload's
        own process layout; ``worker``, traced passes only, the same inputs
        with ``max_workers=1`` so that work done in pool workers runs in
        this process), their trial counts, the trials attempted and failed,
        and any workload-specific extras.
        """
        raise NotImplementedError


def phase_roles(tracer):
    """``(phase, max_workers)`` pairs of a pass: the worker phase is traced only."""
    return (("parent", WORKERS),) + ((("worker", 1),) if tracer is not None else ())


def run_phase(tracer, fn, speed, extra_cpu=None):
    """Run ``fn()`` as one phase of a pass and record its cost and spans."""
    speed.sample()
    extra0 = extra_cpu() if extra_cpu else 0.0
    self0, children0 = cpu_self(), cpu_children()
    started = time.perf_counter()
    value = fn()
    record = {"wall": time.perf_counter() - started,
              "cpu_self": cpu_self() - self0,
              "cpu_children": cpu_children() - children0,
              "cpu_workers": (extra_cpu() - extra0) if extra_cpu else 0.0}
    if tracer is not None:
        record.update(tracer.take())
    return value, record


# ---------------------------------------------------------------------------
# Table I campaigns
# ---------------------------------------------------------------------------

def check_campaign(result, trials, expected_digest=None, all_checks=False):
    """Check one Table I campaign against its pinned digest or its checks."""
    from repro.campaign.presets import table1_result

    if expected_digest is not None:
        return sha256_json(result.to_json()["campaign"]) == expected_digest
    checks = table1_result(result).checks
    names = checks if all_checks else SAFETY_CHECKS
    return (result.total_trials == trials and not result.quarantined
            and all(checks[name] for name in names))


class Table1Serial(Workload):
    """Both E(Toff)=18 s cells, one compiled single-process campaign per op."""

    name = "table1-serial"
    #: Campaigns per traced pass.
    trace_ops = 4

    def setup(self):
        from repro.campaign import run_campaign, table1_spec

        horizon = 120.0 if self.smoke else TABLE1_HORIZON
        self.spec = table1_spec(mean_toffs=(TABLE1_TOFF,), duration=horizon)
        # Lower both cells once, as a campaign process does before its trials.
        run_campaign(dataclasses.replace(self.spec, duration=1.0),
                     engine="compiled")
        self.expected = load_expected().get(self.name, {}) if self.pinned else {}

    def cpu_now(self):
        return cpu_self()

    def campaign(self, index):
        from repro.campaign import run_campaign

        return run_campaign(self.spec, seed=master_seed(self.seed, index),
                            engine="compiled", max_workers=1)

    def run_op(self, index):
        started = time.perf_counter()
        result = self.campaign(index)
        wall = time.perf_counter() - started
        digest = self.expected.get("campaign_sha256") if index == 0 else None
        ok = check_campaign(result, self.spec.total_trials, digest)
        return Op(result.total_trials, wall, ok)

    def record_pin(self):
        return {"campaign_sha256": sha256_json(self.campaign(0).to_json()["campaign"])}

    def trace_pass(self, tracer):
        def body():
            self.setup()
            return [self.campaign(index) for index in range(self.trace_ops)]

        results, phase = run_phase(tracer, body, self.speed)
        failed = sum(not check_campaign(r, self.spec.total_trials) for r in results)
        trials = sum(r.total_trials for r in results)
        return {"phases": {"parent": phase}, "trials": {"parent": trials},
                "workers": 1, "attempted": trials,
                "failed": failed * self.spec.total_trials}


class Table1Lanes(Workload):
    """The same cells, 64 replicates each, on the batched tier with 2 workers."""

    name = "table1-lanes"
    waits_on_workers = True
    replicates = 64
    #: The traced run keeps 32-lane tasks but runs one task per cell, over
    #: half the horizon, so that its three passes fit in the time limit.
    trace_replicates = 32
    trace_horizon = TABLE1_HORIZON / 2

    def setup(self):
        from repro.campaign import table1_spec

        horizon = 60.0 if self.smoke else TABLE1_HORIZON
        replicates = 4 if self.smoke else self.replicates
        self.spec = table1_spec(mean_toffs=(TABLE1_TOFF,), duration=horizon,
                                replicates=replicates)
        # Smoke campaigns are too small for auto batching to pick lanes.
        self.batch_size = 2 if self.smoke else None
        self.expected = load_expected().get(self.name, {}) if self.pinned else {}

    def campaign(self, spec, index, workers, batch_size):
        from repro.campaign import run_campaign

        return run_campaign(spec, seed=master_seed(self.seed, index),
                            engine="batched", max_workers=workers,
                            batch_size=batch_size)

    def run_op(self, index):
        started = time.perf_counter()
        result = self.campaign(self.spec, index, WORKERS, self.batch_size)
        wall = time.perf_counter() - started
        digest = self.expected.get("campaign_sha256") if index == 0 else None
        ok = check_campaign(result, self.spec.total_trials, digest,
                            all_checks=not self.smoke)
        return Op(result.total_trials, wall, ok)

    def record_pin(self):
        result = self.campaign(self.spec, 0, WORKERS, self.batch_size)
        return {"campaign_sha256": sha256_json(result.to_json()["campaign"])}

    def trace_pass(self, tracer):
        self.setup()
        replicates = 2 if self.smoke else self.trace_replicates
        spec = self.spec.scaled(replicates)
        if not self.smoke:
            spec = dataclasses.replace(spec, duration=self.trace_horizon)
        results = {}
        for role, workers in phase_roles(tracer):
            results[role] = run_phase(tracer, functools.partial(
                self.campaign, spec, 0, workers, replicates), self.speed)
        payloads = {sha256_json(r.to_json()["campaign"]) for r, _ in results.values()}
        failed = sum(not check_campaign(r, spec.total_trials)
                     for r, _ in results.values())
        failed += len(payloads) - 1  # worker counts are bit-identical
        return {"phases": {role: phase for role, (_, phase) in results.items()},
                "trials": {role: r.total_trials for role, (r, _) in results.items()},
                "workers": WORKERS, "attempted": len(results) * spec.total_trials,
                "failed": failed * spec.total_trials}


# ---------------------------------------------------------------------------
# Service jobs
# ---------------------------------------------------------------------------

def job_spec(duration):
    """The ``table1`` preset at 2 replicates: 8 trials of ``duration`` s."""
    from repro.campaign.presets import PRESETS

    spec = PRESETS["table1"].build().scaled(2)
    return dataclasses.replace(spec, duration=float(duration))


def cells_ok(cells, trials):
    """Safety checks over the final per-cell aggregates of one job."""
    return (sum(cell["trials"] for cell in cells) == trials
            and all(cell["failures"] == 0 for cell in cells if cell["with_lease"])
            and all(cell["evt_to_stop"] == 0 for cell in cells
                    if not cell["with_lease"]))


def run_job(client, spec, seed, tracer=None):
    """Submit one job, watch it to ``done``; return ``(state, cells)``."""
    if tracer is not None:
        tracer.mark("service.submit", time.perf_counter())
    response = client.submit(spec, seed)
    if response.get("duplicate"):
        return "duplicate", []
    cells, state = {}, None
    for event in client.watch(response["job"]):
        kind = event.get("event")
        if kind == "snapshot":
            cells.update((cell["label"], cell) for cell in event["cells"])
        elif kind == "trial":
            cells[event["cell"]["label"]] = event["cell"]
        elif kind == "done":
            state = event["state"]
    return state, [cells[label] for label in sorted(cells)]


def wait_for_service(client, deadline):
    """Poll until the service answers ``status``; return its response."""
    while True:
        try:
            return client.status()
        except (FileNotFoundError, ConnectionRefusedError):
            if time.perf_counter() > deadline:
                raise RuntimeError("campaign service did not come up") from None
            time.sleep(0.005)


class ServiceJobs(Workload):
    """A closed loop of small ``table1`` jobs against a warm service daemon."""

    name = "service-jobs"
    setup_probes = 5
    #: At least ten of the run's jobs must lie beyond its p90 latency.
    min_ops = 100
    #: Jobs whose aggregates the pinned digest covers.
    pinned_jobs = 10
    #: Jobs per traced pass.
    trace_jobs = 24

    def __init__(self, *args):
        super().__init__(*args)
        self.daemon = None
        self.socket = os.path.relpath(self.workdir / "svc.sock", self.root)
        self.stores = self.workdir / "stores"
        self.spec = job_spec(10.0 if self.smoke else 60.0)
        self.warm_spec = dataclasses.replace(self.spec, duration=1.0)
        self.pins = []

    def start_daemon(self):
        """Start ``serve`` and warm its pool; return the seconds it took."""
        from repro.campaign.service import ServiceClient

        shutil.rmtree(self.stores, ignore_errors=True)
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        started = time.perf_counter()
        self.log = open(self.workdir / "daemon.log", "ab")
        self.daemon = subprocess.Popen(
            [sys.executable, "-m", "repro.campaign", "serve", "--socket",
             self.socket, "--stores-dir", os.path.relpath(self.stores, self.root),
             "--workers", str(WORKERS)],
            cwd=self.root, env=env, stdout=self.log, stderr=subprocess.STDOUT)
        self.client = ServiceClient(self.socket)
        wait_for_service(self.client, started + 60.0)
        state, _ = run_job(self.client, self.warm_spec, 0)
        if state != "complete":
            raise RuntimeError(f"warm-up job ended {state}")
        elapsed = time.perf_counter() - started
        self.pids = [self.daemon.pid] + self.client.status()["pool_pids"]
        return elapsed

    def stop_daemon(self):
        if self.daemon is None:
            return
        try:
            self.client.shutdown()
            self.daemon.wait(timeout=60.0)
        finally:
            if self.daemon.poll() is None:
                self.daemon.kill()
                self.daemon.wait()
            self.log.close()
            self.daemon = None

    def measure_setup(self):
        durations = []
        for _ in range(self.setup_probes):
            self.stop_daemon()
            self.speed.sample()
            durations.append(self.start_daemon())
        return durations

    def setup(self):
        if self.daemon is None:
            self.start_daemon()
        self.expected = load_expected().get(self.name, {}) if self.pinned else {}

    def close(self):
        self.stop_daemon()

    def cpu_now(self):
        return cpu_self() + sum(proc_cpu(pid) for pid in self.pids)

    def run_op(self, index):
        started = time.perf_counter()
        state, cells = run_job(self.client, self.spec, master_seed(self.seed, index))
        wall = time.perf_counter() - started
        ok = state == "complete" and cells_ok(cells, self.spec.total_trials)
        if index < self.pinned_jobs:
            self.pins.append(cells)
            if self.expected and index == self.pinned_jobs - 1:
                ok = ok and sha256_json(self.pins) == self.expected["aggregates_sha256"]
        return Op(self.spec.total_trials, wall, ok)

    def record_pin(self):
        for index in range(self.pinned_jobs):
            self.run_op(index)
        return {"jobs": self.pinned_jobs, "aggregates_sha256": sha256_json(self.pins)}

    def trace_pass(self, tracer):
        from repro.campaign import run_campaign
        from repro.campaign.service import CampaignService, ServiceClient

        jobs = 2 if self.smoke else self.trace_jobs
        seeds = [master_seed(self.seed, index) for index in range(jobs)]
        service = CampaignService(self.socket, self.stores, max_workers=WORKERS)
        server = threading.Thread(target=service.serve, name="perfbench-service")
        server.start()
        client = ServiceClient(self.socket)
        try:
            wait_for_service(client, time.perf_counter() + 60.0)
            state, _ = run_job(client, self.warm_spec, 0)
            if state != "complete":
                raise RuntimeError(f"warm-up job ended {state}")
            pool = client.status()["pool_pids"]
            if tracer is not None:
                tracer.take()  # the warm-up job is set-up, not measured work

            outcomes, parent = run_phase(
                tracer, lambda: [run_job(client, self.spec, seed, tracer)
                                 for seed in seeds], self.speed,
                extra_cpu=lambda: sum(proc_cpu(pid) for pid in pool))
        finally:
            client.shutdown()
            server.join(timeout=60.0)
        failed = sum(not (state == "complete"
                          and cells_ok(cells, self.spec.total_trials))
                     for state, cells in outcomes)
        trials = jobs * self.spec.total_trials
        record = {"phases": {"parent": parent}, "trials": {"parent": trials},
                  "workers": WORKERS, "jobs": jobs, "attempted": trials}
        if tracer is not None:
            results, record["phases"]["worker"] = run_phase(tracer, lambda: [
                run_campaign(self.spec, seed=seed, max_workers=1) for seed in seeds],
                self.speed)
            failed += sum(not check_campaign(r, self.spec.total_trials)
                          for r in results)
            record["trials"]["worker"] = trials
            record["attempted"] += trials
        record["failed"] = failed * self.spec.total_trials
        return record


# ---------------------------------------------------------------------------
# Rare-event splitting
# ---------------------------------------------------------------------------

class RareSplit(Workload):
    """Fixed-effort splitting on the low-loss baseline cell of bench_rare.

    The number of adaptive levels depends on the seed, so an estimate's
    latency does too.  Its latency samples are therefore the levels (one
    ``pool_map`` call each, timed through the estimator's ``map_fn``
    parameter), whose cost does not depend on how many of them there are.
    """

    name = "rare-split"
    waits_on_workers = True
    trials_per_level = 64
    #: The traced run's splitting effort (a quarter of the timed one).
    trace_trials_per_level = 16
    horizon = 300.0
    max_levels = 20

    def setup(self):
        from repro.campaign.spec import ChannelSpec
        from repro.casestudy.config import CaseStudyConfig, SurgeonModel
        from repro.verify import rare

        config = dataclasses.replace(
            CaseStudyConfig(), surgeon=SurgeonModel(mean_toff=6.0, resample_quantum=2.0))
        self.template = rare.CellTemplate(
            config=config, with_lease=False, duration=self.horizon,
            channel=ChannelSpec(kind="bernoulli", loss=1e-4), engine="compiled",
            event="dwell")
        self.expected = load_expected().get(self.name, {}) if self.pinned else {}

    def estimate(self, index, workers, trials_per_level, levels=None):
        from repro.verify import rare

        def map_fn(trial_fn, plans):
            self.speed.sample()  # between levels no pool is running
            started = time.perf_counter()
            scored = rare.pool_map(trial_fn, plans, max_workers=workers)
            if levels is not None:
                levels.append(time.perf_counter() - started)
            return scored

        return rare.fixed_effort_splitting(
            functools.partial(rare.scored_case_trial, self.template),
            master_seed=master_seed(self.seed, index),
            settings=rare.SplitSettings(trials_per_level=trials_per_level,
                                        max_levels=self.max_levels),
            name="bench-split", map_fn=map_fn)

    def check(self, estimate, trials_per_level, pinned=False):
        """Pinned seed: the exact estimate.  Otherwise: a well-formed one.

        Splitting may legitimately return zero (its levels can stall below
        the event), so other seeds are not required to reach it.
        """
        outcome = [estimate.probability, estimate.rel_error, estimate.trials_used]
        if pinned and self.expected:
            return outcome == self.expected["estimate"]
        product = 1.0
        for factor in estimate.factors:
            product *= factor
        return (0.0 <= estimate.probability <= 1.0
                and estimate.trials_used == trials_per_level * len(estimate.factors)
                and abs(product - estimate.probability) <= 1e-12
                and (estimate.probability > 0.0 or estimate.saturated
                     or estimate.factors[-1] == 0.0))

    def run_op(self, index):
        per_level = 8 if self.smoke else self.trials_per_level
        levels = []
        started = time.perf_counter()
        estimate = self.estimate(index, WORKERS, per_level, levels)
        wall = time.perf_counter() - started
        ok = self.check(estimate, per_level, pinned=index == 0)
        return Op(estimate.trials_used, wall, ok, parts=levels)

    def record_pin(self):
        estimate = self.estimate(0, WORKERS, self.trials_per_level)
        return {"estimate": [estimate.probability, estimate.rel_error,
                             estimate.trials_used]}

    def trace_pass(self, tracer):
        self.setup()
        per_level = 4 if self.smoke else self.trace_trials_per_level
        estimates = {}
        for role, workers in phase_roles(tracer):
            estimates[role] = run_phase(tracer, functools.partial(
                self.estimate, 0, workers, per_level), self.speed)
        parent = estimates["parent"][0]
        failed = sum(not self.check(e, per_level) for e, _ in estimates.values())
        if any(e != parent for e, _ in estimates.values()):
            failed += 1  # estimates are worker-count invariant
        return {"phases": {role: phase for role, (_, phase) in estimates.items()},
                "trials": {role: e.trials_used for role, (e, _) in estimates.items()},
                "workers": WORKERS, "attempted": len(estimates), "failed": failed,
                "estimate": parent.to_json(), "horizon": self.horizon}


WORKLOADS = {cls.name: cls for cls in (Table1Serial, Table1Lanes, ServiceJobs,
                                        RareSplit)}
