"""Benchmark entry point for the PTE campaign system.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload table1-serial --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload and prints its end-to-end metrics;
``--trace 1`` runs the separate traced run and prints the per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import (DEFAULT_SEED, EXPECTED_PATH, WORKLOADS,  # noqa: E402
                       peak_rss_mb)

#: Work directory for stores, sockets and span dumps (inside the checkout).
WORK_ROOT = ROOT / ".perfbench_work"

#: Per-layer counts that must repeat exactly between the two traced passes.
#: ``service.frames``/``service.bytes`` are left out: whether a watcher
#: sees a job's ``running`` event or a catch-up snapshot depends on when
#: its connection is accepted.
EXACT_COUNTS = (
    "lowering.calls", "patient.derivative_calls", "patient.vector_calls",
    "surgeon.wakeup_calls", "observers.hook_calls", "network.deliveries",
    "network.loss_ratio", "batched.lanes_per_run", "executor.batches",
    "shm.reads", "shm.fallbacks", "store.commits", "store.retries",
    "rare.levels", "rare.trials", "rare.sim_s",
)


def quantile_pair(values):
    """Median and 90th percentile of a non-empty sample."""
    if len(values) == 1:
        return values[0], values[0]
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return statistics.median(values), deciles[8]


def metric(value, unit):
    return {"value": value, "unit": unit}


def stop_resource_tracker():
    """Stop multiprocessing's resource tracker, if this process started one.

    The shm plane registers its segments with the tracker, a helper process
    that otherwise outlives this one until it notices its pipe has closed.
    Closing the pipe here and waiting for the tracker to exit means the
    benchmark leaves no process behind.  Registered with ``atexit`` before
    any segment exists, so it runs after every segment's own unlink.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


# ---------------------------------------------------------------------------
# --trace 0: the timed run
# ---------------------------------------------------------------------------

def timed_run(workload, seconds):
    """Set up, then run operations for ``seconds``; return the result line.

    Every time is host-speed corrected (see ``hostspeed.py``): multiplied
    by the run's factor, which the summary on standard error prints along
    with the raw values.
    """
    speed = workload.speed
    setups = workload.measure_setup()
    workload.setup()
    ops = []
    sampler_cpu = speed.cpu_used
    cpu_start = workload.cpu_now()
    loop_start = time.perf_counter()
    try:
        while True:
            speed.sample()
            with speed.alongside(workload.waits_on_workers):
                ops.append(workload.run_op(len(ops)))
            elapsed = time.perf_counter() - loop_start
            typical = statistics.median(op.wall for op in ops)
            if len(ops) >= workload.min_ops and elapsed + typical > seconds:
                break
        speed.sample()
        cpu = workload.cpu_now() - cpu_start - (speed.cpu_used - sampler_cpu)
    finally:
        workload.close()

    factor = speed.factor()
    trials = sum(op.trials for op in ops)
    wall = sum(op.wall for op in ops)
    setup_s = statistics.median(setups)
    p50, p90 = quantile_pair([seconds for op in ops for seconds in (op.parts or [op.wall])])
    failed = sum(op.trials for op in ops if not op.ok)
    print(f"{workload.name}: {len(ops)} operation(s), {trials} trials in {wall:.2f}s; "
          f"raw setup {setup_s:.3f}s, {1000.0 * cpu / trials:.2f} CPU-ms/trial, "
          f"p50 {p50:.4f}s; host-speed factor {factor:.3f} "
          f"({len(speed.samples)} samples)", file=sys.stderr)
    return {
        "correct": failed == 0, "attempted": trials, "failed": failed,
        "metrics": {
            "setup_s": metric(setup_s * factor, "s"),
            "trial_cpu_ms": metric(1000.0 * cpu / trials * factor, "ms"),
            "trials_per_s": metric(trials / wall / factor, "1/s"),
            "job_p50_s": metric(p50 * factor, "s"),
            "job_p90_s": metric(p90 * factor, "s"),
            "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        },
    }


# ---------------------------------------------------------------------------
# --trace 1: one untraced and two traced passes, each in a fresh process
# ---------------------------------------------------------------------------

def run_pass(args, traced, out):
    """Run one pass of the traced run in a child interpreter."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload",
               args.workload, "--seed", str(args.seed), "--pass",
               "traced" if traced else "plain", "--out", str(out)]
    if args.smoke:
        command.append("--smoke")
    subprocess.run(command, cwd=ROOT, check=True, timeout=170)
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def pass_main(args, workload):
    """Body of one pass (``--pass``): run it and dump what it recorded."""
    tracer = None
    if args.pass_kind == "traced":
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)
    record = workload.trace_pass(tracer)
    workload.speed.sample()
    record["host_factor"] = workload.speed.factor()
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle)


def phase_cpu(phase):
    """CPU seconds of a phase over this process and every worker."""
    return phase["cpu_self"] + phase["cpu_children"] + phase["cpu_workers"]


def layer_metrics(plain, traced):
    """Per-layer metrics of one traced pass, with the untraced pass as base."""
    parent = traced["phases"]["parent"]
    worker = traced["phases"].get("worker", parent)
    tp = traced["trials"]["parent"]
    tw = traced["trials"].get("worker", tp)
    jobs = traced.get("jobs", 0)

    def total(phase, name, field):
        return phase["totals"].get(name, {}).get(field, 0)

    def per(value, base):
        return value / base if base else 0.0

    def calls(phase, name):
        return total(phase, name, "calls")

    def own(phase, name):
        return total(phase, name, "self_s")

    def count(phase, name):
        return phase["counts"].get(name, 0)

    plain_parent = plain["phases"]["parent"]
    busy = (plain_parent["cpu_self"] if plain["workers"] == 1
            else plain_parent["cpu_children"] + plain_parent["cpu_workers"])
    deliveries = calls(worker, "network")
    # A pooled parent may lower a cell itself (shared-memory plane geometry)
    # before forking workers that inherit it, so lowering counts in both phases.
    lowering_phases = (parent,) if worker is parent else (parent, worker)
    marks = parent["marks"]
    submit = marks.get("service.submit", [])
    running = marks.get("service.running", [])
    done = marks.get("service.done", [])
    levels = calls(parent, "rare.level")
    estimate = traced.get("estimate")
    survivors = crude = 0.0
    if estimate is not None:
        from repro.verify.rare import crude_trials_for

        survivors = statistics.fmean(estimate["factors"][:-1] or [0.0])
        if 0.0 < estimate["probability"] < 1.0:
            crude = (crude_trials_for(estimate["probability"], estimate["rel_error"])
                     / estimate["trials_used"])
    values = {
        "compiled.run_s": per(own(worker, "compiled.run"), tw),
        "lowering.calls": per(sum(calls(p, "lowering") for p in lowering_phases), tw),
        "lowering.s": per(sum(own(p, "lowering") for p in lowering_phases), tw),
        "patient.derivative_calls": per(count(worker, "patient.derivative"), tw),
        "patient.vector_calls": per(count(worker, "patient.vector"), tw),
        "surgeon.wakeup_calls": per(count(worker, "surgeon.wakeup"), tw),
        "observers.hook_calls": per(calls(worker, "observers"), tw),
        "observers.s": per(own(worker, "observers"), tw),
        "network.deliveries": per(deliveries, tw),
        "network.loss_ratio": per(count(worker, "network.lost"), deliveries),
        "network.s": per(own(worker, "network"), tw),
        "batched.run_s": per(own(worker, "batched.run"), tw),
        "batched.lanes_per_run": per(count(worker, "batched.lanes"),
                                     calls(worker, "batched.run")),
        "executor.batches": per(calls(worker, "executor.batch"), tw),
        "executor.batch_s": per(own(worker, "executor.batch"), tw),
        "executor.overhead_s": per(own(worker, "executor.run_campaign"), tw),
        "executor.worker_util": per(busy, plain["workers"] * plain_parent["wall"]),
        "shm.reads": per(calls(parent, "shm.read"), tp),
        "shm.read_s": per(own(parent, "shm.read"), tp),
        "shm.fallbacks": per(count(parent, "shm.fallbacks"), tp),
        "store.commits": per(calls(parent, "store.commit"), tp),
        "store.commit_s": per(own(parent, "store.commit"), tp),
        "store.retries": per(count(parent, "store.retries"), tp),
        "aggregate.s": (per(own(worker, "aggregate.summary"), tw)
                        + per(own(parent, "aggregate.fold"), tp)),
        "service.frames": per(count(parent, "service.frames"), jobs),
        "service.bytes": per(count(parent, "service.bytes"), jobs),
        "service.codec_s": per(own(parent, "service.codec"), jobs),
        "service.queue_s": per(sum(r - s for s, r in zip(submit, running)), jobs),
        "service.run_s": per(sum(d - r for r, d in zip(running, done)), jobs),
        "rare.levels": levels,
        "rare.trials": count(parent, "rare.trials"),
        "rare.sim_s": count(parent, "rare.trials") * traced.get("horizon", 0.0),
        "rare.level_s": per(total(parent, "rare.level", "total_s"), levels),
        "rare.trial_s": per(total(worker, "rare.trial", "total_s"),
                            calls(worker, "rare.trial")),
        "rare.survivor_ratio": survivors,
        "rare.crude_ratio": crude,
        "trace.overhead_ratio": per(per(phase_cpu(parent), tp) * traced["host_factor"],
                                    per(phase_cpu(plain_parent), plain["trials"]["parent"])
                                    * plain["host_factor"]),
    }
    if jobs and not len(submit) == len(running) == len(done) == jobs:
        raise RuntimeError("service job marks do not line up with the jobs run")
    return values


def traced_run(args, workload):
    """Untraced pass, then two traced passes; counts must repeat exactly."""
    plain = run_pass(args, False, workload.workdir / "plain.json")
    first = run_pass(args, True, workload.workdir / "traced-1.json")
    second = run_pass(args, True, workload.workdir / "traced-2.json")
    values = layer_metrics(plain, first)
    repeat = layer_metrics(plain, second)
    drift = [name for name in EXACT_COUNTS if values[name] != repeat[name]]
    if drift:
        print(f"counts differ between the traced passes: {drift}", file=sys.stderr)
    WORK_ROOT.mkdir(exist_ok=True)
    shutil.copyfile(workload.workdir / "traced-1.json",
                    WORK_ROOT / f"trace-{workload.name}.json")
    attempted = sum(p["attempted"] for p in (plain, first, second))
    failed = sum(p["failed"] for p in (plain, first, second))
    print(f"{workload.name}: traced CPU {values['trace.overhead_ratio']:.3f}x "
          f"untraced; spans in {WORK_ROOT.name}/trace-{workload.name}.json",
          file=sys.stderr)
    units = load_units()
    return {"correct": failed == 0 and not drift, "attempted": attempted,
            "failed": failed + len(drift),
            "metrics": {name: metric(value, units[name])
                        for name, value in values.items()}}


def load_units():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {entry["name"]: entry["unit"] for entry in spec["per_layer"]}


# ---------------------------------------------------------------------------
# Pinned outputs
# ---------------------------------------------------------------------------

def record_pins():
    """Recompute the default seed's outputs and write ``expected.json``."""
    expected = {"seed": DEFAULT_SEED}
    for name, cls in WORKLOADS.items():
        workdir = WORK_ROOT / f"{name}-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        workload = cls(ROOT, DEFAULT_SEED, False, workdir)
        workload.pinned = False
        try:
            workload.setup()
            expected[name] = workload.record_pin()
        finally:
            workload.close()
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"{name}: {expected[name]}", file=sys.stderr)
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=2, sort_keys=True)
        handle.write("\n")


# ---------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimal inputs, for the benchmark's own tests")
    parser.add_argument("--record-pins", action="store_true",
                        help="rewrite expected.json from the default seed")
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--pass", dest="pass_kind", choices=("plain", "traced"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.record_pins and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    atexit.register(stop_resource_tracker)
    if args.record_pins:
        record_pins()
        return 0
    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](ROOT, args.seed, args.smoke, workdir)
    if args.smoke:
        workload.min_ops = min(workload.min_ops, 3)
        workload.setup_probes = 1
    try:
        if args.probe_setup:
            workload.setup()
            print("ready", flush=True)
            return 0
        if args.pass_kind:
            pass_main(args, workload)
            return 0
        if args.trace:
            result = traced_run(args, workload)
        else:
            result = timed_run(workload, args.seconds)
    except Exception:  # noqa: BLE001 - report and fail without a result line
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
