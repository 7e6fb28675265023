#!/usr/bin/env python3
"""Mutation check of the compiled engine, fork groups, task dispatch, the store, the service and presets.

Each mutant below breaks one rule that bit-identity rests on: in
``src/repro/hybrid/simulate/compiled.py`` the cushion, per-automaton
deadlines, wakeup invalidation, the discrete-phase scan filter, the copy
of a paused run, the key of a kept quiet-step plan or which crossings
the scheduler skips; in
``src/repro/hybrid/simulate/programs.py`` the step program's quiet loop,
an inline crossing, an And/Or crossing's fold and probe, an inline
guard's tolerance or inline sampling; in
``src/repro/hybrid/simulate/rk4.py`` which kernel
tests and parameters the flow-kernel translator fixes once; in
``src/repro/util/seeding.py`` and ``src/repro/verify/rare.py`` how a fork
group pauses, copies and forks a survivor and puts the results back, and
that a crude or SPRT estimate's single-cell campaign keeps the caller's
store and fault plan; in
``src/repro/campaign/executor.py`` how trials are sized into tasks that
span cells, attributed to their own cell, failed by the fault plan's
``raise`` clauses and published after their commit, how the
supervisor times out, respawns, bisects and retries, and that the
results ring runs only when a run asks for it; in
``src/repro/campaign/store.py`` that a store older than version 5 is
refused, that a resume replays every checkpoint, that a fingerprint covers
the master seed and that a commit still locked after its retries fails; in
``src/repro/campaign/store.py`` and ``src/repro/campaign/service/server.py``
how a job's rows stay its own, when a submission becomes durable, which
jobs a restarted daemon takes back, that a cancel holds across a restart,
that a finished job is read back with its checkpoints' cells and that
stopping wakes idle connections, watches and drains; in
``src/repro/campaign/presets.py`` that a preset's declared defaults name
the same campaign.
The tool copies the repository's ``src/`` and ``tests/`` into a temporary
directory, checks that the unmutated copy passes, then applies each mutant
in turn and asserts that the fixed tests listed in ``TESTS`` for the
mutated file fail on it.  The hypothesis-generated test and the slow
perfbench-pin test are deselected, so every kill comes from a fixed
system.  Exit status is 0 when every mutant is killed, 1 otherwise.

Usage::

    python tools/engine_mutants.py            # every mutant
    python tools/engine_mutants.py --list     # names and descriptions
    python tools/engine_mutants.py NAME ...   # the named mutants only
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENGINE = "src/repro/hybrid/simulate/compiled.py"
PROGRAMS = "src/repro/hybrid/simulate/programs.py"
RK4 = "src/repro/hybrid/simulate/rk4.py"
SEEDING = "src/repro/util/seeding.py"
RARE = "src/repro/verify/rare.py"
EXECUTOR = "src/repro/campaign/executor.py"
STORE = "src/repro/campaign/store.py"
SERVER = "src/repro/campaign/service/server.py"
PRESETS = "src/repro/campaign/presets.py"
ENGINE_TESTS = ["tests/hybrid/test_quiet_steps.py", "tests/golden",
                "tests/verify/test_fork_groups.py",
                "tests/verify/test_rare_determinism.py::TestEngineTierInvariance"
                "::test_scored_trial_is_engine_tier_invariant"]
CAMPAIGN_TESTS = ["tests/campaign/test_campaign.py::TestDeterminism",
                  "tests/campaign/test_faults.py::TestSerialRecovery",
                  "tests/campaign/test_faults.py::TestPooledRecovery"
                  "::test_respawn_budget_exhaustion_names_the_store",
                  "tests/campaign/test_faults.py::TestPooledRecovery"
                  "::test_hung_worker_is_killed_at_the_deadline",
                  "tests/campaign/test_store.py::TestStoreLifecycle",
                  "tests/campaign/test_shm.py::TestCampaignEquivalence",
                  "tests/test_startup.py"]
#: The fixed tests that must kill a mutant of each file.
TESTS = {ENGINE: [*ENGINE_TESTS, "tests/hybrid/test_lowering.py"], SEEDING: ENGINE_TESTS,
         PROGRAMS: [*ENGINE_TESTS, "tests/hybrid/test_lowering.py"],
         RARE: [*ENGINE_TESTS, "tests/campaign/test_faults.py::TestCliRecovery"
                "::test_crude_resumes_bit_identically_after_crash"],
         RK4: ["tests/hybrid/test_lowering.py::TestKernelTranslation",
               "tests/hybrid/test_lowering.py::test_patient_program_inlines_the_kernel",
               "tests/golden"],
         EXECUTOR: CAMPAIGN_TESTS,
         STORE: ["tests/campaign/test_store.py::TestStoreLifecycle",
                 "tests/campaign/test_faults.py::TestStoreFaults"],
         SERVER: ["tests/campaign/test_service.py"],
         PRESETS: ["tests/golden/test_golden.py::test_preset_fingerprints_are_frozen"]}
DESELECTED = ["tests/hybrid/test_quiet_steps.py::test_generated_systems_are_bit_identical",
              "tests/verify/test_fork_groups.py"
              "::test_perfbench_pin_simulates_at_most_87000_seconds"]
COPIED = ["src", "tests", "conftest.py", "pyproject.toml"]

#: name -> (file, what the mutant breaks, [(exact text, replacement), ...]).
MUTANTS = {
    "keep-firing-candidate": (
        ENGINE, "_take_edge keeps the firing runtime's cached candidate",
        [("        rt.deadline = self._wake_at = self._deadline = -math.inf\n",
          "        self._wake_at = self._deadline = -math.inf\n")]),
    "skip-wake-invalidation": (
        ENGINE, "_take_edge keeps the cached wakeup candidate",
        [("        rt.deadline = self._wake_at = self._deadline = -math.inf\n",
          "        rt.deadline = self._deadline = -math.inf\n")]),
    "skip-pending-receivers": (
        ENGINE, "the discrete phase skips runtimes whose only reason to fire is a pending event",
        [("                if ((rt.pending or not rt.deadline > threshold"
          " or rt.quiet_scan[rt.loc])\n",
          "                if ((not rt.deadline > threshold or rt.quiet_scan[rt.loc])\n")]),
    "drop-sample-due-test": (
        PROGRAMS, "a quiet stretch samples on every step",
        [('["    if not now + EPSILON < next_sample:",',
          '["    if True:",')]),
    "kept-candidate-sets-next-time": (
        ENGINE, "a kept candidate's margin-reduced value sets the next time when nothing samples",
        [("            if rt.deadline > near:\n                kept = True\n",
          "            if rt.deadline > near:\n                best = min(best, rt.deadline)\n"),
         ("        if kept and not needs_sampling:\n",
          "        if False:\n")]),
    "cushion-dt-max": (
        ENGINE, "the cushion is dt_max, without the leaves' EPSILON/|r| tolerance",
        [("        cushion = self.dt_max + max(EPSILON, EPSILON * inv_rate)\n",
          "        cushion = self.dt_max\n")]),
    "keep-near-candidates": (
        ENGINE, "a full step keeps valid candidates inside the cushion",
        [("            if rt.deadline > near:\n", "            if rt.deadline > now:\n")]),
    "cache-nonfinite-wakeups": (
        ENGINE, "a NaN/-inf wakeup (woken on every step) does not stop caching",
        [("                    wake_ok = False\n", "                    pass\n")]),
    "stale-deadline-after-coupling": (
        PROGRAMS, "a quiet stretch ignores a generic coupling's invalidation",
        [('            couplings += [f"c{item[1]}()", "deadline = engine._deadline"]\n',
          '            couplings += [f"c{item[1]}()"]\n')]),
    "stretch-ignores-horizon": (
        PROGRAMS, "a quiet stretch steps past the horizon",
        [('"        if horizon < next_time:",', '"        if False:",')]),
    "quiet-firing-keeps-settled": (
        PROGRAMS, "the step after a quiet step's firing skips the pre-step couplings",
        [('''                     f"    process(start + cushion, {i})",
                     "    settled = False",
''', '''                     f"    process(start + cushion, {i})",
''')]),
    "watch-first-runtime-only": (
        PROGRAMS, "a quiet step evaluates only the first watched runtime's guards",
        [("    for i in watched:\n", "    for i in watched[:1]:\n")]),
    "skip-near-frozen-leaves": (
        ENGINE, "the scheduler skips a leaf's crossing up to |rate| <= 2*EPSILON",
        [("        return abs(rates.get(predicate.variable, 0.0)) <= EPSILON\n",
          "        return abs(rates.get(predicate.variable, 0.0)) <= 2 * EPSILON\n")]),
    "plan-ignores-couplings": (
        ENGINE, "a lowered system's kept quiet-step plan is reused for another coupling layout",
        [("        key = (layout, self.dt_max)\n", "        key = self.dt_max\n")]),
    "decide-output-test": (
        RK4, "the kernel translator decides a test that reads an output once per advance",
        [('            return (f"{prefix}x{value}" if k == 1 else f"{prefix}s{k}_{value}"), False\n',
          '            return (f"{prefix}x{value}" if k == 1 else f"{prefix}s{k}_{value}"), True\n')]),
    "bind-mutable-parameter": (
        RK4, "the kernel translator binds a field of a mutable parameter at lowering",
        [('            if (kind == "param" and _frozen_dataclass(value)\n',
          '            if (kind == "param" and dataclasses.is_dataclass(value)\n')]),
    "decide-raising-test": (
        RK4, "the kernel translator decides a test with a division up front, where it may"
        " raise on a path the kernel never takes",
        [("_NONRAISING = (ast.Add, ast.Sub, ast.Mult)\n",
          "_NONRAISING = (ast.Add, ast.Sub, ast.Mult, ast.Div)\n")]),
    "fork-keeps-parent-generators": (
        SEEDING, "a forked ledger keeps drawing from the parent's generators",
        [("        for key, forked in self._streams.items():\n"
          "            _extend(forked, key, segment)\n", "")]),
    "pause-one-step-late": (
        RARE, "a fork group pauses after the crossing step, not before it",
        [("            run.advance(group.step - 1)\n", "            run.advance(group.step)\n")]),
    "stretch-ignores-step-limit": (
        PROGRAMS, "a quiet stretch runs on past the step a pause asked for",
        [('["    if done or steps == room or not now < end:",',
          '["    if done or not now < end:",')]),
    "stale-step-at-sample": (
        PROGRAMS, "a quiet stretch samples without bringing engine.steps up to date",
        [('''        step += ["    if not now + EPSILON < next_sample:",
                 "        engine.steps = base + steps", *_indent(sample, 2)]''',
          '''        step += ["    if not now + EPSILON < next_sample:", *_indent(sample, 2)]''')]),
    "crossing-keeps-negative-delay": (
        PROGRAMS, "an inline Linear crossing keeps a negative delay instead of inf",
        [('''[delay, f"    if {out} < 0:", f"        {out} = inf"]''', "[delay]")]),
    "and-crossing-skips-probe": (
        PROGRAMS, "an And-until-true crossing returns the latest delay without probing",
        [("    if not latest:\n        return lines, maybe_none\n",
          "    if not latest or want:\n        return lines, maybe_none\n")]),
    "or-false-takes-earliest": (
        PROGRAMS, "an Or-until-false crossing takes the earliest operand delay",
        [('    compare = ">" if latest else "<"\n',
          '    compare = ">" if latest and want else "<"\n')]),
    "guard-bound-without-tolerance": (
        PROGRAMS, "an inline guard compares against the threshold without the EPSILON tolerance",
        [("        return f\"({value} {op} {_literal(env, leaf.threshold + tolerance)})\"\n",
          "        return f\"({value} {op} {_literal(env, leaf.threshold)})\"\n")]),
    "sample-keeps-next-sample-time": (
        PROGRAMS, "inline sampling does not write _next_sample_time back",
        [('''        sample += ["next_sample = now + interval",
                   "engine._next_sample_time = next_sample"]''',
          '''        sample += ["next_sample = now + interval"]''')]),
    "copy-shares-coupling-programs": (
        ENGINE, "a copied engine keeps the coupling programs bound to the original",
        [("        clone._coupling_programs = ([clone._lower_coupling(c) for c in clone.couplings]\n",
          "        clone._coupling_programs = (self._coupling_programs\n")]),
    "copy-shares-boundaries": (
        SEEDING, "a copied stream shares its boundary list with the original",
        [("        clone = memo[id(self)] = type(self)(generators, list(self._boundaries),\n",
          "        clone = memo[id(self)] = type(self)(generators, self._boundaries,\n")]),
    "scatter-in-group-order": (
        RARE, "a level's results come back in group order, not slot order",
        [("        for slot, trial in zip(group_slots, trials):\n"
          "            results[slot] = trial\n",
          "        for trial in trials:\n"
          "            results[results.index(None)] = trial\n")]),
    "estimator-drops-executor-args": (
        RARE, "a crude or SPRT estimate's single-cell campaign runs without the store and"
        " the fault plan",
        [("                        seed=master_seed, **campaign)\n",
          "                        seed=master_seed, **{key: value for key, value in\n"
          "                            campaign.items() if key not in (\"store\", \"fault_plan\")})\n")]),
    "ignore-per-worker-cap": (
        EXECUTOR, "auto task sizing ignores the even share of live trials per worker",
        [("        return max(1, min(per_task, per_worker))\n",
          "        return max(1, per_task)\n")]),
    "bisect-keeps-first-cell": (
        EXECUTOR, "bisection files a half under its task's first cell, so an offender is"
        " quarantined there",
        [("            self.isolation.appendleft(_Pending(task[mid:], attempts[mid:]))\n",
          "            self.isolation.appendleft(_Pending(tuple(\n"
          "                (i, task[0][1], r, s) for i, _, r, s in task[mid:]),"
          " attempts[mid:]))\n")]),
    "publish-before-commit": (
        EXECUTOR, "a task's results are published before the commit that holds them",
        [("            if store_obj is not None:\n"
          "                store_obj.checkpoint_batch(batch_results)\n"
          "            for index, summary in batch_results:\n"
          "                _publish(index, summary)\n",
          "            for index, summary in batch_results:\n"
          "                _publish(index, summary)\n"
          "            if store_obj is not None:\n"
          "                store_obj.checkpoint_batch(batch_results)\n")]),
    "ring-labels-first-cell": (
        EXECUTOR, "every results-ring record of a task gets the label of its first cell",
        [("            labels = [spec.trials[spec_index].label\n"
          "                      for _, spec_index, _, _ in task]\n",
          "            labels = [spec.trials[task[0][1]].label] * count\n")]),
    "fault-check-first-attempt": (
        EXECUTOR, "the in-trial fault check always sees attempt 0, so a transient fault never"
        " expires",
        [("    attempt = ctx.attempts[offset] if ctx is not None else 0\n",
          "    attempt = 0\n")]),
    "fault-offset-off-by-one": (
        EXECUTOR, "past a cell boundary the in-trial fault check reads the previous trial's"
        " offset",
        [("        start += len(runs)\n", "        start += len(runs) - 1\n")]),
    "deadline-never-fires": (
        EXECUTOR, "an in-flight batch never gets a deadline, so a hung worker is never killed",
        [("        deadline = (time.monotonic() + self.batch_deadline\n"
          "                    if self.batch_deadline is not None else None)\n",
          "        deadline = None\n")]),
    "respawn-budget-off-by-one": (
        EXECUTOR, "the run gives up on the break that should use its last respawn",
        [("        if self.respawns > self.max_respawns:\n",
          "        if self.respawns >= self.max_respawns:\n")]),
    "quarantine-without-bisection": (
        EXECUTOR, "a failing multi-trial batch is quarantined whole instead of bisected",
        [("            self.isolation.appendleft(_Pending(task[mid:], attempts[mid:]))\n"
          "            self.isolation.appendleft(_Pending(task[:mid], attempts[:mid]))\n",
          "            for k in range(len(task)):\n"
          "                self.quarantine(_Pending(task[k:k + 1], attempts[k:k + 1]), exc)\n")]),
    "ring-on-by-default": (
        EXECUTOR, "a pooled batched run turns the results ring on without shm=True",
        [("        if _resolve_shm(shm, not serial):\n",
          "        if _resolve_shm(shm if shm is not None else resolved_engine == \"batched\",\n"
          "                        not serial):\n")]),
    "retry-skips-failed-trial": (
        EXECUTOR, "a failed trial with retries left is logged as retried but never re-run",
        [("        self.isolation.appendleft(_Pending(task, attempts))\n", "")]),
    "replay-ignores-job": (
        STORE, "a store's replay returns every job's trial rows, not its own",
        [('            "WHERE job_id = ? ORDER BY trial_index")\n',
          '            "WHERE ? IS NOT NULL ORDER BY trial_index")\n')]),
    "pre-v5-store-opened-fresh": (
        STORE, "a store file older than version 5 is opened as a new file, not refused",
        [("        legacy = version == 0 and _has_store_tables(self.conn)\n",
          "        legacy = False\n")]),
    "resume-ignores-last-checkpoint": (
        STORE, "a resume replays every checkpointed trial but the last",
        [("        return [(int(row[0]), TrialSummary.from_record(row[2:], label=row[1]))\n"
          "                for row in rows]\n",
          "        return [(int(row[0]), TrialSummary.from_record(row[2:], label=row[1]))\n"
          "                for row in rows[:-1]]\n")]),
    "fingerprint-without-seed": (
        STORE, "a store's fingerprint leaves out the master seed",
        [('    payload = {"master_seed": int(master_seed), "spec": canonical_spec(spec)}\n',
          '    payload = {"master_seed": 0, "spec": canonical_spec(spec)}\n')]),
    "lock-retry-swallows-error": (
        STORE, "a commit still locked after its retries is dropped without an error",
        [("                if attempt >= _COMMIT_RETRY_ATTEMPTS:\n"
          "                    raise CampaignStoreError(\n"
          "                        f\"{self.path}: {what} still failing after \"\n"
          "                        f\"{attempt} attempts: {exc}\") from exc\n",
          "                if attempt >= _COMMIT_RETRY_ATTEMPTS:\n"
          "                    break\n")]),
    "jobs-row-before-payload-check": (
        SERVER, "a submission's jobs row is written before its payload is checked",
        [('        payload = str(message.get("payload", PAYLOAD))\n',
          '        job_id = self._db.add_job(spec_fingerprint(spec, master_seed), spec,\n'
          '                                  master_seed, int(message.get("priority", 0)))\n'
          '        payload = str(message.get("payload", PAYLOAD))\n'),
         ("            job_id = self._db.add_job(fingerprint, spec, master_seed,\n"
          "                                      priority)\n", "")]),
    "recover-skips-incomplete": (
        SERVER, "a restarted daemon takes back none of its unfinished jobs",
        [("                self._enqueue(job)\n",
          "                pass\n")]),
    "cancel-ignored": (
        SERVER, "a cancel neither stops a job nor finishes a queued one",
        [("                job.cancel.set()\n"
          "                if job.state is JobState.QUEUED:\n"
          "                    self._db.mark_cancelled(job.job_id)\n"
          "                    self._queue.remove((-job.priority, job.job_id,\n"
          "                                        job.fingerprint))\n"
          "                    heapq.heapify(self._queue)\n"
          "                    self._end(job, JobState.CANCELLED)\n",
          "                pass\n")]),
    "cancel-not-durable": (
        SERVER, "a cancelled job's cancel mark is never written, so a restart runs it",
        [("                    self._db.mark_cancelled(job.job_id)\n"
          "                    self._queue.remove(",
          "                    self._queue.remove("),
         ("        except CampaignCancelled:\n"
          "            self._db.mark_cancelled(job.job_id)\n",
          "        except CampaignCancelled:\n")]),
    "stop-leaves-idle-connections": (
        SERVER, "stopping skips the shutdown of open connections",
        [("            for sock in (self._server, *self._waiting):\n",
          "            for sock in (self._server,):\n")]),
    "stop-leaves-watches": (
        SERVER, "stopping leaves a watching connection open, its handler blocked",
        [("                    if op == \"watch\":\n"
          "                        self._handle_watch(sock, message)\n"
          "                        continue\n",
          ""),
         ("                        self._waiting.discard(sock)\n"
          "                    if op == \"shutdown\":\n",
          "                        self._waiting.discard(sock)\n"
          "                    if op == \"watch\":\n"
          "                        self._handle_watch(sock, message)\n"
          "                        continue\n"
          "                    if op == \"shutdown\":\n")]),
    "finished-status-without-cells": (
        SERVER, "a finished job's status is built without its checkpoints' cells",
        [("        return protocol.ok(**job.to_json(\n"
          "            self._cells(job),\n",
          "        return protocol.ok(**job.to_json(\n"
          "            [],\n")]),
    "drain-ignores-stopping": (
        SERVER, "drain waits out a stop and never answers",
        [("            while not self._stopping and any(\n",
          "            while any(\n"),
         ("            if self._stopping:\n"
          "                return protocol.error(\"service is shutting down\")\n"
          "            states = {",
          "            states = {")]),
    "preset-axis-default-drift": (
        PRESETS, "the grid's declared default duration drifts from 600 to 900 s",
        [('            Axis("duration", float, 600.0, POSITIVE, "duration",\n',
          '            Axis("duration", float, 900.0, POSITIVE, "duration",\n')]),
}


def apply(source: str, name: str) -> str:
    """``source`` with mutant ``name`` applied; each text must occur exactly once."""
    for old, new in MUTANTS[name][2]:
        count = source.count(old)
        if count != 1:
            raise SystemExit(f"mutant {name}: expected one match, found {count}:\n{old}")
        source = source.replace(old, new)
    return source


def run_tests(tree: Path, tests: list[str]) -> tuple[int, float, str]:
    """Run the fixed ``tests`` in ``tree``; return (exit status, seconds, summary).

    The summary is the first failed or erroring test's id, or pytest's last line.
    """
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    deselect = [arg for test in DESELECTED for arg in ("--deselect", test)]
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               "-rfE", *tests, *deselect]
    started = time.perf_counter()
    done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines() or [done.stderr.strip()]
    failed = [line.split()[1] for line in lines
              if line.startswith(("FAILED ", "ERROR "))]
    return done.returncode, time.perf_counter() - started, (failed or lines)[-1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="list the mutants and exit")
    args = parser.parse_args(argv)
    if args.list:
        for name, (path, what, _) in MUTANTS.items():
            print(f"{name} ({path}): {what}")
        return 0
    unknown = sorted(set(args.names) - set(MUTANTS))
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    names = args.names or list(MUTANTS)
    with tempfile.TemporaryDirectory(prefix="engine-mutants-") as scratch:
        tree = Path(scratch)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", "*.pyc")
        for entry in COPIED:
            source = ROOT / entry
            if source.is_dir():
                shutil.copytree(source, tree / entry, ignore=ignore)
            else:
                shutil.copy2(source, tree / entry)
        originals = {path: (tree / path).read_text(encoding="utf-8")
                     for path in {MUTANTS[name][0] for name in names}}
        mutated = {name: apply(originals[MUTANTS[name][0]], name) for name in names}
        suites = {MUTANTS[name][0]: TESTS[MUTANTS[name][0]] for name in names}
        unmutated = list(dict.fromkeys(test for tests in suites.values() for test in tests))
        status, seconds, line = run_tests(tree, unmutated)
        print(f"unmutated: exit {status} in {seconds:.1f}s ({line})", flush=True)
        if status != 0:
            print("the unmutated copy must pass before mutants mean anything")
            return 1
        survivors = []
        for name in names:
            path = tree / MUTANTS[name][0]
            path.write_text(mutated[name], encoding="utf-8")
            status, seconds, line = run_tests(tree, suites[MUTANTS[name][0]])
            path.write_text(originals[MUTANTS[name][0]], encoding="utf-8")
            # Exit status 1 means tests ran and failed; anything else
            # (collection error, usage error) does not count as a kill.
            killed = status == 1
            print(f"{name}: {'killed by ' + line if killed else 'SURVIVED'} "
                  f"(exit {status}, {seconds:.1f}s)", flush=True)
            if not killed:
                survivors.append(name)
    if survivors:
        print(f"{len(survivors)} of {len(names)} mutants survived: {', '.join(survivors)}")
        return 1
    print(f"all {len(names)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
