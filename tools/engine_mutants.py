#!/usr/bin/env python3
"""Mutation check of the compiled engine's quiet-step rules.

Each mutant below breaks one rule of ``src/repro/hybrid/simulate/compiled.py``
that bit-identity rests on: the cushion, per-automaton deadlines, wakeup
invalidation, the discrete-phase scan filter or the quiet-stretch loop.
The tool copies the repository's ``src/`` and ``tests/`` into a temporary
directory, checks that the unmutated copy passes, then applies each mutant
in turn and asserts that the fixed regression systems of
``tests/hybrid/test_quiet_steps.py`` plus ``tests/golden`` fail on it.
The hypothesis-generated test is deselected, so every kill comes from a
fixed system.  Exit status is 0 when every mutant is killed, 1 otherwise.

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
ENGINE = Path("src/repro/hybrid/simulate/compiled.py")
TESTS = ["tests/hybrid/test_quiet_steps.py", "tests/golden"]
GENERATED = "tests/hybrid/test_quiet_steps.py::test_generated_systems_are_bit_identical"
COPIED = ["src", "tests", "conftest.py", "bootstrap_src.py", "pyproject.toml"]

#: name -> (what the mutant breaks, [(exact text, replacement), ...]).
MUTANTS = {
    "keep-firing-candidate": (
        "_take_edge keeps the firing runtime's cached candidate",
        [("        rt.deadline = self._wake_at = self._deadline = -math.inf\n",
          "        self._wake_at = self._deadline = -math.inf\n")]),
    "skip-wake-invalidation": (
        "_take_edge keeps the cached wakeup candidate",
        [("        rt.deadline = self._wake_at = self._deadline = -math.inf\n",
          "        rt.deadline = self._deadline = -math.inf\n")]),
    "skip-pending-receivers": (
        "the discrete phase skips runtimes whose only reason to fire is a pending event",
        [("                if ((rt.pending or not rt.deadline > threshold"
          " or rt.quiet_scan[rt.loc])\n",
          "                if ((not rt.deadline > threshold or rt.quiet_scan[rt.loc])\n")]),
    "drop-sample-due-test": (
        "a quiet stretch samples on every step",
        [('"            if not now + EPSILON < next_sample:",',
          '"            if True:",')]),
    "kept-candidate-sets-next-time": (
        "a kept candidate's margin-reduced value sets the next time when nothing samples",
        [("            if rt.deadline > near:\n                kept = True\n",
          "            if rt.deadline > near:\n                best = min(best, rt.deadline)\n"),
         ("        if kept and not needs_sampling:\n",
          "        if False:\n")]),
    "cushion-dt-max": (
        "the cushion is dt_max, without the leaves' EPSILON/|r| tolerance",
        [("        self._cushion = self.dt_max + max(EPSILON, EPSILON * inv_rate)\n",
          "        self._cushion = self.dt_max\n")]),
    "keep-near-candidates": (
        "a full step keeps valid candidates inside the cushion",
        [("            if rt.deadline > near:\n", "            if rt.deadline > now:\n")]),
    "cache-nonfinite-wakeups": (
        "a NaN/-inf wakeup (woken on every step) does not stop caching",
        [("                    wake_ok = False\n", "                    pass\n")]),
    "stale-deadline-after-coupling": (
        "a quiet stretch ignores a generic coupling's invalidation",
        [('            couplings += [f"c{item[1]}()", "deadline = engine._deadline"]\n',
          '            couplings += [f"c{item[1]}()"]\n')]),
    "stretch-ignores-horizon": (
        "a quiet stretch steps past the horizon",
        [('"            if horizon < next_time:",', '"            if False:",')]),
    "quiet-firing-keeps-settled": (
        "the step after a quiet step's firing skips the pre-step couplings",
        [('''                     f"    process(start + cushion, {i})",
                     "    settled = False",
''', '''                     f"    process(start + cushion, {i})",
''')]),
    "watch-first-runtime-only": (
        "a quiet step evaluates only the first watched runtime's guards",
        [("    for i in watched:\n", "    for i in watched[:1]:\n")]),
}


def apply(source: str, name: str) -> str:
    """``source`` with mutant ``name`` applied; each text must occur exactly once."""
    for old, new in MUTANTS[name][1]:
        count = source.count(old)
        if count != 1:
            raise SystemExit(f"mutant {name}: expected one match, found {count}:\n{old}")
        source = source.replace(old, new)
    return source


def run_tests(tree: Path) -> tuple[int, float, str]:
    """Run the fixed tests in ``tree``; return (exit status, seconds, summary).

    The summary is the first failed test's id, or pytest's last line.
    """
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               "-rf", *TESTS, "--deselect", GENERATED]
    started = time.perf_counter()
    done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines() or [done.stderr.strip()]
    failed = [line.split()[1] for line in lines if line.startswith("FAILED ")]
    return done.returncode, time.perf_counter() - started, (failed or lines)[-1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="list the mutants and exit")
    args = parser.parse_args(argv)
    if args.list:
        for name, (what, _) in MUTANTS.items():
            print(f"{name}: {what}")
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
        engine = tree / ENGINE
        original = engine.read_text(encoding="utf-8")
        mutated = {name: apply(original, name) for name in names}
        status, seconds, line = run_tests(tree)
        print(f"unmutated: exit {status} in {seconds:.1f}s ({line})", flush=True)
        if status != 0:
            print("the unmutated copy must pass before mutants mean anything")
            return 1
        survivors = []
        for name in names:
            engine.write_text(mutated[name], encoding="utf-8")
            status, seconds, line = run_tests(tree)
            # Exit status 1 means tests ran and failed; anything else
            # (collection error, usage error) does not count as a kill.
            killed = status == 1
            print(f"{name}: {'killed by ' + line if killed else 'SURVIVED'} "
                  f"(exit {status}, {seconds:.1f}s)", flush=True)
            if not killed:
                survivors.append(name)
        engine.write_text(original, encoding="utf-8")
    if survivors:
        print(f"{len(survivors)} of {len(names)} mutants survived: {', '.join(survivors)}")
        return 1
    print(f"all {len(names)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
