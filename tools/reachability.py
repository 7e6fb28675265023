#!/usr/bin/env python3
"""List every function in ``src/`` that no run of the program enters.

The tool runs the program's entry points in this process, under
``sys.setprofile`` (and ``threading.setprofile`` for the threads they
start):

* the campaign CLI for every preset, both engine tiers,
  ``--store``/``--status``/``--resume``, each ``--method``, a fault plan
  and ``--json``;
* the four examples;
* a pooled ``run_campaign(max_workers=2)``;
* one job on a ``CampaignService`` served from a thread, submitted,
  watched and shut down through the service subcommands.

Forked pool workers inherit the profiler.  An after-fork hook registers
a finaliser in each worker that writes the functions it entered when it
exits, so code that runs only in workers counts as reached.

It then prints the module, first line, qualified name and length of every
``def`` under ``src/`` that none of these runs entered, and the totals.
The list is a report, not a gate: the exit status is 0 unless an entry
point itself fails.

Usage::

    python tools/reachability.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import multiprocessing.util
import os
import runpy
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXAMPLES = (("quickstart.py",), ("custom_elaboration.py",),
            ("industrial_interlock.py",), ("laser_tracheotomy.py", "--quick"))

#: Code objects entered so far, by id (holding each keeps its id unique).
_entered: dict = {}
#: Where forked workers write what they entered; set while the runs last.
_worker_dir: str | None = None


def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        _entered[id(code)] = code


def _entered_lines():
    """``(file, first line)`` of every entered function defined under ``src/``."""
    prefix = str(SRC) + os.sep
    return {(code.co_filename, code.co_firstlineno) for code in list(_entered.values())
            if code.co_filename.startswith(prefix)}


def _write_worker_set() -> None:
    lines = "".join(f"{name}\t{line}\n" for name, line in _entered_lines())
    Path(_worker_dir, f"{os.getpid()}.txt").write_text(lines, encoding="utf-8")


def _after_fork(_token) -> None:
    """Runs in every forked worker: record what the worker itself enters."""
    _entered.clear()
    if _worker_dir is not None:
        multiprocessing.util.Finalize(None, _write_worker_set, exitpriority=100)


class _Token:
    """A weakly referenceable key for multiprocessing's after-fork registry."""


_AFTER_FORK = _Token()
multiprocessing.util.register_after_fork(_AFTER_FORK, _after_fork)


@contextlib.contextmanager
def profiling(worker_dir: str):
    """Record the functions entered in this process, its threads and its
    forked workers (which write their sets into ``worker_dir``) while the
    block runs."""
    global _worker_dir
    _worker_dir = worker_dir
    threading.setprofile(_profile)
    sys.setprofile(_profile)
    try:
        yield
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
        _worker_dir = None


def reached(worker_dir: str):
    """``(file, first line)`` of every ``src/`` function entered so far,
    here or in a worker that reported to ``worker_dir``."""
    found = _entered_lines()
    for path in Path(worker_dir).glob("*.txt"):
        for line in path.read_text(encoding="utf-8").splitlines():
            name, first = line.split("\t")
            found.add((name, int(first)))
    return found


def definitions():
    """Every ``def`` under ``src/``: ``{(file, first line): (module, qualname, lines)}``.

    A function's first line is its first decorator's, as in its code object.
    """
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        module = module.removesuffix(".__init__")

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    name = ".".join(scope + [child.name])
                    found[(str(path), first)] = (module, name, child.end_lineno - first + 1)
                    visit(child, scope + [child.name, "<locals>"])
                elif isinstance(child, ast.ClassDef):
                    visit(child, scope + [child.name])
                else:
                    visit(child, scope)

        visit(ast.parse(path.read_text(encoding="utf-8")), [])
    return found


def _cli(*argv: str) -> None:
    from repro.campaign.cli import main

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    if code not in (0, 1):
        raise SystemExit(f"reachability: CLI {' '.join(argv)!r} exited {code}")


def run_cli(work: Path) -> None:
    from repro.campaign.presets import PRESETS

    for name in PRESETS:
        _cli("--experiment", name, "--duration", "30", "--quiet")
    for engine in ("reference", "compiled"):
        _cli("--engine", engine, "--duration", "60", "--quiet")
    store = str(work / "table1.db")
    _cli("--duration", "60", "--replicates", "2", "--quiet", "--store", store,
         "--fault-plan", "raise@trial=1,times=1;lock@commit=2")
    _cli("--store", store, "--status")
    _cli("--store", store, "--status", "--json")
    _cli("--duration", "60", "--replicates", "2", "--quiet", "--store", store,
         "--resume", "--json", str(work / "table1.json"))
    for method in (("crude", "--replicates", "8"), ("sprt", "--replicates", "8"),
                   ("split", "--trials-per-level", "8", "--levels", "3",
                    "--workers", "2")):
        _cli("--duration", "60", "--method", *method, "--json", "-",
             "--store", str(work / f"{method[0]}.db"))


def run_examples() -> None:
    for name, *argv in EXAMPLES:
        path = ROOT / "examples" / name
        saved = sys.argv
        sys.argv = [str(path), *argv]
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(str(path), run_name="__main__")
        except SystemExit as exc:
            if exc.code not in (None, 0, 1):
                raise
        finally:
            sys.argv = saved


def run_pooled() -> None:
    from repro.campaign import run_campaign, table1_spec

    run_campaign(table1_spec(mean_toffs=(18.0,), duration=60.0, replicates=2),
                 seed=7, max_workers=2)


def run_service(work: Path) -> None:
    from repro.campaign.service import CampaignService, ServiceClient

    socket_path = str(work / "svc.sock")
    service = CampaignService(socket_path, work / "stores", max_workers=2)
    server = threading.Thread(target=service.serve, name="reachability-service")
    server.start()
    client = ServiceClient(socket_path)
    deadline = time.monotonic() + 60.0
    while True:
        try:
            client.status()
            break
        except (FileNotFoundError, ConnectionRefusedError):
            if time.monotonic() > deadline:
                raise
            time.sleep(0.01)
    try:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            from repro.campaign.cli import main
            main(["submit", "--socket", socket_path, "--experiment", "table1",
                  "--replicates", "2", "--duration", "60"])
        job = json.loads(out.getvalue())["job"]
        _cli("watch", "--socket", socket_path, job)
        _cli("status", "--socket", socket_path, job)
        _cli("drain", "--socket", socket_path)
    finally:
        _cli("shutdown", "--socket", socket_path)
        server.join(timeout=60.0)


def main() -> int:
    sys.path.insert(0, str(SRC))
    os.environ.pop("REPRO_FAULT_PLAN", None)
    defs = definitions()
    with tempfile.TemporaryDirectory(prefix="reachability-") as scratch:
        work = Path(scratch)
        workers = str(work / "workers")
        os.mkdir(workers)
        with profiling(workers):
            run_cli(work)
            run_examples()
            run_pooled()
            run_service(work)
        entered = reached(workers)
        reports = len(os.listdir(workers))
    unreached = sorted((module, first, name, length)
                       for (path, first), (module, name, length) in defs.items()
                       if (path, first) not in entered)
    for module, first, name, length in unreached:
        print(f"{module}:{first} {name} ({length} lines)")
    total = sum(length for *_, length in defs.values())
    print(f"{len(unreached)} of {len(defs)} functions not entered "
          f"({sum(u[3] for u in unreached)} of {total} function lines); "
          f"{reports} worker processes reported")
    return 0


if __name__ == "__main__":
    sys.exit(main())
