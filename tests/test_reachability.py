"""Tests of ``tools/reachability.py``: how it names functions and hears from workers."""

import importlib
import importlib.util
import inspect
import json
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

_ROOT = Path(__file__).resolve().parents[1]
_TOOL = _ROOT / "tools" / "reachability.py"


def _tool():
    spec = importlib.util.spec_from_file_location("reachability", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _functions(namespace):
    """Plain functions in a module or class namespace, unwrapping decorators."""
    for value in vars(namespace).values():
        if isinstance(value, property):
            yield from (f for f in (value.fget, value.fset) if f is not None)
            continue
        value = getattr(value, "__func__", value)  # static and class methods
        value = inspect.unwrap(value)  # functools caches and wrappers
        if inspect.isfunction(value):
            yield value


def test_definitions_key_each_function_as_its_code_object_does():
    # A profiler sees a code object's file and first line, which for a
    # decorated function is its first decorator's; every function the
    # package defines must be found under that key, with its qualified name.
    defs = _tool().definitions()
    checked = 0
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        namespaces = [module] + [value for value in vars(module).values()
                                 if inspect.isclass(value)
                                 and value.__module__ == info.name]
        for namespace in namespaces:
            for function in _functions(namespace):
                code = function.__code__
                if function.__module__ != info.name or code.co_filename.startswith("<"):
                    continue
                key = (os.path.abspath(code.co_filename), code.co_firstlineno)
                assert key in defs, function.__qualname__
                assert defs[key][:2] == (info.name, function.__qualname__)
                checked += 1
    assert checked > 500


def test_forked_workers_report_the_functions_they_entered(tmp_path):
    # Only the workers call the function; the parent learns of it from the
    # sets they write when they exit.
    code = textwrap.dedent(f"""
        import json, sys
        sys.path.insert(0, {str(_TOOL.parent)!r})
        sys.path.insert(0, {str(_ROOT / "src")!r})
        from concurrent.futures import ProcessPoolExecutor
        import reachability
        from repro.campaign.cli import _csv_floats

        with reachability.profiling({str(tmp_path)!r}):
            with ProcessPoolExecutor(max_workers=2) as pool:
                assert list(pool.map(_csv_floats, ["1,2", "3"])) == [(1.0, 2.0), (3.0,)]
        key = (_csv_floats.__code__.co_filename, _csv_floats.__code__.co_firstlineno)
        print(json.dumps([key in reachability._entered_lines(),
                          key in reachability.reached({str(tmp_path)!r})]))
    """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": ""})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == [False, True]
    assert len(list(tmp_path.glob("*.txt"))) == 2
