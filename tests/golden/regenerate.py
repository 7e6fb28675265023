"""Rewrite ``tests/golden/digests.json`` from the code as it stands.

The digests pin behaviour, so rewriting them accepts a behaviour change;
the script refuses to run without saying so::

    python tests/golden/regenerate.py --accept-behaviour-change
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--accept-behaviour-change", action="store_true", required=True,
                        help="confirm that the simulated behaviour is meant to change")
    parser.parse_args(argv)
    sys.path[:0] = [str(HERE), str(HERE.parent.parent / "src")]
    from runs import DIGESTS_PATH, RUNS, run_digest

    digests = {name: run_digest(name) for name in RUNS}
    DIGESTS_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n",
                            encoding="utf-8")
    for name, digest in sorted(digests.items()):
        print(f"{name}: {digest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
