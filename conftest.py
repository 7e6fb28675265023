"""Pytest bootstrap: make the ``src`` layout importable without installation.

Putting ``src`` on ``sys.path`` lets the package import without an
editable install (useful on offline machines where ``pip install -e .``
cannot build editable metadata because the ``wheel`` package is
unavailable; see README "Installation" for the supported offline path),
so CI and local runs agree on import behaviour.
"""

import sys
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
