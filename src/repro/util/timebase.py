"""Time comparison helpers.

The simulator jumps to exact guard-crossing times computed in floating
point, so strict comparisons like ``clock >= threshold`` need a small
tolerance to behave deterministically.  That tolerance is defined here,
in exactly one place.
"""

from __future__ import annotations

#: Absolute tolerance used for all time and guard comparisons (seconds).
EPSILON: float = 1e-9

#: Convenience alias: simulation timestamps are plain floats (seconds).
TimePoint = float
