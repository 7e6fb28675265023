"""Small shared utilities (RNG handling, formatting, time helpers)."""

from repro.util.seeding import derive_seed, spawn_rng
from repro.util.tables import format_table
from repro.util.timebase import TimePoint, EPSILON

__all__ = [
    "derive_seed",
    "spawn_rng",
    "format_table",
    "TimePoint",
    "EPSILON",
]
