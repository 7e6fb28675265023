"""Common result container for the experiment drivers.

Each experiment module (one per paper table/figure plus the extensions)
exposes a ``run_*`` function returning an :class:`ExperimentResult`: a
named table of rows, optional time series, and free-form notes recording
how the reproduction relates to the paper's artifact.  The campaign CLI
(``python -m repro.campaign --experiment NAME``) prints the preset
experiments' results through :meth:`ExperimentResult.render`; the figure
drivers' results are read by the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.util.tables import format_series, format_table


@dataclass
class ExperimentResult:
    """Outcome of one experiment run.

    Attributes:
        experiment: Experiment identifier (e.g. ``"table1"``, ``"fig2"``).
        title: Human-readable title matching the paper artifact.
        headers: Column names of the result table.
        rows: Table rows.
        series: Optional named time series ``name -> (times, values)``.
        notes: Free-form notes (paper-vs-measured commentary).
        checks: Named boolean claims that must hold for the reproduction to
            be considered successful (tests assert on these).
    """

    experiment: str
    title: str
    headers: Sequence[str] = ()
    rows: List[Sequence[object]] = field(default_factory=list)
    series: Dict[str, tuple[List[float], List[float]]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    checks: Dict[str, bool] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        """True when every recorded check holds."""
        return all(self.checks.values())

    def failed_checks(self) -> List[str]:
        """Names of the checks that did not hold."""
        return [name for name, ok in self.checks.items() if not ok]

    def render(self) -> str:
        """Render the full experiment result as printable text."""
        parts: List[str] = []
        if self.headers or self.rows:
            parts.append(format_table(self.headers, self.rows, title=self.title))
        else:
            parts.append(self.title)
        for name, (times, values) in self.series.items():
            parts.append(format_series(name, times, values))
        for note in self.notes:
            parts.append(f"note: {note}")
        status = "PASS" if self.passed else f"FAIL ({', '.join(self.failed_checks())})"
        parts.append(f"checks: {status}")
        return "\n".join(parts)
