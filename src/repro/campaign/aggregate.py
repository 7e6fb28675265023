"""Campaign result containers and streaming-friendly aggregation.

Workers return slim, picklable :class:`TrialSummary` records (the Table I
statistics of one trial, no traces or monitors attached); the campaign
result keeps them ordered by trial index so aggregates are bit-identical
for any worker count, and groups them per :class:`~repro.campaign.spec.TrialSpec`
cell for table building.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from repro.campaign.faults import TrialFailure
from repro.campaign.spec import mode_label

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.casestudy.emulation import TrialResult
    from repro.campaign.spec import CampaignSpec, TrialRun, TrialSpec

#: Fixed-width numeric encoding of a :class:`TrialSummary`: one ``(field,
#: kind)`` pair per column, ``kind`` being ``"i"`` (int64), ``"f"``
#: (float64) or ``"b"`` (bool stored as int64).  Every summary field except
#: the display ``label`` (reconstructed from ``spec_index`` via the
#: campaign spec) is covered, so a record round-trips bit-identically: the
#: floats are already IEEE doubles and the counters fit comfortably in 64
#: bits.  This is the schema of the shared-memory results ring
#: (:mod:`repro.campaign.shm`) and of the checkpoint store's plain-column
#: summary rows (:mod:`repro.campaign.store`).
SUMMARY_RECORD_FIELDS = (
    ("spec_index", "i"),
    ("replicate", "i"),
    ("seed", "i"),
    ("with_lease", "b"),
    ("mean_toff", "f"),
    ("duration", "f"),
    ("laser_emissions", "i"),
    ("failures", "i"),
    ("evt_to_stop", "i"),
    ("ventilator_pauses", "i"),
    ("max_emission_duration", "f"),
    ("max_pause_duration", "f"),
    ("min_spo2", "f"),
    ("supervisor_aborts", "i"),
    ("surgeon_requests", "i"),
    ("surgeon_cancels", "i"),
    ("observed_loss_ratio", "f"),
)

_RECORD_FIELD_NAMES = tuple(name for name, _ in SUMMARY_RECORD_FIELDS)
_RECORD_BOOL_FIELDS = tuple(name for name, kind in SUMMARY_RECORD_FIELDS
                            if kind == "b")


@dataclass(frozen=True)
class TrialSummary:
    """Slim, picklable statistics of one campaign trial."""

    label: str
    spec_index: int
    replicate: int
    seed: int
    with_lease: bool
    mean_toff: float
    duration: float
    laser_emissions: int
    failures: int
    evt_to_stop: int
    ventilator_pauses: int
    max_emission_duration: float
    max_pause_duration: float
    min_spo2: float
    supervisor_aborts: int
    surgeon_requests: int
    surgeon_cancels: int
    observed_loss_ratio: float

    @classmethod
    def from_trial(cls, run: "TrialRun", result: "TrialResult") -> "TrialSummary":
        """Extract the summary of one executed trial.

        Args:
            run: The trial's position in the campaign (cell, replicate, seed).
            result: The trial's full result.

        Returns:
            The slim, picklable summary of the trial.
        """
        return cls(
            label=run.spec.label,
            spec_index=run.spec_index,
            replicate=run.replicate,
            seed=run.seed,
            with_lease=result.with_lease,
            mean_toff=result.mean_toff,
            duration=result.duration,
            laser_emissions=result.laser_emissions,
            failures=result.failures,
            evt_to_stop=result.evt_to_stop,
            ventilator_pauses=result.ventilator_pauses,
            max_emission_duration=result.max_emission_duration,
            max_pause_duration=result.max_pause_duration,
            min_spo2=result.min_spo2,
            supervisor_aborts=result.supervisor_aborts,
            surgeon_requests=result.surgeon_requests,
            surgeon_cancels=result.surgeon_cancels,
            observed_loss_ratio=result.observed_loss_ratio,
        )

    def to_record(self) -> Tuple[float, ...]:
        """Encode as the fixed-width numeric tuple of ``SUMMARY_RECORD_FIELDS``."""
        out = []
        for name, kind in SUMMARY_RECORD_FIELDS:
            value = getattr(self, name)
            out.append(float(value) if kind == "f" else int(value))
        return tuple(out)

    @classmethod
    def from_record(cls, record, label: str) -> "TrialSummary":
        """Decode a ``SUMMARY_RECORD_FIELDS`` row back into a summary.

        Accepts a plain sequence of Python numerics (a tuple from
        :meth:`to_record`, a sqlite row, or an ``ndarray.tolist`` row) or
        a NumPy structured record; every column comes back as its plain
        Python type, so downstream ``asdict`` → ``json.dumps`` output is
        byte-identical to the pickled path.

        Args:
            record: Numeric row ordered/keyed like ``SUMMARY_RECORD_FIELDS``.
            label: The cell label (not stored in the record; comes from
                ``spec.trials[spec_index].label``).

        Returns:
            The reconstructed summary.
        """
        if isinstance(record, (tuple, list)):
            # Hot decode path (results ring, store replay): these sources
            # already yield plain Python numerics (``ndarray.tolist``,
            # sqlite rows, :meth:`to_record`), so only the bool columns
            # need re-coercing.  Populating ``__dict__`` directly skips
            # the frozen dataclass's per-field ``object.__setattr__``
            # __init__ — the same construction path pickle uses.
            summary = cls.__new__(cls)
            values = summary.__dict__
            values.update(zip(_RECORD_FIELD_NAMES, record))
            values["label"] = label
            for name in _RECORD_BOOL_FIELDS:
                values[name] = bool(values[name])
            return summary
        values: Dict[str, object] = {"label": label}
        for name, kind in SUMMARY_RECORD_FIELDS:
            raw = record[name]
            if kind == "f":
                values[name] = float(raw)
            elif kind == "b":
                values[name] = bool(raw)
            else:
                values[name] = int(raw)
        return cls(**values)

    @property
    def mode(self) -> str:
        """``"with Lease"`` or ``"without Lease"`` (Table I's Trial Mode)."""
        return mode_label(self.with_lease, table_style=True)


@dataclass(frozen=True)
class GroupSummary:
    """Aggregate statistics of all replicates of one trial cell."""

    label: str
    spec_index: int
    trials: int
    with_lease: bool
    mean_toff: float
    laser_emissions: int
    failures: int
    evt_to_stop: int
    failing_trials: int
    max_emission_duration: float
    max_pause_duration: float
    min_spo2: float
    mean_loss_ratio: float

    @classmethod
    def from_summaries(cls, summaries: Sequence[TrialSummary]) -> "GroupSummary":
        """Aggregate one cell's replicates.

        The counts, maxima and minima are order-independent, but
        ``mean_loss_ratio`` is a float sum and depends on summation order.
        Callers pass the replicates in replicate order (as
        :meth:`CampaignResult.groups` and the service's streamed cells do),
        which makes the aggregate independent of completion order.

        Args:
            summaries: The cell's trial summaries (non-empty, same cell),
                in replicate order.

        Returns:
            The cell aggregate.

        Raises:
            ValueError: If ``summaries`` is empty.
        """
        if not summaries:
            raise ValueError("cannot aggregate an empty trial group")
        first = summaries[0]
        return cls(
            label=first.label,
            spec_index=first.spec_index,
            trials=len(summaries),
            with_lease=first.with_lease,
            mean_toff=first.mean_toff,
            laser_emissions=sum(s.laser_emissions for s in summaries),
            failures=sum(s.failures for s in summaries),
            evt_to_stop=sum(s.evt_to_stop for s in summaries),
            failing_trials=sum(1 for s in summaries if s.failures > 0),
            max_emission_duration=max(s.max_emission_duration for s in summaries),
            max_pause_duration=max(s.max_pause_duration for s in summaries),
            min_spo2=min(s.min_spo2 for s in summaries),
            mean_loss_ratio=sum(s.observed_loss_ratio for s in summaries)
            / len(summaries),
        )

    @property
    def mode(self) -> str:
        """``"with lease"`` or ``"without lease"``."""
        return mode_label(self.with_lease)


@dataclass
class CampaignResult:
    """Everything one campaign run produced.

    ``summaries`` is ordered by trial index (i.e. by position in the
    expanded spec), which makes every derived aggregate independent of the
    worker count and completion order.  Trials replayed from a checkpoint
    store land in the same ``summaries`` tuple as live trials — there is
    only one aggregation path, which is what makes resumed aggregates
    bit-identical to uninterrupted runs.  ``wall_time``, ``workers`` and
    ``replayed_trials`` are execution metadata and deliberately excluded
    from :meth:`to_json`'s ``"campaign"`` payload so that determinism
    checks can compare payloads byte-for-byte.

    ``quarantined`` lists the trials the self-healing executor gave up on
    (their retry budget exhausted; they have no summary), and
    ``recovery_events`` the supervisor's recovery actions (pool respawns,
    deadline kills, bisections, …).  Both live in the ``"run"`` metadata
    section of :meth:`to_json`: the ``"campaign"`` section stays a pure
    function of the completed trials, so a faulted run remains
    byte-comparable to a clean reference over the same trial subset.
    """

    spec: "CampaignSpec"
    master_seed: int
    workers: int
    wall_time: float
    summaries: Tuple[TrialSummary, ...]
    replayed_trials: int = 0
    quarantined: Tuple[TrialFailure, ...] = ()
    recovery_events: Tuple[Tuple[str, str], ...] = ()

    @property
    def total_trials(self) -> int:
        """Number of trials the campaign executed."""
        return len(self.summaries)

    @property
    def trials_per_second(self) -> float:
        """Executed-trial throughput of this run."""
        return self.total_trials / self.wall_time if self.wall_time > 0 else 0.0

    def group_map(self) -> Dict[int, List[TrialSummary]]:
        """Group the summaries by spec index, replicates in order."""
        grouped: Dict[int, List[TrialSummary]] = {}
        for summary in self.summaries:
            grouped.setdefault(summary.spec_index, []).append(summary)
        return grouped

    def groups(self) -> List[GroupSummary]:
        """Return one aggregate per trial cell, in spec (presentation) order."""
        grouped = self.group_map()
        return [GroupSummary.from_summaries(grouped[index])
                for index in sorted(grouped)]

    def spec_of(self, group: GroupSummary) -> "TrialSpec":
        """Look up the trial spec a group summary was aggregated from.

        Args:
            group: A cell aggregate produced by this campaign.

        Returns:
            The spec cell the aggregate's trials came from.
        """
        return self.spec.trials[group.spec_index]

    def to_json(self) -> Dict[str, object]:
        """Build the JSON-ready payload.

        Returns:
            A dict with a deterministic ``"campaign"`` section (identical
            for any worker count, batch size, engine tier or crash/resume
            split) and a ``"run"`` metadata section (wall time, workers,
            replayed-trial count).
        """
        return {
            "campaign": {
                "name": self.spec.name,
                "master_seed": self.master_seed,
                "total_trials": self.total_trials,
                "trials": [asdict(s) for s in self.summaries],
                "groups": [asdict(g) for g in self.groups()],
            },
            "run": {
                "workers": self.workers,
                "wall_time_s": self.wall_time,
                "trials_per_second": self.trials_per_second,
                "replayed_trials": self.replayed_trials,
                "quarantined": [asdict(f) for f in self.quarantined],
                "recovery_events": [list(e) for e in self.recovery_events],
            },
        }
