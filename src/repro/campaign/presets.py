"""Campaign presets: the paper's experiments, each declared once.

A :class:`Preset` declares its :class:`Axis` inputs (after cadCAD's typed
``Param`` / ``ParamSweep`` tables), lays out its cells and folds a
finished campaign into an :class:`~repro.experiments.runner.ExperimentResult`.
One builder serves every entry point: ``PRESETS[name].build(**axes)`` (and
the ``*_spec`` aliases), the one-shot CLI and ``submit`` through
:meth:`Preset.from_flags`, and the :mod:`repro.experiments` drivers
through :meth:`Preset.run`.  Adding or changing a preset touches only its
declaration in :data:`PRESETS`.

Swept presets (table1, loss_sweep, grid) share one cross-product builder:
every point of their sweep axes x {with, without lease}.  Scripted presets
(scenarios, interlock) lay out their cells by hand: they are stories, not
a sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Mapping, Optional, Tuple

from repro.campaign.aggregate import CampaignResult
from repro.campaign.spec import (CampaignSpec, ChannelSpec, SurgeonSpec, TrialSpec,
                                 expand_grid, mode_label)
from repro.casestudy.config import CaseStudyConfig

if TYPE_CHECKING:  # pragma: no cover - avoids campaign <-> experiments cycle
    from repro.experiments.runner import ExperimentResult

#: Legacy per-trial seed offsets of the serial Table I loop
#: (``seed + 101 * toff_index + 13 * mode_index``), preserved so campaign
#: runs reproduce the pre-campaign serial numbers exactly.
_TABLE1_TOFF_STRIDE = 101
_TABLE1_MODE_STRIDE = 13

#: What a valid value is: ``(description, predicate)``.
POSITIVE = ("positive and finite", lambda value: 0.0 < value < float("inf"))
AT_LEAST_ONE = ("at least 1", lambda value: value >= 1)
PROBABILITY = ("within [0, 1]", lambda value: 0.0 <= value <= 1.0)
INTEGER = ("an integer", lambda value: True)
SEEDS = ("a non-empty sequence of seeds", lambda value: len(value) > 0)


@dataclass(frozen=True)
class Axis:
    """One declared input of a preset: its keyword ``name``, the ``type``
    each value is coerced to (an ``int`` refuses fractions), the Python
    ``default`` (``None``: unset, landing nowhere), the ``rule`` a valid
    value meets, the CLI ``flag`` (``argparse`` dest) it reads, whether it
    is a ``sweep`` (a sequence, one point per value) and where it
    ``lands``: ``"campaign.<field>"`` of the :class:`CampaignSpec`,
    ``"cell.<field>"`` of each cell (a swept field names the parameter; a
    ``loss`` is a Bernoulli channel), or ``None`` when only the preset's
    seed rule or script reads it.
    """

    name: str
    type: type
    default: object
    rule: Tuple[str, Callable[[object], bool]]
    flag: Optional[str] = None
    sweep: bool = False
    lands: Optional[str] = None

    def check(self, value: object, spelled: str) -> object:
        """Return ``value`` coerced to this axis, or raise ``ValueError``
        naming the axis as ``spelled``."""
        if value is None and self.default is None:
            return None
        values = tuple(value) if self.sweep else (value,)
        if not values:
            raise ValueError(f"{spelled} needs at least one value")
        description, valid = self.rule
        coerced = []
        for item in values:
            try:
                coerced.append(self.type(item))
            except (TypeError, ValueError):
                coerced.append(None)
            if (coerced[-1] is None or not valid(coerced[-1])
                    or (self.type is int and coerced[-1] != item)):
                raise ValueError(f"{spelled} must be {description} "
                                 f"(got {item!r})")
        return tuple(coerced) if self.sweep else coerced[0]


def _fields(field: str, value: object) -> Dict[str, object]:
    """Spec keywords for one landed value: a ``loss`` is a Bernoulli channel."""
    if field == "loss":
        return {"channel": ChannelSpec("bernoulli", loss=value)}
    return {field: value}


@dataclass(frozen=True)
class Preset:
    """A named campaign recipe: its ``name`` (the campaign's), a one-line
    ``description``, its ``axes`` (sweeps nest in this order), the
    ``to_result`` fold and the cell layout: a swept preset's ``label``
    format (``{mode}`` plus each swept parameter) and ``pin`` seed rule
    (``(axes, point index, mode index)`` to pinned seeds or ``None``), or
    a scripted preset's ``script`` from ``(axes, cell fields)``.
    """

    name: str
    description: str
    axes: Tuple[Axis, ...]
    to_result: Callable[[CampaignResult], "ExperimentResult"]
    label: str = ""
    pin: Optional[Callable[[dict, int, int], Optional[Tuple[int, ...]]]] = None
    script: Optional[Callable[[dict, dict], Tuple[TrialSpec, ...]]] = None

    @property
    def flags(self) -> Dict[str, Axis]:
        """The axes the CLI sets, by flag."""
        return {axis.flag: axis for axis in self.axes if axis.flag}

    def resolve(self, values: Mapping[str, object], *,
                by_flag: bool = False) -> Dict[str, object]:
        """Every axis's checked value, omitted ones at their defaults; a
        ``ValueError`` names a malformed value's axis by flag if ``by_flag``."""
        unknown = sorted(set(values) - {axis.name for axis in self.axes})
        if unknown:
            raise TypeError(f"preset {self.name!r} has no axis {unknown[0]!r}")
        return {axis.name: axis.check(
                    values.get(axis.name, axis.default),
                    "--" + axis.flag.replace("_", "-")
                    if by_flag and axis.flag else axis.name)
                for axis in self.axes}

    def build(self, config: CaseStudyConfig | None = None,
              **values: object) -> CampaignSpec:
        """The campaign these axis values name (``config=None``: the paper's)."""
        return self._spec(config, self.resolve(values))

    def from_flags(self, flags: Mapping[str, object]) -> CampaignSpec:
        """The campaign parsed CLI flags name (unset: ``None``); a
        ``ValueError`` names a malformed flag or an undeclared sweep flag."""
        for flag in SWEEP_FLAGS:
            if flags.get(flag) is not None and flag not in self.flags:
                raise ValueError(f"--{flag.replace('_', '-')} does not apply "
                                 f"to preset {self.name!r}")
        values = {axis.name: flags[flag] for flag, axis in self.flags.items()
                  if flags.get(flag) is not None}
        return self._spec(None, self.resolve(values, by_flag=True))

    def run(self, config: CaseStudyConfig | None = None, *, seed: int,
            max_workers: int = 1, **values: object) -> "ExperimentResult":
        """Build, run and fold the campaign at master seed ``seed``."""
        from repro.campaign.executor import run_campaign

        campaign = run_campaign(self.build(config, **values), seed=seed,
                                max_workers=max_workers)
        return self.to_result(campaign)

    def _spec(self, config: CaseStudyConfig | None,
              axes: Dict[str, object]) -> CampaignSpec:
        """Land every resolved axis value in one campaign spec."""
        campaign: Dict[str, object] = {}
        cell: Dict[str, object] = {}
        for axis in self.axes:
            value = axes[axis.name]
            if axis.lands and not axis.sweep and value is not None:
                scope, _, field = axis.lands.partition(".")
                (campaign if scope == "campaign" else cell).update(
                    _fields(field, value))
        trials = (self.script(axes, cell) if self.script is not None
                  else self._sweep(axes, cell))
        return CampaignSpec(name=self.name, trials=trials,
                            config=config or CaseStudyConfig(), **campaign)

    def _sweep(self, axes: Dict[str, object],
               cell: Dict[str, object]) -> Tuple[TrialSpec, ...]:
        """Every point of the sweep axes x {with, without lease}."""
        sweeps = {axis.lands.partition(".")[2]: axes[axis.name]
                  for axis in self.axes if axis.sweep}
        trials = []
        for index, point in enumerate(expand_grid(**sweeps)):
            fields = dict(cell)
            for name, value in point.items():
                fields.update(_fields(name, value))
            for mode, with_lease in enumerate((True, False)):
                trials.append(TrialSpec(
                    label=self.label.format(mode=mode_label(with_lease),
                                            **point),
                    with_lease=with_lease,
                    seeds=self.pin(axes, index, mode) if self.pin else None,
                    params=tuple(point.items()), **fields))
        return tuple(trials)


def _legacy_seeds(axes: dict, point: int, mode: int) -> Optional[Tuple[int, ...]]:
    """Table I: each cell's first replicate runs the historical serial seed."""
    seed = axes["legacy_seed"]
    if seed is None:
        return None
    return (seed + _TABLE1_TOFF_STRIDE * point + _TABLE1_MODE_STRIDE * mode,)


def _pinned_seeds(axes: dict, point: int, mode: int) -> Optional[Tuple[int, ...]]:
    """Loss sweep: every cell runs the explicit seeds unless replicates is set."""
    if axes["replicates"] is not None:
        return None
    return tuple(int(seed) for seed in axes["seeds"])


def _scenario_cells(axes: dict, cell: dict) -> Tuple[TrialSpec, ...]:
    """The Section V failure stories: scripted surgeons and loss windows up
    to the horizon, pinned seeds, and single sends (no supervisor resends)."""
    horizon = axes["horizon"]
    stories = (
        ("forgetful surgeon", (14.0,), (), ((30.0, horizon),)),
        ("lost cancel", (14.0,), (40.0,), ((38.0, horizon),)),
    )
    return tuple(
        TrialSpec(label=f"{scenario}, {mode_label(with_lease)}",
                  with_lease=with_lease,
                  channel=ChannelSpec("scripted", windows=windows),
                  surgeon=SurgeonSpec(requests_at=requests_at,
                                      cancels_at=cancels_at),
                  supervisor_resend_limit=0, seeds=(0,),
                  params=(("scenario", scenario),), **cell)
        for scenario, requests_at, cancels_at, windows in stories
        for with_lease in (True, False))


def _interlock_cells(axes: dict, cell: dict) -> Tuple[TrialSpec, ...]:
    """The furnace line of ``examples/industrial_interlock.py``, lease and
    baseline, each pinning the example's seed 1 so the preset reproduces
    its outcome (lease SAFE, baseline VIOLATED).  The interlock runner
    builds its own system and ignores the case-study configuration."""
    return tuple(TrialSpec(label=f"interlock, {mode_label(with_lease)}",
                           with_lease=with_lease, seeds=(1,),
                           runner="interlock", **cell)
                 for with_lease in (True, False))


# --------------------------------------------------------------------------
# Result builders: each folds its campaign into its table and checks
# --------------------------------------------------------------------------

def table1_result(campaign: CampaignResult) -> ExperimentResult:
    """Fold a Table I campaign into the Table I experiment result.

    Args:
        campaign: A completed ``table1`` campaign.

    Returns:
        The rendered Table I rows plus the paper-parity safety checks.
    """
    from repro.experiments.runner import ExperimentResult
    from repro.experiments.table1 import PAPER_TABLE1

    summaries = campaign.summaries
    with_lease = [s for s in summaries if s.with_lease]
    without_lease = [s for s in summaries if not s.with_lease]
    groups = campaign.groups()
    if all(group.trials == 1 for group in groups):
        headers = ["Trial Mode", "E(Toff) (s)", "# Laser Emissions", "# Failures",
                   "# evtToStop", "max pause (s)", "max emission (s)", "loss ratio"]
        rows = [[s.mode, s.mean_toff, s.laser_emissions, s.failures, s.evt_to_stop,
                 round(s.max_pause_duration, 1), round(s.max_emission_duration, 1),
                 round(s.observed_loss_ratio, 2)] for s in summaries]
    else:
        headers = ["Trial Mode", "E(Toff) (s)", "# trials", "# Laser Emissions",
                   "# Failures", "# evtToStop", "failing trials", "max pause (s)",
                   "max emission (s)", "mean loss ratio"]
        rows = [[mode_label(g.with_lease, table_style=True), g.mean_toff, g.trials,
                 g.laser_emissions, g.failures, g.evt_to_stop, g.failing_trials,
                 round(g.max_pause_duration, 1), round(g.max_emission_duration, 1),
                 round(g.mean_loss_ratio, 2)] for g in groups]

    long_toff_stop = sum(s.evt_to_stop for s in with_lease if s.mean_toff >= 18.0)
    return ExperimentResult(
        experiment="table1",
        title="Table I: PTE safety rule violation (failure) statistics of emulation trials",
        headers=headers,
        rows=rows,
        notes=[
            "paper rows (mode, E(Toff), emissions, failures, evtToStop): "
            + "; ".join(str(row) for row in PAPER_TABLE1),
            "losses come from a calibrated Gilbert-Elliott burst channel instead of a "
            "physical 802.11g interferer; absolute counts differ, the win/lose shape "
            "must not.",
            f"campaign: {campaign.total_trials} trials, master seed "
            f"{campaign.master_seed}, {campaign.workers} worker(s), "
            f"{campaign.wall_time:.1f}s wall",
        ],
        checks={
            "with_lease_never_fails": all(s.failures == 0 for s in with_lease),
            "baseline_does_fail": any(s.failures > 0 for s in without_lease),
            "evt_to_stop_only_with_lease": all(s.evt_to_stop == 0
                                               for s in without_lease),
            "lease_forced_stops_happen": long_toff_stop > 0,
        },
    )


def loss_sweep_result(campaign: CampaignResult) -> ExperimentResult:
    """Fold a loss-sweep campaign into the loss-sweep experiment result.

    Args:
        campaign: A completed ``loss_sweep`` campaign.

    Returns:
        The per-loss-level rows plus the lease-safety checks.
    """
    from repro.experiments.runner import ExperimentResult

    rows = []
    lease_failures_total = 0
    high_loss_baseline_fails = False
    groups = campaign.groups()
    for group in groups:
        loss = campaign.spec_of(group).param_dict["loss"]
        rows.append([loss, group.mode, group.laser_emissions, group.failures,
                     group.evt_to_stop])
        if group.with_lease:
            lease_failures_total += group.failures
        elif loss >= 0.5 and group.failures > 0:
            high_loss_baseline_fails = True
    trials_per_cell = groups[0].trials
    duration = campaign.spec.trials[0].duration or campaign.spec.config.trial_duration
    return ExperimentResult(
        experiment="loss_sweep",
        title="Extension: failures vs. packet-loss probability (lease vs. no lease)",
        headers=["loss probability", "mode", "emissions", "failures", "evtToStop"],
        rows=rows,
        notes=[f"each cell aggregates {trials_per_cell} trials of {duration:.0f}s",
               "Theorem 1 promises lease safety under arbitrary loss, so the "
               "with-lease failure column must be all zeros"],
        checks={
            "lease_safe_at_every_loss_level": lease_failures_total == 0,
            "baseline_fails_under_heavy_loss": high_loss_baseline_fails,
        },
    )


def scenarios_result(campaign: CampaignResult) -> ExperimentResult:
    """Fold a scenarios campaign into the scenarios experiment result.

    Args:
        campaign: A completed ``scenarios`` campaign.

    Returns:
        One row per scripted story/mode plus the expected-outcome checks.
    """
    from repro.experiments.runner import ExperimentResult

    rows = []
    checks = {}
    for group in campaign.groups():
        scenario = str(campaign.spec_of(group).param_dict["scenario"])
        rows.append([scenario, group.mode,
                     round(group.max_emission_duration, 1),
                     round(group.max_pause_duration, 1), group.failures])
        key = scenario.replace(" ", "_") + "_" + (
            "lease_safe" if group.with_lease else "baseline_fails")
        checks[key] = ((group.failures == 0) if group.with_lease
                       else (group.failures > 0))
    return ExperimentResult(
        experiment="scenarios",
        title="Section V failure scenarios under scripted losses (lease vs. no lease)",
        headers=["scenario", "mode", "max emission (s)", "max pause (s)", "failures"],
        rows=rows,
        notes=["scenario 3 (T_enter misconfiguration violating c5) is the "
               "ablation_c5 experiment",
               "with leases the laser stops within T_run,2=20 s and the ventilator "
               "resumes within T_run,1=35 s even under a total blackout"],
        checks=checks,
    )


def grid_result(campaign: CampaignResult) -> ExperimentResult:
    """Fold a grid campaign into a generic experiment result.

    Args:
        campaign: A completed ``grid`` campaign.

    Returns:
        One row per grid point/mode plus the lease-safety check.
    """
    from repro.experiments.runner import ExperimentResult

    rows = []
    lease_failures = 0
    for group in campaign.groups():
        params = campaign.spec_of(group).param_dict
        rows.append([params["loss"], params["mean_toff"], group.mode,
                     group.trials, group.laser_emissions, group.failures,
                     group.evt_to_stop, group.failing_trials])
        if group.with_lease:
            lease_failures += group.failures
    return ExperimentResult(
        experiment="grid",
        title="Extension: joint loss-rate x E(Toff) sweep (lease vs. no lease)",
        headers=["loss probability", "E(Toff) (s)", "mode", "trials", "emissions",
                 "failures", "evtToStop", "failing trials"],
        rows=rows,
        notes=[f"campaign: {campaign.total_trials} trials, master seed "
               f"{campaign.master_seed}, {campaign.workers} worker(s)"],
        checks={"lease_safe_across_grid": lease_failures == 0},
    )


def interlock_result(campaign: CampaignResult) -> ExperimentResult:
    """Fold an interlock campaign into an experiment result.

    Args:
        campaign: A completed ``interlock`` campaign.

    Returns:
        One row per mode plus the lease-safety checks (lease keeps the
        PTE order under the same bursty loss that breaks the baseline).
    """
    from repro.experiments.runner import ExperimentResult

    rows = []
    lease_failures = 0
    baseline_failures = 0
    for group in campaign.groups():
        rows.append([group.mode, group.trials, group.laser_emissions,
                     group.failures, group.evt_to_stop,
                     round(group.max_emission_duration, 1),
                     round(group.mean_loss_ratio, 2)])
        if group.with_lease:
            lease_failures += group.failures
        else:
            baseline_failures += group.failures
    return ExperimentResult(
        experiment="interlock",
        title="Industrial interlock: four-entity furnace line under bursty loss",
        headers=["mode", "trials", "torch activations", "failures", "evtToStop",
                 "max activation (s)", "mean loss ratio"],
        rows=rows,
        notes=["the paper's beyond-surgery motivation: exhaust fan -> coolant "
               "pump -> conveyor -> plasma torch must enter risky modes in "
               "order and leave in reverse",
               "bursty Gilbert-Elliott channel (90% loss in the bad state) on "
               "every wireless link"],
        checks={
            "lease_keeps_pte_order": lease_failures == 0,
            "baseline_violates_pte_order": baseline_failures > 0,
        },
    )


# --------------------------------------------------------------------------
# Registry: each preset's one declaration
# --------------------------------------------------------------------------

PRESETS: Dict[str, Preset] = {preset.name: preset for preset in (
    Preset(
        "table1",
        "Table I: {with, without lease} x E(Toff) under burst interference",
        axes=(
            Axis("mean_toffs", float, (18.0, 6.0), POSITIVE, "mean_toffs",
                 sweep=True, lands="cell.mean_toff"),
            # The campaign-level default (unset: the config's 1800 s).
            Axis("duration", float, None, POSITIVE, "duration",
                 lands="campaign.duration"),
            Axis("replicates", int, 1, AT_LEAST_ONE, "replicates",
                 lands="cell.replicates"),
            # The CLI pins the serial seeds to --seed; Python callers opt in.
            Axis("legacy_seed", int, None, INTEGER, "seed"),
        ),
        label="{mode}, E(Toff)={mean_toff:g}s",
        pin=_legacy_seeds,
        to_result=table1_result,
    ),
    Preset(
        "loss_sweep",
        "Failures vs. memoryless packet-loss probability",
        axes=(
            Axis("loss_levels", float, (0.0, 0.1, 0.3, 0.5, 0.7, 0.9),
                 PROBABILITY, "loss_levels", sweep=True, lands="cell.loss"),
            Axis("duration", float, 900.0, POSITIVE, "duration",
                 lands="cell.duration"),
            Axis("seeds", tuple, (1, 2), SEEDS),
            # Unset in Python: every cell runs the explicit seeds.  The CLI
            # always sets it, so its seeds are derived.
            Axis("replicates", int, None, AT_LEAST_ONE, "replicates",
                 lands="cell.replicates"),
        ),
        label="loss={loss:g}, {mode}",
        pin=_pinned_seeds,
        to_result=loss_sweep_result,
    ),
    Preset(
        "scenarios",
        "Section V scripted failure stories (deterministic)",
        axes=(
            Axis("horizon", float, 240.0, POSITIVE, "duration",
                 lands="cell.duration"),
            # Each story runs once; only --method crude/sprt read the flag,
            # as their trial budget.
            Axis("replicates", int, 1, AT_LEAST_ONE, "replicates"),
        ),
        script=_scenario_cells,
        to_result=scenarios_result,
    ),
    Preset(
        "grid",
        "Joint loss-rate x E(Toff) grid (campaign-only sweep)",
        axes=(
            Axis("loss_levels", float, (0.0, 0.3, 0.6), PROBABILITY,
                 "loss_levels", sweep=True, lands="cell.loss"),
            Axis("mean_toffs", float, (18.0, 6.0), POSITIVE, "mean_toffs",
                 sweep=True, lands="cell.mean_toff"),
            Axis("duration", float, 600.0, POSITIVE, "duration",
                 lands="cell.duration"),
            Axis("replicates", int, 1, AT_LEAST_ONE, "replicates",
                 lands="cell.replicates"),
        ),
        label="loss={loss:g}, E(Toff)={mean_toff:g}s, {mode}",
        to_result=grid_result,
    ),
    Preset(
        "interlock",
        "Four-entity industrial interlock under bursty loss",
        axes=(
            # Unset: the interlock runner's own 250 s horizon.
            Axis("horizon", float, None, POSITIVE, "duration",
                 lands="cell.duration"),
            Axis("replicates", int, 1, AT_LEAST_ONE, "replicates",
                 lands="cell.replicates"),
        ),
        script=_interlock_cells,
        to_result=interlock_result,
    ),
)}

#: Every preset's sweep flags: one that the chosen preset does not declare
#: is a usage error rather than silently ignored.
SWEEP_FLAGS = sorted({axis.flag for preset in PRESETS.values()
                      for axis in preset.axes if axis.sweep})

table1_spec = PRESETS["table1"].build
loss_sweep_spec = PRESETS["loss_sweep"].build
scenarios_spec = PRESETS["scenarios"].build
grid_spec = PRESETS["grid"].build
interlock_spec = PRESETS["interlock"].build
