r"""Command-line Monte-Carlo campaign runner.

Examples::

    # Table I at 40 replicates per cell across 4 worker processes.
    python -m repro.campaign --experiment table1 --replicates 40 --workers 4 --seed 7

    # Scaled loss sweep with shorter trials.
    python -m repro.campaign --experiment loss_sweep --replicates 10 \
        --loss-levels 0,0.3,0.6,0.9 --duration 600 --workers 4

    # Joint loss-rate x E(Toff) grid, JSON results to a file.
    python -m repro.campaign --experiment grid --loss-levels 0,0.3,0.6 \
        --mean-toffs 18,6 --replicates 5 --workers 4 --json grid.json

    # Durable campaign: checkpoint batches to a sqlite store, and after a
    # crash (or Ctrl-C) resume from the last checkpoint -- replayed trials
    # are not re-simulated, and aggregates are bit-identical to an
    # uninterrupted run.  --status reports a store's progress.
    python -m repro.campaign --experiment table1 --replicates 1000 \
        --workers 8 --store table1.db
    python -m repro.campaign --experiment table1 --replicates 1000 \
        --workers 8 --store table1.db --resume
    python -m repro.campaign --store table1.db --status
    python -m repro.campaign --store table1.db --status --json

    # Service mode: a first positional subcommand routes to the campaign
    # job server (see docs/service.md).  The flag-only one-shot
    # invocations above are unchanged.
    python -m repro.campaign serve --socket /tmp/repro.sock --stores-dir jobs/
    python -m repro.campaign submit --socket /tmp/repro.sock --preset table1
    python -m repro.campaign watch --socket /tmp/repro.sock JOB

    # Chaos drill: kill the worker of batch 2, hang batch 3 past the
    # 10-second deadline, and poison trial 5 -- the supervisor respawns
    # the pool, reschedules the lost batches, quarantines the poison
    # trial after its retries, and the campaign still completes.
    python -m repro.campaign --experiment table1 --replicates 8 --workers 2 \
        --batch-deadline 10 --fault-plan 'crash@batch=2;hang@batch=3;raise@trial=5'

The exit status is 0 when every experiment check holds, 1 otherwise;
2 for usage errors (including checkpoint-store mismatches and malformed
fault plans), 3 when the executor's recovery budget is exhausted
(:class:`~repro.campaign.executor.CampaignExecutionError`), and
``128 + signum`` (130 for SIGINT, 143 for SIGTERM) when a signal
interrupts the run after checkpoints were flushed and shared memory was
unlinked.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shlex
import signal
import sys
from typing import Sequence

from repro.campaign.aggregate import TrialSummary
from repro.campaign.executor import (CampaignExecutionError,
                                     CampaignInterrupted,
                                     DEFAULT_CAMPAIGN_ENGINE,
                                     DEFAULT_MAX_RESPAWNS, DEFAULT_MAX_RETRIES,
                                     default_worker_count, run_campaign)
from repro.campaign.faults import FaultPlanError, resolve_fault_plan
from repro.campaign.presets import PRESETS
from repro.campaign.service.client import SERVICE_COMMANDS, service_main
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import CampaignStore, CampaignStoreError
from repro.hybrid.simulate import ENGINE_KINDS, resolve_engine_kind


def _csv_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats: {text!r}") \
            from exc


def _levels_arg(text: str) -> int | tuple[float, ...]:
    """Parse ``--levels``: an int (adaptive level cap) or a float ladder.

    ``--levels 8`` caps the adaptive estimator at 8 levels; ``--levels
    0.3,0.5,0.8`` pins an explicit, strictly increasing threshold ladder.
    """
    if "," not in text and "." not in text:
        try:
            return int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                f"expected an int or comma-separated floats: {text!r}") from exc
    return _csv_floats(text)


def add_preset_flags(parser: argparse.ArgumentParser, *,
                     sweeps: bool = True) -> None:
    """Add the flags preset axes read to the one-shot or (without the
    sweep flags) the ``submit`` parser.  Which axis each sets, its default
    and what a valid value is are the presets' declarations; an unset
    flag (``None``) keeps the axis default."""
    parser.add_argument("--replicates", type=int, default=1, metavar="N",
                        help="independent trials per sweep cell (default: 1)")
    parser.add_argument("--seed", type=int, default=2013,
                        help="campaign master seed; table1 also pins its "
                             "serial per-cell seeds to it (default: 2013)")
    parser.add_argument("--duration", type=float, default=None,
                        metavar="SECONDS",
                        help="per-trial duration in seconds (default: the "
                             "preset's)")
    if sweeps:
        parser.add_argument("--mean-toffs", type=_csv_floats, default=None,
                            metavar="CSV", help="surgeon E(Toff) values, "
                            "e.g. 18,6")
        parser.add_argument("--loss-levels", type=_csv_floats, default=None,
                            metavar="CSV", help="packet-loss probabilities, "
                            "e.g. 0,0.3,0.6,0.9")


def build_parser() -> argparse.ArgumentParser:
    """Build the campaign CLI's argument parser.

    Returns:
        The configured :class:`argparse.ArgumentParser` (its epilog lists
        every registered preset).
    """
    preset_lines = "\n".join(
        f"  {name:<12s} {preset.description}\n"
        f"  {'':<12s} flags: "
        + " ".join("--" + flag.replace("_", "-") for flag in preset.flags)
        for name, preset in PRESETS.items())
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        description=__doc__,
        epilog=f"experiments:\n{preset_lines}\n\n"
               "A sweep flag that the chosen preset does not list is a usage "
               "error; --seed is\nevery preset's campaign master seed.",
    )
    parser.add_argument("--experiment", "--preset", dest="experiment",
                        choices=sorted(PRESETS), default="table1",
                        help="campaign preset to run (default: table1)")
    add_preset_flags(parser)
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="worker processes; 1 = serial, 0 = one per CPU "
                             "(default: 1)")
    parser.add_argument("--engine", choices=ENGINE_KINDS, default=None,
                        help="simulation kernel; default: the compiled kernel "
                             "(all kernels are bit-identical; "
                             "'reference' is the executable-spec escape hatch)")
    parser.add_argument("--batch-size", type=int, default=None, metavar="B",
                        help="consecutive trials dispatched and committed "
                             "as one task, possibly spanning sweep cells "
                             "(with --engine batched, each cell's trials run "
                             "as the lanes of one engine); 0 = auto "
                             "heuristic (default)")
    parser.add_argument("--shm", action=argparse.BooleanOptionalAction,
                        default=None,
                        help="opt-in shared-memory results path for "
                             "pooled runs: per-trial stats travel as "
                             "fixed-width records in a shared results ring "
                             "instead of pickles. Off by default: it costs "
                             "NumPy, /dev/shm segments and a resource "
                             "tracker in memory for no measured speed-up. "
                             "Falls back to pickling when unavailable; "
                             "results are bit-identical either way")
    parser.add_argument("--store", default=None, metavar="PATH",
                        help="durable sqlite checkpoint store: completed "
                             "replicate batches are committed as they "
                             "retire, so a crashed or interrupted campaign "
                             "can continue with --resume instead of "
                             "starting over")
    parser.add_argument("--resume", action="store_true",
                        help="replay the trials checkpointed in --store "
                             "(no re-simulation) and run only the "
                             "remainder; requires the exact spec arguments "
                             "and --seed of the original run, and yields "
                             "aggregates bit-identical to an uninterrupted "
                             "run")
    parser.add_argument("--status", action="store_true",
                        help="print the checkpoint status of --store and "
                             "exit (opens the store read-only, so it is "
                             "safe against a live run)")
    parser.add_argument("--max-retries", type=int, default=DEFAULT_MAX_RETRIES,
                        metavar="N",
                        help="retries a failing trial gets beyond its first "
                             "attempt before it is quarantined (recorded in "
                             "the store's failures table; the campaign "
                             f"continues). Default: {DEFAULT_MAX_RETRIES}")
    parser.add_argument("--batch-deadline", type=float, default=None,
                        metavar="SECONDS",
                        help="hung-worker watchdog: an in-flight batch "
                             "exceeding this deadline gets its worker "
                             "killed and the batch rescheduled (pooled "
                             "runs only; default: no deadline)")
    parser.add_argument("--max-respawns", type=int,
                        default=DEFAULT_MAX_RESPAWNS, metavar="N",
                        help="worker-pool respawns (crashed or hung pools) "
                             "tolerated before the campaign aborts with "
                             "exit status 3 (default: "
                             f"{DEFAULT_MAX_RESPAWNS})")
    parser.add_argument("--fault-plan", default=None, metavar="PLAN",
                        help="deterministic fault-injection plan, e.g. "
                             "'crash@batch=2;raise@trial=5' (see "
                             "repro.campaign.faults; default: the "
                             "REPRO_FAULT_PLAN environment variable)")
    rare = parser.add_argument_group(
        "rare-event estimation",
        "Estimate one cell's PTE-violation probability instead of running "
        "the full aggregate campaign (see docs/rare-events.md).  'split' is "
        "multilevel importance splitting over the monitor's risk levels; "
        "'sprt' sequentially tests H0: p <= p0 vs H1: p >= p1 and cancels "
        "the cell's remaining batches the moment it decides; 'crude' is the "
        "plain Monte-Carlo baseline.  crude and sprt run the cell as a "
        "single-cell campaign, so every executor flag applies to them.  All "
        "methods are bit-identical across worker counts, engine tiers, and "
        "--resume splits.")
    rare.add_argument("--method", choices=("crude", "split", "sprt"),
                      default=None,
                      help="rare-event estimation method; crude and sprt "
                           "take their trial budget from --replicates when "
                           "it is above 1 (else 512 / 10000)")
    rare.add_argument("--cell", type=int, default=None, metavar="INDEX",
                      help="campaign cell to estimate (default: the first "
                           "without-lease cell, else cell 0)")
    rare.add_argument("--rel-error", type=float, default=None, metavar="RE",
                      help="target relative standard error; the run exits 1 "
                           "when the estimate is less precise than this")
    rare.add_argument("--levels", type=_levels_arg, default=None,
                      metavar="N|CSV",
                      help="splitting levels: an int caps the adaptive "
                           "estimator's level count, a comma-separated "
                           "increasing float ladder (fractions of the PTE "
                           "dwelling budget, e.g. 0.3,0.5,0.8) pins the "
                           "thresholds explicitly")
    rare.add_argument("--trials-per-level", type=int, default=64, metavar="N",
                      help="fixed per-level effort of --method split "
                           "(default: 64)")
    rare.add_argument("--quantile", type=float, default=0.25, metavar="Q",
                      help="fraction of trials promoted per adaptive "
                           "splitting level (default: 0.25)")
    rare.add_argument("--p0", type=float, default=1e-4,
                      help="SPRT null hypothesis H0: p <= p0 (default: 1e-4)")
    rare.add_argument("--p1", type=float, default=1e-2,
                      help="SPRT alternative H1: p >= p1 (default: 1e-2)")
    rare.add_argument("--alpha", type=float, default=0.05,
                      help="SPRT type-I error budget (default: 0.05)")
    rare.add_argument("--beta", type=float, default=0.05,
                      help="SPRT type-II error budget (default: 0.05)")
    parser.add_argument("--json", nargs="?", const="-", default=None,
                        metavar="PATH",
                        help="write the full campaign result as JSON "
                             "(omit PATH, or pass '-', for stdout); with "
                             "--status, print the store's CheckpointStatus "
                             "as JSON — the same schema the service's "
                             "status response embeds")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-trial progress lines")
    return parser


def _resume_command(argv: Sequence[str] | None) -> str:
    """Reconstruct the exact shell command that resumes this invocation.

    Args:
        argv: The argument vector ``main`` was called with (``None`` means
            the process's own ``sys.argv``).

    Returns:
        A ready-to-paste ``python -m repro.campaign ... --resume`` line.
    """
    parts = list(sys.argv[1:] if argv is None else argv)
    parts = [part for part in parts if part != "--resume"]
    parts.append("--resume")
    quoted = " ".join(shlex.quote(part) for part in parts)
    return f"python -m repro.campaign {quoted}"


def _print_resume_hint(args: argparse.Namespace,
                       argv: Sequence[str] | None) -> None:
    """Tell the operator how to continue a run stopped with ``--store``."""
    if args.store:
        print(f"checkpointed progress survives in {args.store}; resume with:",
              file=sys.stderr)
        print(f"  {_resume_command(argv)}", file=sys.stderr)


def _write_json(args: argparse.Namespace, payload: dict) -> int:
    """Emit a JSON document per the ``--json`` destination.

    Args:
        args: The parsed CLI namespace.
        payload: The JSON-ready result document.

    Returns:
        0 on success, 2 when the output file cannot be written.
    """
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.json == "-":
        print(text)
        return 0
    try:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    except OSError as exc:
        print(f"error: cannot write {args.json}: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {args.json}")
    return 0


def _method_settings(args: argparse.Namespace):
    """The ``--method`` run's SPRT or splitting settings, or crude's trial
    count; the settings' own validation raises ``ValueError``."""
    from repro.verify.rare import SplitSettings
    from repro.verify.sprt import SprtSettings

    budget = args.replicates if args.replicates > 1 else None
    if args.method == "sprt":
        return SprtSettings(p0=args.p0, p1=args.p1, alpha=args.alpha,
                            beta=args.beta, max_trials=budget or 10_000)
    if args.method == "split":
        if isinstance(args.levels, tuple):
            ladder = {"levels": args.levels}
        elif args.levels is not None:
            ladder = {"max_levels": args.levels}
        else:
            ladder = {}
        return SplitSettings(trials_per_level=args.trials_per_level,
                             quantile=args.quantile, **ladder)
    return budget or 512


def _run_method(args: argparse.Namespace, spec: CampaignSpec, settings,
                executor: dict) -> int:
    """Estimate one cell's PTE-violation probability by ``--method``.

    Crude and SPRT run the cell as a single-cell campaign with every
    ``run_campaign`` argument in ``executor``; splitting takes the worker
    count and engine only.  All three use the store this opens with the
    resolved fault plan.  Returns 0 on success (SPRT: an early decision;
    crude/split: an estimate no less precise than ``--rel-error``), else 1.
    """
    from repro.verify.rare import (crude_estimate_for_cell, crude_trials_for,
                                   split_estimate_for_cell)
    from repro.verify.sprt import run_sprt_campaign

    cell_index = args.cell
    if cell_index is None:
        cell_index = next((i for i, trial in enumerate(spec.trials)
                           if not trial.with_lease), 0)
    cell = spec.trials[cell_index]
    print(f"rare-event estimation ({args.method}) of campaign "
          f"{spec.name!r} cell {cell_index} ({cell.label!r}), "
          f"{executor['max_workers']} worker(s), engine {executor['engine']}, "
          f"master seed {args.seed}")

    with (CampaignStore(args.store, fault_plan=executor["fault_plan"])
          if args.store else contextlib.nullcontext()) as store:
        if args.method == "sprt":
            outcome = run_sprt_campaign(spec, cell_index,
                                        master_seed=args.seed,
                                        settings=settings, store=store,
                                        **executor)
        elif args.method == "split":
            outcome = split_estimate_for_cell(
                spec, cell_index, master_seed=args.seed, settings=settings,
                engine=executor["engine"],
                max_workers=executor["max_workers"], store=store,
                resume=args.resume)
        else:
            outcome = crude_estimate_for_cell(spec, cell_index,
                                              master_seed=args.seed,
                                              trials=settings, store=store,
                                              **executor)

    print()
    if args.method == "sprt":
        hypothesis = (f"p >= {outcome.settings.p1:g} accepted"
                      if outcome.decision == "H1"
                      else f"p <= {outcome.settings.p0:g} accepted")
        stopped = ("decided early" if outcome.decided_early
                   else "truncated at max trials (verdict by evidence lean)")
        print(f"decision:    {outcome.decision} ({hypothesis})")
        print(f"stopping:    {stopped}")
        print(f"trials:      {outcome.trials_used} "
              f"({outcome.violations} violation(s), "
              f"p_hat {outcome.p_hat:.3g})")
        print(f"llr:         {outcome.llr:+.3f}")
        passed = outcome.decided_early
    else:
        print(f"probability: {outcome.probability:.6g}")
        if outcome.probability > 0:
            print(f"rel error:   {outcome.rel_error:.3f}")
            print(f"{outcome.confidence:.0%} CI:      "
                  f"[{outcome.ci_low:.3g}, {outcome.ci_high:.3g}]")
        if outcome.thresholds:
            ladder = ", ".join(f"{level:.3g}" for level in outcome.thresholds)
            print(f"levels:      {ladder}")
            factors = ", ".join(f"{factor:.3g}" for factor in outcome.factors)
            print(f"factors:     {factors}")
        print(f"trials:      {outcome.trials_used}")
        if outcome.saturated:
            print("WARNING: a splitting level had zero survivors; the "
                  "estimate degenerated to 0 — raise --trials-per-level")
        if (outcome.probability > 0 and outcome.rel_error > 0
                and outcome.rel_error != float("inf")):
            equivalent = crude_trials_for(outcome.probability,
                                          outcome.rel_error)
            print(f"(crude Monte Carlo would need ~{equivalent} trials for "
                  f"this relative error)")
        passed = True
        if args.rel_error is not None and not (outcome.rel_error
                                               <= args.rel_error):
            print(f"\nFAIL: relative error {outcome.rel_error:.3f} exceeds "
                  f"the --rel-error target {args.rel_error:g}")
            passed = False

    if args.json:
        payload = {"method": args.method, "campaign": spec.name,
                   "cell": cell_index, "label": cell.label,
                   "master_seed": args.seed, "engine": executor["engine"],
                   "result": outcome.to_json(), "passed": passed}
        status = _write_json(args, payload)
        if status:
            return status
    return 0 if passed else 1


def _run_preset(args: argparse.Namespace, preset, spec: CampaignSpec,
                executor: dict) -> int:
    """Run ``preset``'s whole campaign; 0 when every check holds, else 1."""
    total = spec.total_trials
    print(f"campaign {spec.name!r}: {total} trials across {len(spec.trials)} "
          f"cells, {executor['max_workers']} worker(s), master seed {args.seed}")

    done = 0

    def progress(summary: TrialSummary) -> None:
        nonlocal done
        done += 1
        if not args.quiet:
            verdict = "FAIL" if summary.failures else "ok"
            print(f"  [{done:>4d}/{total}] {summary.label} "
                  f"(replicate {summary.replicate}, seed {summary.seed}): "
                  f"{summary.laser_emissions} emissions, "
                  f"{summary.failures} failures [{verdict}]")

    campaign = run_campaign(spec, seed=args.seed, on_result=progress,
                            store=args.store, **executor)
    result = preset.to_result(campaign)
    print()
    print(result.render())
    print(f"\n{campaign.total_trials} trials in {campaign.wall_time:.1f}s "
          f"({campaign.trials_per_second:.2f} trials/s, "
          f"{campaign.workers} worker(s))")
    if campaign.replayed_trials:
        live = campaign.total_trials - campaign.replayed_trials
        print(f"resumed from {args.store}: {campaign.replayed_trials} "
              f"trial(s) replayed from checkpoints, {live} executed live")
    if campaign.recovery_events:
        print(f"\nrecovery events ({len(campaign.recovery_events)}):")
        for kind, detail in campaign.recovery_events:
            print(f"  [{kind}] {detail}")
    if campaign.quarantined:
        print(f"\nWARNING: {len(campaign.quarantined)} trial(s) quarantined "
              f"(retry budget exhausted); aggregates exclude them:")
        for failure in campaign.quarantined:
            print(f"  {failure.describe()}")

    if args.json:
        payload = campaign.to_json()
        payload["experiment"] = {
            "name": result.experiment,
            "checks": result.checks,
            "headers": list(result.headers),
            "rows": [list(row) for row in result.rows],
        }
        status = _write_json(args, payload)
        if status:
            return status
    return 0 if result.passed else 1


def main(argv: Sequence[str] | None = None) -> int:
    """Run the campaign CLI (the ``python -m repro.campaign`` entry point).

    Args:
        argv: Argument vector (``None`` reads ``sys.argv``).

    Returns:
        Process exit status: 0 when every experiment check holds, 1 when
        one fails, 2 for usage errors (including checkpoint-store
        mismatches and malformed fault plans), 3 when the recovery budget
        is exhausted, ``128 + signum`` on SIGINT/SIGTERM.
    """
    argv_list = list(sys.argv[1:] if argv is None else argv)
    if argv_list and argv_list[0] in SERVICE_COMMANDS:
        return service_main(argv_list)
    args = build_parser().parse_args(argv)
    preset = PRESETS[args.experiment]
    try:
        spec = preset.from_flags(vars(args))
        settings = _method_settings(args) if args.method is not None else None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workers < 0:
        print("error: --workers must be non-negative", file=sys.stderr)
        return 2
    if args.batch_size is not None and args.batch_size < 0:
        print("error: --batch-size must be non-negative", file=sys.stderr)
        return 2
    if args.max_retries < 0:
        print("error: --max-retries must be non-negative", file=sys.stderr)
        return 2
    if args.batch_deadline is not None and args.batch_deadline <= 0:
        print("error: --batch-deadline must be positive", file=sys.stderr)
        return 2
    if args.max_respawns < 0:
        print("error: --max-respawns must be non-negative", file=sys.stderr)
        return 2
    if (args.resume or args.status) and not args.store:
        flag = "--status" if args.status else "--resume"
        print(f"error: {flag} requires --store PATH", file=sys.stderr)
        return 2
    if args.method is not None:
        if args.rel_error is not None and args.rel_error <= 0:
            print("error: --rel-error must be positive", file=sys.stderr)
            return 2
        if args.cell is not None and not 0 <= args.cell < len(spec.trials):
            print(f"error: --cell must be within [0, {len(spec.trials) - 1}] "
                  f"for this campaign", file=sys.stderr)
            return 2
    elif args.rel_error is not None or args.levels is not None:
        print("error: --rel-error/--levels require --method", file=sys.stderr)
        return 2
    try:
        fault_plan = resolve_fault_plan(args.fault_plan)
    except FaultPlanError as exc:
        print(f"error: bad fault plan: {exc}", file=sys.stderr)
        return 2
    if args.status:
        if not os.path.exists(args.store):
            print(f"error: no checkpoint store at {args.store}", file=sys.stderr)
            return 2
        try:
            with CampaignStore(args.store,
                               read_only=True) as checkpoint_store:
                status = checkpoint_store.status()
        except CampaignStoreError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.json is not None:
            body = status.to_json() if status is not None else None
            return _write_json(args, {"store": args.store, "status": body})
        print(status.describe() if status is not None else
              f"{args.store}: empty store (no campaign bound yet)")
        return 0
    executor = {
        "max_workers": args.workers or default_worker_count(),
        "engine": resolve_engine_kind(args.engine,
                                      default=DEFAULT_CAMPAIGN_ENGINE),
        "batch_size": args.batch_size, "shm": args.shm,
        "max_retries": args.max_retries,
        "batch_deadline": args.batch_deadline,
        "max_respawns": args.max_respawns, "fault_plan": fault_plan,
        "resume": args.resume,
    }

    def raise_interrupt(signum: int, _frame) -> None:
        raise CampaignInterrupted(signum)

    # SIGINT/SIGTERM unwind through run_campaign's cleanup (flushing the
    # checkpoint store and unlinking shared memory) instead of dying at a
    # random bytecode boundary, then map to the conventional 128+signum.
    previous_handlers = {
        signum: signal.signal(signum, raise_interrupt)
        for signum in (signal.SIGINT, signal.SIGTERM)
    }
    try:
        if args.method is not None:
            return _run_method(args, spec, settings, executor)
        return _run_preset(args, preset, spec, executor)
    except CampaignStoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CampaignExecutionError as exc:
        print(f"error: {exc.args[0].splitlines()[0]}", file=sys.stderr)
        _print_resume_hint(args, argv)
        return 3
    except CampaignInterrupted as exc:
        print(f"\n{exc}", file=sys.stderr)
        _print_resume_hint(args, argv)
        return 128 + exc.signum
    finally:
        for signum, handler in previous_handlers.items():
            signal.signal(signum, handler)
