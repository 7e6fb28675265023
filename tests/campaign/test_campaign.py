"""Tests of the Monte-Carlo campaign runner.

The two load-bearing guarantees:

* determinism — the same master seed yields byte-identical aggregate
  summaries no matter how many worker processes execute the trials;
* compatibility — Table I routed through the campaign layer reproduces the
  pre-campaign serial loop's numbers exactly.
"""

import json

import pytest

from repro.campaign import (CampaignSpec, ChannelSpec, SurgeonSpec, TrialSpec,
                            expand_grid, run_campaign, table1_spec)
from repro.campaign.cli import main as campaign_main
from repro.casestudy import CaseStudyConfig, run_table1_trials, run_trial
from repro.experiments import run_table1
from repro.util.seeding import derive_seed


class TestSpecExpansion:
    def test_seeds_depend_only_on_position(self):
        spec = table1_spec(replicates=3)
        first = spec.expand(7)
        second = spec.expand(7)
        assert [r.seed for r in first] == [r.seed for r in second]
        assert len(first) == 4 * 3
        assert [r.index for r in first] == list(range(12))

    def test_different_master_seeds_decorrelate(self):
        spec = table1_spec(replicates=2)
        assert ([r.seed for r in spec.expand(1)]
                != [r.seed for r in spec.expand(2)])

    def test_explicit_seeds_take_priority(self):
        spec = CampaignSpec(
            name="pinned",
            trials=(TrialSpec(label="a", seeds=(11, 22), replicates=3),))
        runs = spec.expand(99)
        assert len(runs) == 3
        assert runs[0].seed == 11 and runs[1].seed == 22
        assert runs[2].seed == derive_seed(99, "campaign:pinned:0:2")

    def test_scaled_drops_explicit_seeds(self):
        spec = CampaignSpec(
            name="pinned",
            trials=(TrialSpec(label="a", seeds=(11,)),))
        scaled = spec.scaled(5)
        assert scaled.total_trials == 5
        assert all(t.seeds is None for t in scaled.trials)

    def test_expand_grid_is_cartesian(self):
        points = list(expand_grid(loss=(0.0, 0.5), mean_toff=(18.0, 6.0)))
        assert len(points) == 4
        assert {(p["loss"], p["mean_toff"]) for p in points} == {
            (0.0, 18.0), (0.0, 6.0), (0.5, 18.0), (0.5, 6.0)}

    def test_channel_spec_validates(self):
        with pytest.raises(ValueError):
            ChannelSpec("wat")
        with pytest.raises(ValueError):
            ChannelSpec("bernoulli", loss=1.5)
        assert ChannelSpec().build(1) is None
        assert ChannelSpec("bernoulli", loss=0.3).build(1) is not None

    def test_trial_spec_overrides_config(self):
        base = CaseStudyConfig()
        spec = TrialSpec(label="x", mean_toff=6.0, supervisor_resend_limit=0)
        config = spec.configure(base)
        assert config.surgeon.mean_toff == 6.0
        assert config.supervisor_resend_limit == 0
        # the base configuration is untouched
        assert base.surgeon.mean_toff == 18.0


class TestDeterminism:
    def test_workers_do_not_change_aggregates(self):
        # Same master seed must yield byte-identical aggregate summaries for
        # serial and process-pool execution.
        spec = table1_spec(duration=150.0, replicates=2)
        serial = run_campaign(spec, seed=7, max_workers=1)
        parallel = run_campaign(spec, seed=7, max_workers=4)
        serial_payload = json.dumps(serial.to_json()["campaign"], sort_keys=True)
        parallel_payload = json.dumps(parallel.to_json()["campaign"], sort_keys=True)
        assert serial_payload == parallel_payload
        assert serial.total_trials == 8

    def test_streaming_callback_sees_every_trial(self):
        spec = table1_spec(duration=100.0)
        seen = []
        result = run_campaign(spec, seed=3, max_workers=1,
                              on_result=seen.append)
        assert len(seen) == result.total_trials == 4
        assert {s.label for s in seen} == {t.label for t in spec.trials}

    def test_full_payload_collects_trial_results(self):
        spec = table1_spec(duration=100.0)
        result = run_campaign(spec, seed=3, max_workers=1, payload="full")
        assert result.results is not None and len(result.results) == 4
        assert all(r.trace is None for r in result.results)  # memory-safe
        assert [r.failures for r in result.results] == [
            s.failures for s in result.summaries]

    def test_stats_payload_streams_full_results(self):
        spec = table1_spec(duration=100.0)
        result = run_campaign(spec, seed=3, max_workers=1, payload="stats")
        assert result.results is not None and len(result.results) == 4
        assert all(r.trace is None for r in result.results)
        # The streaming observer populates monitor and ledger without a trace.
        assert all(r.monitor is not None and r.ledger is not None
                   for r in result.results)
        assert [r.failures for r in result.results] == [
            s.failures for s in result.summaries]

    def test_compiled_engine_matches_reference_campaign(self):
        spec = table1_spec(duration=120.0, replicates=1)
        reference = run_campaign(spec, seed=5, max_workers=1, engine="reference")
        compiled = run_campaign(spec, seed=5, max_workers=1, engine="compiled")
        ref_payload = json.dumps(reference.to_json()["campaign"], sort_keys=True)
        cmp_payload = json.dumps(compiled.to_json()["campaign"], sort_keys=True)
        assert ref_payload == cmp_payload

    def test_batch_size_does_not_change_aggregates(self):
        # The batched kernel at any batch width, the compiled kernel, and
        # the process pool must all produce byte-identical Table I
        # aggregates: batching is a throughput knob, never a semantics knob.
        spec = table1_spec(duration=120.0, replicates=5)
        baseline = run_campaign(spec, seed=9, max_workers=1, engine="compiled")
        base_payload = json.dumps(baseline.to_json()["campaign"], sort_keys=True)
        for batch_size, workers in ((1, 1), (2, 1), (5, 1), (None, 1), (3, 2)):
            campaign = run_campaign(spec, seed=9, max_workers=workers,
                                    engine="batched", batch_size=batch_size)
            payload = json.dumps(campaign.to_json()["campaign"], sort_keys=True)
            assert payload == base_payload, (batch_size, workers)

    def test_batched_stats_payload_streams_full_results(self):
        spec = table1_spec(duration=100.0, replicates=3)
        result = run_campaign(spec, seed=3, max_workers=1, engine="batched",
                              payload="stats", batch_size=3)
        assert result.results is not None and len(result.results) == 12
        assert all(r.trace is None for r in result.results)
        assert all(r.monitor is not None and r.ledger is not None
                   for r in result.results)
        assert [r.failures for r in result.results] == [
            s.failures for s in result.summaries]

    def test_auto_batch_size_heuristic(self):
        from repro.campaign import resolve_batch_size

        spec = table1_spec(duration=100.0, replicates=40)
        assert resolve_batch_size(7, spec, 4, "batched") == 7
        assert resolve_batch_size(None, spec, 1, "compiled") == 1
        # 40 replicates over 4 workers is a 10-lane split — below the
        # lockstep break-even, so auto keeps per-trial dispatch.
        assert resolve_batch_size(None, spec, 4, "batched") == 1
        assert resolve_batch_size(None, spec, 1, "batched") == 40
        wide = table1_spec(duration=100.0, replicates=1000)
        assert resolve_batch_size(None, wide, 1, "batched") == 64  # capped
        with pytest.raises(ValueError):
            resolve_batch_size(-1, spec, 1, "batched")

    def test_min_lanes_threshold(self):
        from repro.campaign import resolve_batch_size
        from repro.campaign.executor import MIN_LOCKSTEP_LANES as lanes

        # A split landing exactly on the break-even runs in lockstep...
        at = table1_spec(duration=100.0, replicates=4 * lanes)
        assert resolve_batch_size(None, at, 4, "batched") == lanes
        # ...one lane short of it keeps per-trial dispatch.
        below = table1_spec(duration=100.0, replicates=4 * lanes - 4)
        assert resolve_batch_size(None, below, 4, "batched") == 1
        # A cell smaller than the break-even dispatches per trial even for
        # a single worker.
        small = table1_spec(duration=100.0, replicates=lanes - 1)
        assert resolve_batch_size(None, small, 1, "batched") == 1
        # Explicit batch sizes are always honoured as given.
        assert resolve_batch_size(3, small, 4, "batched") == 3

    def test_resolve_batch_size_edge_cases(self):
        from repro.campaign import resolve_batch_size
        from repro.campaign.executor import MIN_LOCKSTEP_LANES as lanes

        one = table1_spec(duration=100.0, replicates=1)
        # One trial per cell: nothing to batch, but still a legal size.
        assert resolve_batch_size(None, one, 4, "batched") == 1
        # Explicit batch size larger than any cell is accepted; chunking
        # naturally clips it at the cell boundary.
        assert resolve_batch_size(100, one, 4, "batched") == 100
        # Worker count exceeding the total lane count still splits sanely.
        cell = table1_spec(duration=100.0, replicates=lanes)
        assert resolve_batch_size(None, cell, 1, "batched") == lanes
        assert resolve_batch_size(None, cell, 64, "batched") == 1

    def test_pool_size_drives_batching_and_reported_workers(self):
        from repro.campaign import CampaignPool
        from repro.campaign.executor import MIN_LOCKSTEP_LANES as lanes

        # Two cells of 2 * lanes replicates on a 2-worker pool split into
        # lanes-wide tasks; the default max_workers=1 would have sized
        # them 2 * lanes wide.  A transient fault in trial 0 reports the
        # width of the batch it was dispatched in.
        spec = table1_spec(mean_toffs=(18.0,), duration=10.0,
                           replicates=2 * lanes)
        pool = CampaignPool(2)
        try:
            result = run_campaign(spec, seed=3, engine="batched", pool=pool,
                                  fault_plan="raise@trial=0,times=1")
        finally:
            pool.shutdown()
        assert result.workers == 2
        assert result.recovery_events[0][1].startswith(
            f"batch of {lanes} trials (cell 0) failed")
        assert result.total_trials == spec.total_trials

    def test_chunk_runs_edge_cases(self):
        from repro.campaign.executor import _chunk_runs

        spec = table1_spec(duration=100.0, replicates=5)
        runs = spec.expand(7)
        per_cell = 5

        # batch_size larger than the cell: one task per cell, cells never mix.
        tasks = _chunk_runs(runs, 100)
        assert len(tasks) == len(spec.trials)
        for spec_index, chunk in tasks:
            assert len(chunk) == per_cell
            assert {index for index, _, _ in chunk} == {
                run.index for run in runs if run.spec_index == spec_index}

        # batch_size 1: one task per trial, in expansion order.
        singles = _chunk_runs(runs, 1)
        assert [chunk[0][0] for _, chunk in singles] == [r.index for r in runs]

        # Uneven split: 5 replicates in batches of 2 -> 2+2+1 per cell.
        uneven = _chunk_runs(runs, 2)
        sizes = [len(chunk) for _, chunk in uneven]
        assert sizes == [2, 2, 1] * len(spec.trials)
        # Every trial appears exactly once across the lane ranges.
        seen = [index for _, chunk in uneven for index, _, _ in chunk]
        assert sorted(seen) == [run.index for run in runs]

        # Empty input chunks to no tasks.
        assert _chunk_runs([], 4) == []


class TestTable1Compatibility:
    def test_campaign_matches_pre_refactor_serial_loop(self):
        # The historical serial loop, inlined: this is what run_table1 did
        # before the campaign layer existed.  The campaign path must
        # reproduce its rows bit-for-bit.
        base = CaseStudyConfig()
        legacy_rows = []
        for toff_index, mean_toff in enumerate((18.0, 6.0)):
            for mode_index, with_lease in enumerate((True, False)):
                trial_seed = 42 + 101 * toff_index + 13 * mode_index
                r = run_trial(base.with_mean_toff(mean_toff),
                              with_lease=with_lease, seed=trial_seed,
                              duration=300.0)
                legacy_rows.append([
                    r.mode, r.mean_toff, r.laser_emissions, r.failures,
                    r.evt_to_stop, round(r.max_pause_duration, 1),
                    round(r.max_emission_duration, 1),
                    round(r.observed_loss_ratio, 2)])

        result = run_table1(seed=42, duration=300.0)
        assert [list(row) for row in result.rows] == legacy_rows

    def test_run_table1_trials_parallel_equals_serial(self):
        serial = run_table1_trials(seed=11, duration=200.0, max_workers=1)
        parallel = run_table1_trials(seed=11, duration=200.0, max_workers=2)
        assert [r.table_row() for r in serial] == [r.table_row() for r in parallel]
        assert [r.seed for r in serial] == [r.seed for r in parallel]

    def test_replicates_aggregate_per_cell(self):
        result = run_table1(seed=5, duration=120.0, replicates=2)
        assert len(result.rows) == 4          # one row per Table I cell
        assert all(row[2] == 2 for row in result.rows)  # "# trials" column


class TestScenarioSpec:
    def test_scripted_surgeon_spec_builds(self):
        surgeon = SurgeonSpec(requests_at=(14.0,), cancels_at=(40.0,)).build()
        assert surgeon.next_wakeup(0.0) == 14.0


class TestCLI:
    def test_scenarios_run_passes_and_writes_json(self, tmp_path, capsys):
        out = tmp_path / "scenarios.json"
        code = campaign_main(["--experiment", "scenarios", "--quiet",
                              "--json", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "checks: PASS" in stdout
        payload = json.loads(out.read_text())
        assert payload["campaign"]["total_trials"] == 4
        assert payload["experiment"]["checks"]["forgetful_surgeon_lease_safe"]

    def test_rejects_bad_arguments(self):
        assert campaign_main(["--replicates", "0"]) == 2
        assert campaign_main(["--workers", "-1"]) == 2

    def test_payload_and_engine_flags_smoke(self, capsys):
        code = campaign_main(["--experiment", "scenarios", "--quiet",
                              "--payload", "stats", "--engine", "compiled"])
        assert code == 0
        assert "checks: PASS" in capsys.readouterr().out

    def test_batch_size_flag_smoke(self, tmp_path):
        # --batch-size without --engine implies the batched kernel; the
        # results must equal an explicit compiled run of the same campaign.
        payloads = {}
        for name, extra in (("compiled", ["--engine", "compiled"]),
                            ("batched", ["--batch-size", "4"])):
            out = tmp_path / f"{name}.json"
            code = campaign_main(["--experiment", "table1", "--quiet",
                                  "--duration", "120", "--seed", "9",
                                  "--replicates", "4", "--json", str(out),
                                  *extra])
            assert code in (0, 1)
            payload = json.loads(out.read_text())
            payload["run"] = None
            payloads[name] = json.dumps(payload, sort_keys=True)
        assert payloads["compiled"] == payloads["batched"]

    def test_batch_size_rejects_negative(self):
        assert campaign_main(["--batch-size", "-2"]) == 2

    def test_engine_flag_does_not_change_results(self, tmp_path):
        # A 120 s horizon is too short for the paper's pass/fail checks, so
        # only the exit codes and payloads being identical matters here.
        payloads = {}
        codes = {}
        for engine in ("reference", "compiled"):
            out = tmp_path / f"{engine}.json"
            codes[engine] = campaign_main(["--experiment", "table1", "--quiet",
                                           "--duration", "120", "--seed", "9",
                                           "--engine", engine,
                                           "--json", str(out)])
            payload = json.loads(out.read_text())
            payload["run"] = None  # wall-clock metadata differs, data must not
            payloads[engine] = json.dumps(payload, sort_keys=True)
        assert codes["reference"] == codes["compiled"]
        assert payloads["reference"] == payloads["compiled"]
