"""Tests of the durable campaign checkpoint store and crash/resume.

The acceptance contract: a campaign interrupted at an *arbitrary* point
and resumed with ``--resume`` produces byte-identical aggregate output to
an uninterrupted run of the same spec — for the compiled and batched
engines and for more than one worker count.  Interruption is exercised
three ways:

* a simulated store holding a partial prefix (rows deleted post hoc);
* the deterministic crash-injection harness (a ``crash@commit=N`` fault
  clause hard-kills the CLI process via ``os._exit`` right after the N-th
  store commit);
* a genuine ``SIGKILL`` of a running campaign process.
"""

import json
import os
import signal
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaign import (CampaignStore, CampaignStoreError, RecoveryStage,
                            RecoveryStateMachine, run_campaign, spec_fingerprint,
                            table1_spec)
from repro.campaign.cli import main as campaign_main
from repro.campaign.faults import FAULT_PLAN_ENV_VAR
from repro.campaign.store import CRASH_EXIT_CODE

_REPO_ROOT = Path(__file__).resolve().parents[2]
_SRC = str(_REPO_ROOT / "src")


def _campaign_payload(result):
    """The deterministic (execution-metadata-free) half of a result."""
    return json.dumps(result.to_json()["campaign"], sort_keys=True)


def _truncate_store(path, keep: int) -> None:
    """Rewrite a store so it holds only the first ``keep`` trial rows."""
    conn = sqlite3.connect(path)
    conn.execute("DELETE FROM trials WHERE trial_index >= ?", (keep,))
    conn.execute("UPDATE meta SET value = '0' WHERE key = 'complete'")
    conn.commit()
    conn.close()


def _cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop(FAULT_PLAN_ENV_VAR, None)
    return env


def _cli_cmd(*args: str):
    return [sys.executable, "-u", "-m", "repro.campaign", *args]


class TestFingerprintAndStateMachine:
    def test_fingerprint_is_stable_and_spec_sensitive(self):
        spec = table1_spec(duration=100.0, replicates=2)
        same = table1_spec(duration=100.0, replicates=2)
        assert spec_fingerprint(spec, 7) == spec_fingerprint(same, 7)
        assert spec_fingerprint(spec, 7) != spec_fingerprint(spec, 8)
        assert (spec_fingerprint(spec, 7)
                != spec_fingerprint(table1_spec(duration=101.0, replicates=2), 7))
        assert (spec_fingerprint(spec, 7)
                != spec_fingerprint(table1_spec(duration=100.0, replicates=3), 7))

    def test_recovery_transitions(self):
        machine = RecoveryStateMachine()
        assert machine.stage is RecoveryStage.FRESH
        machine.advance(RecoveryStage.REPLAYING)
        machine.advance(RecoveryStage.LIVE)
        machine.advance(RecoveryStage.COMPLETE)
        with pytest.raises(CampaignStoreError):
            machine.advance(RecoveryStage.LIVE)

    def test_fresh_can_skip_straight_to_live_or_complete(self):
        RecoveryStateMachine().advance(RecoveryStage.LIVE)
        RecoveryStateMachine().advance(RecoveryStage.COMPLETE)
        replay_only = RecoveryStateMachine()
        replay_only.advance(RecoveryStage.REPLAYING)
        replay_only.advance(RecoveryStage.COMPLETE)

    def test_illegal_transitions_raise(self):
        machine = RecoveryStateMachine()
        machine.advance(RecoveryStage.LIVE)
        with pytest.raises(CampaignStoreError):
            machine.advance(RecoveryStage.REPLAYING)


class TestStoreLifecycle:
    def test_fresh_store_checkpoints_and_completes(self, tmp_path):
        spec = table1_spec(duration=100.0, replicates=2)
        db = tmp_path / "campaign.db"
        baseline = run_campaign(spec, seed=7, max_workers=1)
        stored = run_campaign(spec, seed=7, max_workers=1, store=db)
        assert _campaign_payload(stored) == _campaign_payload(baseline)
        assert stored.replayed_trials == 0
        with CampaignStore(db) as store:
            status = store.status()
        assert status.complete
        assert status.checkpointed == status.total_trials == 8
        assert status.stage is RecoveryStage.COMPLETE
        assert status.fingerprint == spec_fingerprint(spec, 7)

    def test_resuming_a_complete_store_simulates_nothing(self, tmp_path):
        spec = table1_spec(duration=100.0, replicates=1)
        db = tmp_path / "campaign.db"
        first = run_campaign(spec, seed=3, max_workers=1, store=db)
        resumed = run_campaign(spec, seed=3, max_workers=1, store=db,
                               resume=True)
        assert resumed.replayed_trials == resumed.total_trials == 4
        assert _campaign_payload(resumed) == _campaign_payload(first)

    def test_dirty_store_requires_resume(self, tmp_path):
        spec = table1_spec(duration=100.0, replicates=1)
        db = tmp_path / "campaign.db"
        run_campaign(spec, seed=3, max_workers=1, store=db)
        with pytest.raises(CampaignStoreError, match="resume"):
            run_campaign(spec, seed=3, max_workers=1, store=db)

    def test_spec_or_seed_mismatch_is_rejected(self, tmp_path):
        spec = table1_spec(duration=100.0, replicates=1)
        db = tmp_path / "campaign.db"
        run_campaign(spec, seed=3, max_workers=1, store=db)
        with pytest.raises(CampaignStoreError, match="fingerprint"):
            run_campaign(spec, seed=4, max_workers=1, store=db, resume=True)
        other = table1_spec(duration=120.0, replicates=1)
        with pytest.raises(CampaignStoreError, match="fingerprint"):
            run_campaign(other, seed=3, max_workers=1, store=db, resume=True)

    def test_payload_mismatch_is_rejected(self, tmp_path):
        spec = table1_spec(duration=100.0, replicates=1)
        db = tmp_path / "campaign.db"
        run_campaign(spec, seed=3, max_workers=1, store=db)
        with pytest.raises(CampaignStoreError, match="payload"):
            run_campaign(spec, seed=3, max_workers=1, store=db, resume=True,
                         payload="stats")

    def test_resume_on_empty_store_is_a_fresh_start(self, tmp_path):
        spec = table1_spec(duration=100.0, replicates=1)
        db = tmp_path / "campaign.db"
        result = run_campaign(spec, seed=3, max_workers=1, store=db,
                              resume=True)
        assert result.replayed_trials == 0
        assert result.total_trials == 4


class TestPartialPrefixResume:
    """Simulated crash: a store holding an arbitrary partial prefix."""

    @pytest.mark.parametrize("engine,workers,batch_size", [
        ("compiled", 1, None),
        ("compiled", 2, None),
        ("batched", 1, 4),
        ("batched", 2, 2),
    ])
    def test_resume_is_bit_identical(self, tmp_path, engine, workers,
                                     batch_size):
        spec = table1_spec(duration=100.0, replicates=2)
        baseline = run_campaign(spec, seed=7, max_workers=1, engine="compiled")
        base_payload = _campaign_payload(baseline)
        db = tmp_path / f"{engine}-{workers}.db"
        run_campaign(spec, seed=7, max_workers=workers, engine=engine,
                     batch_size=batch_size, store=db)
        _truncate_store(db, keep=3)
        resumed = run_campaign(spec, seed=7, max_workers=workers,
                               engine=engine, batch_size=batch_size,
                               store=db, resume=True)
        assert resumed.replayed_trials == 3
        assert _campaign_payload(resumed) == base_payload
        with CampaignStore(db) as store:
            assert store.status().complete

    def test_resume_at_every_prefix_length(self, tmp_path):
        # The interruption point must not matter: every prefix length,
        # including 0 (crash before the first checkpoint) and total-1,
        # resumes to the same bytes.
        spec = table1_spec(duration=100.0, replicates=1)
        baseline = run_campaign(spec, seed=11, max_workers=1)
        base_payload = _campaign_payload(baseline)
        db = tmp_path / "prefix.db"
        run_campaign(spec, seed=11, max_workers=1, store=db)
        for keep in (0, 1, 3):
            _truncate_store(db, keep=keep)
            resumed = run_campaign(spec, seed=11, max_workers=1, store=db,
                                   resume=True)
            assert resumed.replayed_trials == keep
            assert _campaign_payload(resumed) == base_payload, keep

    def test_stats_payload_round_trips_full_results(self, tmp_path):
        spec = table1_spec(duration=100.0, replicates=1)
        baseline = run_campaign(spec, seed=5, max_workers=1, payload="stats")
        db = tmp_path / "stats.db"
        run_campaign(spec, seed=5, max_workers=1, payload="stats", store=db)
        _truncate_store(db, keep=2)
        resumed = run_campaign(spec, seed=5, max_workers=1, payload="stats",
                               store=db, resume=True)
        assert _campaign_payload(resumed) == _campaign_payload(baseline)
        assert resumed.results is not None and len(resumed.results) == 4
        # Replayed TrialResults come back through pickle with monitor and
        # ledger intact, indistinguishable from live ones.
        assert all(r.monitor is not None and r.ledger is not None
                   for r in resumed.results)
        assert [r.failures for r in resumed.results] == [
            r.failures for r in baseline.results]


class TestProcessKillResume:
    """Real interruption: the campaign process dies mid-run."""

    def _baseline_json(self, tmp_path):
        out = tmp_path / "baseline.json"
        code = campaign_main(["--experiment", "table1", "--quiet",
                              "--duration", "100", "--seed", "7",
                              "--replicates", "2", "--json", str(out)])
        assert code in (0, 1)
        return json.loads(out.read_text())["campaign"]

    def test_crash_injected_cli_run_resumes_bit_identically(self, tmp_path):
        baseline = self._baseline_json(tmp_path)
        db = tmp_path / "crash.db"
        # Commit 1 records the campaign identity; commits 2-4 are the
        # first three trial checkpoints.
        proc = subprocess.run(
            _cli_cmd("--experiment", "table1", "--quiet", "--duration", "100",
                     "--seed", "7", "--replicates", "2", "--store", str(db),
                     "--fault-plan", "crash@commit=4"),
            cwd=_REPO_ROOT, env=_cli_env(), capture_output=True, timeout=300)
        assert proc.returncode == CRASH_EXIT_CODE, proc.stderr.decode()
        with CampaignStore(db) as store:
            status = store.status()
        assert not status.complete
        assert status.checkpointed == 3 and status.total_trials == 8

        out = tmp_path / "resumed.json"
        code = campaign_main(["--experiment", "table1", "--quiet",
                              "--duration", "100", "--seed", "7",
                              "--replicates", "2", "--store", str(db),
                              "--resume", "--json", str(out)])
        assert code in (0, 1)
        assert json.loads(out.read_text())["campaign"] == baseline

    def test_sigkilled_cli_run_resumes_bit_identically(self, tmp_path):
        baseline = self._baseline_json(tmp_path)
        db = tmp_path / "sigkill.db"
        proc = subprocess.Popen(
            _cli_cmd("--experiment", "table1", "--duration", "100",
                     "--seed", "7", "--replicates", "2", "--store", str(db)),
            cwd=_REPO_ROOT, env=_cli_env(), stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True)
        # Progress lines print only after the batch behind them has been
        # durably committed; kill as soon as two trials have been reported.
        seen = 0
        for line in proc.stdout:
            if "replicate" in line:
                seen += 1
                if seen >= 2:
                    break
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=60)
        proc.stdout.close()

        with CampaignStore(db) as store:
            status = store.status()
        assert status is not None and status.checkpointed >= 2

        out = tmp_path / "resumed.json"
        code = campaign_main(["--experiment", "table1", "--quiet",
                              "--duration", "100", "--seed", "7",
                              "--replicates", "2", "--store", str(db),
                              "--resume", "--json", str(out)])
        assert code in (0, 1)
        assert json.loads(out.read_text())["campaign"] == baseline


class TestStoreCLI:
    def test_status_reports_progress(self, tmp_path, capsys):
        db = tmp_path / "campaign.db"
        code = campaign_main(["--experiment", "table1", "--quiet",
                              "--duration", "100", "--seed", "7",
                              "--store", str(db)])
        assert code in (0, 1)
        assert campaign_main(["--store", str(db), "--status"]) == 0
        stdout = capsys.readouterr().out
        assert "complete" in stdout
        assert "table1" in stdout

    def test_usage_errors(self, tmp_path, capsys):
        assert campaign_main(["--resume"]) == 2
        assert campaign_main(["--status"]) == 2
        missing = tmp_path / "nope.db"
        assert campaign_main(["--store", str(missing), "--status"]) == 2
        capsys.readouterr()

    def test_store_mismatch_exits_with_usage_error(self, tmp_path, capsys):
        db = tmp_path / "campaign.db"
        code = campaign_main(["--experiment", "table1", "--quiet",
                              "--duration", "100", "--seed", "7",
                              "--store", str(db)])
        assert code in (0, 1)
        code = campaign_main(["--experiment", "table1", "--quiet",
                              "--duration", "100", "--seed", "8",
                              "--store", str(db), "--resume"])
        assert code == 2
        assert "fingerprint" in capsys.readouterr().err
