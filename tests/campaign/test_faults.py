"""Tests of the deterministic fault harness and the self-healing executor.

The invariant under test everywhere: a campaign that suffers injected
crashes, hangs, poison trials, corrupted shared-memory records or locked
checkpoint stores still completes, and its aggregates are bit-identical
to a clean serial reference — minus quarantined trials, which are
reported as structured failure rows, never silently dropped.
"""

import dataclasses
import json
import signal
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaign import run_campaign, table1_spec
from repro.campaign.cli import main as campaign_main
from repro.campaign.executor import (CampaignExecutionError,
                                     CampaignInterrupted)
from repro.campaign.faults import (FAULT_PLAN_ENV_VAR, FaultClause, FaultPlan,
                                   FaultPlanError, TrialFailure,
                                   resolve_fault_plan)
from repro.campaign.shm import shared_memory_available
from repro.campaign.store import CampaignStore, CampaignStoreError

_REPO_ROOT = Path(__file__).resolve().parents[2]

needs_shm = pytest.mark.skipif(not shared_memory_available(),
                               reason="multiprocessing.shared_memory missing")


def _tiny_spec(replicates=8):
    return table1_spec(mean_toffs=(18.0,), replicates=replicates,
                       duration=120.0, legacy_seed=None)


def _payload(result):
    return json.dumps(result.to_json()["campaign"], sort_keys=True)


def _payload_without(result, *trial_indices):
    """The reference payload with the given trial indices dropped.

    Rebuilds the result around the surviving summaries, so groups and
    counts are recomputed exactly as a faulted run would report them.
    """
    spec_runs = result.spec.expand(result.master_seed)
    dropped = {(spec_runs[i].replicate, spec_runs[i].seed)
               for i in trial_indices}
    keep = tuple(s for s in result.summaries
                 if (s.replicate, s.seed) not in dropped)
    return _payload(dataclasses.replace(result, summaries=keep))


@pytest.fixture(scope="module")
def clean_serial():
    return run_campaign(_tiny_spec(), seed=7, max_workers=1,
                        engine="reference")


class TestFaultPlanParsing:
    def test_parse_all_kinds_and_describe_round_trip(self):
        text = ("crash@batch=2;hang@batch=3,secs=5;raise@trial=4,times=1;"
                "corrupt@batch=6;lock@commit=1,times=2")
        plan = FaultPlan.parse(text)
        assert [c.kind for c in plan.clauses] == [
            "crash", "hang", "raise", "corrupt", "lock"]
        assert plan.crash_at(2) and not plan.crash_at(1)
        assert plan.hang_secs(3) == 5.0 and plan.hang_secs(2) == 0.0
        assert plan.corrupt_at(6) and not plan.corrupt_at(2)
        assert FaultPlan.parse(plan.describe()).describe() == plan.describe()

    def test_crash_after_commit_round_trip(self):
        plan = FaultPlan.parse("crash@commit=3;lock@commit=3")
        assert plan.describe() == "crash@commit=3;lock@commit=3"
        assert FaultPlan.parse(plan.describe()) == plan
        assert plan.crash_after_commit(3)
        assert not plan.crash_after_commit(2)
        assert not plan.crash_after_commit(4)
        # A commit-keyed crash never fires at a batch dispatch.
        assert not any(plan.crash_at(d) for d in range(1, 10))
        assert not FaultPlan.parse("crash@batch=3").crash_after_commit(3)

    def test_empty_and_env_resolution(self, monkeypatch):
        assert not FaultPlan.parse("  ")
        monkeypatch.delenv(FAULT_PLAN_ENV_VAR, raising=False)
        assert FaultPlan.from_env() is None
        assert resolve_fault_plan(None) is None
        monkeypatch.setenv(FAULT_PLAN_ENV_VAR, "crash@batch=1")
        assert resolve_fault_plan(None).crash_at(1)
        explicit = FaultPlan.parse("hang@batch=9")
        assert resolve_fault_plan(explicit) is explicit
        assert resolve_fault_plan("corrupt@batch=2").corrupt_at(2)

    @pytest.mark.parametrize("bad", [
        "explode@batch=1",          # unknown kind
        "crash@batch=1,trial=2",    # key not allowed for kind
        "crash",                    # missing @key=value
        "crash@batch=x",            # bad value
        "crash@batch=1,p=0.5",      # batch and p are exclusive
        "crash@commit=2,batch=1",   # commit and batch are exclusive
        "crash@commit=2,p=1",       # commit and p are exclusive
        "hang@commit=2",            # commit only keys crash and lock
        "crash@p=1.5",              # p out of range
        "raise@times=2",            # raise needs trial=
        "lock@times=1",             # lock needs commit=
    ])
    def test_malformed_plans_raise(self, bad):
        with pytest.raises(FaultPlanError):
            FaultPlan.parse(bad)

    def test_probabilistic_clauses_are_deterministic(self):
        clause = FaultClause(kind="crash", p=0.5, seed=3)
        draws = [clause.fires_at(d) for d in range(1, 200)]
        again = [clause.fires_at(d) for d in range(1, 200)]
        assert draws == again
        assert any(draws) and not all(draws)
        assert all(FaultClause(kind="crash", p=1.0).fires_at(d)
                   for d in range(1, 50))
        assert not any(FaultClause(kind="crash", p=0.0).fires_at(d)
                       for d in range(1, 50))

    def test_raise_and_lock_budgets(self):
        plan = FaultPlan.parse("raise@trial=3,times=2;lock@commit=4")
        assert plan.raise_in_trial(3, 0) and plan.raise_in_trial(3, 1)
        assert not plan.raise_in_trial(3, 2)      # transient: expires
        assert not plan.raise_in_trial(2, 0)
        poison = FaultPlan.parse("raise@trial=3")
        assert all(poison.raise_in_trial(3, attempt)
                   for attempt in range(10))      # poison: never expires
        assert plan.lock_commit(4, 0) and not plan.lock_commit(4, 1)
        assert not plan.lock_commit(3, 0)


class TestSerialRecovery:
    def test_poison_trial_is_quarantined_and_rest_is_exact(self, clean_serial):
        result = run_campaign(_tiny_spec(), seed=7, max_workers=1,
                              engine="reference", max_retries=1,
                              fault_plan="raise@trial=3")
        assert len(result.quarantined) == 1
        failure = result.quarantined[0]
        assert failure.trial_index == 3
        assert failure.kind == "InjectedTrialFault"
        assert failure.attempts == 2              # first try + one retry
        assert result.total_trials == clean_serial.total_trials - 1
        assert _payload(result) == _payload_without(clean_serial, 3)
        kinds = [kind for kind, _ in result.recovery_events]
        assert "retry" in kinds and "quarantine" in kinds

    def test_transient_fault_retries_to_bit_identical(self, clean_serial):
        result = run_campaign(_tiny_spec(), seed=7, max_workers=1,
                              engine="reference", max_retries=2,
                              fault_plan="raise@trial=2,times=1")
        assert not result.quarantined
        assert _payload(result) == _payload(clean_serial)

    def test_zero_retries_quarantines_after_first_failure(self):
        result = run_campaign(_tiny_spec(), seed=7, max_workers=1,
                              engine="reference", max_retries=0,
                              fault_plan="raise@trial=0")
        assert len(result.quarantined) == 1
        assert result.quarantined[0].attempts == 1

    def test_batched_serial_bisection_isolates_offender(self, clean_serial):
        # One poison trial inside a 4-lane lockstep batch: the whole batch
        # aborts, bisection must isolate trial 5 and keep its batch mates.
        result = run_campaign(_tiny_spec(), seed=7, max_workers=1,
                              engine="batched", batch_size=4, max_retries=0,
                              fault_plan="raise@trial=5")
        assert [f.trial_index for f in result.quarantined] == [5]
        assert _payload(result) == _payload_without(clean_serial, 5)
        assert "bisect" in [kind for kind, _ in result.recovery_events]

    def test_validation_of_recovery_parameters(self):
        spec = _tiny_spec(2)
        with pytest.raises(ValueError):
            run_campaign(spec, max_retries=-1)
        with pytest.raises(ValueError):
            run_campaign(spec, max_respawns=-1)
        with pytest.raises(ValueError):
            run_campaign(spec, batch_deadline=0.0)
        with pytest.raises(FaultPlanError):
            run_campaign(spec, fault_plan="bogus@x=1")


class TestPooledRecovery:
    def test_crashed_worker_respawns_bit_identically(self, clean_serial):
        result = run_campaign(_tiny_spec(), seed=7, max_workers=2,
                              engine="reference", batch_size=2,
                              fault_plan="crash@batch=2")
        assert not result.quarantined
        assert _payload(result) == _payload(clean_serial)
        assert "pool-respawn" in [kind for kind, _ in result.recovery_events]

    def test_hung_worker_is_killed_at_the_deadline(self, clean_serial):
        result = run_campaign(_tiny_spec(), seed=7, max_workers=2,
                              engine="reference", batch_size=2,
                              batch_deadline=3.0,
                              fault_plan="hang@batch=2,secs=60")
        assert not result.quarantined
        assert _payload(result) == _payload(clean_serial)
        kinds = [kind for kind, _ in result.recovery_events]
        assert "deadline-kill" in kinds and "pool-respawn" in kinds

    @needs_shm
    def test_pooled_batched_poison_bisection(self, clean_serial):
        result = run_campaign(_tiny_spec(), seed=7, max_workers=2,
                              engine="batched", batch_size=4, shm=True,
                              max_retries=1, fault_plan="raise@trial=6")
        assert [f.trial_index for f in result.quarantined] == [6]
        assert _payload(result) == _payload_without(clean_serial, 6)

    @needs_shm
    def test_corrupted_ring_generation_is_detected_and_retried(
            self, clean_serial):
        result = run_campaign(_tiny_spec(), seed=7, max_workers=2,
                              engine="batched", batch_size=4, shm=True,
                              fault_plan="corrupt@batch=1")
        assert not result.quarantined
        assert _payload(result) == _payload(clean_serial)

    def test_respawn_budget_exhaustion_names_the_store(self, tmp_path):
        db = tmp_path / "campaign.db"
        with pytest.raises(CampaignExecutionError) as info:
            run_campaign(_tiny_spec(), seed=7, max_workers=2,
                         engine="reference", batch_size=2, max_respawns=1,
                         store=db, fault_plan="crash@p=1.0")
        assert info.value.store_path == str(db)
        assert "--resume" in str(info.value)
        # Whatever retired before the abort survives for --resume.
        with CampaignStore(db) as store:
            assert store.status() is not None

    def test_acceptance_crash_hang_poison_combo(self, tmp_path, clean_serial):
        # The issue's acceptance scenario: one worker SIGKILLed, another
        # hung past the deadline, one poison trial -- the campaign must
        # complete without a manual --resume, record exactly one failure
        # row, and match the serial reference minus the quarantined trial.
        db = tmp_path / "campaign.db"
        result = run_campaign(
            _tiny_spec(), seed=7, max_workers=2, engine="reference",
            batch_size=2, batch_deadline=3.0, max_retries=1, store=db,
            fault_plan="crash@batch=2;hang@batch=3,secs=60;raise@trial=7")
        assert [f.trial_index for f in result.quarantined] == [7]
        assert _payload(result) == _payload_without(clean_serial, 7)
        kinds = {kind for kind, _ in result.recovery_events}
        # The hang is absorbed either by the deadline watchdog or by the
        # crash's pool-break drain (whichever trips first — both SIGKILL
        # the hung worker); the respawn and the quarantine are always due.
        assert {"pool-respawn", "quarantine"} <= kinds
        with CampaignStore(db) as store:
            rows = store.failures()
            assert len(rows) == 1 and rows[0].trial_index == 7
            assert store.status().quarantined == 1


class TestStoreFaults:
    def test_store_without_a_plan_reads_the_environment(self, tmp_path,
                                                       monkeypatch):
        monkeypatch.setenv(FAULT_PLAN_ENV_VAR, "lock@commit=1")
        with CampaignStore(tmp_path / "campaign.db") as store:
            store.mark_complete()
            assert store.commit_retries == 1
        explicit = FaultPlan.parse("")
        with CampaignStore(tmp_path / "other.db", fault_plan=explicit) as store:
            store.mark_complete()
            assert store.commit_retries == 0

    def test_locked_commits_retry_with_backoff(self, tmp_path):
        db = tmp_path / "campaign.db"
        with CampaignStore(db) as store:
            result = run_campaign(_tiny_spec(), seed=7, max_workers=1,
                                  engine="reference", store=store,
                                  fault_plan="lock@commit=2,times=2")
            assert store.commit_retries >= 2
        assert "store-retry" in [kind for kind, _ in result.recovery_events]

    def test_lock_budget_exhaustion_raises_store_error(self, tmp_path):
        db = tmp_path / "campaign.db"
        with pytest.raises(CampaignStoreError, match="still failing"):
            run_campaign(_tiny_spec(), seed=7, max_workers=1,
                         engine="reference", store=db,
                         fault_plan="lock@commit=2,times=99")

    def test_failure_rows_round_trip(self, tmp_path):
        db = tmp_path / "campaign.db"
        failure = TrialFailure(trial_index=3, label="cell", replicate=1,
                               seed=42, attempts=2, kind="RuntimeError",
                               message="boom")
        with CampaignStore(db) as store:
            store.record_failure(failure)
            store.record_failure(failure)          # idempotent
            assert store.failures() == [failure]
        assert "quarantined" in failure.describe()

    def test_read_only_store_serves_status_but_rejects_runs(self, tmp_path):
        db = tmp_path / "campaign.db"
        code = campaign_main(["--experiment", "table1", "--quiet",
                              "--duration", "100", "--seed", "7",
                              "--store", str(db)])
        assert code in (0, 1)
        with CampaignStore(db, read_only=True) as store:
            assert store.status().complete
            with pytest.raises(CampaignStoreError, match="read-only"):
                store.begin(_tiny_spec(), 7, "summary")
        with pytest.raises(CampaignStoreError):
            CampaignStore(tmp_path / "missing.db", read_only=True)

    def test_wal_and_busy_timeout_are_configured(self, tmp_path):
        db = tmp_path / "campaign.db"
        with CampaignStore(db) as store:
            mode = store._conn.execute("PRAGMA journal_mode").fetchone()[0]
            timeout = store._conn.execute("PRAGMA busy_timeout").fetchone()[0]
        assert mode == "wal"
        assert timeout == 5000

    def test_resume_keeps_prior_quarantine(self, tmp_path, clean_serial):
        db = tmp_path / "campaign.db"
        first = run_campaign(_tiny_spec(), seed=7, max_workers=1,
                             engine="reference", max_retries=0, store=db,
                             fault_plan="raise@trial=4")
        assert [f.trial_index for f in first.quarantined] == [4]
        resumed = run_campaign(_tiny_spec(), seed=7, max_workers=1,
                               engine="reference", store=db, resume=True)
        assert [f.trial_index for f in resumed.quarantined] == [4]
        assert resumed.replayed_trials == clean_serial.total_trials - 1
        assert _payload(resumed) == _payload_without(clean_serial, 4)


def _cli_cmd(*args):
    return [sys.executable, "-u", "-m", "repro.campaign", *args]


def _cli_env():
    import os
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(_REPO_ROOT / "src") + os.pathsep
                         + env.get("PYTHONPATH", ""))
    env.pop(FAULT_PLAN_ENV_VAR, None)
    return env


class TestCliRecovery:
    def test_bad_fault_plan_is_a_usage_error(self, capsys):
        assert campaign_main(["--fault-plan", "explode@batch=1"]) == 2
        assert "fault plan" in capsys.readouterr().err

    def test_recovery_flag_validation(self, capsys):
        assert campaign_main(["--max-retries", "-1"]) == 2
        assert campaign_main(["--batch-deadline", "0"]) == 2
        assert campaign_main(["--max-respawns", "-1"]) == 2
        capsys.readouterr()

    def test_quarantine_is_reported(self, capsys):
        code = campaign_main(["--experiment", "table1", "--quiet",
                              "--duration", "100", "--seed", "7",
                              "--replicates", "2", "--max-retries", "0",
                              "--fault-plan", "raise@trial=1"])
        assert code in (0, 1)
        out = capsys.readouterr().out
        assert "WARNING: 1 trial(s) quarantined" in out
        assert "recovery events" in out

    def test_exhausted_respawn_budget_exits_3_with_resume_hint(
            self, tmp_path):
        db = tmp_path / "campaign.db"
        proc = subprocess.run(
            _cli_cmd("--experiment", "table1", "--quiet", "--duration", "100",
                     "--seed", "7", "--replicates", "4", "--workers", "2",
                     "--batch-size", "2", "--engine", "reference",
                     "--store", str(db), "--max-respawns", "0",
                     "--fault-plan", "crash@p=1.0"),
            cwd=_REPO_ROOT, env=_cli_env(), capture_output=True, text=True,
            timeout=300)
        assert proc.returncode == 3, proc.stderr
        assert "--resume" in proc.stderr

    def test_sigint_flushes_checkpoints_and_exits_130(self, tmp_path):
        db = tmp_path / "campaign.db"
        proc = subprocess.Popen(
            _cli_cmd("--experiment", "table1", "--duration", "100",
                     "--seed", "7", "--replicates", "2", "--store", str(db)),
            cwd=_REPO_ROOT, env=_cli_env(), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        for line in proc.stdout:
            if "replicate" in line:
                break
        proc.send_signal(signal.SIGINT)
        proc.wait(timeout=120)
        stderr = proc.stderr.read()
        proc.stdout.close()
        proc.stderr.close()
        assert proc.returncode == 130, stderr
        assert "--resume" in stderr

        with CampaignStore(db) as store:
            assert store.status().checkpointed >= 1

        out = tmp_path / "resumed.json"
        code = campaign_main(["--experiment", "table1", "--quiet",
                              "--duration", "100", "--seed", "7",
                              "--replicates", "2", "--store", str(db),
                              "--resume", "--json", str(out)])
        assert code in (0, 1)
        payload = json.loads(out.read_text())
        assert payload["campaign"]["total_trials"] == 8


class TestSchemaV4:
    def test_failures_and_estimator_tables_exist_with_schema_v4(self, tmp_path):
        db = tmp_path / "campaign.db"
        with CampaignStore(db) as store:
            store.begin(_tiny_spec(2), 7, "summary")
        conn = sqlite3.connect(db)
        try:
            version = conn.execute(
                "SELECT value FROM meta WHERE key='schema_version'"
            ).fetchone()
            tables = {row[0] for row in conn.execute(
                "SELECT name FROM sqlite_master WHERE type='table'")}
        finally:
            conn.close()
        assert version is not None and int(version[0]) == 4
        assert "failures" in tables
        assert "estimator" in tables

    def test_interrupted_error_message_carries_signal(self):
        exc = CampaignInterrupted(signal.SIGTERM)
        assert exc.signum == signal.SIGTERM
        assert "signal" in str(exc)
        assert isinstance(exc, BaseException)
        assert not isinstance(exc, Exception)
