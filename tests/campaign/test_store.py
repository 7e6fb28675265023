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

from repro.campaign import (CampaignStore, CampaignStoreError, CheckpointStatus,
                            RecoveryStage, run_campaign, spec_fingerprint, table1_spec)
from repro.campaign.cli import main as campaign_main
from repro.campaign.faults import FAULT_PLAN_ENV_VAR
from repro.campaign.service import decode_spec
from repro.campaign.store import CRASH_EXIT_CODE, StoreDatabase

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


def _load_v4_fixture(path) -> None:
    """Write the previous release's partial summary store to ``path``."""
    conn = sqlite3.connect(path)
    conn.executescript(
        (Path(__file__).parent / "data" / "v4_summary_store.sql").read_text())
    conn.close()


def _file_layout(path):
    """``(user_version, table names)`` of a sqlite file."""
    conn = sqlite3.connect(path)
    try:
        (version,) = conn.execute("PRAGMA user_version").fetchone()
        tables = {name for (name,) in conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'")}
    finally:
        conn.close()
    return version, tables


def _cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop(FAULT_PLAN_ENV_VAR, None)
    return env


def _cli_cmd(*args: str):
    return [sys.executable, "-u", "-m", "repro.campaign", *args]


class TestFingerprint:
    def test_fingerprint_is_stable_and_spec_sensitive(self):
        spec = table1_spec(duration=100.0, replicates=2)
        same = table1_spec(duration=100.0, replicates=2)
        assert spec_fingerprint(spec, 7) == spec_fingerprint(same, 7)
        assert spec_fingerprint(spec, 7) != spec_fingerprint(spec, 8)
        assert (spec_fingerprint(spec, 7)
                != spec_fingerprint(table1_spec(duration=101.0, replicates=2), 7))
        assert (spec_fingerprint(spec, 7)
                != spec_fingerprint(table1_spec(duration=100.0, replicates=3), 7))


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

    def test_results_are_published_only_after_their_commit(self, tmp_path):
        # A trial reaches on_result only once the commit holding it is
        # durable: at every callback the store already holds at least as
        # many rows as have been published.
        spec = table1_spec(duration=100.0, replicates=2)
        published = []
        with CampaignStore(tmp_path / "campaign.db") as store:
            def on_result(summary):
                published.append(store.checkpointed_count())
                assert published[-1] >= len(published)

            run_campaign(spec, seed=7, max_workers=1, store=store,
                         on_result=on_result)
        assert published == [8] * 8  # one auto-sized task of 8

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

    def test_stats_store_is_refused(self, tmp_path):
        # A v4 store written in the removed "stats" payload mode (summary
        # rows plus a pickled TrialResult each) cannot be resumed.
        spec = table1_spec(duration=100.0, replicates=1)
        db = tmp_path / "campaign.db"
        run_campaign(spec, seed=3, max_workers=1, store=db)
        conn = sqlite3.connect(db)
        conn.execute("UPDATE meta SET value = 'stats' WHERE key = 'payload'")
        conn.commit()
        conn.close()
        with pytest.raises(CampaignStoreError,
                           match="payload mode 'stats'") as info:
            run_campaign(spec, seed=3, max_workers=1, store=db, resume=True)
        assert "removed" in str(info.value)
        assert "fresh path" in str(info.value)

    def test_schema_v4_store_is_refused_untouched(self, tmp_path):
        # A partial summary store written by a release before schema 5 (a
        # crash@commit=3 kill of table1_spec(duration=100.0) at seed 3,
        # dumped to SQL) is refused by a writable open and by a resume,
        # before anything writes to the file.
        spec = table1_spec(duration=100.0, replicates=1)
        db = tmp_path / "campaign.db"
        _load_v4_fixture(db)
        before = db.read_bytes()
        with pytest.raises(CampaignStoreError, match="schema version 4") as info:
            CampaignStore(db)
        assert "fresh path" in str(info.value)
        with pytest.raises(CampaignStoreError, match="schema version 4"):
            run_campaign(spec, seed=3, max_workers=1, store=db, resume=True)
        assert db.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["campaign.db"]

    def test_status_refuses_a_v4_store_untouched(self, tmp_path, capsys):
        db = tmp_path / "campaign.db"
        _load_v4_fixture(db)
        before = db.read_bytes()
        with pytest.raises(CampaignStoreError, match="schema version 4"):
            CampaignStore(db, read_only=True)
        assert campaign_main(["--store", str(db), "--status", "--json",
                              "-"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "schema version 4" in captured.err
        assert "--store at a fresh path" in captured.err
        assert db.read_bytes() == before

    def test_stats_v4_store_is_refused_untouched(self, tmp_path):
        # A version-4 store in the removed "stats" payload mode is refused
        # for its version, before its payload mode is read.
        db = tmp_path / "campaign.db"
        _load_v4_fixture(db)
        conn = sqlite3.connect(db)
        conn.execute("UPDATE meta SET value = 'stats' WHERE key = 'payload'")
        conn.commit()
        conn.close()
        before = db.read_bytes()
        for read_only in (False, True):
            with pytest.raises(CampaignStoreError, match="schema version 4"):
                CampaignStore(db, read_only=read_only)
        assert db.read_bytes() == before
        assert _file_layout(db) == (0, {"meta", "trials", "failures",
                                        "estimator"})

    def test_unknown_versions_are_refused_untouched(self, tmp_path):
        # A newer layout, and a new file opened for status, are refused
        # without the schema-4 advice and without writing to the file.
        newer = tmp_path / "newer.db"
        conn = sqlite3.connect(newer)
        conn.execute("PRAGMA user_version = 6")
        conn.close()
        empty = tmp_path / "empty.db"
        sqlite3.connect(empty).close()
        for path, read_only in ((newer, False), (newer, True), (empty, True)):
            before = path.read_bytes()
            with pytest.raises(CampaignStoreError,
                               match="not a campaign store") as info:
                CampaignStore(path, read_only=read_only)
            assert "schema version 4" not in str(info.value)
            assert path.read_bytes() == before

    def test_one_shot_store_round_trips(self, tmp_path):
        # A version-5 one-shot file holds its campaign as job 1: the jobs
        # row records the submission, and a reopen replays every summary.
        spec = table1_spec(duration=100.0, replicates=1)
        db = tmp_path / "campaign.db"
        first = run_campaign(spec, seed=3, max_workers=1, store=db)
        with CampaignStore(db) as store:
            records = store.replay()
            status = store.status()
        assert [index for index, _ in records] == list(range(4))
        assert [summary for _, summary in records] == list(first.summaries)
        assert status == CheckpointStatus(
            name="table1", fingerprint=spec_fingerprint(spec, 3),
            master_seed=3, total_trials=4, checkpointed=4, complete=True)
        conn = sqlite3.connect(db)
        ((job_id, fingerprint, encoded, seed, priority),) = conn.execute(
            "SELECT id, fingerprint, spec, master_seed, priority FROM jobs"
        ).fetchall()
        conn.close()
        assert (job_id, fingerprint, seed, priority) == (
            1, spec_fingerprint(spec, 3), 3, 0)
        assert decode_spec(json.loads(encoded)) == spec
        resumed = run_campaign(spec, seed=3, max_workers=1, store=db,
                               resume=True)
        assert _campaign_payload(resumed) == _campaign_payload(first)

    def test_two_jobs_in_one_database_keep_their_own_rows(self, tmp_path):
        # Both campaigns checkpoint trial indices 0..3 into one database;
        # each job's replay and resume see only its own rows.
        specs = (table1_spec(duration=100.0, replicates=1),
                 table1_spec(duration=60.0, replicates=2))
        database = StoreDatabase(tmp_path / "jobs.db")
        try:
            ids = [database.add_job(spec_fingerprint(spec, 5), spec, 5)
                   for spec in specs]
            results = [run_campaign(spec, seed=5, max_workers=1,
                                    store=database.store(job_id))
                       for spec, job_id in zip(specs, ids)]
            for spec, job_id, result in zip(specs, ids, results):
                store = database.store(job_id)
                assert ([summary for _, summary in store.replay()]
                        == list(result.summaries))
                assert store.status().fingerprint == spec_fingerprint(spec, 5)
                resumed = run_campaign(spec, seed=5, max_workers=1,
                                       store=store, resume=True)
                assert resumed.replayed_trials == spec.total_trials
                assert _campaign_payload(resumed) == _campaign_payload(result)
            assert [(row[0], row[5]) for row in database.jobs()] == [
                (job_id, True) for job_id in ids]
        finally:
            database.close()
        with pytest.raises(CampaignStoreError, match="service jobs"):
            CampaignStore(tmp_path / "jobs.db")

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
        # Written for per-trial tasks (--batch-size 1): commit 1 records
        # the campaign identity; commits 2-4 are the first three trial
        # checkpoints.
        proc = subprocess.run(
            _cli_cmd("--experiment", "table1", "--quiet", "--duration", "100",
                     "--seed", "7", "--replicates", "2", "--store", str(db),
                     "--batch-size", "1", "--fault-plan", "crash@commit=4"),
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

    def test_crash_at_auto_task_size_resumes_bit_identically(self, tmp_path):
        baseline = self._baseline_json(tmp_path)
        db = tmp_path / "crash-auto.db"
        # 8 trials of 100 s on 2 workers: two auto-sized tasks of 4.
        # Commit 1 records the campaign identity and commit 2 holds the
        # first task, so the crash lands halfway through the campaign.
        proc = subprocess.run(
            _cli_cmd("--experiment", "table1", "--quiet", "--duration", "100",
                     "--seed", "7", "--replicates", "2", "--workers", "2",
                     "--store", str(db), "--fault-plan", "crash@commit=2"),
            cwd=_REPO_ROOT, env=_cli_env(), capture_output=True, timeout=300)
        assert proc.returncode == CRASH_EXIT_CODE, proc.stderr.decode()
        with CampaignStore(db) as store:
            status = store.status()
        assert not status.complete
        assert status.checkpointed == 4 and status.total_trials == 8

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
        # Per-trial tasks (--batch-size 1), so the kill lands between
        # commits rather than after the single auto-sized task.
        proc = subprocess.Popen(
            _cli_cmd("--experiment", "table1", "--duration", "100",
                     "--seed", "7", "--replicates", "2", "--batch-size", "1",
                     "--store", str(db)),
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

    def test_status_of_an_empty_store(self, tmp_path, capsys):
        db = tmp_path / "campaign.db"
        CampaignStore(db).close()
        assert campaign_main(["--store", str(db), "--status"]) == 0
        assert "empty store" in capsys.readouterr().out
        assert campaign_main(["--store", str(db), "--status", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["status"] is None

    def test_usage_errors(self, tmp_path, capsys):
        assert campaign_main(["--resume"]) == 2
        assert campaign_main(["--status"]) == 2
        missing = tmp_path / "nope.db"
        assert campaign_main(["--store", str(missing), "--status"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("method", [[], ["--method", "crude"]],
                             ids=["preset", "crude"])
    def test_run_on_a_v4_store_exits_with_usage_error(self, tmp_path, capsys,
                                                      method):
        db = tmp_path / "campaign.db"
        _load_v4_fixture(db)
        before = db.read_bytes()
        code = campaign_main(["--experiment", "table1", "--quiet",
                              "--duration", "100", "--seed", "3",
                              "--store", str(db), "--resume", *method])
        assert code == 2
        assert "schema version 4" in capsys.readouterr().err
        assert db.read_bytes() == before

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
