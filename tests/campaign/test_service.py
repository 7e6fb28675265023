"""Tests of the campaign service: protocol, warm-pool jobs, restart-resume.

The acceptance contract of service mode: a campaign submitted to the
daemon produces aggregates bit-identical to ``run_campaign`` with the
same ``(spec, master_seed)`` — including across a mid-job SIGKILL of the
daemon followed by a restart against the same stores directory — and
consecutive jobs share one warm worker pool (identical worker PIDs).
"""

import dataclasses
import json
import os
import socket
import sqlite3
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.campaign import run_campaign
from repro.campaign.cli import main as campaign_main
from repro.campaign.faults import FAULT_PLAN_ENV_VAR
from repro.campaign.presets import PRESETS
from repro.campaign.service import (CampaignService, ProtocolError,
                                    ServiceClient, decode_spec, encode_spec,
                                    recv_frame, send_frame)
from repro.campaign.store import CRASH_EXIT_CODE, spec_fingerprint

_REPO_ROOT = Path(__file__).resolve().parents[2]
_SRC = str(_REPO_ROOT / "src")

#: Fast campaign cells used throughout: short Table I trials and the
#: (inherently short) interlock preset.
_TABLE1_KWARGS = dict(replicates=2, duration=100.0)


def _spec_table1():
    return PRESETS["table1"].build(**_TABLE1_KWARGS)


def _spec_interlock():
    return PRESETS["interlock"].build()


def _reference_cells(spec, seed):
    """Serial-reference per-cell aggregates, as the service reports them."""
    result = run_campaign(spec, seed=seed, max_workers=1)
    return [dataclasses.asdict(group) for group in result.groups()]


def _wait_for_socket(path, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if os.path.exists(path):
            try:
                ServiceClient(str(path)).status()
                return
            except OSError:
                pass
        time.sleep(0.1)
    raise AssertionError(f"no service socket at {path}")


@pytest.fixture()
def service(tmp_path):
    """An in-process service on a temp socket, torn down after the test."""
    sock = str(tmp_path / "svc.sock")
    stores = str(tmp_path / "stores")
    svc = CampaignService(sock, stores, max_workers=2)
    thread = threading.Thread(target=svc.serve, daemon=True)
    thread.start()
    _wait_for_socket(sock)
    yield svc, ServiceClient(sock)
    svc.initiate_shutdown()
    thread.join(timeout=60.0)
    assert not thread.is_alive()


# --------------------------------------------------------------------------
# Protocol
# --------------------------------------------------------------------------

def test_frame_roundtrip_and_eof():
    left, right = socket.socketpair()
    with left, right:
        send_frame(left, {"v": 1, "op": "status", "njobs": 3})
        send_frame(left, {"nested": {"a": [1, 2.5, None, True]}})
        assert recv_frame(right) == {"v": 1, "op": "status", "njobs": 3}
        assert recv_frame(right) == {"nested": {"a": [1, 2.5, None, True]}}
        left.shutdown(socket.SHUT_WR)
        assert recv_frame(right) is None  # clean EOF between frames


def test_truncated_frame_raises():
    left, right = socket.socketpair()
    with left, right:
        left.sendall(b"\x00\x00\x00\x10partial")
        left.shutdown(socket.SHUT_WR)
        with pytest.raises(ProtocolError):
            recv_frame(right)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_spec_codec_roundtrips_every_preset(name):
    spec = PRESETS[name].build()
    wire = json.loads(json.dumps(encode_spec(spec)))  # a real JSON round trip
    back = decode_spec(wire)
    assert back == spec
    assert spec_fingerprint(back, 7) == spec_fingerprint(spec, 7)


def test_decode_rejects_malformed_spec():
    with pytest.raises(ProtocolError):
        decode_spec({"name": "x"})  # no trials
    wire = encode_spec(_spec_interlock())
    wire["trials"][0]["replicates"] = "three"
    with pytest.raises(ProtocolError):
        decode_spec(wire)


# --------------------------------------------------------------------------
# --status --json (shared schema)
# --------------------------------------------------------------------------

def test_status_json_flag_matches_service_schema(tmp_path, capsys):
    store = str(tmp_path / "interlock.db")
    assert campaign_main(["--experiment", "interlock", "--quiet",
                          "--store", store]) == 0
    capsys.readouterr()
    assert campaign_main(["--store", store, "--status", "--json"]) == 0
    body = json.loads(capsys.readouterr().out)
    assert body["store"] == store
    status = body["status"]
    assert status["complete"] is True
    assert status["checkpointed"] == status["total_trials"] == 2
    assert status["stage"] == "complete"
    assert set(status) == {"name", "fingerprint", "master_seed", "payload",
                           "total_trials", "checkpointed", "complete",
                           "quarantined", "stage"}


# --------------------------------------------------------------------------
# Warm-pool jobs: shared PIDs + bit-identity
# --------------------------------------------------------------------------

def test_two_jobs_share_one_warm_pool_bit_identically(service):
    svc, client = service
    spec1, spec2 = _spec_table1(), _spec_interlock()
    job1 = client.submit(spec1, 7)["job"]
    job2 = client.submit(spec2, 7)["job"]
    assert job1 == spec_fingerprint(spec1, 7)

    events = list(client.watch(job1[:12]))  # prefix lookup
    assert events[0]["event"] == "snapshot"
    assert events[-1]["event"] == "done"
    assert events[-1]["state"] == "complete"
    trial_events = [e for e in events if e.get("event") == "trial"]
    assert trial_events, "watch streamed no per-trial aggregate snapshots"
    assert trial_events[-1]["done"] == spec1.total_trials
    assert any(e.get("event") == "checkpoint" for e in events)

    drained = client.drain()["jobs"]
    assert drained == {job1: "complete", job2: "complete"}

    status1 = client.status(job1)
    status2 = client.status(job2)
    # One warm pool across both jobs: identical, non-empty worker PIDs.
    assert status1["pool_pids"] == status2["pool_pids"]
    assert status1["pool_pids"], "no worker PIDs recorded"
    assert status1["store"]["complete"] and status2["store"]["complete"]
    # Aggregates bit-identical to the serial reference runs.
    assert status1["cells"] == _reference_cells(spec1, 7)
    assert status2["cells"] == _reference_cells(spec2, 7)

    # Idempotent re-submission: same fingerprint, no second job.
    again = client.submit(spec1, 7)
    assert again["job"] == job1 and again["duplicate"] is True


def test_finished_job_keeps_only_a_frozen_snapshot(service):
    svc, client = service
    spec = _spec_interlock()
    job = client.submit(spec, 7)["job"]
    live = list(client.watch(job))
    assert live[-1] == {"event": "done", "state": "complete"}
    # The live stream's last aggregate of each cell.
    cells = {e["cell"]["label"]: e["cell"] for e in live if e.get("event") == "trial"}

    late = list(client.watch(job))
    assert [e["event"] for e in late] == ["snapshot", "done"]
    snapshot, done = late
    assert snapshot["done"] == snapshot["total"] == spec.total_trials
    assert sorted(snapshot["cells"], key=lambda c: c["label"]) == [
        cells[label] for label in sorted(cells)]
    assert done == live[-1]
    assert list(client.watch(job)) == late

    # No per-trial summaries, decoded spec or cancel flag outlive the job.
    finished = svc._jobs[job]
    assert finished.bus._aggregator is None
    assert finished.spec is None and finished.cancel is None
    assert client.status(job)["cells"] == _reference_cells(spec, 7)


def test_cancel_queued_job_is_immediate(service):
    svc, client = service
    job1 = client.submit(_spec_table1(), 7)["job"]
    job2 = client.submit(_spec_interlock(), 7, priority=-1)["job"]
    cancelled = client.cancel(job2)
    assert cancelled["state"] == "cancelled"
    drained = client.drain()["jobs"]
    assert drained[job1] == "complete"
    assert drained[job2] == "cancelled"
    final = list(client.watch(job2))[-1]
    assert final["event"] == "done"
    assert final["state"] == "cancelled"


def test_service_status_lists_jobs(service):
    svc, client = service
    job = client.submit(_spec_interlock(), 7)["job"]
    client.drain()
    overview = client.status()
    assert [j["job"] for j in overview["jobs"]] == [job]
    assert overview["queued"] == 0
    assert overview["jobs"][0]["state"] == "complete"


# --------------------------------------------------------------------------
# Restart recovery: SIGKILL the daemon mid-job, resume bit-identically
# --------------------------------------------------------------------------

def _daemon_cmd(sock, stores):
    return [sys.executable, "-u", "-m", "repro.campaign", "serve",
            "--socket", str(sock), "--stores-dir", str(stores),
            "--workers", "2"]


def _daemon_env(fault_plan=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop(FAULT_PLAN_ENV_VAR, None)
    if fault_plan is not None:
        env[FAULT_PLAN_ENV_VAR] = fault_plan
    return env


def test_daemon_sigkill_mid_job_restart_resumes_bit_identically(tmp_path):
    sock = tmp_path / "svc.sock"
    stores = tmp_path / "stores"
    spec1, spec2 = _spec_table1(), _spec_interlock()

    # First daemon: hard-dies (os._exit, the moral equivalent of SIGKILL)
    # right after job 1's second checkpoint commit (store commit 1 records
    # the campaign identity).
    first = subprocess.Popen(_daemon_cmd(sock, stores),
                             env=_daemon_env(fault_plan="crash@commit=3"))
    try:
        _wait_for_socket(sock)
        client = ServiceClient(str(sock))
        job1 = client.submit(spec1, 7, priority=1)["job"]
        job2 = client.submit(spec2, 7)["job"]
        assert first.wait(timeout=300) == CRASH_EXIT_CODE
    finally:
        if first.poll() is None:
            first.kill()
            first.wait()

    # The dead daemon left a partially checkpointed store for job 1 and an
    # untouched queue entry for job 2.
    conn = sqlite3.connect(stores / f"{job1}.db")
    (partial,) = conn.execute("SELECT COUNT(*) FROM trials").fetchone()
    conn.close()
    assert 0 < partial < spec1.total_trials

    # Second daemon, same stores dir, no crash injection: recovery must
    # re-enqueue both jobs and finish them without re-simulating the
    # checkpointed prefix.
    second = subprocess.Popen(_daemon_cmd(sock, stores), env=_daemon_env())
    try:
        _wait_for_socket(sock)
        client = ServiceClient(str(sock))
        drained = client.drain()["jobs"]
        assert drained == {job1: "complete", job2: "complete"}
        status1 = client.status(job1)
        status2 = client.status(job2)
        assert status1["cells"] == _reference_cells(spec1, 7)
        assert status2["cells"] == _reference_cells(spec2, 7)
        assert status1["store"]["complete"] and status2["store"]["complete"]
        client.shutdown()
        assert second.wait(timeout=60) == 0
    finally:
        if second.poll() is None:
            second.kill()
            second.wait()
    assert not sock.exists(), "graceful shutdown must unlink the socket"
    leaked = [name for name in os.listdir("/dev/shm")
              if name.startswith("repro-")] if os.path.isdir("/dev/shm") else []
    assert not leaked, f"leaked shared-memory segments: {leaked}"


# --------------------------------------------------------------------------
# Interlock preset (satellite): compiled-engine smoke
# --------------------------------------------------------------------------

def test_interlock_preset_compiled_smoke():
    preset = PRESETS["interlock"]
    result = run_campaign(preset.build(), seed=1, engine="compiled")
    experiment = preset.to_result(result)
    assert experiment.checks == {"lease_keeps_pte_order": True,
                                 "baseline_violates_pte_order": True}
    assert experiment.passed


def test_interlock_preset_cli_alias(capsys):
    assert campaign_main(["--preset", "interlock", "--engine", "compiled",
                          "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "Industrial interlock" in out
