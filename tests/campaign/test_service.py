"""Tests of the campaign service: protocol, warm-pool jobs, restart-resume.

The acceptance contract of service mode: a campaign submitted to the
daemon produces aggregates bit-identical to ``run_campaign`` with the
same ``(spec, master_seed)`` — including across a mid-job SIGKILL of the
daemon followed by a restart against the same stores directory — and
consecutive jobs share one warm worker pool (identical worker PIDs).
"""

import dataclasses
import functools
import json
import os
import random
import socket
import sqlite3
import subprocess
import sys
import threading
import time
import typing
from pathlib import Path

import pytest

from repro.campaign import loss_sweep_spec, run_campaign
from repro.campaign.aggregate import GroupSummary
from repro.campaign.cli import build_parser
from repro.campaign.cli import main as campaign_main
from repro.campaign.faults import FAULT_PLAN_ENV_VAR
from repro.campaign.presets import PRESETS
from repro.campaign.service import (PROTOCOL_VERSION, CampaignService,
                                    ProtocolError, ServiceClient, ServiceError,
                                    decode_spec, encode_spec, recv_frame,
                                    send_frame)
from repro.campaign.service.events import EventBus, cell_json
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


def _job_rows(stores):
    """The ``jobs`` rows of a stores directory's database, by fingerprint."""
    conn = sqlite3.connect(Path(stores) / "jobs.db")
    try:
        rows = conn.execute(
            "SELECT fingerprint, spec, master_seed, priority FROM jobs").fetchall()
    finally:
        conn.close()
    return {fingerprint: {"spec": json.loads(spec), "master_seed": seed,
                          "priority": priority}
            for fingerprint, spec, seed, priority in rows}


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


def test_spec_decoding_resolves_type_hints_once_per_class(monkeypatch):
    from repro.campaign.service import protocol
    protocol._field_hints.cache_clear()
    calls = []
    resolve = typing.get_type_hints
    monkeypatch.setattr(typing, "get_type_hints",
                        lambda cls: calls.append(cls) or resolve(cls))
    wire = encode_spec(_spec_interlock())
    first = decode_spec(wire)
    resolved = len(calls)
    assert resolved == len(set(calls))
    assert decode_spec(wire) == first == _spec_interlock()
    assert len(calls) == resolved


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
    assert set(status) == {"name", "fingerprint", "master_seed",
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
    pids1 = client.status()["pool_pids"]

    drained = client.drain()["jobs"]
    assert drained == {job1: "complete", job2: "complete"}
    pids2 = client.status()["pool_pids"]

    status1 = client.status(job1)
    status2 = client.status(job2)
    # One warm pool across both jobs: identical, non-empty worker PIDs.
    assert pids1 == pids2
    assert pids1, "no worker PIDs recorded"
    assert status1["store"]["complete"] and status2["store"]["complete"]
    # Aggregates bit-identical to the serial reference runs.
    assert status1["cells"] == _reference_cells(spec1, 7)
    assert status2["cells"] == _reference_cells(spec2, 7)

    # Idempotent re-submission: same fingerprint, no second job.
    again = client.submit(spec1, 7)
    assert again["job"] == job1 and again["duplicate"] is True


def test_finished_job_is_read_from_the_database(tmp_path):
    # A finished job leaves memory: its status and a late watch rebuild
    # it from its checkpoints, and give the same cells and done event as
    # the live stream, before and after a restart.
    sock = str(tmp_path / "svc.sock")
    stores = tmp_path / "stores"
    spec = _spec_interlock()
    svc, thread, client = _start(sock, stores)
    try:
        job = client.submit(spec, 7)["job"]
        live = list(client.watch(job))
        assert live[-1] == {"event": "done", "state": "complete"}
        assert job not in svc._jobs
        # The live stream's last aggregate of each cell.
        streamed = {e["cell"]["label"]: e["cell"]
                    for e in live if e.get("event") == "trial"}
        cells = [streamed[label] for label in sorted(streamed)]
        assert cells == sorted(_reference_cells(spec, 7),
                               key=lambda c: c["label"])
        late = list(client.watch(job))
        status = client.status(job)
    finally:
        _stop(svc, thread)
    assert [e["event"] for e in late] == ["snapshot", "done"]
    snapshot, done = late
    assert snapshot["done"] == snapshot["total"] == spec.total_trials
    assert sorted(snapshot["cells"], key=lambda c: c["label"]) == cells
    assert done == live[-1]
    assert status["state"] == "complete"
    assert sorted(status["cells"], key=lambda c: c["label"]) == cells

    svc, thread, client = _start(sock, stores)
    try:
        assert svc._jobs == {}
        assert list(client.watch(job)) == late
        assert client.status(job) == status
    finally:
        _stop(svc, thread)


def test_finished_job_with_an_undecodable_spec_is_skipped(tmp_path):
    # A finished row whose spec no longer decodes is left out of every
    # read that decodes it, as startup leaves out an unfinished one: the
    # overview and drain still answer.
    sock = str(tmp_path / "svc.sock")
    stores = tmp_path / "stores"
    svc, thread, client = _start(sock, stores)
    try:
        job = client.submit(_spec_interlock(), 7)["job"]
        assert client.drain()["jobs"] == {job: "complete"}
    finally:
        _stop(svc, thread)
    conn = sqlite3.connect(stores / "jobs.db")
    with conn:
        conn.execute("UPDATE jobs SET spec = 'not json'")
    conn.close()
    svc, thread, client = _start(sock, stores)
    try:
        assert client.status()["jobs"] == []
        assert client.drain()["jobs"] == {job: "complete"}
        with pytest.raises(ServiceError, match="no job matches"):
            client.status(job)
    finally:
        _stop(svc, thread)


def test_failed_job_keeps_no_event_stream(service, monkeypatch):
    # A FAILED job stays in memory (it is not durable) without its bus:
    # its status and a late watch are read as a finished job's are.
    svc, client = service

    def failing(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("repro.campaign.service.server.run_campaign", failing)
    job = client.submit(_spec_interlock(), 7)["job"]
    assert client.drain()["jobs"] == {job: "failed"}
    assert svc._jobs[job].bus is None
    done = {"event": "done", "state": "failed", "error": "RuntimeError: boom"}
    assert list(client.watch(job))[-1] == done
    status = client.status(job)
    assert status["state"] == "failed" and status["cells"] == []


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


def test_overview_decodes_each_stored_spec_once(service, monkeypatch):
    # Three finished jobs of one spec (three seeds) store one spec text;
    # the overview rebuilds all three jobs from one decode of it.
    from repro.campaign.service import protocol, server

    svc, client = service
    jobs = [client.submit(_spec_interlock(), seed)["job"] for seed in (7, 8, 9)]
    assert client.drain()["jobs"] == {job: "complete" for job in jobs}
    decodes = []
    original = protocol.decode_spec

    def counting(data):
        decodes.append(data["name"])
        return original(data)

    server._decode_row_spec.cache_clear()
    monkeypatch.setattr(protocol, "decode_spec", counting)
    overview = client.status()
    assert [j["job"] for j in overview["jobs"]] == jobs
    assert overview["jobs"] == client.status()["jobs"]
    assert decodes == [_spec_interlock().name]


def test_small_job_commits_once_per_task(service, monkeypatch):
    # 8 trials of 60 s on the 2-worker pool: two auto-sized tasks of 4.
    # The job's store commits its identity, one row batch per task and
    # its completion: 4 commits, not one per trial.
    from repro.campaign.store import CampaignStore

    commits = []
    original = CampaignStore._commit

    def counting(store, operation, what):
        commits.append(what)
        return original(store, operation, what)

    monkeypatch.setattr(CampaignStore, "_commit", counting)
    svc, client = service
    spec = PRESETS["table1"].build(replicates=2, duration=60.0)
    job = client.submit(spec, 7)["job"]
    assert client.drain()["jobs"] == {job: "complete"}
    assert commits == ["meta commit", "checkpoint commit",
                       "checkpoint commit", "completion commit"]
    assert client.status(job)["cells"] == _reference_cells(spec, 7)


def test_daemon_canonicalizes_each_job_spec_once(service, monkeypatch):
    # The submit fingerprint, the jobs row and the store's binding check at
    # job start share one canonical encoding of the decoded spec; the
    # client's own encode of its spec object is the only other one.
    from repro.campaign import store as store_module
    from repro.campaign.spec import CampaignSpec

    encoded = []
    original = store_module._canonical

    def counting(value):
        if isinstance(value, CampaignSpec):
            encoded.append(value)
        return original(value)

    monkeypatch.setattr(store_module, "_canonical", counting)
    svc, client = service
    spec = _spec_interlock()
    job = client.submit(spec, 7)["job"]
    assert client.drain()["jobs"] == {job: "complete"}
    assert len(encoded) == 2 and encoded[0] is spec and encoded[1] is not spec
    assert _job_rows(svc.stores_dir) == {
        job: {"spec": encode_spec(spec), "master_seed": 7, "priority": 0}}


def test_status_polled_while_a_job_commits(service):
    # 600 s trials are one task each: the runner thread commits ten times
    # while three handler threads read the job's store through status,
    # with thread switches forced far more often than by default.
    svc, client = service
    spec = PRESETS["table1"].build(replicates=2, duration=600.0)
    stop = threading.Event()
    seen = [[], [], []]
    errors = []

    def poll(progress):
        try:
            while not stop.is_set():
                store = client.status(job).get("store") or {}
                progress.append(store.get("checkpointed", 0))
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        job = client.submit(spec, 7)["job"]
        pollers = [threading.Thread(target=poll, args=(progress,))
                   for progress in seen]
        for thread in pollers:
            thread.start()
        try:
            assert client.drain()["jobs"] == {job: "complete"}
        finally:
            stop.set()
            for thread in pollers:
                thread.join(timeout=30.0)
    finally:
        sys.setswitchinterval(previous)
    assert not errors
    assert not any(thread.is_alive() for thread in pollers)
    for progress in seen:
        assert progress and progress == sorted(progress)
    final = client.status(job)
    assert final["store"]["checkpointed"] == spec.total_trials
    assert final["cells"] == _reference_cells(spec, 7)


def test_cell_json_equals_asdict():
    group = GroupSummary(label="with lease, E(Toff)=18s", spec_index=1,
                         trials=5, with_lease=True, mean_toff=18.0,
                         laser_emissions=31, failures=0, evt_to_stop=4,
                         failing_trials=0, max_emission_duration=12.5,
                         max_pause_duration=21.25, min_spo2=0.931,
                         mean_loss_ratio=0.1)
    cell = cell_json(group)
    assert cell == dataclasses.asdict(group)
    assert list(cell) == list(dataclasses.asdict(group))


def test_streamed_cells_do_not_depend_on_completion_order():
    # A lossy sweep, 5 replicates per cell: mean_loss_ratio is a float
    # sum, so folding a cell's summaries in completion order can change
    # its last bit.  Whatever order trials retire in, the last streamed
    # aggregate of each cell must equal CampaignResult.groups() bit for
    # bit.
    spec = loss_sweep_spec(loss_levels=(0.3, 0.6), duration=60.0,
                           replicates=5)
    result = run_campaign(spec, seed=11, max_workers=1)
    expected = {group.label: cell_json(group) for group in result.groups()}
    rng = random.Random(5)
    for _ in range(40):
        order = list(result.summaries)
        rng.shuffle(order)
        bus = EventBus(len(order))
        subscriber = bus.subscribe()
        for summary in order:
            bus.trial_done(summary)
        bus.close({"event": "done", "state": "complete"})
        streamed = {event["cell"]["label"]: event["cell"]
                    for event in _drain(subscriber) if event["event"] == "trial"}
        assert streamed == expected
        (snapshot, _) = list(_drain(bus.subscribe()))
        assert len(snapshot["cells"]) == len(expected)


def _drain(subscriber):
    while not subscriber.empty():
        yield subscriber.get()


@pytest.mark.parametrize("payload", ["full", "bogus", "stats"])
def test_submit_rejects_unknown_payload(service, payload):
    # ServiceClient sends no payload; a submit that names any mode but
    # "summary" (say, from an older client) is refused.
    svc, client = service
    spec = _spec_interlock()
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.connect(svc.socket_path)
        send_frame(sock, {"v": PROTOCOL_VERSION, "op": "submit",
                          "spec": encode_spec(spec), "master_seed": 7,
                          "payload": payload})
        response = recv_frame(sock)
    assert response["ok"] is False
    assert "unknown payload kind" in response["error"]
    # Refused before anything is written or queued ...
    assert _job_rows(svc.stores_dir) == {}
    assert client.status()["jobs"] == []
    # ... so a valid submit of the same spec and seed is a new job.
    accepted = client.submit(spec, 7)
    assert "duplicate" not in accepted
    assert accepted["job"] == spec_fingerprint(spec, 7)
    assert client.drain()["jobs"] == {accepted["job"]: "complete"}


@pytest.mark.parametrize("flags", [
    [], ["--replicates", "2", "--duration", "150", "--seed", "7"]])
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_submit_builds_the_one_shot_spec(monkeypatch, capsys, preset, flags):
    # The same flags name the same campaign through either front end, so
    # a submitted job's id is the one-shot store's fingerprint.
    sent = []

    def fake_submit(client, spec, master_seed, *, priority=0):
        sent.append((spec, master_seed))
        return {"job": spec_fingerprint(spec, master_seed)}

    monkeypatch.setattr(ServiceClient, "submit", fake_submit)
    assert campaign_main(["submit", "--preset", preset, *flags]) == 0
    capsys.readouterr()
    one_shot = build_parser().parse_args(["--experiment", preset, *flags])
    assert sent == [(PRESETS[preset].from_flags(vars(one_shot)), one_shot.seed)]


def test_submit_rejects_zero_replicates(tmp_path, capsys):
    # A usage error, like the one-shot CLI's, before any connection.
    assert campaign_main(["submit", "--socket", str(tmp_path / "none.sock"),
                          "--preset", "table1", "--replicates", "0"]) == 2
    assert "--replicates must be at least 1" in capsys.readouterr().err


# --------------------------------------------------------------------------
# Restart recovery: SIGKILL the daemon mid-job, resume bit-identically
# --------------------------------------------------------------------------

def _start(sock, stores):
    """An in-process service on ``stores``, serving on a thread."""
    svc = CampaignService(sock, str(stores), max_workers=2)
    thread = threading.Thread(target=svc.serve, daemon=True)
    thread.start()
    _wait_for_socket(sock)
    return svc, thread, ServiceClient(sock)


def _stop(svc, thread):
    svc.initiate_shutdown()
    thread.join(timeout=60.0)
    assert not thread.is_alive()


def test_cancelled_job_stays_cancelled_after_restart(tmp_path):
    sock = str(tmp_path / "svc.sock")
    stores = tmp_path / "stores"
    svc, thread, client = _start(sock, stores)
    try:
        job1 = client.submit(_spec_table1(), 7)["job"]
        job2 = client.submit(_spec_interlock(), 7, priority=-1)["job"]
        assert client.cancel(job2)["state"] == "cancelled"
        assert client.drain()["jobs"] == {job1: "complete", job2: "cancelled"}
    finally:
        _stop(svc, thread)
    svc, thread, client = _start(sock, stores)
    try:
        assert client.drain()["jobs"] == {job1: "complete", job2: "cancelled"}
        assert client.status(job2)["state"] == "cancelled"
        assert "store" not in client.status(job2)
        assert list(client.watch(job2))[-1] == {"event": "done",
                                                "state": "cancelled"}
    finally:
        _stop(svc, thread)


def test_running_job_cancelled_stays_cancelled_after_restart(tmp_path):
    # 80 interlock trials in tasks of 4: the cancel lands between tasks.
    sock = str(tmp_path / "svc.sock")
    stores = tmp_path / "stores"
    svc, thread, client = _start(sock, stores)
    try:
        job = client.submit(PRESETS["interlock"].build(replicates=40), 7)["job"]
        events = client.watch(job)
        for event in events:
            if event["event"] == "checkpoint":
                break
        events.close()
        client.cancel(job)
        assert client.drain()["jobs"] == {job: "cancelled"}
    finally:
        _stop(svc, thread)
    svc, thread, client = _start(sock, stores)
    try:
        assert client.drain()["jobs"] == {job: "cancelled"}
        store = client.status(job)["store"]
        assert 0 < store["checkpointed"] < 80 and not store["complete"]
    finally:
        _stop(svc, thread)


def test_serve_returns_promptly_with_an_idle_connection_open(tmp_path):
    # The idle connection opens before the job runs, so the pool's forked
    # workers hold copies of its client end and its close could never
    # reach the daemon as EOF: stopping has to shut it down.
    sock = str(tmp_path / "svc.sock")
    svc, thread, client = _start(sock, tmp_path / "stores")
    idle = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        idle.connect(sock)
        job = client.submit(_spec_interlock(), 7)["job"]
        assert client.drain()["jobs"] == {job: "complete"}
        started = time.monotonic()
        svc.initiate_shutdown()
        thread.join(timeout=10.0)
        elapsed = time.monotonic() - started
    finally:
        idle.close()
    assert not thread.is_alive()
    assert elapsed < 0.2, f"serve() took {elapsed:.3f} s to return"


def test_drain_in_flight_at_shutdown_gets_an_error_reply(tmp_path):
    # A job is running and another is queued behind it when shutdown
    # arrives, so the queued one never ends here: the drain waiting on it
    # must be answered instead of left waiting.
    sock = str(tmp_path / "svc.sock")
    svc, thread, client = _start(sock, tmp_path / "stores")
    try:
        running = client.submit(
            PRESETS["table1"].build(replicates=2, duration=600.0), 7)["job"]
        client.submit(_spec_interlock(), 7, priority=-1)
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as drain:
            drain.connect(sock)
            drain.settimeout(10.0)
            send_frame(drain, {"v": PROTOCOL_VERSION, "op": "drain"})
            # Waiting on the service's condition: the drain, nothing else.
            deadline = time.monotonic() + 30.0
            while (client.status(running)["state"] != "running"
                   or len(svc._lock._waiters) != 1):
                assert time.monotonic() < deadline, "drain never waited"
                time.sleep(0.01)
            started = time.monotonic()
            svc.initiate_shutdown()
            reply = recv_frame(drain)
            elapsed = time.monotonic() - started
        for job in list(svc._jobs.values()):  # end the graceful stop early
            job.cancel.set()
    finally:
        _stop(svc, thread)
    assert reply == {"v": PROTOCOL_VERSION, "ok": False,
                     "error": "service is shutting down"}
    assert elapsed < 0.2, f"drain took {elapsed:.3f} s to answer"


def test_stop_ends_the_watch_of_a_running_job_whose_client_reads_nothing(
        tmp_path):
    # The watcher of the running job reads nothing, so its handler blocks
    # sending events: stopping has to shut that connection down as well,
    # or serve() still waits on the handler after the job has ended.
    sock = str(tmp_path / "svc.sock")
    svc, thread, client = _start(sock, tmp_path / "stores")
    try:
        job = client.submit(
            PRESETS["table1"].build(replicates=2, duration=600.0), 7)["job"]
        live = svc._jobs[job]
        bus = live.bus
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as watcher:
            watcher.connect(sock)
            send_frame(watcher, {"v": PROTOCOL_VERSION, "op": "watch",
                                 "job": job})
            deadline = time.monotonic() + 30.0
            while not bus._subscribers:
                assert time.monotonic() < deadline, "watch never attached"
                time.sleep(0.01)
            for _ in range(64):  # far more than the socket buffers hold
                bus.recovery("flood", "x" * 65536)
            svc.initiate_shutdown()
            live.cancel.set()  # end the graceful stop early
            svc._runner.join(timeout=60.0)
            started = time.monotonic()
            thread.join(timeout=10.0)
            elapsed = time.monotonic() - started
    finally:
        _stop(svc, thread)
    assert elapsed < 0.2, f"serve() took {elapsed:.3f} s after the job ended"


def test_restart_restores_finished_jobs_and_resumes_partial_ones(
        tmp_path, monkeypatch):
    from repro.campaign.store import CampaignStore

    sock = str(tmp_path / "svc.sock")
    stores = tmp_path / "stores"
    finished_spec, partial_spec = _spec_interlock(), _spec_table1()
    start = functools.partial(_start, sock, stores)
    stop = _stop

    svc, thread, client = start()
    try:
        finished = client.submit(finished_spec, 7)["job"]
        partial = client.submit(partial_spec, 7)["job"]
        assert client.drain()["jobs"] == {finished: "complete",
                                          partial: "complete"}
        cells = client.status(finished)["cells"]
    finally:
        stop(svc, thread)

    # Cut the second job back to a 3-trial prefix, as a crash leaves it.
    conn = sqlite3.connect(stores / "jobs.db")
    (job_id,) = conn.execute("SELECT id FROM jobs WHERE fingerprint = ?",
                             (partial,)).fetchone()
    conn.execute("DELETE FROM trials WHERE job_id = ? AND trial_index >= 3",
                 (job_id,))
    conn.execute("UPDATE meta SET value = '0' WHERE job_id = ? AND"
                 " key = 'complete'", (job_id,))
    conn.commit()
    conn.close()

    committed = []
    original = CampaignStore.checkpoint_batch

    def counting(store, results):
        committed.extend(index for index, _ in results)
        return original(store, results)

    monkeypatch.setattr(CampaignStore, "checkpoint_batch", counting)
    svc, thread, client = start()
    try:
        restored = client.status(finished)
        assert restored["state"] == "complete"
        assert restored["cells"] == cells == _reference_cells(finished_spec, 7)
        late = list(client.watch(finished))
        assert [event["event"] for event in late] == ["snapshot", "done"]
        assert late[0]["cells"] == cells
        assert client.drain()["jobs"] == {finished: "complete",
                                          partial: "complete"}
        # Only the trials past the prefix were simulated and committed.
        assert sorted(committed) == list(range(3, partial_spec.total_trials))
        resumed = client.status(partial)
        assert resumed["cells"] == _reference_cells(partial_spec, 7)
        assert resumed["store"]["checkpointed"] == partial_spec.total_trials
    finally:
        stop(svc, thread)
    names = os.listdir(stores)
    assert [name for name in names if name.endswith(".db")] == ["jobs.db"]
    assert not [name for name in names if name.endswith(".job.json")]


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
    # right after job 1's first checkpoint commit (store commit 1 records
    # the campaign identity; job 1's 8 trials of 100 s run on 2 workers as
    # two auto-sized tasks of 4, one commit each).
    first = subprocess.Popen(_daemon_cmd(sock, stores),
                             env=_daemon_env(fault_plan="crash@commit=2"))
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
    conn = sqlite3.connect(stores / "jobs.db")
    (partial,) = conn.execute(
        "SELECT COUNT(*) FROM trials JOIN jobs ON jobs.id = trials.job_id"
        " WHERE jobs.fingerprint = ?", (job1,)).fetchone()
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


def _vm_hwm_kib(pid):
    """The peak resident set size of process ``pid``, in KiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise AssertionError(f"no VmHWM line for process {pid}")


@pytest.mark.slow
@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="needs /proc/<pid>/status")
def test_daemon_memory_stays_flat_over_a_thousand_jobs(tmp_path):
    # A finished job lives only in jobs.db, so the daemon's peak RSS must
    # not grow with the number of jobs it has run.
    sock = tmp_path / "svc.sock"
    spec = PRESETS["table1"].build(replicates=2, duration=1.0)
    daemon = subprocess.Popen(_daemon_cmd(sock, tmp_path / "stores"),
                              env=_daemon_env())
    peaks = {}
    try:
        _wait_for_socket(sock)
        client = ServiceClient(str(sock))
        for index in range(1, 1001):
            job = client.submit(spec, index)["job"]
            assert list(client.watch(job))[-1] == {"event": "done",
                                                   "state": "complete"}
            if index in (100, 1000):
                peaks[index] = _vm_hwm_kib(daemon.pid)
        # The overview and drain read every job from its jobs row; the
        # overview also rebuilds each one's cells from its checkpoints.
        started = time.monotonic()
        overview = client.status()
        overview_s = time.monotonic() - started
        started = time.monotonic()
        drained = client.drain()["jobs"]
        drain_s = time.monotonic() - started
        client.shutdown()
        assert daemon.wait(timeout=60) == 0
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()
    assert peaks[1000] - peaks[100] <= 1024, peaks
    assert len(overview["jobs"]) == len(drained) == 1000
    assert overview_s < 10.0 and drain_s < 2.0, (overview_s, drain_s)


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
