"""Tests of the shared-memory batch plane and zero-copy results path.

The load-bearing guarantee is unchanged from the rest of the campaign
layer: aggregates must be bit-identical to the serial reference for every
combination of worker count, batch size, payload, shm on/off and
crash/resume split — the memory plane is a transport, never a semantics
change.  On top of that, these tests pin the plane/ring plumbing itself:
record round-trips, generation validation, lane-range isolation, external
buffers driving the batched engine, and segment cleanup after crashes
(including a SIGKILLed worker).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaign import run_campaign, table1_spec
from repro.campaign.aggregate import SUMMARY_RECORD_FIELDS, TrialSummary
from repro.campaign.executor import _resolve_shm
from repro.campaign.faults import FAULT_PLAN_ENV_VAR
from repro.campaign.shm import (ResultsRing, ShmError, ShmSession, StatePlane,
                                _RangeAllocator, leaked_segments, plane_layout,
                                shared_memory_available, summary_record_dtype)
from repro.campaign.store import CampaignStore
from repro.casestudy import CaseStudyConfig
from repro.casestudy.emulation import _lowered_case_study, run_trial_batch
from repro.hybrid.simulate.batched import build_batched_tables

pytestmark = pytest.mark.skipif(not shared_memory_available(),
                                reason="multiprocessing.shared_memory missing")

_REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def no_new_segments():
    """Assert the test leaves no new ``repro-`` segment in ``/dev/shm``."""
    before = set(leaked_segments())
    yield
    import time
    deadline = time.monotonic() + 30
    while set(leaked_segments()) - before and time.monotonic() < deadline:
        time.sleep(0.2)
    assert set(leaked_segments()) - before == set()


def _subprocess_env(**extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(_REPO_ROOT / "src") + os.pathsep
                         + env.get("PYTHONPATH", ""))
    env.pop(FAULT_PLAN_ENV_VAR, None)
    env.update(extra)
    return env


def _tiny_spec(replicates=8):
    return table1_spec(mean_toffs=(18.0,), replicates=replicates,
                       duration=120.0, legacy_seed=None)


def _campaign_payload(result):
    return json.dumps(result.to_json()["campaign"], sort_keys=True)


@pytest.fixture(scope="module")
def reference_payload():
    return _campaign_payload(run_campaign(_tiny_spec(), seed=7, max_workers=1,
                                          engine="reference"))


def _example_summary(seed=123):
    return TrialSummary(
        label="cell", spec_index=2, replicate=5, seed=seed, with_lease=True,
        mean_toff=18.0, duration=120.0, laser_emissions=7, failures=1,
        evt_to_stop=3, ventilator_pauses=6, max_emission_duration=2.25,
        max_pause_duration=14.5, min_spo2=93.0625, supervisor_aborts=0,
        surgeon_requests=9, surgeon_cancels=2, observed_loss_ratio=0.31640625)


class TestRecordCodec:
    def test_round_trip_is_bit_exact(self):
        summary = _example_summary()
        back = TrialSummary.from_record(summary.to_record(), label="cell")
        assert back == summary
        # json payload equality matters for to_json determinism checks
        import dataclasses
        assert (json.dumps(dataclasses.asdict(back))
                == json.dumps(dataclasses.asdict(summary)))

    def test_record_covers_every_field_but_label(self):
        import dataclasses
        names = {f.name for f in dataclasses.fields(TrialSummary)}
        assert {name for name, _ in SUMMARY_RECORD_FIELDS} == names - {"label"}

    def test_from_record_restores_python_types(self):
        import numpy as np
        summary = _example_summary()
        arr = np.zeros(1, dtype=summary_record_dtype())
        for (name, _), value in zip(SUMMARY_RECORD_FIELDS,
                                    summary.to_record()):
            arr[0][name] = value
        back = TrialSummary.from_record(arr[0], label="cell")
        assert back == summary
        assert type(back.failures) is int
        assert type(back.min_spo2) is float
        assert type(back.with_lease) is bool


class TestResultsRing:
    def test_write_read_round_trip(self):
        ring = ResultsRing.create(8)
        try:
            summary = _example_summary()
            ring.write(3, 17, 42, summary)
            (back,) = ring.read(3, 1, 17, ["cell"])
            assert back == summary
        finally:
            ring.destroy()

    def test_generation_mismatch_raises(self):
        ring = ResultsRing.create(4)
        try:
            ring.write(0, 1, 0, _example_summary())
            with pytest.raises(ShmError):
                ring.read(0, 1, 2, ["cell"])
        finally:
            ring.destroy()

    def test_cross_process_visibility(self):
        ring = ResultsRing.create(4)
        try:
            code = (
                "from repro.campaign import shm\n"
                "from tests.campaign.test_shm import _example_summary\n"
                f"ring = shm.attach_ring({ring.segment.name!r}, 4)\n"
                "ring.write(1, 9, 77, _example_summary(seed=555))\n")
            subprocess.run([sys.executable, "-c", code], check=True,
                           env=_subprocess_env(), cwd=_REPO_ROOT)
            (back,) = ring.read(1, 1, 9, ["cell"])
            assert back.seed == 555
        finally:
            ring.destroy()


class TestStatePlane:
    def test_layout_is_aligned_and_disjoint(self):
        size, layout = plane_layout(4, 10, 3)
        spans = []
        for name, (offset, shape, dtype) in layout.items():
            assert offset % dtype.itemsize == 0, name
            spans.append((offset, offset + shape[0] * shape[1] * dtype.itemsize))
        spans.sort()
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert end <= start
        assert size == spans[-1][1]

    def test_plane_backed_engine_is_bit_identical(self):
        config = CaseStudyConfig()
        _, lowered = _lowered_case_study(config, True)
        state, cross = build_batched_tables(lowered).plane_columns()
        seeds = [11, 22, 33]
        base = run_trial_batch(config, with_lease=True, seeds=seeds,
                               duration=90.0)
        plane = StatePlane.create(8, state, cross)
        try:
            # lanes [2, 5) of a larger plane, i.e. a worker's lane range
            ext = run_trial_batch(config, with_lease=True, seeds=seeds,
                                  duration=90.0,
                                  buffers=plane.buffers(2, len(seeds)))
        finally:
            plane.destroy()
        for a, b in zip(base, ext):
            for field in ("laser_emissions", "failures", "evt_to_stop",
                          "ventilator_pauses", "max_emission_duration",
                          "max_pause_duration", "min_spo2",
                          "supervisor_aborts", "observed_loss_ratio"):
                assert getattr(a, field) == getattr(b, field), field

    def test_lane_range_out_of_bounds(self):
        plane = StatePlane.create(4, 8, 2)
        try:
            with pytest.raises(ShmError):
                plane.buffers(3, 2)
        finally:
            plane.destroy()


class TestRangeAllocator:
    def test_exhaustion_and_merge(self):
        alloc = _RangeAllocator(8)
        a = alloc.allocate(3)
        b = alloc.allocate(3)
        c = alloc.allocate(2)
        assert (a, b, c) == (0, 3, 6)
        assert alloc.allocate(1) is None
        alloc.free(b, 3)
        assert alloc.allocate(4) is None  # 3 free in the middle, 0 at ends
        alloc.free(c, 2)                  # merges [3,6)+[6,8)
        assert alloc.allocate(5) == 3
        alloc.free(3, 5)
        alloc.free(a, 3)                  # merges back to [0,8)
        assert alloc.allocate(8) == 0


class TestShmResolution:
    def test_auto_and_forced_modes(self):
        assert _resolve_shm(None, "batched", "summary", True) is True
        assert _resolve_shm(None, "compiled", "summary", True) is False
        assert _resolve_shm(True, "compiled", "summary", True) is True
        assert _resolve_shm(False, "batched", "summary", True) is False
        # serial runs and "full" payload always fall back
        assert _resolve_shm(True, "batched", "summary", False) is False
        assert _resolve_shm(None, "batched", "full", True) is False
        assert _resolve_shm(True, "batched", "full", True) is False


class TestCampaignEquivalence:
    def test_cross_worker_batch_is_bit_identical(self, reference_payload,
                                                 no_new_segments):
        # One cell's 8 lanes split over 2 workers (batch 4): the tentpole
        # cross-worker case, on the shared plane.
        result = run_campaign(_tiny_spec(), seed=7, max_workers=2,
                              engine="batched", batch_size=4, shm=True)
        assert _campaign_payload(result) == reference_payload

    def test_shm_off_matches(self, reference_payload):
        result = run_campaign(_tiny_spec(), seed=7, max_workers=2,
                              engine="batched", batch_size=4, shm=False)
        assert _campaign_payload(result) == reference_payload

    def test_stats_payload_keeps_results(self, reference_payload):
        result = run_campaign(_tiny_spec(), seed=7, max_workers=2,
                              engine="batched", batch_size=4,
                              payload="stats", shm=True)
        assert _campaign_payload(result) == reference_payload
        assert all(r is not None and r.monitor is not None
                   for r in result.results)

    def test_scalar_engine_ring_only(self, reference_payload,
                                     no_new_segments):
        # shm=True with the compiled kernel: no plane, ring-only transport.
        result = run_campaign(_tiny_spec(), seed=7, max_workers=2,
                              engine="compiled", shm=True)
        assert _campaign_payload(result) == reference_payload

    def test_full_payload_falls_back(self, reference_payload):
        result = run_campaign(_tiny_spec(), seed=7, max_workers=2,
                              engine="batched", batch_size=4,
                              payload="full", shm=True)
        assert _campaign_payload(result) == reference_payload

    def test_store_commit_from_ring_and_resume(self, tmp_path,
                                               reference_payload):
        db = tmp_path / "campaign.db"
        first = run_campaign(_tiny_spec(), seed=7, max_workers=2,
                             engine="batched", batch_size=4, shm=True,
                             store=db)
        assert _campaign_payload(first) == reference_payload
        with CampaignStore(db) as store:
            assert store.checkpointed_count() == 16
        resumed = run_campaign(_tiny_spec(), seed=7, max_workers=2,
                               engine="batched", batch_size=4, shm=True,
                               store=db, resume=True)
        assert resumed.replayed_trials == 16
        assert _campaign_payload(resumed) == reference_payload

    def test_crash_resume_split_across_shm_modes(self, tmp_path,
                                                 reference_payload):
        # Checkpoint a prefix with shm off, resume the remainder with shm
        # on: the split must be invisible in the aggregates.
        db = tmp_path / "campaign.db"
        spec = _tiny_spec()
        runs = spec.expand(7)
        with CampaignStore(db) as store:
            store.begin(spec, 7, "summary")
            from repro.campaign.executor import execute_batch
            prefix = [(run.index, run.replicate, run.seed)
                      for run in runs[:6]]
            chunk = execute_batch(spec, (runs[0].spec_index, tuple(prefix)),
                                  "summary", "batched")
            store.checkpoint_batch(chunk)
        resumed = run_campaign(spec, seed=7, max_workers=2,
                               engine="batched", batch_size=4, shm=True,
                               store=db, resume=True)
        assert resumed.replayed_trials == 6
        assert _campaign_payload(resumed) == reference_payload


class TestCrashCleanup:
    def test_sigkilled_worker_leaks_no_segments(self, no_new_segments):
        # Run the campaign in a subprocess where *every* worker SIGKILLs
        # itself on its first task (crash@p=1): the supervisor retries
        # until its respawn budget is exhausted, and the parent must still
        # fail loudly and unlink every segment.
        code = (
            "from repro.campaign import CampaignExecutionError\n"
            "from repro.campaign import run_campaign, table1_spec\n"
            "spec = table1_spec(mean_toffs=(18.0,), replicates=8,\n"
            "                   duration=120.0, legacy_seed=None)\n"
            "try:\n"
            "    run_campaign(spec, seed=7, max_workers=2, engine='batched',\n"
            "                 batch_size=4, shm=True, max_respawns=1,\n"
            "                 fault_plan='crash@p=1')\n"
            "except CampaignExecutionError:\n"
            "    raise SystemExit(86)\n"
            "raise SystemExit(1)\n")
        proc = subprocess.run(
            [sys.executable, "-c", code], env=_subprocess_env(),
            cwd=_REPO_ROOT, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 86, proc.stderr

    def test_atexit_unlinks_unclosed_session(self, no_new_segments):
        # A process that creates a session and exits without closing it:
        # the owner-side atexit hook must unlink every segment.
        code = (
            "from repro.campaign.shm import ShmSession, StatePlane\n"
            "session = ShmSession(32)\n"
            "session.ensure_plane(0, 8, 41, 3)\n"
            "import sys; sys.stdout.write(session.ring.segment.name)\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              env=_subprocess_env(), cwd=_REPO_ROOT,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("repro-")

    def test_resource_tracker_reaps_after_hard_exit(self, no_new_segments):
        # os._exit skips atexit entirely; the resource tracker (a separate
        # surviving process) is the last line of defence and must unlink
        # the leaked segments once its owner is gone.
        code = (
            "import os\n"
            "from repro.campaign.shm import ShmSession\n"
            "session = ShmSession(32)\n"
            "os._exit(0)\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              env=_subprocess_env(), cwd=_REPO_ROOT,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
