"""Crash-recovery tests: checkpointing runs survive being killed.

The acceptance scenario for the checkpoint subsystem, end to end: a
worker process is killed hard (SIGKILL — no cleanup, no excepthook) in
the middle of a checkpointing simulation, and the harness brings the run
home anyway — resuming from the orphaned snapshot, finishing with
statistics **bit-identical** to an uninterrupted run, and cleaning the
snapshot up afterwards.  Alongside the happy path: corrupt snapshots
must be quarantined (failure report + cold start, never a crash), sweep
deadlines must re-queue checkpointing runs instead of condemning them,
and the sweep manifest must tolerate torn writes.
"""

import json
import os
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from repro.harness.runner import checkpoint_path_for, make_spec, run_spec
from repro.harness.sweep import (
    RunFailure,
    RunOptions,
    SweepEngine,
    SweepManifest,
    fingerprint,
)
from repro.sim.checkpoint import load_checkpoint
from repro.sim.errors import load_failure_report
from repro.sim.gpu import SimulationResult

from tests.harness import faults
from tests.sim.test_checkpoint import golden_sha, stats_sha

REPO_ROOT = Path(__file__).parent.parent.parent

#: The golden run every recovery test resumes: fast (2356 cycles) and it
#: exercises a software prefetcher plus the adaptive throttle engine.
RECOVERY_REQUEST = {"benchmark": "cell", "hardware": "none", "scale": 0.25,
                    "software": "stride", "throttle": True}


@pytest.fixture
def fault_dir(tmp_path, monkeypatch):
    """Point the fault harness' cross-process counters at a fresh dir."""
    directory = tmp_path / "faults"
    directory.mkdir()
    monkeypatch.setenv(faults.FAULT_DIR_ENV, str(directory))
    return directory


@pytest.fixture
def checkpoint_dir(tmp_path):
    """A fresh auto-checkpoint directory (see :func:`checkpointing`)."""
    directory = tmp_path / "checkpoints"
    directory.mkdir()
    return directory


def checkpointing(directory, **fields) -> RunOptions:
    """Run options snapshotting into ``directory`` every 500 cycles."""
    return RunOptions(checkpoint_dir=directory, checkpoint_interval=500, **fields)


def profiled_loop_iterations(profile_dir) -> int:
    """Read ``loop_iterations`` out of the one profile in ``profile_dir``."""
    (profile_path,) = Path(profile_dir).glob("*.json")
    with open(profile_path, "r", encoding="utf-8") as fh:
        return json.load(fh)["loop_iterations"]


class TestSigkillResume:
    def test_sigkilled_run_resumes_bit_identically(
        self, tmp_path, checkpoint_dir
    ):
        """Kill a checkpointing run with SIGKILL; resume; match the golden.

        The child process is killed by the kernel the instant its first
        snapshot lands — the realistic crash (OOM kill, node preemption)
        the subsystem exists for.  The parent then re-runs the same spec
        through the ordinary worker entry point and requires (a) proof
        the resumed run skipped the pre-crash prefix, and (b) statistics
        bit-identical to the golden capture of an uninterrupted run.
        """
        spec = make_spec(**RECOVERY_REQUEST)
        child_env = {
            **os.environ,
            "PYTHONPATH": str(REPO_ROOT / "src"),
        }
        child = subprocess.run(
            [
                sys.executable, "-c",
                "from repro.harness.runner import make_spec\n"
                "from tests.harness.faults import sigkill_after_snapshot\n"
                f"sigkill_after_snapshot(make_spec(**{RECOVERY_REQUEST!r}), "
                f"{str(checkpoint_dir)!r})\n",
            ],
            cwd=REPO_ROOT, env=child_env, capture_output=True, text=True,
            timeout=120,
        )
        assert child.returncode == -signal.SIGKILL, (
            f"child should die by SIGKILL, got rc={child.returncode}, "
            f"stderr:\n{child.stderr}"
        )
        snapshot = checkpoint_path_for(spec, checkpoint_dir)
        assert snapshot.exists(), "the killed process left no snapshot"
        envelope = load_checkpoint(snapshot, fingerprint=fingerprint(spec))
        assert envelope["cycle"] > 0

        # Reference: an uninterrupted profiled run (no checkpoint dir).
        full_profile = tmp_path / "full"
        full = run_spec(make_spec(**RECOVERY_REQUEST),
                        RunOptions(profile_dir=full_profile))
        assert stats_sha(full) == golden_sha(RECOVERY_REQUEST)

        # The resumed run: same worker entry point the sweep pool uses.
        resumed_profile = tmp_path / "resumed"
        resumed = run_spec(
            spec, checkpointing(checkpoint_dir, profile_dir=resumed_profile)
        )
        assert stats_sha(resumed) == golden_sha(RECOVERY_REQUEST), (
            "resumed run diverged from the uninterrupted golden capture"
        )
        # Proof it actually resumed: the resumed process simulated only
        # the post-snapshot tail (the snapshot carried no profiler state,
        # so its fresh profiler counts tail iterations only).
        assert (
            profiled_loop_iterations(resumed_profile)
            < profiled_loop_iterations(full_profile)
        ), "the 'resumed' run re-simulated from cycle 0"
        assert not snapshot.exists(), (
            "completed run must remove its snapshot"
        )


class TestSweepWorkerRecovery:
    def test_crashed_worker_resumes_from_its_snapshot(
        self, fault_dir, checkpoint_dir
    ):
        """A pool worker that dies mid-run is retried *from its snapshot*.

        Attempt 1 leaves a genuine cycle-500 snapshot and its process
        exits; the engine retries the dead worker's run through
        ``run_spec``, which must pick the snapshot up and still produce
        golden stats.  A second spec keeps the sweep pooled (one miss
        would run in this process, where no worker can die).
        """
        spec = make_spec(**RECOVERY_REQUEST)
        beside = make_spec("monte", scale=0.05)
        engine = SweepEngine(jobs=2, worker=faults.checkpointing_crash_worker,
                             retries=2, options=checkpointing(checkpoint_dir))
        outcome, other = engine.run([spec, beside])
        assert isinstance(outcome, SimulationResult)
        assert isinstance(other, SimulationResult)
        assert stats_sha(outcome) == golden_sha(RECOVERY_REQUEST)
        assert faults.attempts_made(spec) == 2
        # The death may also break the monte run in flight beside it.
        assert 1 <= engine.retried <= 2
        assert not checkpoint_path_for(spec, checkpoint_dir).exists()

    def test_deadline_requeues_resumable_run(self, fault_dir, checkpoint_dir):
        """With checkpointing on, a deadline miss means retry, not failure.

        Abandoning an overdue run is only the right call when a fresh
        attempt would start from cycle 0 anyway; with auto-checkpointing
        the abandoned worker has been leaving resume points, so the
        engine re-queues up to the retry budget.  The stalled fault
        worker never finishes, so the budget runs out — but the recorded
        failure must show every attempt was made.
        """
        stalled = make_spec("monte", scale=0.05)  # worker stalls monte only
        healthy = make_spec("cell", scale=0.05)
        engine = SweepEngine(jobs=2, timeout=0.4,
                             worker=faults.selectively_slow_worker,
                             retries=1, options=checkpointing(checkpoint_dir))
        slow, fast = engine.run([stalled, healthy])
        assert isinstance(fast, SimulationResult)
        assert isinstance(slow, RunFailure)
        assert slow.kind == "timeout"
        assert slow.attempts == 2, "deadline miss was not re-queued"
        assert engine.retried == 1

    def test_deadline_without_checkpointing_fails_immediately(self, fault_dir):
        """Control: no checkpoint dir, no second chance for a stalled run."""
        stalled = make_spec("monte", scale=0.05)
        healthy = make_spec("cell", scale=0.05)
        engine = SweepEngine(jobs=2, timeout=0.4,
                             worker=faults.selectively_slow_worker,
                             retries=1)
        slow, _fast = engine.run([stalled, healthy])
        assert isinstance(slow, RunFailure)
        assert slow.kind == "timeout"
        assert slow.attempts == 1
        assert engine.retried == 0


class TestResumeKeepsItsOptions:
    def test_resumed_run_keeps_invariant_checking(
        self, checkpoint_dir, monkeypatch
    ):
        """RunOptions(invariants=True) checks a resumed run too, with
        ``$REPRO_INVARIANTS`` unset."""
        import repro.harness.runner as runner
        from repro.sim.invariants import InvariantChecker

        monkeypatch.delenv("REPRO_INVARIANTS", raising=False)
        checked, restored = [], []
        check_final = InvariantChecker.check_final
        monkeypatch.setattr(
            InvariantChecker, "check_final",
            lambda self, *a, **k: checked.append(1) or check_final(self, *a, **k),
        )
        restore = runner.restore_simulator
        monkeypatch.setattr(
            runner, "restore_simulator",
            lambda *a, **k: restored.append(1) or restore(*a, **k),
        )
        spec = make_spec(**RECOVERY_REQUEST)
        faults.write_midrun_checkpoint(
            spec, checkpoint_path_for(spec, checkpoint_dir)
        )
        result = run_spec(spec, checkpointing(checkpoint_dir, invariants=True))
        assert restored == [1], "the run did not resume from its snapshot"
        assert checked == [1]
        assert stats_sha(result) == golden_sha(RECOVERY_REQUEST)


class TestCorruptSnapshotQuarantine:
    @pytest.mark.parametrize("mode", ("truncated-json", "digest-mismatch",
                                      "fingerprint-mismatch"))
    def test_corrupt_snapshot_cold_starts_with_report(
        self, checkpoint_dir, mode
    ):
        """A bad snapshot is reported, discarded, and never trusted.

        The run must still complete — from a cold start — with golden
        stats, and the rejected snapshot must leave a structured
        ``CheckpointError`` failure report behind for diagnosis.
        """
        spec = make_spec(**RECOVERY_REQUEST)
        snapshot = checkpoint_path_for(spec, checkpoint_dir)
        faults.corrupt_checkpoint(snapshot, mode)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run_spec(spec, checkpointing(checkpoint_dir))
        assert any("cold-starting" in str(w.message) for w in caught), (
            "silent fallback: the discarded snapshot was not surfaced"
        )
        assert stats_sha(result) == golden_sha(RECOVERY_REQUEST)
        report = load_failure_report(snapshot.with_suffix(".failure.json"))
        assert report["kind"] == "checkpoint"
        assert not snapshot.exists(), "corrupt snapshot must be removed"


class TestManifestDurability:
    def test_torn_final_line_only_costs_that_line(self, tmp_path):
        """A write torn mid-record — even mid-UTF-8-character — is skipped.

        Everything fsync'd before the tear must load; the torn tail must
        not take the journal down with a decode or parse error.
        """
        manifest = SweepManifest(tmp_path / "sweep.jsonl")
        manifest._append(
            {"key": "run-a", "status": "done", "stats": {"cycles": 1}}
        )
        manifest._append({"key": "run-b", "status": "failed", "kind": "timeout"})
        # Tear 1: a record cut mid-way through a multi-byte UTF-8
        # character (U+00E9 is 0xC3 0xA9; keep only the lead byte).
        torn = json.dumps({"key": "run-café", "status": "done"},
                          ensure_ascii=False)
        torn_bytes = torn.encode("utf-8")
        cut = torn_bytes[: torn_bytes.index(b"\xc3") + 1]
        with open(manifest.path, "ab") as fh:
            fh.write(cut)
        entries = manifest.load()
        assert set(entries) == {"run-a", "run-b"}
        assert entries["run-a"]["status"] == "done"
        assert entries["run-b"]["kind"] == "timeout"

    def test_torn_plain_ascii_line_is_skipped(self, tmp_path):
        manifest = SweepManifest(tmp_path / "sweep.jsonl")
        manifest._append(
            {"key": "run-a", "status": "done", "stats": {"cycles": 1}}
        )
        with open(manifest.path, "ab") as fh:
            fh.write(b'{"key": "run-b", "sta')
        assert set(manifest.load()) == {"run-a"}

    def test_appends_reach_stable_storage(self, tmp_path):
        """Records survive being read back through a raw byte view —
        i.e. the append really hit the file, not a userspace buffer."""
        manifest = SweepManifest(tmp_path / "sweep.jsonl")
        manifest._append({"key": "run-a", "status": "done"})
        raw = manifest.path.read_bytes()
        assert raw.endswith(b"\n")
        assert json.loads(raw)["key"] == "run-a"
