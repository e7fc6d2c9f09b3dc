"""Tests for the supervised sweep runtime (:mod:`repro.harness.supervise`).

Covers the supervised runtime end to end:

* **Liveness heartbeats** — writer gating and atomicity, torn-record
  degradation, and the acceptance scenario: a heartbeat-silent (wedged)
  pool worker is killed and requeued *strictly before* the per-run
  ``timeout`` deadline.
* **Disk pressure** — injected ENOSPC degrades the result cache,
  manifest journal, heartbeat sink, and auto-checkpoint closure
  loudly-but-safely (one warning, counted drops, run survives).
* **Retry budgets** — a transiently crashing spec uses exactly
  ``retries + 1`` attempts without aborting the healthy cells beside it,
  and a deterministic failure is attempted once.
* **Graceful shutdown** — first signal drains (inline and pooled),
  finalizes the manifest, and raises ``SweepInterrupted``; the second
  forces exit.  The acceptance test SIGTERMs a *real subprocess sweep*
  mid-flight and verifies the resumed sweep loses zero completed results
  and reproduces the uninterrupted control sweep bit-for-bit.
"""

import errno
import io
import os
import pickle
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from repro.harness import chaos, supervise
from repro.harness.runner import ExperimentRunner, make_spec, run_spec
from repro.harness.sweep import (
    ProgressReporter,
    ResultCache,
    RunFailure,
    RunOptions,
    SweepEngine,
    SweepInterrupted,
    SweepManifest,
    fingerprint,
    is_transient_failure,
)
from repro.sim.checkpoint import attach_checkpointing
from repro.sim.errors import SimulationError, WorkerInterrupted
from repro.sim.gpu import PeriodicHook, SimulationResult

from tests.harness import faults

REPO_ROOT = Path(__file__).parent.parent.parent

SCALE = 0.05


@pytest.fixture(autouse=True)
def _clean_shutdown_flag():
    """The shutdown flag is process-global and deliberately sticky;
    every test must start (and leave the process) with it cleared."""
    supervise.reset_shutdown()
    yield
    supervise.reset_shutdown()


@pytest.fixture
def fault_dir(tmp_path, monkeypatch):
    """Point the fault harness' cross-process counters at a fresh dir."""
    directory = tmp_path / "faults"
    directory.mkdir()
    monkeypatch.setenv(faults.FAULT_DIR_ENV, str(directory))
    return directory


def spec_for(benchmark: str, **kwargs):
    return make_spec(benchmark, scale=SCALE, **kwargs)


class _DummySim:
    """Minimal object satisfying the sentinel's simulator protocol."""

    def __init__(self, cycle=4200):
        self.cycle = cycle
        self.hooks = []


# ----------------------------------------------------------------------
# Heartbeat writer + reader
# ----------------------------------------------------------------------


class TestHeartbeat:
    def test_beat_writes_full_schema_record(self, tmp_path):
        path = tmp_path / "run.hb.json"
        writer = supervise.HeartbeatWriter(path, interval=0.0)
        writer.beat(1234, force=True)
        record = supervise.read_heartbeat(path)
        assert record["schema"] == supervise.HEARTBEAT_SCHEMA
        assert record["pid"] == os.getpid()
        assert record["cycle"] == 1234
        assert record["peak_rss_kb"] > 0
        assert abs(record["wall"] - time.time()) < 60

    def test_interval_gates_writes(self, tmp_path):
        writer = supervise.HeartbeatWriter(tmp_path / "hb.json", interval=60.0)
        writer.beat(1, force=True)
        writer.beat(2)
        writer.beat(3)
        assert writer.writes == 1
        writer.beat(4, force=True)
        assert writer.writes == 2

    def test_close_removes_the_file(self, tmp_path):
        path = tmp_path / "hb.json"
        writer = supervise.HeartbeatWriter(path, interval=0.0)
        writer.beat(1, force=True)
        assert path.exists()
        writer.close()
        assert not path.exists()
        writer.close()  # idempotent

    def test_enospc_disables_sink_with_one_warning(self, tmp_path, monkeypatch):
        writer = supervise.HeartbeatWriter(tmp_path / "hb.json", interval=0.0)
        monkeypatch.setattr(supervise, "atomic_write_json", faults.raise_enospc)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            writer.beat(1, force=True)
            writer.beat(2, force=True)
        runtime = [w for w in caught if w.category is RuntimeWarning]
        assert len(runtime) == 1
        assert "disabled" in str(runtime[0].message)
        assert not writer.enabled
        assert writer.dropped == 1  # the second beat was a silent no-op
        assert writer.writes == 0

    def test_read_heartbeat_degrades_torn_record_to_mtime(self, tmp_path):
        path = tmp_path / "torn.hb.json"
        path.write_bytes(b'{"schema": 1, "wall": 12')
        record = supervise.read_heartbeat(path)
        assert set(record) == {"wall"}
        assert record["wall"] == pytest.approx(path.stat().st_mtime)
        assert supervise.read_heartbeat(tmp_path / "absent.json") is None

    def test_run_options_wire_heartbeat(self, tmp_path, monkeypatch):
        built = []

        class _Recording(supervise.RunSentinel):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)
                # The construction-time beat recorded our pid already.
                record = supervise.read_heartbeat(self.heartbeat.path)
                assert record["pid"] == os.getpid()

        monkeypatch.setattr(supervise, "RunSentinel", _Recording)
        spec = spec_for("monte")
        run_spec(spec, RunOptions(heartbeat_dir=tmp_path, heartbeat_interval=0.5))
        (sentinel,) = built
        assert sentinel.heartbeat.interval == 0.5
        assert sentinel.heartbeat.path == supervise.heartbeat_path_for(
            "monte", fingerprint(spec), tmp_path
        )
        # A completed run removes its heartbeat.
        assert not sentinel.heartbeat.path.exists()


# ----------------------------------------------------------------------
# Run sentinel (worker-side self-monitoring)
# ----------------------------------------------------------------------


class TestRunSentinel:
    def test_attach_arms_the_supervision_hook(self):
        sim = _DummySim()
        sentinel = supervise.RunSentinel()
        sentinel.attach(sim)
        (hook,) = sim.hooks
        assert hook.interval == supervise.SUPERVISION_HOOK_CYCLES
        assert hook.action == sentinel.tick

    def test_shutdown_request_flushes_checkpoint_then_raises(self):
        sim = _DummySim()
        events = []
        sentinel = supervise.RunSentinel()
        sentinel.attach(sim, PeriodicHook(
            500, lambda s: events.append(("flush", s.cycle)), sim.cycle))
        supervise.request_shutdown()
        # One structured WorkerInterrupted, checkpoint flushed first.
        with pytest.raises(WorkerInterrupted) as excinfo:
            sentinel.tick(sim)
        assert events == [("flush", 4200)]
        exc = excinfo.value
        assert exc.kind == "interrupted"
        assert exc.snapshot["cycle"] == 4200

    def test_tick_emits_heartbeats(self, tmp_path):
        sim = _DummySim(cycle=777)
        writer = supervise.HeartbeatWriter(tmp_path / "hb.json", interval=0.0)
        sentinel = supervise.RunSentinel(heartbeat=writer)
        sentinel.tick(sim)
        assert supervise.read_heartbeat(writer.path)["cycle"] == 777

    def test_sentinel_exceptions_pickle_losslessly(self):
        original = WorkerInterrupted("boom", snapshot={"cycle": 9})
        clone = pickle.loads(pickle.dumps(original))
        assert type(clone) is WorkerInterrupted
        assert clone.kind == "interrupted"
        assert clone.snapshot == {"cycle": 9}
        assert isinstance(clone, SimulationError)
        assert not is_transient_failure(clone)

    def test_worker_signal_handler_raises_the_flag(self):
        previous = {
            sig: signal.getsignal(sig)
            for sig in (signal.SIGTERM, signal.SIGINT)
        }
        try:
            supervise.install_worker_signal_handlers()
            assert not supervise.shutdown_requested()
            os.kill(os.getpid(), signal.SIGTERM)
            assert supervise.shutdown_requested()
        finally:
            for sig, old in previous.items():
                signal.signal(sig, old)


# ----------------------------------------------------------------------
# errno-aware transient classification
# ----------------------------------------------------------------------


class TestErrnoClassification:
    def test_environment_errnos_are_permanent(self):
        for exc in (
            OSError(errno.ENOSPC, "no space"),
            OSError(errno.EDQUOT, "quota"),
            PermissionError(errno.EACCES, "denied"),
            OSError(errno.EROFS, "read-only"),
            FileNotFoundError(errno.ENOENT, "missing"),
        ):
            assert not is_transient_failure(exc), exc

    def test_errnoless_and_connection_oserrors_stay_transient(self):
        assert is_transient_failure(OSError("pipe"))
        assert is_transient_failure(ConnectionResetError(104, "reset"))
        assert is_transient_failure(BrokenPipeError(errno.EPIPE, "pipe"))

    def test_permanent_oserror_is_not_retried_by_the_engine(self, fault_dir):
        def denied_worker(spec, options):
            faults.record_attempt(spec)
            raise PermissionError(errno.EACCES, "injected EACCES")

        spec = spec_for("monte")
        engine = SweepEngine(jobs=1, worker=denied_worker,
                             retries=5, retry_backoff=0.0)
        [outcome] = engine.run([spec])
        assert isinstance(outcome, RunFailure)
        assert outcome.attempts == 1
        assert faults.attempts_made(spec) == 1


# ----------------------------------------------------------------------
# Wedge supervision (acceptance: killed + requeued before the deadline)
# ----------------------------------------------------------------------


class TestWedgeSupervision:
    def test_wedged_run_is_killed_and_requeued_before_the_deadline(
        self, fault_dir, tmp_path
    ):
        specs = [spec_for("monte"), spec_for("cell")]
        engine = SweepEngine(
            jobs=2,
            worker=faults.selectively_wedged_worker,
            timeout=30.0,
            retries=1,
            retry_backoff=0.0,
            options=RunOptions(
                heartbeat_interval=0.2, heartbeat_dir=tmp_path / "heartbeats"
            ),
        )
        t0 = time.monotonic()
        outcomes = engine.run(specs)
        elapsed = time.monotonic() - t0
        # Strictly before the 30 s per-run deadline: the supervisor
        # noticed the heartbeat silence at ~2 s, not at timeout.
        assert elapsed < 15.0, f"supervision took {elapsed:.1f}s"
        assert all(isinstance(o, SimulationResult) for o in outcomes)
        assert engine.wedged == 1
        assert engine.retried >= 1
        # Exactly one wedge, then success.  The pool breaking down after
        # the SIGKILL can cost the retry a collateral re-dispatch, so
        # the attempt count is >= 2 rather than exactly 2.
        assert faults.attempts_made(specs[0]) >= 2
        assert engine.failures == 0

    def test_wedge_with_no_retries_fails_structured(self, fault_dir, tmp_path):
        specs = [spec_for("monte"), spec_for("cell")]
        engine = SweepEngine(
            jobs=2,
            worker=faults.selectively_wedged_worker,
            timeout=30.0,
            retries=0,
            options=RunOptions(
                heartbeat_interval=0.2, heartbeat_dir=tmp_path / "heartbeats"
            ),
        )
        t0 = time.monotonic()
        outcomes = engine.run(specs)
        elapsed = time.monotonic() - t0
        assert elapsed < 15.0
        wedged, healthy = outcomes
        assert isinstance(wedged, RunFailure)
        assert wedged.kind == "wedged"
        assert "no heartbeat" in wedged.error
        assert wedged.attempts == 1
        assert isinstance(healthy, SimulationResult)


    def test_private_heartbeat_dir_is_removed_after_the_sweep(
        self, fault_dir, tmp_path, monkeypatch
    ):
        import tempfile

        temp_root = tmp_path / "tmp"
        temp_root.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(temp_root))
        engine = SweepEngine(
            jobs=2, worker=faults.fast_worker, retries=0,
            options=RunOptions(heartbeat_interval=0.2),
        )
        outcomes = engine.run([spec_for("monte"), spec_for("cell")])
        assert all(isinstance(o, SimulationResult) for o in outcomes)
        assert not list(temp_root.glob("repro-heartbeats-*"))

    def test_given_heartbeat_dir_is_left_alone(self, fault_dir, tmp_path):
        heartbeats = tmp_path / "heartbeats"
        engine = SweepEngine(
            jobs=2, worker=faults.fast_worker, retries=0,
            options=RunOptions(heartbeat_interval=0.2, heartbeat_dir=heartbeats),
        )
        engine.run([spec_for("monte"), spec_for("cell")])
        assert heartbeats.is_dir()


# ----------------------------------------------------------------------
# Retry budgets
# ----------------------------------------------------------------------


class TestRetryBudget:
    def test_transient_crash_uses_retries_plus_one_attempts(self, fault_dir):
        crashing, healthy = spec_for("monte"), spec_for("cell")
        engine = SweepEngine(
            jobs=1, worker=faults.selectively_crashing_worker,
            retries=1, retry_backoff=0.0,
        )
        bad, good = engine.run([crashing, healthy])
        assert isinstance(bad, RunFailure)
        assert bad.kind == "exception"
        assert bad.attempts == 2  # the whole retry budget
        assert faults.attempts_made(crashing) == 2
        # The healthy cell ran to completion — no abort.
        assert isinstance(good, SimulationResult)

    def test_invariant_failure_is_attempted_once(self, fault_dir):
        spec = spec_for("monte")
        engine = SweepEngine(
            jobs=1, worker=faults.invariant_worker,
            retries=2, retry_backoff=0.0,
        )
        [outcome] = engine.run([spec])
        assert outcome.kind == "invariant"
        assert outcome.attempts == 1
        assert faults.attempts_made(spec) == 1
        assert engine.retried == 0


# ----------------------------------------------------------------------
# Disk-pressure degradation (ENOSPC injection)
# ----------------------------------------------------------------------


class TestDiskPressure:
    def test_cache_put_enospc_warns_once_and_disables(
        self, tmp_path, monkeypatch
    ):
        cache = ResultCache(tmp_path / "cache")
        spec = spec_for("monte")
        stats = faults._stats_for(spec)
        monkeypatch.setattr(os, "replace", faults.raise_enospc)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cache.put(fingerprint(spec), spec, stats)
            cache.put(fingerprint(spec), spec, stats)
        runtime = [w for w in caught if w.category is RuntimeWarning]
        assert len(runtime) == 1
        assert "caching disabled" in str(runtime[0].message)
        assert cache.disabled
        assert cache.dropped == 2
        assert len(cache) == 0

    def test_manifest_append_preflights_free_space(
        self, tmp_path, monkeypatch
    ):
        manifest = SweepManifest(tmp_path / "sweep.jsonl")
        spec = spec_for("monte")
        monkeypatch.setattr("repro.harness.sweep.free_bytes", lambda p: 0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            manifest.record_success(fingerprint(spec), spec,
                                    faults._stats_for(spec))
            manifest.record_final({"interrupted": False, "total": 1,
                                   "failed": 0})
        runtime = [w for w in caught if w.category is RuntimeWarning]
        assert len(runtime) == 1
        assert "resume coverage" in str(runtime[0].message)
        assert manifest.dropped == 2
        assert manifest.load() == {}

    def test_dropped_writes_surface_in_the_sweep_summary(
        self, fault_dir, tmp_path, monkeypatch
    ):
        stream = io.StringIO()
        monkeypatch.setattr("repro.harness.sweep.free_bytes", lambda p: 0)
        engine = SweepEngine(
            jobs=1, worker=faults.fast_worker,
            manifest=tmp_path / "sweep.jsonl",
            progress=ProgressReporter(enabled=True, stream=stream),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            engine.run([spec_for("monte")])
        text = stream.getvalue()
        assert "manifest append(s) dropped" in text
        summary = engine._summary_text()
        assert "2 manifest append(s) dropped" in summary

    def test_auto_checkpoint_disables_on_full_disk_and_run_survives(
        self, tmp_path, monkeypatch
    ):
        spec = spec_for("monte")
        sim = faults._build_sim_for(spec)
        destination = tmp_path / "snapshots" / "run.ckpt.json"
        attach_checkpointing(sim, destination, interval=500,
                             fingerprint=fingerprint(spec))
        monkeypatch.setattr("repro.sim.checkpoint.free_bytes", lambda p: 0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            stats = sim.run()
        runtime = [w for w in caught if w.category is RuntimeWarning]
        assert len(runtime) == 1
        assert "auto-checkpointing" in str(runtime[0].message)
        assert "disabled" in str(runtime[0].message)
        assert not destination.exists()
        assert stats.cycles > 0 and not stats.truncated


# ----------------------------------------------------------------------
# Progress reporting (non-TTY, aborted, summary line)
# ----------------------------------------------------------------------


class _TtyStringIO(io.StringIO):
    """A StringIO that claims to be a terminal."""

    def isatty(self):
        return True


class TestProgressReporting:
    def test_non_tty_stream_gets_only_the_final_line(self):
        stream = io.StringIO()
        reporter = ProgressReporter(enabled=True, stream=stream)
        reporter.start(total=3, cached=1)
        reporter.step()
        assert stream.getvalue() == ""  # intermediate updates suppressed
        reporter.step(failed=True)
        reporter.finish()
        text = stream.getvalue()
        assert "\r" not in text
        assert text.count("3/3 done") == 1
        assert "1 cached" in text and "1 failed" in text

    def test_tty_stream_gets_carriage_return_updates(self):
        stream = _TtyStringIO()
        reporter = ProgressReporter(enabled=True, stream=stream)
        reporter.start(total=2)
        reporter.step()
        reporter.step()
        reporter.finish()
        text = stream.getvalue()
        assert "\r" in text
        assert "1/2 done" in text and "2/2 done" in text

    def test_aborted_runs_break_out_in_the_line(self):
        stream = io.StringIO()
        reporter = ProgressReporter(enabled=True, stream=stream)
        reporter.start(total=3)
        reporter.step(failed=True)
        reporter.step(aborted=True)
        reporter.step()
        reporter.finish(summary="1 aborted")
        text = stream.getvalue()
        assert "1 aborted" in text
        assert "2 failed" in text  # an aborted run counts as failed
        assert "[sweep] 1 aborted" in text

    def test_engine_summary_reports_aborted_runs(self, fault_dir):
        stream = io.StringIO()
        engine = SweepEngine(
            jobs=1, worker=faults.selectively_crashing_worker,
            retries=0, max_failures=1,
            progress=ProgressReporter(enabled=True, stream=stream),
        )
        engine.run([spec_for("monte"), spec_for("cell")])
        text = stream.getvalue()
        assert "1 aborted" in text
        assert "[sweep] 1 aborted" in text


# ----------------------------------------------------------------------
# Graceful shutdown
# ----------------------------------------------------------------------


def _shutdown_after_first_worker(spec, options):
    """Succeed, then request a graceful shutdown (inline-only helper)."""
    faults.record_attempt(spec)
    supervise.request_shutdown()
    return faults._stats_for(spec)


#: This test process, the engine of every sweep below: fork-started pool
#: workers inherit the value, so a worker can signal its engine.
ENGINE_PID = os.getpid()


def _handler_recording_worker(spec, options):
    """Pool worker that records the SIGTERM handler it runs under."""
    handler = signal.getsignal(signal.SIGTERM)
    name = f"{handler.__module__}.{handler.__qualname__}"
    directory = Path(os.environ[faults.FAULT_DIR_ENV])
    (directory / f"handler-{os.getpid()}").write_text(name)
    return faults._stats_for(spec)


def _group_signal_worker(spec, options):
    """Pool worker caught by a Ctrl-C that reaches the engine too.

    The monte run signals the engine and then bows out the way a run
    sentinel does; every other run is still busy then, and succeeds.
    """
    if spec.benchmark == "monte":
        os.kill(ENGINE_PID, signal.SIGINT)
        raise WorkerInterrupted(
            "interrupted by a group signal", snapshot={"pid": os.getpid()}
        )
    time.sleep(0.5)
    return faults._stats_for(spec)


class TestGracefulShutdown:
    def test_second_signal_forces_immediate_exit(self):
        engine = SweepEngine(jobs=1)
        engine._handle_shutdown_signal(signal.SIGTERM, None)
        assert supervise.shutdown_requested()
        with pytest.raises(KeyboardInterrupt):
            engine._handle_shutdown_signal(signal.SIGTERM, None)

    def test_inline_drain_finalizes_manifest_and_resumes_exactly(
        self, fault_dir, tmp_path
    ):
        manifest_path = tmp_path / "sweep.jsonl"
        specs = [
            spec_for("monte"),
            spec_for("cell"),
            spec_for("monte", hardware="stride_pc"),
        ]
        engine = SweepEngine(
            jobs=1, worker=_shutdown_after_first_worker,
            manifest=manifest_path,
        )
        with pytest.raises(SweepInterrupted) as excinfo:
            engine.run(specs)
        exc = excinfo.value
        assert engine.interrupted
        assert exc.done == 1 and exc.pending == 2
        assert str(exc.manifest) == str(manifest_path)
        assert "resume with the same manifest" in str(exc)
        journal = SweepManifest(manifest_path).load()
        final = journal["__sweep__"]
        assert final["status"] == "final"
        assert final["interrupted"] is True
        assert final["pending"] == 2
        done = [k for k, r in journal.items() if r.get("status") == "done"]
        assert len(done) == 1

        # Resume with the same manifest: the completed run replays, the
        # two pending runs execute, nothing is re-simulated.
        supervise.reset_shutdown()
        resumed = SweepEngine(
            jobs=1, worker=faults.fast_worker, manifest=manifest_path,
        )
        outcomes = resumed.run(specs)
        assert all(isinstance(o, SimulationResult) for o in outcomes)
        assert resumed.manifest_hits == 1
        assert faults.attempts_made(specs[0]) == 1  # never re-executed
        final = SweepManifest(manifest_path).load()["__sweep__"]
        assert final["interrupted"] is False

    def test_every_worker_runs_under_the_right_handler(
        self, fault_dir, monkeypatch
    ):
        # In process: a worker that installs the worker handlers itself
        # must not displace the engine's for the rest of the sweep.
        monkeypatch.setenv(chaos.PACE_ENV, "0")
        seen = []

        def paced_then_probe(spec, options):
            stats = chaos.paced_worker(spec, options)
            seen.append(signal.getsignal(signal.SIGTERM))
            return stats

        engine = SweepEngine(jobs=1, worker=paced_then_probe)
        [outcome] = engine.run([spec_for("monte")])
        assert isinstance(outcome, SimulationResult)
        assert seen == [engine._handle_shutdown_signal]

        # Pooled: every worker function, not only the default one, runs
        # under the worker handler rather than the engine's inherited one.
        pooled = SweepEngine(jobs=2, worker=_handler_recording_worker)
        outcomes = pooled.run([spec_for("monte"), spec_for("cell")])
        assert all(isinstance(o, SimulationResult) for o in outcomes)
        recorded = {p.read_text() for p in fault_dir.glob("handler-*")}
        assert recorded == {"repro.harness.supervise._worker_signal_handler"}

    def test_pooled_run_interrupted_by_a_group_signal_stays_pending(
        self, fault_dir, tmp_path
    ):
        manifest_path = tmp_path / "sweep.jsonl"
        engine = SweepEngine(
            jobs=2, worker=_group_signal_worker, manifest=manifest_path,
        )
        with pytest.raises(SweepInterrupted) as excinfo:
            engine.run([spec_for("monte"), spec_for("cell")])
        assert (excinfo.value.done, excinfo.value.pending) == (1, 1)
        assert engine.failures == 0
        journal = SweepManifest(manifest_path).load()
        statuses = sorted(record["status"] for record in journal.values())
        assert statuses == ["done", "final"]

    def test_pre_raised_flag_stops_admission_before_any_run(
        self, fault_dir, tmp_path
    ):
        supervise.request_shutdown()
        engine = SweepEngine(
            jobs=1, worker=faults.fast_worker,
            manifest=tmp_path / "sweep.jsonl",
        )
        with pytest.raises(SweepInterrupted) as excinfo:
            engine.run([spec_for("monte")])
        assert excinfo.value.done == 0
        assert faults.attempts_made(spec_for("monte")) == 0


CHILD_CODE = (
    "import sys\n"
    "from tests.harness.faults import supervised_sweep_main\n"
    "supervised_sweep_main(sys.argv[1:])\n"
)


def _sweep_subprocess_env():
    return {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}


class TestSigtermMidSweepSubprocess:
    """Acceptance: SIGTERM a real subprocess sweep, resume bit-identically."""

    def test_sigterm_drains_finalizes_and_resumes_bit_identically(
        self, tmp_path
    ):
        env = _sweep_subprocess_env()

        # Control: the same sweep, uninterrupted.
        control = subprocess.run(
            [sys.executable, "-c", CHILD_CODE, str(tmp_path / "control.jsonl")],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True,
            timeout=300,
        )
        assert control.returncode == 0, control.stderr
        control_line = next(
            line for line in control.stdout.splitlines()
            if line.startswith("COMPLETE ")
        )

        # Interrupted run: SIGTERM as soon as the journal shows the
        # first completed run.
        manifest = tmp_path / "resumable.jsonl"
        child = subprocess.Popen(
            [sys.executable, "-c", CHILD_CODE, str(manifest)],
            cwd=REPO_ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
        )
        try:
            deadline = time.monotonic() + 240
            while time.monotonic() < deadline:
                if (
                    manifest.exists()
                    and b'"status": "done"' in manifest.read_bytes()
                ):
                    break
                if child.poll() is not None:
                    break
                time.sleep(0.05)
            else:  # pragma: no cover - CI watchdog
                pytest.fail("no completed run appeared in the manifest")
            child.send_signal(signal.SIGTERM)
            out, err = child.communicate(timeout=240)
        finally:
            if child.poll() is None:  # pragma: no cover - cleanup only
                child.kill()
                child.communicate()
        assert child.returncode == 130, (
            f"rc={child.returncode}\nstdout:{out}\nstderr:{err}"
        )
        marker = next(
            line for line in out.splitlines()
            if line.startswith("INTERRUPTED ")
        )
        done = int(marker.split("done=")[1].split()[0])
        pending = int(marker.split("pending=")[1].split()[0])
        assert done >= 1
        assert done + pending == 8

        # The manifest was finalized with zero lost completed results.
        journal = SweepManifest(manifest).load()
        final = journal["__sweep__"]
        assert final["status"] == "final"
        assert final["interrupted"] is True
        assert final["pending"] == pending
        completed = [
            k for k, r in journal.items()
            if k != "__sweep__" and r.get("status") == "done"
        ]
        assert len(completed) == done

        # Resume with the same manifest: completes, and the final stats
        # table is bit-identical to the uninterrupted control sweep.
        resume = subprocess.run(
            [sys.executable, "-c", CHILD_CODE, str(manifest)],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True,
            timeout=300,
        )
        assert resume.returncode == 0, resume.stderr
        resume_line = next(
            line for line in resume.stdout.splitlines()
            if line.startswith("COMPLETE ")
        )
        assert resume_line == control_line


# ----------------------------------------------------------------------
# Runner plumbing
# ----------------------------------------------------------------------


class TestRunnerPlumbing:
    def test_run_options_reach_the_engine(self):
        options = RunOptions(heartbeat_interval=1.0)
        runner = ExperimentRunner(scale=SCALE, options=options)
        assert runner.engine.options.heartbeat_interval == 1.0
