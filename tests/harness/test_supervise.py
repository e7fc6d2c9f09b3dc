"""Tests for the supervised sweep runtime (:mod:`repro.harness.supervise`).

Covers the supervised runtime end to end:

* **Liveness heartbeats** — writer gating and atomicity, and the
  lifetime of a pooled sweep's heartbeat directory.
* **Best-effort artifact writes** — one contract over all seven sinks
  (cache entry, manifest line, auto-checkpoint, heartbeat, metrics and
  profile documents, rejected-snapshot report): a write failed with
  ENOSPC warns once naming its sink, leaves no file, stops the sink
  (later writes are counted drops), and the run or sweep still returns
  its result; a pooled run whose heartbeats stop on a full disk still
  succeeds.
* **Retry budgets** — a spec whose pool worker dies on every attempt
  uses exactly ``retries + 1`` attempts, and an error a run raises (an
  ``OSError`` of any errno, a deterministic failure) is attempted once.
* **Graceful shutdown** — first signal drains (inline and pooled),
  finalizes the manifest, and raises ``SweepInterrupted``; the second
  forces exit.  A SIGTERM that reaches the engine alone is relayed to
  its pool workers, with heartbeats or without, and a drain that runs
  out of time kills the workers still running.  The acceptance test
  SIGTERMs a *real subprocess sweep* mid-flight and verifies the sweep
  resumed through its result cache loses zero completed results,
  simulates only the pending runs, and reproduces the uninterrupted
  control sweep bit-for-bit.
"""

import errno
import io
import json
import os
import pickle
import signal
import subprocess
import sys
import time
import warnings
from concurrent.futures import BrokenExecutor
from pathlib import Path
from unittest import mock

import pytest

from repro.harness import chaos, supervise, sweep
from repro.harness.runner import (
    ExperimentRunner,
    checkpoint_path_for,
    make_spec,
    metrics_path_for,
    run_spec,
)
from repro.harness.sweep import (
    ProgressReporter,
    ResultCache,
    RunFailure,
    RunOptions,
    SweepEngine,
    SweepInterrupted,
    fingerprint,
)
from repro.sim.artifacts import Sink
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


def _pooled_sentinel(spec, options):
    """The run sentinel ``run_spec`` builds for a pooled run: its first
    heartbeat, which records this worker's pid, lands at once."""
    return supervise.RunSentinel(heartbeat=supervise.HeartbeatWriter(
        supervise.heartbeat_path_for(
            spec.benchmark, fingerprint(spec), options.heartbeat_dir
        ),
        options.heartbeat_interval,
    ))


# ----------------------------------------------------------------------
# Heartbeat writer
# ----------------------------------------------------------------------


class TestHeartbeat:
    def test_beat_writes_full_schema_record(self, tmp_path):
        path = tmp_path / "run.hb.json"
        writer = supervise.HeartbeatWriter(path, interval=0.0)
        writer.beat(1234, force=True)
        record = supervise.load_heartbeat(path)
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

    def test_run_options_wire_heartbeat(self, tmp_path, monkeypatch):
        built = []

        class _Recording(supervise.RunSentinel):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)
                # The construction-time beat recorded our pid already.
                record = supervise.load_heartbeat(self.heartbeat.path)
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
        assert supervise.load_heartbeat(writer.path)["cycle"] == 777

    def test_sentinel_exceptions_pickle_losslessly(self):
        original = WorkerInterrupted("boom", snapshot={"cycle": 9})
        clone = pickle.loads(pickle.dumps(original))
        assert type(clone) is WorkerInterrupted
        assert clone.kind == "interrupted"
        assert clone.snapshot == {"cycle": 9}
        assert isinstance(clone, SimulationError)

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
# No errno is retried
# ----------------------------------------------------------------------


class TestErrnoClassification:
    """Every ``OSError`` a run raises is permanent: its worker lives, and
    a second attempt would meet the same disk, quota or permission."""

    def test_environment_errnos_are_permanent(self, fault_dir):
        errors = (
            OSError(errno.ENOSPC, "no space"),
            OSError(errno.EDQUOT, "quota"),
            OSError(errno.EROFS, "read-only"),
            FileNotFoundError(errno.ENOENT, "missing"),
        )
        spec = spec_for("monte")
        for exc in errors:
            def failing_worker(spec, options, exc=exc):
                faults.record_attempt(spec)
                raise exc

            engine = SweepEngine(jobs=1, worker=failing_worker, retries=5)
            [outcome] = engine.run([spec])
            assert outcome.exception is exc
            assert outcome.attempts == 1
        assert faults.attempts_made(spec) == len(errors)

    def test_permanent_oserror_is_not_retried_by_the_engine(self, fault_dir):
        def denied_worker(spec, options):
            faults.record_attempt(spec)
            raise PermissionError(errno.EACCES, "injected EACCES")

        spec = spec_for("monte")
        engine = SweepEngine(jobs=1, worker=denied_worker, retries=5)
        [outcome] = engine.run([spec])
        assert isinstance(outcome, RunFailure)
        assert outcome.attempts == 1
        assert faults.attempts_made(spec) == 1


# ----------------------------------------------------------------------
# A pooled sweep's heartbeat directory
# ----------------------------------------------------------------------


class TestWedgeSupervision:
    """Heartbeat plumbing of a pooled sweep.  Nothing kills a run
    because its heartbeat is stale (``timeout`` bounds a stuck run, and
    ``TestDiskPressure`` covers a run whose heartbeats stop), so these
    tests pin the directory the heartbeats go to."""

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
            jobs=2, worker=faults.selectively_crashing_worker, retries=1,
        )
        bad, good = engine.run([crashing, healthy])
        assert isinstance(bad, RunFailure)
        assert bad.kind == "exception"
        assert isinstance(bad.exception, BrokenExecutor)
        assert bad.attempts == 2  # the whole retry budget
        assert faults.attempts_made(crashing) == 2
        # Each death breaks the pool, and with it the healthy run when
        # that is still in flight: it finishes or runs out of retries.
        assert (isinstance(good, SimulationResult)
                or isinstance(good.exception, BrokenExecutor))

    def test_invariant_failure_is_attempted_once(self, fault_dir):
        spec = spec_for("monte")
        engine = SweepEngine(
            jobs=1, worker=faults.invariant_worker, retries=2,
        )
        [outcome] = engine.run([spec])
        assert outcome.kind == "invariant"
        assert outcome.attempts == 1
        assert faults.attempts_made(spec) == 1
        assert engine.retried == 0


# ----------------------------------------------------------------------
# Best-effort artifact writes (ENOSPC injection)
# ----------------------------------------------------------------------

#: How long :func:`_disk_fills_after_first_beat` keeps working once its
#: heartbeats stop: past the 2 s of silence after which a heartbeat
#: supervisor would have called the run wedged.
DISK_FULL_RUN_SECONDS = 3.0


def _disk_fills_after_first_beat(spec, options):
    """Pooled run whose disk fills right after its first heartbeat.

    The sentinel's first beat lands; every later write fails with
    ENOSPC, so the writer's sink stops while the run keeps ticking for
    :data:`DISK_FULL_RUN_SECONDS`.  The writer's final state goes to the
    fault directory for the test to check.
    """
    sentinel = _pooled_sentinel(spec, options)
    writer = sentinel.heartbeat
    sim = _DummySim(cycle=0)
    deadline = time.monotonic() + DISK_FULL_RUN_SECONDS
    with warnings.catch_warnings(), mock.patch.object(
        supervise, "atomic_write_json", faults.raise_enospc
    ):
        warnings.simplefilter("ignore", RuntimeWarning)
        while time.monotonic() < deadline:
            sim.cycle += supervise.SUPERVISION_HOOK_CYCLES
            sentinel.tick(sim)
            time.sleep(0.02)
    state = {"stopped": writer.sink.stopped, "writes": writer.writes}
    state_path = faults._fault_dir() / f"heartbeat-{spec.benchmark}"
    state_path.write_text(json.dumps(state))
    sentinel.close()
    return faults._stats_for(spec)


def _sweep(**engine):
    """Sweep two specs with the instant fake worker, in process."""
    specs = [spec_for("monte"), spec_for("cell")]
    outcomes = SweepEngine(jobs=1, worker=faults.fast_worker, **engine).run(specs)
    return outcomes, specs[0]


def _cache_sweep(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    outcomes, spec = _sweep(cache=cache)
    return outcomes, cache.path_for(fingerprint(spec))


def _manifest_sweep(tmp_path):
    path = tmp_path / "sweep.jsonl"
    outcomes, _ = _sweep(manifest=path)
    return outcomes, path


def _observed_run(**options):
    """One real in-process run of monte with the given run options."""
    spec = spec_for("monte")
    return [run_spec(spec, RunOptions(**options))], spec


def _checkpointed_run(tmp_path):
    outcomes, spec = _observed_run(
        checkpoint_dir=tmp_path / "ckpt", checkpoint_interval=500
    )
    return outcomes, checkpoint_path_for(spec, tmp_path / "ckpt")


def _heartbeat_run(tmp_path):
    outcomes, spec = _observed_run(
        heartbeat_dir=tmp_path / "hb", heartbeat_interval=1e-6
    )
    return outcomes, supervise.heartbeat_path_for(
        spec.benchmark, fingerprint(spec), tmp_path / "hb"
    )


def _metrics_run(tmp_path):
    outcomes, spec = _observed_run(metrics_dir=tmp_path / "metrics")
    return outcomes, metrics_path_for(spec, tmp_path / "metrics")


def _profiled_run(tmp_path):
    outcomes, spec = _observed_run(profile_dir=tmp_path / "prof")
    return outcomes, tmp_path / "prof" / f"monte-{fingerprint(spec)[:12]}.json"


def _rejected_snapshot_run(tmp_path):
    snapshot = checkpoint_path_for(spec_for("monte"), tmp_path / "ckpt")
    snapshot.parent.mkdir()
    snapshot.write_text("{\"torn\": ", encoding="utf-8")
    outcomes, _ = _observed_run(checkpoint_dir=tmp_path / "ckpt")
    return outcomes, snapshot.with_suffix(".failure.json")


#: sink name -> (the write it makes, how to drive it, whether it writes
#: more than once).  Each case faults that write itself with ENOSPC.
SINK_CASES = {
    "result cache": ("repro.harness.sweep.atomic_write_json", _cache_sweep, True),
    "sweep manifest": ("repro.harness.sweep.append_line", _manifest_sweep, True),
    "auto-checkpoint": (
        "repro.sim.checkpoint.write_checkpoint", _checkpointed_run, True
    ),
    "heartbeat": ("repro.harness.supervise.atomic_write_json", _heartbeat_run, True),
    "metrics document": (
        "repro.sim.telemetry.MetricsRecorder.write", _metrics_run, False
    ),
    "profile document": (
        "repro.sim.profiling.SimProfiler.write", _profiled_run, False
    ),
    "rejected-snapshot report": (
        "repro.harness.runner.write_failure_report", _rejected_snapshot_run, False
    ),
}


class TestDiskPressure:
    @pytest.mark.parametrize(
        "name", list(SINK_CASES), ids=lambda name: name.replace(" ", "-")
    )
    def test_sink_contract(self, name, fault_dir, tmp_path, monkeypatch):
        """A full disk under any sink: the write is dropped with one
        warning naming the sink, leaves no file and stops the sink, and
        the run or sweep still returns its result."""
        target, drive, repeats = SINK_CASES[name]
        writes = []

        def full_disk(*args, **kwargs):
            writes.append(args)
            faults.raise_enospc()

        monkeypatch.setattr(target, full_disk)
        sinks = []
        attempt = Sink.attempt

        def recording(sink, *args, **kwargs):
            if sink.name == name and sink not in sinks:
                sinks.append(sink)
            return attempt(sink, *args, **kwargs)

        monkeypatch.setattr(Sink, "attempt", recording)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outcomes, path = drive(tmp_path)
        # The run or sweep still returns its result.
        assert all(isinstance(o, SimulationResult) for o in outcomes), outcomes
        named = [
            w for w in caught
            if w.category is RuntimeWarning and name in str(w.message)
        ]
        assert len(named) == 1, [str(w.message) for w in caught]
        assert not path.exists()
        [sink] = sinks
        assert sink.stopped
        assert len(writes) == 1
        if repeats:
            # Every write after the first was a counted drop that never
            # reached the write function, so it touched no file.
            assert sink.dropped >= 2
        else:
            assert sink.dropped == 1

    def test_dropped_writes_surface_in_the_sweep_summary(
        self, fault_dir, tmp_path, monkeypatch
    ):
        stream = io.StringIO()
        monkeypatch.setattr(
            "repro.harness.sweep.append_line", faults.raise_enospc
        )
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

    def test_full_disk_does_not_fail_a_healthy_pooled_run(self, fault_dir):
        specs = [spec_for("monte"), spec_for("cell")]
        engine = SweepEngine(
            jobs=2, worker=_disk_fills_after_first_beat, retries=0,
            options=RunOptions(heartbeat_interval=0.2),
        )
        outcomes = engine.run(specs)
        assert all(isinstance(o, SimulationResult) for o in outcomes), outcomes
        assert engine.failures == 0
        assert engine.retried == 0
        # Each run's heartbeats really stopped after the first one.
        for spec in specs:
            state = json.loads(
                (fault_dir / f"heartbeat-{spec.benchmark}").read_text()
            )
            assert state == {"stopped": True, "writes": 1}


# ----------------------------------------------------------------------
# Progress reporting (non-TTY, summary line)
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


#: Upper bound on how long :func:`_run_until_shutdown` runs without a
#: shutdown request.  Inside ``DRAIN_TIMEOUT``, so an unrelayed drain
#: ends with the runs completed rather than abandoned.
RELAY_BOUND_SECONDS = 20.0


def _run_until_shutdown(spec, options):
    """Pool worker that ticks a real run sentinel until its own shutdown
    flag rises, for at most :data:`RELAY_BOUND_SECONDS`.

    The sentinel writes heartbeats when the options ask for them.  Each
    run marks its start in the fault directory; once both have, the
    monte run sends SIGTERM to the engine alone, so a worker's flag
    rises only if the engine relays the signal.
    """
    directory = faults._fault_dir()
    (directory / f"started-{spec.benchmark}").touch()
    if options.heartbeat_dir is None:
        sentinel = supervise.RunSentinel()
    else:
        sentinel = _pooled_sentinel(spec, options)
    signalled = spec.benchmark != "monte"
    sim = _DummySim(cycle=0)
    deadline = time.monotonic() + RELAY_BOUND_SECONDS
    while time.monotonic() < deadline:
        sim.cycle += supervise.SUPERVISION_HOOK_CYCLES
        sentinel.tick(sim)  # raises WorkerInterrupted once the flag rises
        if not signalled and len(list(directory.glob("started-*"))) == 2:
            os.kill(ENGINE_PID, signal.SIGTERM)
            signalled = True
        time.sleep(0.02)
    sentinel.close()
    return faults._stats_for(spec)


def _stuck_after_signalling(spec, options):
    """Pool worker that never looks at its shutdown flag.

    Each run records its pid and marks its start; once both have, the
    monte run sends SIGTERM to the engine.  Both then sleep out
    :data:`faults.STALL_SECONDS`, far past any drain.
    """
    directory = faults._fault_dir()
    faults.record_pid(spec)
    (directory / f"started-{spec.benchmark}").touch()
    if spec.benchmark == "monte":
        while len(list(directory.glob("started-*"))) < 2:
            time.sleep(0.02)
        os.kill(ENGINE_PID, signal.SIGTERM)
    time.sleep(faults.STALL_SECONDS)
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
        cache = tmp_path / "cache"
        specs = [
            spec_for("monte"),
            spec_for("cell"),
            spec_for("monte", hardware="stride_pc"),
        ]
        engine = SweepEngine(
            cache=ResultCache(cache), jobs=1,
            worker=_shutdown_after_first_worker, manifest=manifest_path,
        )
        with pytest.raises(SweepInterrupted) as excinfo:
            engine.run(specs)
        exc = excinfo.value
        assert engine.interrupted
        assert exc.done == 1 and exc.pending == 2
        assert str(exc.manifest) == str(manifest_path)
        assert f"resume with the same result cache ({cache})" in str(exc)
        journal = faults.read_journal(manifest_path)
        final = journal[-1]
        assert (final["key"], final["status"]) == ("__sweep__", "final")
        assert final["interrupted"] is True
        assert final["pending"] == 2
        assert [r["status"] for r in journal[:-1]] == ["done"]

        # Resume with the same cache: the completed run is a hit, the
        # two pending runs execute, nothing is re-simulated.
        supervise.reset_shutdown()
        resumed = SweepEngine(
            cache=ResultCache(cache), jobs=1, worker=faults.fast_worker,
            manifest=manifest_path,
        )
        outcomes = resumed.run(specs)
        assert all(isinstance(o, SimulationResult) for o in outcomes)
        assert (resumed.cache_hits, resumed.simulated) == (1, 2)
        assert faults.attempts_made(specs[0]) == 1  # never re-executed
        final = faults.read_journal(manifest_path)[-1]
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
        statuses = [r["status"] for r in faults.read_journal(manifest_path)]
        assert statuses == ["done", "final"]

    def _assert_drain_relays(self, options):
        engine = SweepEngine(jobs=2, worker=_run_until_shutdown, options=options)
        t0 = time.monotonic()
        with pytest.raises(SweepInterrupted) as excinfo:
            engine.run([spec_for("monte"), spec_for("cell")])
        elapsed = time.monotonic() - t0
        # Both workers bowed out on the relayed signal: neither run
        # completed, and neither waited out its bound.
        assert (excinfo.value.done, excinfo.value.pending) == (0, 2)
        assert engine.failures == 0
        assert elapsed < RELAY_BOUND_SECONDS / 2, f"drain took {elapsed:.1f}s"

    def test_drain_relays_sigterm_to_pooled_workers(self, fault_dir):
        self._assert_drain_relays(RunOptions(heartbeat_interval=0.2))

    def test_drain_relays_sigterm_without_heartbeats(self, fault_dir):
        """The relay finds the workers with no heartbeat file to read."""
        self._assert_drain_relays(RunOptions())

    def test_drain_that_runs_out_kills_its_workers(
        self, fault_dir, monkeypatch
    ):
        """Workers still running at ``DRAIN_TIMEOUT`` do not outlive it."""
        monkeypatch.setattr(sweep, "DRAIN_TIMEOUT", 0.5)
        engine = SweepEngine(jobs=2, worker=_stuck_after_signalling)
        with pytest.raises(SweepInterrupted) as excinfo:
            engine.run([spec_for("monte"), spec_for("cell")])
        assert (excinfo.value.done, excinfo.value.pending) == (0, 2)
        pids = {faults.recorded_pid(name) for name in ("monte", "cell")}
        assert not faults.live_workers(pids)

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


def _complete_line(stdout):
    """``(simulated, json)`` from a sweep child's ``COMPLETE`` line."""
    line = next(l for l in stdout.splitlines() if l.startswith("COMPLETE "))
    simulated, table = line[len("COMPLETE "):].split(" ", 1)
    return int(simulated[len("simulated="):]), table


class TestSigtermMidSweepSubprocess:
    """Acceptance: SIGTERM a real subprocess sweep, resume bit-identically."""

    def test_sigterm_drains_finalizes_and_resumes_bit_identically(
        self, tmp_path
    ):
        env = _sweep_subprocess_env()

        # Control: the same sweep, uninterrupted.
        control = subprocess.run(
            [sys.executable, "-c", CHILD_CODE, str(tmp_path / "control"),
             str(tmp_path / "control.jsonl")],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True,
            timeout=300,
        )
        assert control.returncode == 0, control.stderr
        assert _complete_line(control.stdout)[0] == 8
        control_table = _complete_line(control.stdout)[1]

        # Interrupted run: SIGTERM as soon as the journal shows the
        # first completed run.
        cache = tmp_path / "cache"
        manifest = tmp_path / "resumable.jsonl"
        child = subprocess.Popen(
            [sys.executable, "-c", CHILD_CODE, str(cache), str(manifest)],
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
        journal = faults.read_journal(manifest)
        final = journal[-1]
        assert (final["key"], final["status"]) == ("__sweep__", "final")
        assert final["interrupted"] is True
        assert final["pending"] == pending
        assert [r["status"] for r in journal[:-1]] == ["done"] * done

        # Resume with the same cache: it simulates only the pending runs,
        # and the final stats table is bit-identical to the
        # uninterrupted control sweep.
        resume = subprocess.run(
            [sys.executable, "-c", CHILD_CODE, str(cache), str(manifest)],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True,
            timeout=300,
        )
        assert resume.returncode == 0, resume.stderr
        assert _complete_line(resume.stdout) == (pending, control_table)


# ----------------------------------------------------------------------
# Runner plumbing
# ----------------------------------------------------------------------


class TestRunnerPlumbing:
    def test_run_options_reach_the_engine(self):
        options = RunOptions(heartbeat_interval=1.0)
        runner = ExperimentRunner(scale=SCALE, options=options)
        assert runner.engine.options.heartbeat_interval == 1.0
