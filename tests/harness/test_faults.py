"""Fault-injection tests for the sweep engine's integrity machinery.

Exercises the acceptance scenarios of the simulation integrity layer:
retry-then-success for a pool worker that died, no retry for anything a
run raises (an ``OSError`` or a deterministic simulation failure),
per-run deadlines that condemn only the stalled run, checkpoint-manifest
resume, and truncated runs surfacing as structured failures instead of
silently polluting results.  All injected faults come from the
deterministic harness in :mod:`tests.harness.faults`.
"""

import errno
import json
from concurrent.futures import BrokenExecutor

import pytest

from repro.harness import experiments
from repro.harness.runner import ExperimentRunner, make_spec
from repro.harness.sweep import (
    SCHEMA_VERSION,
    ResultCache,
    RunFailedError,
    RunFailure,
    SweepEngine,
    SweepManifest,
    fingerprint,
)
from repro.sim.config import baseline_config
from repro.sim.errors import (
    CycleLimitExceeded,
    InvariantViolation,
    load_failure_report,
    write_failure_report,
)
from repro.sim.gpu import SimulationResult

from tests.harness import faults

SCALE = 0.05


@pytest.fixture
def fault_dir(tmp_path, monkeypatch):
    """Point the fault harness' cross-process counters at a fresh dir."""
    directory = tmp_path / "faults"
    directory.mkdir()
    monkeypatch.setenv(faults.FAULT_DIR_ENV, str(directory))
    return directory


def spec_for(benchmark: str, **kwargs):
    return make_spec(benchmark, scale=SCALE, **kwargs)


class TestTransientRetry:
    """A dead pool worker is the one failure a sweep retries."""

    def test_retry_then_success_pool(self, fault_dir):
        monte, cell = spec_for("monte"), spec_for("cell")
        engine = SweepEngine(jobs=2, worker=faults.flaky_worker, retries=2)
        outcomes = engine.run([monte, cell])
        assert all(isinstance(o, SimulationResult) for o in outcomes)
        assert [o.stats.benchmark for o in outcomes] == ["monte", "cell"]
        assert faults.attempts_made(monte) == 2
        # The death may also break cell's run in flight beside it.
        assert 1 <= engine.retried <= 2
        assert engine.failures == 0

    def test_retry_exhaustion_records_failure(self, fault_dir):
        specs = [spec_for("monte"), spec_for("cell")]
        engine = SweepEngine(jobs=2, worker=faults.crashing_worker, retries=1)
        outcomes = engine.run(specs)
        for spec, outcome in zip(specs, outcomes):
            assert isinstance(outcome, RunFailure)
            assert outcome.kind == "exception"
            assert isinstance(outcome.exception, BrokenExecutor)
            assert outcome.attempts == 2  # first try + one retry
            # A death beside a run can break it before it records.
            assert faults.attempts_made(spec) <= 2
        assert engine.retried == 2

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_oserror_is_attempted_once(self, fault_dir, jobs):
        """An ``OSError`` a run raises, errno-less (monte) or ``ENOSPC``
        (cell), would recur: it is recorded on its first attempt, pooled
        and in process alike."""
        specs = [spec_for("monte"), spec_for("cell")]
        engine = SweepEngine(jobs=jobs, worker=faults.oserror_worker,
                             retries=5)
        outcomes = engine.run(specs)
        for spec, outcome in zip(specs, outcomes):
            assert isinstance(outcome, RunFailure)
            assert isinstance(outcome.exception, OSError)
            assert outcome.attempts == 1
            assert faults.attempts_made(spec) == 1
        assert outcomes[0].exception.errno is None
        assert outcomes[1].exception.errno == errno.ENOSPC
        assert engine.retried == 0

    def test_deterministic_failure_is_never_retried(self, fault_dir):
        spec = spec_for("monte")
        engine = SweepEngine(jobs=1, worker=faults.invariant_worker,
                             retries=5)
        [outcome] = engine.run([spec])
        assert isinstance(outcome, RunFailure)
        assert outcome.kind == "invariant"
        assert outcome.attempts == 1
        assert faults.attempts_made(spec) == 1  # retries were NOT burned
        assert engine.retried == 0
        assert isinstance(outcome.exception, InvariantViolation)
        assert outcome.report is not None
        assert outcome.report["violations"]


class TestPerRunDeadline:
    def test_only_the_stalled_run_times_out(self, fault_dir):
        """A per-run deadline condemns exactly the run that exceeded it;
        runs sharing the pool are unaffected."""
        stalled = spec_for("monte")   # selectively_slow_worker stalls monte
        healthy = spec_for("cell")
        engine = SweepEngine(jobs=2, timeout=0.4,
                             worker=faults.selectively_slow_worker,
                             retries=0)
        slow_outcome, fast_outcome = engine.run([stalled, healthy])
        assert isinstance(slow_outcome, RunFailure)
        assert slow_outcome.kind == "timeout"
        assert "deadline" in slow_outcome.error
        assert isinstance(fast_outcome, SimulationResult)
        assert fast_outcome.stats.benchmark == "cell"
        assert engine.failures == 1 and engine.simulated == 1


class TestTruncationSurfacing:
    def test_truncated_stats_become_failures_and_are_not_cached(
        self, fault_dir, tmp_path
    ):
        cache = ResultCache(tmp_path / "cache")
        spec = spec_for("monte")
        engine = SweepEngine(cache=cache, jobs=1,
                             worker=faults.truncating_worker)
        [outcome] = engine.run([spec])
        assert isinstance(outcome, RunFailure)
        assert outcome.kind == "truncated"
        assert "max_cycles" in outcome.error
        assert len(cache) == 0

    def test_real_truncated_run_surfaces_with_diagnostics(self):
        """End to end: a simulation that exhausts max_cycles produces a
        structured truncated failure with a diagnostic snapshot."""
        spec = spec_for("monte", config=baseline_config(max_cycles=50))
        engine = SweepEngine(jobs=1)
        [outcome] = engine.run([spec])
        assert isinstance(outcome, RunFailure)
        assert outcome.kind == "truncated"
        assert isinstance(outcome.exception, CycleLimitExceeded)
        assert outcome.report is not None
        assert outcome.report["snapshot"]["cycle"] >= 50

    def test_runner_reraises_truncation(self):
        runner = ExperimentRunner(scale=SCALE,
                                  config=baseline_config(max_cycles=50))
        with pytest.raises(CycleLimitExceeded):
            runner.run("monte")


class TestFailureBudget:
    """What a run may spend on failing: its retries and its deadline."""

    def test_negative_retry_budget_is_rejected(self):
        # Clamping hid a typo'd flag: the sweep ran with another value.
        with pytest.raises(ValueError, match="retries must be >= 0"):
            ExperimentRunner(scale=SCALE, retries=-1)
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            ExperimentRunner(scale=SCALE, jobs=0)

    @pytest.mark.parametrize("timeout", [0, -1])
    def test_non_positive_deadline_is_rejected(self, timeout):
        # A past deadline would fail every pooled run as a timeout.
        with pytest.raises(ValueError, match="timeout must be positive"):
            SweepEngine(jobs=2, timeout=timeout)


class TestExhibitFailures:
    """A grid point its sweep failed is never simulated again to finish
    the exhibit, where no deadline would bound it: ``runner.run`` raises
    the recorded failure instead."""

    @staticmethod
    def fig15_grid(runner):
        return [runner._spec("cell", hardware=hw, throttle=t)
                for hw, t in (("none", False),) + experiments.FIG15_SCHEMES]

    def test_failed_grid_raises_without_rerunning(self, fault_dir):
        runner = ExperimentRunner(scale=SCALE, use_cache=False)
        runner.engine.worker = faults.oserror_worker
        with pytest.raises(OSError, match="No space left on device"):
            experiments.figure15(runner, subset=["cell"])
        grid = self.fig15_grid(runner)
        assert [faults.attempts_made(spec) for spec in grid] == [1] * len(grid)
        assert runner.engine.failures == len(grid)

    def test_failure_without_exception_names_the_run(self, fault_dir):
        runner = ExperimentRunner(scale=SCALE, use_cache=False)
        runner.engine.worker = faults.truncating_worker
        with pytest.raises(RunFailedError,
                           match=r"^run cell \(.*\) failed \[truncated\]: "):
            experiments.figure15(runner, subset=["cell"])
        grid = self.fig15_grid(runner)
        assert [faults.attempts_made(spec) for spec in grid] == [1] * len(grid)
        # A second warm of the failed grid attempts nothing either.
        outcomes = runner.warm([{"benchmark": "cell"}])
        assert outcomes[0].kind == "truncated"
        assert faults.attempts_made(grid[0]) == 1


class TestManifestResume:
    def test_interrupted_sweep_resumes_from_manifest(self, fault_dir, tmp_path):
        manifest_path = tmp_path / "sweep.jsonl"
        first_half = [spec_for("monte")]
        full_grid = [spec_for("monte"), spec_for("cell")]

        # "First invocation" completes only part of the grid, then dies.
        engine1 = SweepEngine(jobs=1, worker=faults.fast_worker,
                              manifest=manifest_path)
        [done] = engine1.run(first_half)
        assert isinstance(done, SimulationResult)

        # "Second invocation" resumes: the journaled run is replayed
        # without re-execution (the worker would crash if invoked for it).
        engine2 = SweepEngine(jobs=1, worker=faults.fast_worker,
                              manifest=manifest_path)
        resumed, fresh = engine2.run(full_grid)
        assert engine2.manifest_hits == 1
        assert faults.attempts_made(first_half[0]) == 1  # not re-run
        assert resumed.stats.to_dict() == done.stats.to_dict()
        assert isinstance(fresh, SimulationResult)

    def test_failed_manifest_entries_are_reattempted(self, fault_dir, tmp_path):
        manifest_path = tmp_path / "sweep.jsonl"
        spec = spec_for("monte")
        engine1 = SweepEngine(jobs=1, worker=faults.oserror_worker,
                              manifest=manifest_path)
        [failure] = engine1.run([spec])
        assert isinstance(failure, RunFailure)

        engine2 = SweepEngine(jobs=1, worker=faults.fast_worker,
                              manifest=manifest_path)
        [outcome] = engine2.run([spec])
        assert isinstance(outcome, SimulationResult)
        assert engine2.manifest_hits == 0  # failed record did not replay
        records = SweepManifest(manifest_path).load()
        assert records[fingerprint(spec)]["status"] == "done"

    def test_manifest_tolerates_torn_and_foreign_lines(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        manifest = SweepManifest(path)
        good = {"schema": SCHEMA_VERSION, "key": "k1", "status": "done",
                "stats": {"cycles": 7}}
        foreign_schema = {"schema": 999, "key": "k2", "status": "done"}
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(good) + "\n")
            fh.write("not json at all\n")
            fh.write(json.dumps(foreign_schema) + "\n")
            fh.write(
                '{"schema": %d, "key": "k3", "status"' % SCHEMA_VERSION
            )  # torn write
        records = manifest.load()
        assert set(records) == {"k1"}
        assert records["k1"]["stats"].cycles == 7

    def test_done_record_with_unusable_stats_is_rerun(
        self, fault_dir, tmp_path
    ):
        path = tmp_path / "sweep.jsonl"
        spec = spec_for("monte")
        path.write_text(json.dumps({
            "schema": SCHEMA_VERSION, "key": fingerprint(spec),
            "status": "done", "stats": "x",
        }) + "\n", encoding="utf-8")
        engine = SweepEngine(jobs=1, worker=faults.fast_worker,
                             manifest=path)
        [outcome] = engine.run([spec])
        assert isinstance(outcome, SimulationResult)
        assert engine.manifest_hits == 0
        assert faults.attempts_made(spec) == 1

    def test_last_record_per_key_wins(self, tmp_path):
        manifest = SweepManifest(tmp_path / "sweep.jsonl")
        manifest._append({"key": "k", "status": "failed", "kind": "timeout"})
        manifest._append({"key": "k", "status": "done",
                          "stats": {"cycles": 3}})
        records = manifest.load()
        assert records["k"]["status"] == "done"


class TestFailureReports:
    def test_failure_report_written_and_round_trips(self, fault_dir, tmp_path):
        spec = spec_for("monte")
        engine = SweepEngine(jobs=1, worker=faults.invariant_worker,
                             retries=0)
        [outcome] = engine.run([spec])
        assert isinstance(outcome, RunFailure)
        assert outcome.kind == "invariant"
        assert outcome.attempts == 1
        assert outcome.spec.benchmark == "monte"
        assert outcome.report["violations"] == [
            "cycle 42: injected ledger imbalance"
        ]
        # The returned diagnostic is plain JSON: it writes as a report
        # and reads back unchanged.
        path = write_failure_report(tmp_path / "run.failure.json", outcome.report)
        assert load_failure_report(path) == outcome.report
