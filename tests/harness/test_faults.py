"""Fault-injection tests for the sweep engine's integrity machinery.

Exercises the acceptance scenarios of the simulation integrity layer:
retry-then-success for transient worker crashes, no retry for
deterministic simulation failures, per-run deadlines that condemn only
the stalled run, checkpoint-manifest resume, failure budgets, and
truncated runs surfacing as structured failures instead of silently
polluting results.  All injected faults come from the deterministic
harness in :mod:`tests.harness.faults`.
"""

import json

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
    is_transient_failure,
)
from repro.sim.config import baseline_config
from repro.sim.errors import (
    CycleLimitExceeded,
    InvariantViolation,
    SimulationError,
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
    def test_retry_then_success_inline(self, fault_dir):
        spec = spec_for("monte")
        engine = SweepEngine(jobs=1, worker=faults.flaky_worker,
                             retries=2, retry_backoff=0.0)
        [outcome] = engine.run([spec])
        assert isinstance(outcome, SimulationResult)
        assert faults.attempts_made(spec) == 2
        assert engine.retried == 1
        assert engine.failures == 0

    def test_retry_then_success_pool(self, fault_dir):
        specs = [spec_for("monte"), spec_for("cell")]
        engine = SweepEngine(jobs=2, worker=faults.flaky_worker,
                             retries=2, retry_backoff=0.0)
        outcomes = engine.run(specs)
        assert all(isinstance(o, SimulationResult) for o in outcomes)
        assert [o.stats.benchmark for o in outcomes] == ["monte", "cell"]
        assert all(faults.attempts_made(s) == 2 for s in specs)
        assert engine.retried == 2

    def test_retry_exhaustion_records_failure(self, fault_dir):
        spec = spec_for("monte")
        engine = SweepEngine(jobs=1, worker=faults.crashing_worker,
                             retries=1, retry_backoff=0.0)
        [outcome] = engine.run([spec])
        assert isinstance(outcome, RunFailure)
        assert outcome.kind == "exception"
        assert outcome.attempts == 2  # first try + one retry
        assert faults.attempts_made(spec) == 2

    def test_deterministic_failure_is_never_retried(self, fault_dir):
        spec = spec_for("monte")
        engine = SweepEngine(jobs=1, worker=faults.invariant_worker,
                             retries=5, retry_backoff=0.0)
        [outcome] = engine.run([spec])
        assert isinstance(outcome, RunFailure)
        assert outcome.kind == "invariant"
        assert outcome.attempts == 1
        assert faults.attempts_made(spec) == 1  # retries were NOT burned
        assert engine.retried == 0
        assert isinstance(outcome.exception, InvariantViolation)
        assert outcome.report is not None
        assert outcome.report["violations"]

    def test_transient_classifier(self):
        assert is_transient_failure(OSError("pipe"))
        assert is_transient_failure(EOFError())
        assert is_transient_failure(ConnectionResetError())
        assert not is_transient_failure(InvariantViolation("x"))
        assert not is_transient_failure(CycleLimitExceeded("x"))
        assert not is_transient_failure(SimulationError("x"))
        assert not is_transient_failure(KeyError("x"))
        assert not is_transient_failure(ValueError("x"))


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
    def test_max_failures_aborts_remaining_runs(self, fault_dir):
        specs = [spec_for("monte"), spec_for("cell"), spec_for("bfs")]
        engine = SweepEngine(jobs=1, worker=faults.crashing_worker,
                             retries=0, max_failures=1)
        outcomes = engine.run(specs)
        assert [o.kind for o in outcomes] == ["exception", "aborted", "aborted"]
        assert faults.attempts_made(specs[0]) == 1
        assert faults.attempts_made(specs[1]) == 0  # never executed
        assert faults.attempts_made(specs[2]) == 0

    def test_budget_below_one_is_rejected(self):
        # A zero budget would abort every sweep before its first run.
        with pytest.raises(ValueError, match="max_failures must be >= 1"):
            ExperimentRunner(scale=SCALE, max_failures=0)

    @pytest.mark.parametrize("timeout", [0, -1])
    def test_non_positive_deadline_is_rejected(self, timeout):
        # A past deadline would fail every pooled run as a timeout.
        with pytest.raises(ValueError, match="timeout must be positive"):
            SweepEngine(jobs=2, timeout=timeout)


class TestExhibitFailures:
    """A grid point its sweep failed is never simulated again to finish
    the exhibit, where no deadline or failure budget would bound it:
    ``runner.run`` raises the recorded failure instead."""

    @staticmethod
    def fig15_grid(runner):
        return [runner._spec("cell", hardware=hw, throttle=t)
                for hw, t in (("none", False),) + experiments.FIG15_SCHEMES]

    def test_failed_grid_raises_without_rerunning(self, fault_dir):
        runner = ExperimentRunner(scale=SCALE, retries=0, use_cache=False)
        runner.engine.worker = faults.crashing_worker
        with pytest.raises(OSError, match="injected permanent fault"):
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
        engine1 = SweepEngine(jobs=1, worker=faults.crashing_worker,
                              retries=0, manifest=manifest_path)
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
