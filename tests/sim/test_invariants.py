"""Tests for the simulation integrity layer: invariant checking, the
structured failure taxonomy, and diagnostic snapshots.

The invariant checker must (a) stay silent on healthy runs, (b) catch
injected accounting corruption, (c) name the wedged component on a
deadlock, and (d) produce failure artifacts — exceptions that survive
pickling across a process pool, snapshots that serialize to JSON, and
failure reports that round-trip through disk.
"""

import json
import pickle

import pytest

from repro.core.stride_rpt import StrideRptPrefetcher
from repro.sim.config import baseline_config
from repro.sim.errors import (
    FAILURE_REPORT_SCHEMA,
    CycleLimitExceeded,
    DeadlockError,
    InvariantViolation,
    SimulationError,
    load_failure_report,
    write_failure_report,
)
from repro.sim.gpu import (
    INVARIANTS_ENV,
    GpuSimulator,
    PeriodicHook,
    invariants_enabled_from_env,
)
from repro.sim.invariants import (
    InvariantChecker,
    diagnose_no_progress,
    snapshot_simulator,
)
from repro.sim.isa import compute, load, store


def memory_block(block_id, warps=2, lines_apart=64):
    """A block of warps issuing dependent loads (plus a store) — enough
    traffic to exercise every ledger the checker audits."""
    specs = []
    for w in range(warps):
        base = (block_id * warps + w) * lines_apart * 4
        stream = [
            load(0x10, 0, [base]),
            compute(0x20, wait_tokens=[0]),
            load(0x30, 1, [base + 4096]),
            store(0x40, [base + 8192]),
            compute(0x50, wait_tokens=[1]),
        ]
        specs.append((block_id * warps + w, stream))
    return (block_id, specs)


class TestEnvOptIn:
    def test_env_values(self, monkeypatch):
        monkeypatch.delenv(INVARIANTS_ENV, raising=False)
        assert not invariants_enabled_from_env()
        monkeypatch.setenv(INVARIANTS_ENV, "0")
        assert not invariants_enabled_from_env()
        monkeypatch.setenv(INVARIANTS_ENV, "")
        assert not invariants_enabled_from_env()
        monkeypatch.setenv(INVARIANTS_ENV, "1")
        assert invariants_enabled_from_env()

    def test_simulator_defers_to_env(self, monkeypatch):
        monkeypatch.setenv(INVARIANTS_ENV, "1")
        assert GpuSimulator(baseline_config()).invariants is not None
        monkeypatch.setenv(INVARIANTS_ENV, "0")
        assert GpuSimulator(baseline_config()).invariants is None

    def test_explicit_argument_overrides_env(self, monkeypatch):
        monkeypatch.setenv(INVARIANTS_ENV, "1")
        assert GpuSimulator(baseline_config(), invariants=False).invariants is None
        monkeypatch.delenv(INVARIANTS_ENV, raising=False)
        assert GpuSimulator(baseline_config(), invariants=True).invariants is not None


class TestHealthyRuns:
    def test_clean_run_passes_every_check(self):
        cfg = baseline_config(num_cores=4)
        sim = GpuSimulator(
            cfg,
            lambda core_id: StrideRptPrefetcher(distance=2, degree=2),
            invariants=True,
        )
        # Tight interval so many mid-run passes actually execute.
        sim.invariants = InvariantChecker(sim, interval=200)
        sim.load_workload([memory_block(b) for b in range(8)], 2)
        result = sim.run()
        assert result.stats.instructions > 0
        assert not result.truncated
        assert sim.invariants.checks > 1
        assert sim.invariants.violations_found == 0

    def test_issue_scan_holds_at_every_visited_cycle(self):
        """Warps park on their dependent instructions and the responses
        unpark them; each core's issue mask stays exact throughout."""
        sim = GpuSimulator(baseline_config(num_cores=2), invariants=True)
        sim.invariants = InvariantChecker(sim, interval=1)
        sim.load_workload([memory_block(b) for b in range(4)], 2)
        parked = []
        sim.hooks.append(PeriodicHook(1, lambda s: parked.append(any(
            warp.parked for core in s.cores for warp in core.warps)), 0))
        result = sim.run()
        assert not result.truncated
        assert any(parked)
        assert sim.invariants.checks > 50

    def test_snapshot_is_json_serializable(self):
        sim = GpuSimulator(baseline_config(num_cores=2), invariants=True)
        sim.load_workload([memory_block(0)], 1)
        sim.run()
        snapshot = snapshot_simulator(sim, sim.cycle)
        round_tripped = json.loads(json.dumps(snapshot))
        assert round_tripped["cycle"] == sim.cycle
        assert len(round_tripped["cores"]) == 2
        assert round_tripped["stats"]["instructions"] > 0


class TestInjectedCorruption:
    def test_tampered_warp_ledger_is_caught(self):
        sim = GpuSimulator(baseline_config(num_cores=2), invariants=True)
        sim.load_workload([memory_block(0)], 1)
        sim.cores[0].warps_assigned += 1  # inject accounting corruption
        with pytest.raises(InvariantViolation) as excinfo:
            sim.run()
        exc = excinfo.value
        assert exc.kind == "invariant"
        assert any("warp ledger" in v for v in exc.violations)
        assert exc.snapshot is not None
        json.dumps(exc.snapshot)  # snapshot must be serializable

    def test_corrupted_unfinished_counter_is_caught(self):
        """The counter behind ``Core.drained``, and so behind the end of
        the run, must equal the recount of unfinished warps."""
        sim = GpuSimulator(baseline_config(num_cores=2), invariants=True)
        sim.load_workload([memory_block(0)], 1)
        sim.invariants.check(0)  # two resident warps, both unfinished
        sim.cores[0]._unfinished += 1
        with pytest.raises(InvariantViolation) as excinfo:
            sim.invariants.check(0)
        assert excinfo.value.violations == [
            "core 0 unfinished-warp counter 3 != 2 unfinished warps"
        ]

    def test_tampered_mrq_ledger_is_caught(self):
        sim = GpuSimulator(baseline_config(num_cores=2), invariants=True)
        sim.invariants = InvariantChecker(sim, interval=100)
        sim.load_workload([memory_block(0)], 1)
        sim.cores[0].mrq.total_completed += 3
        with pytest.raises(InvariantViolation) as excinfo:
            sim.run()
        assert any("MRQ entry ledger" in v for v in excinfo.value.violations)

    def test_tampered_prefetch_ledger_is_caught(self):
        sim = GpuSimulator(
            baseline_config(num_cores=2),
            lambda core_id: StrideRptPrefetcher(distance=1, degree=1),
            invariants=True,
        )
        sim.load_workload([memory_block(0)], 1)
        sim.cores[0].prefetch_generated += 5
        with pytest.raises(InvariantViolation) as excinfo:
            sim.run()
        assert any("prefetch pipeline ledger" in v
                   for v in excinfo.value.violations)

    def test_stale_posted_due_cycles_are_caught(self):
        sim = GpuSimulator(baseline_config(num_cores=2), invariants=True)
        sim.load_workload([memory_block(0)], 1)
        sim.invariants.check(0)  # an idle memory system posts nothing
        sim.dram.channels[3].due_cycle = 42
        with pytest.raises(InvariantViolation) as excinfo:
            sim.invariants.check(0)
        violations = excinfo.value.violations
        assert any("channel 3 posts due cycle 42" in v for v in violations)
        assert any("minimum of its channels" in v for v in violations)

    def test_corrupted_issue_mask_is_caught(self):
        sim = GpuSimulator(baseline_config(num_cores=2), invariants=True)
        sim.load_workload([memory_block(0)], 1)
        sim.invariants.check(0)  # both resident warps may issue
        sim.cores[0]._issuable ^= 1 << 1  # the second loses its bit
        with pytest.raises(InvariantViolation) as excinfo:
            sim.invariants.check(0)
        assert any("core 0 issue mask 0x1 != 0x3" in v
                   for v in excinfo.value.violations)

    def test_parked_warp_that_can_issue_is_caught(self):
        sim = GpuSimulator(baseline_config(num_cores=2), invariants=True)
        sim.load_workload([memory_block(0)], 1)
        core = sim.cores[0]
        core.warps[0].parked = True  # its first load waits on nothing
        core._issuable = 0b10
        with pytest.raises(InvariantViolation) as excinfo:
            sim.invariants.check(0)
        [violation] = excinfo.value.violations
        assert "core 0 warp 0 is parked but has finished or waits on no " \
            "load token" in violation


class TestDeadlockDiagnosis:
    def test_unsatisfiable_dependency_names_the_warp(self):
        # Token 7 is never produced by any load: the warp wedges forever.
        sim = GpuSimulator(baseline_config(num_cores=1))
        sim.load_workload([(0, [(0, [compute(0x20, wait_tokens=[7])])])], 1)
        with pytest.raises(DeadlockError) as excinfo:
            sim.run()
        exc = excinfo.value
        assert exc.kind == "deadlock"
        assert "unsatisfiable dependency" in str(exc)
        assert "warp 0" in str(exc)
        assert exc.snapshot is not None and exc.snapshot["cycle"] >= 0

    def test_watchdog_fires_after_quiet_window(self):
        sim = GpuSimulator(baseline_config(num_cores=1))
        sim.load_workload([(0, [(0, [compute(0x20, wait_tokens=[7])])])], 1)
        checker = InvariantChecker(sim, interval=1, watchdog_window=10)
        checker._watchdog(0)  # records the activity baseline
        with pytest.raises(DeadlockError) as excinfo:
            checker._watchdog(50)  # quiet for 50 > 10 cycles
        assert "no forward progress" in str(excinfo.value)

    def test_diagnose_reports_idle_machine_inconsistency(self):
        sim = GpuSimulator(baseline_config(num_cores=1))
        sim.load_workload([], 1)
        text = diagnose_no_progress(sim, 0)
        assert "inconsistent retirement state" in text


class TestTruncation:
    def make_slow_sim(self, **cfg_overrides):
        cfg = baseline_config(max_cycles=50, **cfg_overrides)
        sim = GpuSimulator(cfg)
        sim.load_workload(
            [(0, [(0, [load(0x10, 0, [0]), compute(0x20, wait_tokens=[0])])])],
            1,
        )
        return sim

    def test_truncated_run_is_flagged_not_silent(self):
        result = self.make_slow_sim().run()
        assert result.truncated
        assert result.stats.truncated
        assert result.stats.as_dict()["truncated"] is True

    def test_strict_run_raises_cycle_limit_exceeded(self):
        with pytest.raises(CycleLimitExceeded) as excinfo:
            self.make_slow_sim().run(strict=True)
        exc = excinfo.value
        assert exc.kind == "truncated"
        assert "max_cycles=50" in str(exc)
        assert exc.snapshot["cycle"] >= 50

    def test_completed_run_is_not_flagged(self):
        sim = GpuSimulator(baseline_config())
        sim.load_workload([(0, [(0, [compute()])])], 1)
        assert not sim.run(strict=True).truncated


class TestErrorTaxonomy:
    def sample_errors(self):
        snapshot = {"cycle": 7, "cores": []}
        return [
            SimulationError("base failure", snapshot=snapshot),
            DeadlockError("wedged", snapshot=snapshot),
            CycleLimitExceeded("out of cycles", snapshot=snapshot),
            InvariantViolation(
                "ledger imbalance",
                snapshot=snapshot,
                violations=["core 0 warp ledger: assigned 3 != retired 1 + 1"],
            ),
        ]

    def test_kinds(self):
        kinds = [e.kind for e in self.sample_errors()]
        assert kinds == ["simulation-error", "deadlock", "truncated", "invariant"]

    def test_errors_survive_pickling(self):
        """Pool workers raise these across a pipe; everything diagnostic
        must survive the pickle round trip."""
        for exc in self.sample_errors():
            clone = pickle.loads(pickle.dumps(exc))
            assert type(clone) is type(exc)
            assert str(clone) == str(exc)
            assert clone.snapshot == exc.snapshot
            assert clone.kind == exc.kind
            if isinstance(exc, InvariantViolation):
                assert clone.violations == exc.violations

    def test_report_round_trip(self, tmp_path):
        [_, _, _, violation] = self.sample_errors()
        report = violation.to_report()
        assert report["schema"] == FAILURE_REPORT_SCHEMA
        assert report["kind"] == "invariant"
        assert report["violations"] == violation.violations
        path = write_failure_report(tmp_path / "failure.json", report)
        assert load_failure_report(path) == report

    def test_report_write_is_atomic(self, tmp_path, monkeypatch):
        """A write that fails before it is published leaves no torn
        report for fsck to call corrupt, and no scratch temp either."""
        import os

        def refuse(*_args, **_kwargs):
            raise OSError(28, "No space left on device (injected)")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError):
            write_failure_report(tmp_path / "x.failure.json", {"kind": "x"})
        monkeypatch.undo()
        assert list(tmp_path.iterdir()) == []

    def test_simulation_errors_are_runtime_errors(self):
        # Callers that predate the taxonomy catch RuntimeError; the new
        # hierarchy must stay inside it.
        for exc in self.sample_errors():
            assert isinstance(exc, RuntimeError)
            assert isinstance(exc, SimulationError)
