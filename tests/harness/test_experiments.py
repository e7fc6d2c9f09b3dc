"""Smoke tests for the per-figure experiment functions on tiny grids."""

import pytest

from repro.harness import experiments, runner as runner_module
from repro.harness.runner import ExperimentRunner, WorkloadMemo
from repro.harness.sweep import fingerprint
from repro.sim.gpu import SimulationResult
from repro.sim.stats import SimStats
from repro.trace.benchmarks import get_benchmark

SUBSET = ["cell", "monte"]


@pytest.fixture(scope="module")
def runner():
    # Tiny grids: these tests exercise plumbing and result shape, not
    # reproduction quality (that is the benchmarks/ directory's job).
    return ExperimentRunner(scale=0.12)


class TestTableFunctions:
    def test_table3_shape(self, runner):
        rows = experiments.table3(runner, subset=SUBSET)
        assert [r["benchmark"] for r in rows] == SUBSET
        for row in rows:
            assert row["base_cpi"] > 0
            assert row["pmem_cpi"] > 0
            assert row["paper_base_cpi"] > 0

    def test_table4_shape(self, runner):
        rows = experiments.table4(runner, subset=["gaussian"])
        assert rows[0]["benchmark"] == "gaussian"
        assert rows[0]["hwp_cpi"] > 0

    def test_table6_is_exact(self):
        result = experiments.table6()
        assert result["total_bytes"] == 557
        assert result["tables"]["PWS"]["entries"] == 32


class TestFigureFunctions:
    def test_figure7_analytical(self):
        points = experiments.figure7(max_warps=16)
        assert len(points) == 16
        assert {"warps", "mtaml", "mtaml_pref", "effect"} <= set(points[0])

    def test_figure8(self, runner):
        rows = experiments.figure8(runner, subset=SUBSET)
        assert all(r["normalized_latency"] >= 0 for r in rows)

    def test_figure10(self, runner):
        result = experiments.figure10(runner, subset=SUBSET)
        assert set(result["geomean"]) == {"register", "stride", "ip", "mt-swp"}
        assert all(v > 0 for v in result["geomean"].values())

    def test_figure11(self, runner):
        result = experiments.figure11(runner, subset=SUBSET)
        assert "mt-swp+T" in result["geomean"]

    def test_figure12(self, runner):
        rows = experiments.figure12(runner, subset=SUBSET)
        assert all(r["bandwidth_swp"] > 0 for r in rows)

    def test_figure13(self, runner):
        result = experiments.figure13(runner, subset=["cell"])
        assert set(result["geomean_naive"]) == {
            "stride_rpt", "stride_pc", "stream", "ghb"
        }

    def test_figure14(self, runner):
        result = experiments.figure14(runner, subset=["cell"])
        assert "mt-hwp" in result["geomean"]

    def test_figure15(self, runner):
        result = experiments.figure15(runner, subset=["cell"])
        assert "mt-hwp+T" in result["geomean"]

    def test_figure16(self, runner):
        result = experiments.figure16(runner, subset=["cell"], sizes_kb=(1, 16))
        assert set(result["MT-HWP"]) == {1, 16}

    def test_figure17(self, runner):
        result = experiments.figure17(runner, subset=["cell"], distances=(1, 5))
        assert set(result["geomean"]) == {1, 5}

    def test_figure18(self, runner):
        result = experiments.figure18(runner, subset=["cell"], core_counts=(8, 14))
        assert set(result["MT-SWP"]) == {8, 14}


class UnreachableEngine:
    """An engine no read may reach: an exhibit takes every point from
    its one sweep, never simulating one alone outside ``--jobs`` and
    ``--timeout``."""

    def run(self, specs):
        raise AssertionError(f"read a point its sweep did not warm: {specs}")


class RecordingRunner(ExperimentRunner):
    """Records the specs each sweep would simulate, in serial order.

    Nothing is simulated: every warmed point gets the same stub result,
    so the exhibit code after its sweep runs to completion.  Like the
    sweep engine, a spec requested twice is recorded once.
    """

    def __init__(self) -> None:
        super().__init__(scale=0.5, use_cache=False)
        self.engine = UnreachableEngine()
        self.specs = []
        self.warm_calls = 0

    def warm(self, requests):
        self.warm_calls += 1
        outcomes = []
        for request in requests:
            spec = self._spec(**request)
            key = fingerprint(spec)
            if key not in self._cache:
                self.specs.append(spec)
                self._cache[key] = SimulationResult(
                    SimStats(cycles=1000, instructions=100)
                )
            outcomes.append(self._cache[key])
        return outcomes


SWEPT_EXHIBITS = {
    "table3": experiments.table3,
    "table4": experiments.table4,
    "fig8": experiments.figure8,
    "fig10": experiments.figure10,
    "fig11": experiments.figure11,
    "fig12": experiments.figure12,
    "fig13": experiments.figure13,
    "fig14": experiments.figure14,
    "fig15": experiments.figure15,
    "fig16": experiments.figure16,
    "fig17": experiments.figure17,
    "fig18": experiments.figure18,
}


@pytest.mark.parametrize("exhibit", sorted(SWEPT_EXHIBITS))
def test_exhibit_grid_reuses_each_trace_back_to_back(exhibit, monkeypatch):
    """The trace memo holds one workload, so an exhibit whose grid
    interleaves traces would silently regenerate them.  Replaying each
    full grid's serial request order through the memo must hit exactly
    as often as an unbounded memo would."""
    runner = RecordingRunner()
    SWEPT_EXHIBITS[exhibit](runner)
    monkeypatch.setattr(
        runner_module, "generate_workload", lambda kernel, swp: object()
    )
    memo = WorkloadMemo()
    keys = []
    for spec in runner.specs:
        kernel = get_benchmark(spec.benchmark, scale=spec.scale)
        memo.get(kernel, spec.software)
        keys.append(WorkloadMemo.key(kernel, spec.software))
    assert memo.misses + memo.hits == len(keys) > 0
    assert memo.hits == len(keys) - len(set(keys))


@pytest.mark.parametrize("exhibit", sorted(SWEPT_EXHIBITS))
def test_exhibit_sweeps_its_whole_grid_once(exhibit):
    """An exhibit sends its whole grid in one warm call and reads
    nothing else: a second sweep, or a read of a point no sweep warmed
    (which reaches the engine), fails here."""
    runner = RecordingRunner()
    SWEPT_EXHIBITS[exhibit](runner)
    assert runner.warm_calls == 1
    assert runner.specs
