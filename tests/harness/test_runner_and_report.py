"""Tests for the experiment runner, scheme registry, and report formatting."""

import pytest

from repro.harness.report import (
    format_speedup_figure,
    format_sweep,
    format_table,
)
from repro.harness.runner import (
    HARDWARE_SCHEMES,
    ExperimentRunner,
    WorkloadMemo,
    geometric_mean,
    make_spec,
    resolve_software,
    run_benchmark,
)
from repro.trace.benchmarks import get_benchmark
from repro.trace.swp import MT_SWP, SoftwarePrefetchConfig


class TestWorkloadMemoKey:
    """Specs share a memoized trace exactly when their traces are equal."""

    def traces(self, software, distances):
        memo = WorkloadMemo()
        kernel = get_benchmark("monte", scale=0.1)
        workloads = [
            memo.get(kernel, make_spec("monte", software=software,
                                       hardware="mt-hwp", distance=d).software)
            for d in distances
        ]
        return memo, workloads

    def test_unused_distance_shares_one_entry(self):
        """Without stride prefetching the distance never reaches the trace
        (a hardware distance sweep), so it must not split the memo."""
        memo, workloads = self.traces("none", (1, 3, 5, 7))
        assert memo.misses == 1
        assert memo.hits == 3
        assert all(w.blocks is workloads[0].blocks for w in workloads)

    @pytest.mark.parametrize("software", ["stride", "mt-swp"])
    def test_used_distance_keeps_separate_entries(self, software):
        memo, (near, far) = self.traces(software, (1, 3))
        assert memo.misses == 2
        assert memo.hits == 0
        assert near.blocks != far.blocks


class TestSchemeRegistry:
    def test_all_paper_schemes_present(self):
        for name in (
            "none", "stride_rpt", "stride_rpt_wid", "stride_pc",
            "stride_pc_wid", "stream", "stream_wid", "ghb", "ghb_wid",
            "ghb_feedback", "stride_pc_throttle", "mt-hwp",
            "mt-hwp:pws", "mt-hwp:pws+gs", "mt-hwp:pws+ip",
        ):
            assert name in HARDWARE_SCHEMES

    def test_builders_respect_distance_degree(self):
        pref = HARDWARE_SCHEMES["stride_pc_wid"](3, 2)
        assert pref.distance == 3 and pref.degree == 2

    def test_mt_hwp_ablation_flags(self):
        pws_only = HARDWARE_SCHEMES["mt-hwp:pws"](1, 1)
        assert pws_only.enable_pws and not pws_only.enable_gs
        assert not pws_only.enable_ip
        full = HARDWARE_SCHEMES["mt-hwp"](1, 1)
        assert full.enable_pws and full.enable_gs and full.enable_ip

    def test_resolve_software(self):
        assert resolve_software("mt-swp") is MT_SWP
        cfg = SoftwarePrefetchConfig(stride=True, distance=4)
        assert resolve_software(cfg) is cfg
        with pytest.raises(KeyError):
            resolve_software("bogus")

    def test_unknown_hardware_scheme_raises(self):
        with pytest.raises(KeyError):
            run_benchmark("monte", hardware="bogus", scale=0.05)

    def test_scheme_named_missing_is_dispatchable(self):
        """Membership dispatch must not confuse a real scheme with the old
        'missing' sentinel string."""
        from repro.core.stride_pc import StridePcPrefetcher
        from repro.harness.runner import make_spec

        HARDWARE_SCHEMES["missing"] = lambda d, g: StridePcPrefetcher(
            distance=d, degree=g
        )
        try:
            spec = make_spec("cell", hardware="missing", scale=0.05)
            assert spec.hardware == "missing"
        finally:
            del HARDWARE_SCHEMES["missing"]
        with pytest.raises(KeyError):
            make_spec("cell", hardware="missing", scale=0.05)


class TestDistanceSentinel:
    """An explicit distance always applies; None keeps scheme defaults."""

    def test_explicit_distance_one_overrides_software_scheme(self):
        from repro.harness.runner import make_spec
        from repro.trace.swp import SoftwarePrefetchConfig

        swp = SoftwarePrefetchConfig(stride=True, distance=4)
        spec = make_spec("cell", software=swp, distance=1)
        assert spec.software.distance == 1
        assert spec.distance == 1

    def test_default_keeps_software_scheme_distance(self):
        from repro.harness.runner import make_spec
        from repro.trace.swp import SoftwarePrefetchConfig

        swp = SoftwarePrefetchConfig(stride=True, distance=4)
        spec = make_spec("cell", software=swp)
        assert spec.software.distance == 4
        assert spec.distance == 1  # hardware default is unaffected

    def test_explicit_distance_propagates_to_both(self):
        from repro.harness.runner import make_spec

        spec = make_spec("cell", software="stride", hardware="mt-hwp", distance=5)
        assert spec.software.distance == 5
        assert spec.distance == 5

    def test_run_benchmark_applies_explicit_distance_one(self):
        """Regression: distance=1 used to be silently ignored.

        monte has real stride-delinquent loop loads, so its trace (and
        stats) genuinely depend on the software distance — cell would
        pass this vacuously (loop_iters=0, no stride insertion sites).
        """
        from repro.trace.swp import SoftwarePrefetchConfig

        swp = SoftwarePrefetchConfig(stride=True, distance=6)
        near = run_benchmark("monte", software=swp, distance=1, scale=0.1)
        far = run_benchmark("monte", software=swp, scale=0.1)
        default = run_benchmark(
            "monte", software=SoftwarePrefetchConfig(stride=True, distance=1),
            scale=0.1,
        )
        # distance=1 must behave exactly like a scheme built with distance 1,
        # not like the untouched distance-6 scheme.
        assert near.cycles > 0
        assert near.stats.to_dict() == default.stats.to_dict()
        assert near.stats.to_dict() != far.stats.to_dict()


class TestTypedBenchmarkField:
    def test_stats_carry_benchmark_name(self):
        result = run_benchmark("cell", scale=0.05)
        assert result.stats.benchmark == "cell"
        assert result.stats.as_dict()["benchmark"] == "cell"
        assert "benchmark" not in result.stats.extra


class TestRunnerCaching:
    def test_cache_hit_returns_same_object(self):
        runner = ExperimentRunner(scale=0.1, use_cache=False)
        a = runner.run("cell")
        b = runner.run("cell")
        assert a is b
        assert runner.engine.simulated == 1

    def test_different_schemes_are_distinct_runs(self):
        runner = ExperimentRunner(scale=0.1, use_cache=False)
        runner.run("cell")
        runner.run("cell", hardware="mt-hwp")
        assert runner.engine.simulated == 2

    def test_speedup_uses_shared_baseline(self):
        runner = ExperimentRunner(scale=0.1, use_cache=False)
        [[base, variant]] = runner.grid(["cell"], [{}, {"hardware": "mt-hwp"}])
        assert variant.speedup_over(base) > 0
        assert runner.run("cell") is base
        assert runner.engine.simulated == 2


class TestMeans:
    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert geometric_mean([]) == 0.0

    def test_geometric_mean_warns_on_dropped_nonpositive(self):
        with pytest.warns(RuntimeWarning, match="non-positive"):
            assert geometric_mean([2.0, 0.0]) == 2.0  # nonpositive filtered
        with pytest.warns(RuntimeWarning, match="non-positive"):
            assert geometric_mean([0.0, -1.0]) == 0.0


class TestReportFormatting:
    def test_format_table_alignment(self):
        rows = [{"a": "x", "b": 1.5}, {"a": "longer", "b": 22.125}]
        out = format_table(rows, ["a", "b"], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "1.50" in out and "22.12" in out
        assert len({len(line) for line in lines[1:]}) <= 2  # aligned

    def test_format_speedup_figure(self):
        result = {
            "rows": [
                {"benchmark": "x", "s1": 1.5, "s2": 0.9},
                {"benchmark": "y", "s1": 1.1, "s2": 1.3},
            ],
            "geomean": {"s1": 1.28, "s2": 1.08},
        }
        out = format_speedup_figure(result, "Fig")
        assert "geomean" in out and "Fig" in out

    def test_format_sweep(self):
        result = {"A": {1: 1.0, 2: 1.5}, "B": {1: 0.9, 2: 1.1}}
        out = format_sweep(result, "Sweep", "x")
        assert "Sweep" in out
        assert out.splitlines()[1].startswith("x")


class TestBarChart:
    def test_basic_rendering(self):
        from repro.harness.report import format_bar_chart

        out = format_bar_chart({"a": 2.0, "b": 1.0, "c": 0.5}, "Chart")
        lines = out.splitlines()
        assert lines[0] == "Chart"
        assert "2.00" in lines[1]
        # The largest bar has the most fill characters.
        assert lines[1].count("#") > lines[3].count("#")

    def test_reference_marker_appears_for_sub_reference_bars(self):
        from repro.harness.report import format_bar_chart

        out = format_bar_chart({"x": 0.5, "y": 2.0}, "C")
        assert "|" in out.splitlines()[1]

    def test_empty(self):
        from repro.harness.report import format_bar_chart

        assert "(no data)" in format_bar_chart({}, "Empty")
