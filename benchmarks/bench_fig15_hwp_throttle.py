"""Figure 15: throttling/feedback for hardware prefetchers."""

from repro.harness import experiments
from repro.harness.report import format_speedup_figure


def test_figure15(benchmark, runner):
    result = benchmark.pedantic(
        experiments.figure15, args=(runner,), rounds=1, iterations=1
    )
    print()
    print(format_speedup_figure(result, "Figure 15 (hardware prefetcher throttling)"))
    means = result["geomean"]
    # MT-HWP beats the feedback-directed baselines on average.
    assert means["mt-hwp"] > means["ghb_feedback"]
    assert means["mt-hwp"] >= means["stride_pc_wid"] - 0.02
    # Adaptive MT-HWP stays comfortably above baseline overall.
    assert means["mt-hwp+T"] > 1.0
