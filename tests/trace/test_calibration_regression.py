"""Calibration regression guards.

These pin the qualitative regimes each benchmark was calibrated into
(DESIGN.md §2, benchmarks.py module docstring) at a reduced scale, so a
future change to the timing model that silently breaks a benchmark's
behaviour class fails here rather than only in the slow full benchmarks.
"""

import pytest

from repro.harness.runner import ExperimentRunner

#: (benchmark, scale, CPI bounds) — bounds are wide on purpose: they encode
#: the regime (latency-bound vs bandwidth-bound vs compute-bound), not the
#: calibrated value.
REGIMES = [
    ("monte", 0.5, 8.0, 30.0),      # latency-bound, prefetch-friendly
    ("stream", 0.5, 10.0, 30.0),    # bandwidth-bound
    ("backprop", 0.5, 12.0, 40.0),  # serial-chain latency-bound
    ("cell", 0.5, 6.0, 20.0),
    ("gaussian", 1.0, 4.0, 8.0),    # Table IV: not memory intensive
]


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner()


@pytest.mark.parametrize("name,scale,lo,hi", REGIMES)
def test_baseline_regime(name, scale, lo, hi):
    runner = ExperimentRunner(scale=scale)
    base = runner.run(name)
    assert lo <= base.cpi <= hi, f"{name}: CPI {base.cpi:.2f} left [{lo}, {hi}]"


def speedups(runner, benchmarks, **variant):
    """Each benchmark's speedup under ``variant`` over no prefetching."""
    rows = runner.grid(benchmarks, [{}, variant])
    return [result.speedup_over(base) for base, result in rows]


def test_prefetch_friendliness_ordering():
    """monte must stay more prefetch-friendly than stream."""
    runner = ExperimentRunner(scale=0.5)
    monte, stream = speedups(runner, ["monte", "stream"], hardware="mt-hwp")
    assert monte > stream
    assert monte > 1.2


def test_ip_targets_mp_type():
    """Software IP must keep helping the chained mp-type benchmark."""
    runner = ExperimentRunner(scale=0.5)
    backprop, monte = speedups(runner, ["backprop", "monte"], software="ip")
    assert backprop > 1.15
    assert abs(monte - 1.0) < 0.1


def test_stride_swp_targets_stride_type():
    runner = ExperimentRunner(scale=0.5)
    monte, backprop = speedups(runner, ["monte", "backprop"], software="stride")
    assert monte > 1.3
    assert abs(backprop - 1.0) < 0.1
