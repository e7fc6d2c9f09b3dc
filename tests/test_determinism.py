"""Determinism regression suite.

The hot-path optimization work (PR 3) is only legal because it is
*observationally invisible*: the optimized simulator must produce
byte-identical serialized :class:`~repro.sim.stats.SimStats` for every
workload.  These tests pin that down three ways:

1. against ``tests/data/golden_stats.json`` — stats captured from the
   pre-optimization simulator, so any optimization that changes
   simulated behavior (not just speed) fails loudly;
2. same spec run twice in one process — byte-identical;
3. with and without an attached profiler — the profiling subsystem
   observes the run without perturbing it.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.harness.runner import make_spec, run_spec
from repro.harness.sweep import RunOptions
from repro.sim.profiling import SimProfiler

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_stats.json"


def canonical_stats(result) -> bytes:
    """The canonical byte serialization the golden hashes are taken over."""
    doc = result.stats.to_dict()
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def sha256(result) -> str:
    return hashlib.sha256(canonical_stats(result)).hexdigest()


def golden_runs():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)["runs"]


@pytest.mark.parametrize(
    "run", golden_runs(),
    ids=lambda run: "-".join(
        str(run["request"][k])
        for k in ("benchmark", "hardware", "software")
    ),
)
def test_stats_match_pre_optimization_golden(run):
    """Optimized simulator == seed simulator, bit for bit."""
    spec = make_spec(**run["request"])
    result = run_spec(spec)
    assert sha256(result) == run["sha256"], (
        "serialized SimStats diverged from the pre-optimization golden "
        f"capture for {run['request']}"
    )


def test_same_spec_twice_is_byte_identical():
    spec = make_spec("cell", software="stride", throttle=True, scale=0.25)
    first = canonical_stats(run_spec(spec))
    second = canonical_stats(run_spec(spec))
    assert first == second


def test_profiler_does_not_perturb_stats(tmp_path):
    """A profiled run and an unprofiled run serialize identically."""
    request = dict(benchmark="backprop", hardware="mt-hwp",
                   throttle=True, scale=0.25)
    plain = canonical_stats(run_spec(make_spec(**request)))
    profiled = canonical_stats(
        run_spec(make_spec(**request), RunOptions(profile_dir=tmp_path / "p.json"))
    )
    assert plain == profiled
    assert (tmp_path / "p.json").exists()


def test_fresh_simulator_instances_are_independent():
    """No state leaks between back-to-back GpuSimulator builds.

    Regression guard for the shared-empty-result optimization: the
    interconnect/DRAM fast paths return a module-level empty tuple, which
    would corrupt runs if any caller mutated it.
    """
    spec = make_spec("cell", scale=0.25)
    baseline = sha256(run_spec(spec))
    # Interleave a different workload, then re-run the first.
    run_spec(make_spec("backprop", hardware="mt-hwp", throttle=True, scale=0.25))
    assert sha256(run_spec(spec)) == baseline


def test_golden_hashes_self_consistent():
    """The golden file's embedded stats match its own hashes."""
    for run in golden_runs():
        canon = json.dumps(
            run["stats"], sort_keys=True, separators=(",", ":")
        ).encode()
        assert hashlib.sha256(canon).hexdigest() == run["sha256"]
