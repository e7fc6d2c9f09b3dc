"""The benchmark's seed, correctness accounting and traced path.

The tests that spawn ``repro`` use one benchmark at a small scale, so
each sample takes about a second.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import calibrate
from conftest import BENCH, ROOT
from layers import layer_metrics, load_profiles
from run import Ledger
from sample import read_cache, run_sample, stats_digest, unexpected_runs
from tracing import SPAN_DIR_ENV, load_spans
from workloads import MEMORY_SUBSET, WORKLOADS, benchmarks_for, cli_args

from repro.trace.benchmarks import BENCHMARK_TYPES, COMPUTE_BENCHMARKS

SMALL = ["figure", "fig15", "--scale", "0.1", "--jobs", "1", "--subset", "cell"]


def test_memory_subset_takes_table_iii_classes():
    types = sorted(BENCHMARK_TYPES[name] for name in MEMORY_SUBSET)
    assert types == ["mp", "stride", "stride", "uncoal"]


def test_seed_orders_the_same_set_of_benchmarks():
    fig15 = WORKLOADS["fig15-cold"]
    orders = {tuple(benchmarks_for(fig15, seed)) for seed in range(6)}
    assert len(orders) > 1
    assert all(sorted(o) == sorted(MEMORY_SUBSET) for o in orders)
    table4 = benchmarks_for(WORKLOADS["table4-cold"], 3)
    assert sorted(table4) == sorted(COMPUTE_BENCHMARKS)
    assert benchmarks_for(fig15, 3) == benchmarks_for(fig15, 3)


def test_pooled_workload_keeps_the_exhibit_order():
    fig17 = WORKLOADS["fig17-pooled"]
    assert all(benchmarks_for(fig17, seed) == list(MEMORY_SUBSET)
               for seed in range(6))


def test_observed_workload_sets_every_observer():
    args = cli_args(WORKLOADS["fig17-pooled"], ["monte"])
    for flag in ("--manifest", "--metrics-dir", "--checkpoint-dir",
                 "--checkpoint-interval", "--heartbeat-interval"):
        assert flag in args
    assert "--manifest" not in cli_args(WORKLOADS["fig15-cold"], ["monte"])


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    sample = run_sample(ROOT, tmp_path_factory.mktemp("ref"), SMALL)
    assert sample.returncode == 0, sample.stderr
    assert sample.stats and sample.cycles > 0
    return sample


def test_identical_samples_count_no_failure(reference, tmp_path):
    again = run_sample(ROOT, tmp_path, SMALL)
    ledger = Ledger()
    ledger.compare(reference, again, "again")
    assert (ledger.attempted, ledger.failed) == (len(reference.stats), 0)
    assert again.digest() == reference.digest()


def test_planted_failing_run_counts_in_fail_ratio(reference, tmp_path):
    # A 1 MB budget fails every run structurally at its first check.
    planted = run_sample(ROOT, tmp_path, SMALL + ["--memory-budget", "1"])
    assert planted.returncode != 0
    ledger = Ledger()
    ledger.compare(reference, planted, "planted")
    assert ledger.failed == len(reference.stats) - len(planted.stats) > 0
    assert ledger.problems


def test_one_changed_statistic_is_one_failed_run(reference):
    key = sorted(reference.stats)[0]
    stats = dict(reference.stats)
    stats[key] = {**stats[key], "cycles": stats[key]["cycles"] + 1}
    ledger = Ledger()
    ledger.compare(reference, replace(reference, stats=stats), "tampered")
    assert ledger.failed == 1
    ledger.compare(reference, replace(reference, exhibit="other"), "render")
    assert ledger.failed == 2


def test_expected_digests_count_changed_missing_and_extra_runs(reference):
    expected = sorted(reference.run_digests().values())
    assert unexpected_runs(expected, reference) == []
    keys = sorted(reference.stats)
    changed = dict(reference.stats)
    changed[keys[0]] = {**changed[keys[0]], "cycles": changed[keys[0]]["cycles"] + 1}
    assert unexpected_runs(expected, replace(reference, stats=changed)) == [keys[0]]
    fewer = {k: v for k, v in reference.stats.items() if k != keys[1]}
    assert unexpected_runs(expected, replace(reference, stats=fewer)) == [
        "<missing expected run>"]
    extra = {**reference.stats, "extra": {"cycles": 1}}
    assert unexpected_runs(expected, replace(reference, stats=extra)) == ["extra"]
    assert stats_digest(reference.stats[keys[0]]) in expected


def test_torn_and_scratch_cache_files_are_skipped_not_fatal(reference, tmp_path):
    cache = tmp_path / "cache"
    shutil.copytree(reference.directory / "cache", cache)
    entry = sorted(cache.glob("v*/??/*.json"))[0]
    (entry.parent / f".tmp-1-{entry.name}").write_text("{")
    entry.write_text('{"key": ')
    stats = read_cache(cache)
    assert len(stats) == len(reference.stats) - 1
    assert entry.stem not in stats


def test_traced_sample_reconciles_and_leaves_stats_alone(reference, tmp_path):
    spans = tmp_path / "spans"
    spans.mkdir()
    traced = run_sample(
        ROOT, tmp_path, SMALL + ["--profile", "profiles"],
        launcher=[sys.executable, str(BENCH / "traced_cli.py")],
        extra_env={SPAN_DIR_ENV: str(spans)})
    assert traced.returncode == 0, traced.stderr
    assert traced.stats == reference.stats
    assert traced.exhibit == reference.exhibit
    launcher = json.loads((spans / "launcher.json").read_text())
    profiles, unreadable = load_profiles(tmp_path / "profiles")
    assert unreadable == []
    metrics = layer_metrics(load_spans(str(spans)), launcher, traced.spawn,
                            traced.exit, 1, profiles, traced.stats.values())
    runs = len(reference.stats)
    assert metrics["harness.runs_executed"] == runs
    assert metrics["sim.loop_iterations"] > 0
    assert 0 <= metrics["sim.loop_overhead_s"] < 0.2 * metrics["sim.run_s"]
    assert metrics["trace.generate_calls"] == 1
    assert metrics["trace.memo_hit_ratio"] == pytest.approx(1 - 1 / runs)
    assert metrics["checkpoint.writes"] == metrics["telemetry.windows"] == 0
    assert metrics["harness.pool_utilization"] == 0
    assert metrics["tracing.unattributed_ratio"] < 0.05


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig15-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_speed_factor_rescales_to_the_reference_piece_time():
    reference = calibrate.REFERENCE_S
    assert calibrate.speed_factor([reference] * 3) == pytest.approx(1.0)
    # A host at half speed takes twice as long per piece, so its timings
    # are halved; the factor follows the mean piece over the whole run.
    assert calibrate.speed_factor([2 * reference] * 4) == pytest.approx(0.5)
    assert calibrate.speed_factor(
        [reference, 3 * reference]) == pytest.approx(0.5)
    assert calibrate.piece() > 0


def test_peak_rss_is_the_sample_not_the_spawning_process(reference, tmp_path):
    # This process now holds 150 MB more; a sample's peak resident set
    # must not count it.
    ballast = bytearray(150 << 20)
    ballast[::4096] = b"x" * len(ballast[::4096])
    sample = run_sample(ROOT, tmp_path, SMALL)
    assert abs(sample.peak_rss_mb - reference.peak_rss_mb) < 20
    assert sample.peak_rss_mb < 150
    del ballast
