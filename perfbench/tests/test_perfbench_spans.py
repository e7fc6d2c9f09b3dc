"""Self-time arithmetic and the per-layer aggregation, on synthetic spans."""

import pytest

from layers import pool_metrics, profile_metrics, span_metrics
from tracing import self_times, union_length


def span(span_id, parent, name, start, end, pid=1, attrs=None):
    return [span_id, parent, name, start, end, None, pid, attrs]


def test_union_length_merges_overlaps():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_length([(0, 10), (2, 3)]) == 10
    assert union_length([]) == 0


def test_self_time_subtracts_covered_part_of_children_only():
    spans = [
        span("1:1", None, "root", 0.0, 10.0),
        span("1:2", "1:1", "a", 1.0, 3.0),
        span("1:3", "1:1", "b", 2.0, 4.0),   # overlaps a: union is [1, 4]
        span("1:4", "1:1", "c", 8.0, 12.0),  # clipped to the parent: [8, 10]
        span("1:5", "1:2", "grandchild", 1.5, 2.5),
        span("2:1", "1:1", "worker", 0.0, 9.0, pid=2),  # other process
    ]
    selfs = self_times(spans)
    assert selfs["1:1"] == pytest.approx(10 - 3 - 2)
    assert selfs["1:2"] == pytest.approx(2 - 1)
    assert selfs["1:5"] == pytest.approx(1)
    assert selfs["2:1"] == pytest.approx(9)


def profile(cycles, iterations, wall, phases, prefetcher=0.0):
    names = ("deliver_responses", "deliver_requests", "dram", "throttle",
             "dispatch", "issue", "inject", "invariants", "event_skip")
    return {
        "cycles": cycles, "loop_iterations": iterations,
        "cycles_skipped": cycles - iterations, "wall_seconds": wall,
        "phases_wall_seconds": {**dict.fromkeys(names, 0.0), **phases,
                                "prefetcher": prefetcher},
        "active_cycles": {"core_issue": iterations // 2, "mrq_inject": 0,
                          "interconnect_request": 0,
                          "interconnect_response": 0, "dram": iterations},
        "counts": {"prefetcher_lookups": 4, "table_lookups": 10,
                   "table_hits": 5},
    }


def test_profile_phases_reconcile_with_sim_run_self_time():
    # The loop ran 1.0 s, 0.1 s of it in a checkpoint write made from
    # inside it: sim.run's self time is 0.9 s, the phases sum to 0.85 s.
    spans = [
        span("1:1", None, "cli.main", 0.0, 2.0),
        span("1:2", "1:1", "sim.run", 0.5, 1.5),
        span("1:3", "1:2", "checkpoint.write", 0.7, 0.8, attrs={"bytes": 2048}),
    ]
    metrics = span_metrics(spans, main_pid=1, launcher_start=-0.1,
                           spawn=-0.2, exit_=2.1)
    assert metrics["sim.run_s"] == pytest.approx(0.9)
    assert metrics["checkpoint.writes"] == 1
    assert metrics["checkpoint.kb"] == pytest.approx(2.0)
    docs = [profile(1000, 100, 0.6, {"issue": 0.3, "dram": 0.2}, prefetcher=0.05),
            profile(3000, 300, 0.4, {"issue": 0.2, "event_skip": 0.15})]
    loop = profile_metrics(docs, metrics["sim.run_s"])
    phase_sum = sum(loop[f"sim.{p}_s"] for p in (
        "issue", "dram", "deliver_requests", "deliver_responses", "inject",
        "event_skip", "dispatch", "throttle"))
    assert phase_sum == pytest.approx(0.85)
    assert phase_sum + loop["sim.loop_overhead_s"] == pytest.approx(0.9)
    assert loop["sim.loop_cycles_per_s"] == pytest.approx(4000 / 1.0)
    assert loop["sim.skip_ratio"] == pytest.approx(3600 / 4000)
    assert loop["sim.idle.core_issue"] == pytest.approx(0.5)
    assert loop["sim.idle.dram"] == pytest.approx(0.0)
    assert loop["core.prefetcher_share"] == pytest.approx(0.05 / 0.9)
    assert loop["core.table_hit_ratio"] == pytest.approx(0.5)


def test_unattributed_time_excludes_startup_teardown_and_layers():
    spans = [
        span("1:0", None, "cli.import", 0.1, 0.3),
        span("1:1", None, "cli.main", 0.3, 1.8),
        span("1:2", "1:1", "harness.sweep", 0.4, 1.6),
    ]
    metrics = span_metrics(spans, main_pid=1, launcher_start=0.1,
                           spawn=0.0, exit_=2.0)
    assert metrics["cli.interpreter_s"] == pytest.approx(0.1)
    assert metrics["cli.exit_s"] == pytest.approx(0.2)
    assert metrics["cli.self_s"] == pytest.approx(0.3)
    # 2.0 s of wall: 0.1 start-up, 0.2 import, 1.2 sweep, 0.2 teardown.
    assert metrics["tracing.unattributed_ratio"] == pytest.approx(0.3 / 2.0)


def test_pool_utilization_and_worker_gaps():
    spans = [
        span("1:1", None, "cli.main", 0.0, 10.0),
        span("1:2", "1:1", "harness.sweep", 1.0, 9.0),
        span("2:1", "1:2", "harness.run_spec", 1.0, 4.0, pid=2),
        span("2:2", "1:2", "harness.run_spec", 4.5, 9.0, pid=2),
        span("2:3", "2:2", "sim.run", 5.0, 8.0, pid=2),
        span("3:1", "1:2", "harness.run_spec", 1.0, 8.0, pid=3),
    ]
    pool = pool_metrics(spans, main_pid=1, jobs=2)
    assert pool["harness.pool_utilization"] == pytest.approx((3 + 4.5 + 7) / 16)
    assert pool["harness.worker_gap_ms"] == pytest.approx(500)
    serial = pool_metrics(spans[:2], main_pid=1, jobs=1)
    assert serial == {"harness.pool_utilization": 0.0,
                      "harness.worker_gap_ms": 0.0}
