"""Windowed-telemetry suite: exactness, purity, and resume identity.

The :mod:`repro.sim.telemetry` contract has three load-bearing claims,
each pinned here:

1. **Exactness.**  Per-counter sums over the window series reconcile
   *exactly* with the run's final counters — against
   :class:`~repro.sim.stats.SimStats` for every counter with an
   aggregate field (:data:`SIMSTATS_EQUIVALENTS`), and against the
   per-core machine counters for the rest.  No sampling loss, ever.
2. **Purity.**  Attaching a recorder changes nothing the simulation can
   observe: a metrics-enabled run serializes bit-identically to an
   unobserved one, and both match the committed pre-telemetry golden
   capture.
3. **Resume identity.**  A run interrupted mid-flight and restored from
   its checkpoint replays the remaining samples at the same cycles with
   the same deltas — the resumed window series is bit-identical to an
   uninterrupted control run's.
"""

import dataclasses
import json
import weakref
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.harness.runner import (
    HARDWARE_SCHEMES,
    make_spec,
    metrics_path_for,
    run_spec,
)
from repro.harness.sweep import RunOptions, fingerprint
from repro.sim.checkpoint import (
    attach_checkpointing,
    load_checkpoint,
    restore_simulator,
)
from repro.sim.gpu import GpuSimulator, PeriodicHook
from repro.sim.telemetry import (
    COUNTERS,
    DEFAULT_METRICS_INTERVAL,
    GAUGES,
    METRICS_SCHEMA,
    SIMSTATS_EQUIVALENTS,
    MetricsRecorder,
    to_chrome_trace,
    validate_metrics_document,
)
from repro.trace.benchmarks import get_benchmark
from repro.trace.tracegen import generate_workload

from tests.test_determinism import canonical_stats, golden_runs, sha256

#: A small spec that exercises the full counter schema: a hardware
#: prefetcher (issue/useful/late/merged/dropped series), the adaptive
#: throttle (drop series), and enough cycles for several windows.
REQUEST = dict(benchmark="cell", hardware="mt-hwp", throttle=True, scale=0.1)

INTERVAL = 250

#: Test-side handles (factory, workload) of each simulator
#: :func:`build_sim` made, kept off the simulator because a snapshot
#: stores every attribute the simulator has.
BUILT = weakref.WeakKeyDictionary()


def effective_config(spec):
    """The config a run of ``spec`` simulates under (throttle merged in)."""
    cfg = spec.config
    if spec.throttle != cfg.throttle.enabled:
        cfg = cfg.replace(
            throttle=dataclasses.replace(cfg.throttle, enabled=spec.throttle)
        )
    return cfg


def build_sim(spec, metrics=None):
    """Construct and load a simulator for ``spec``, run_spec-equivalent."""
    cfg = effective_config(spec)
    builder = HARDWARE_SCHEMES[spec.hardware]
    factory = (
        (lambda core_id: builder(spec.distance, spec.degree))
        if builder is not None else None
    )
    kernel = get_benchmark(spec.benchmark, scale=spec.scale)
    workload = generate_workload(kernel, swp=spec.software)
    sim = GpuSimulator(cfg, factory, metrics=metrics)
    sim.load_workload(workload.blocks, workload.max_blocks_per_core)
    BUILT[sim] = SimpleNamespace(factory=factory, workload=workload)
    return sim


def recorded_run(tmp_path, interval=INTERVAL, **overrides):
    """Run REQUEST (with overrides) metrics-enabled; return (result, doc)."""
    request = {**REQUEST, **overrides}
    spec = make_spec(**request)
    path = metrics_path_for(spec, tmp_path)
    result = run_spec(
        spec, RunOptions(metrics_dir=tmp_path, metrics_interval=interval)
    )
    with open(path, "r", encoding="utf-8") as fh:
        return result, json.load(fh)


# -- exactness ---------------------------------------------------------


def test_document_validates_and_windows_cover_the_run(tmp_path):
    result, doc = recorded_run(tmp_path)
    validate_metrics_document(doc)
    assert doc["schema"] == METRICS_SCHEMA
    assert doc["benchmark"] == "cell"
    assert doc["cycles"] == result.stats.cycles
    assert doc["num_cores"] == result.stats.num_cores
    windows = doc["windows"]
    assert len(windows) >= 3, "expected several windows at this interval"
    assert windows[0]["start"] == 0
    assert windows[-1]["end"] == result.stats.cycles
    for earlier, later in zip(windows, windows[1:]):
        assert later["start"] == earlier["end"]


def test_window_totals_reconcile_exactly_with_simstats(tmp_path):
    """Every counter with a SimStats aggregate matches it to the unit."""
    result, doc = recorded_run(tmp_path)
    stats = result.stats
    for counter, field in SIMSTATS_EQUIVALENTS.items():
        window_sum = sum(window[counter] for window in doc["windows"])
        assert window_sum == doc["totals"][counter] == getattr(stats, field), (
            f"counter {counter!r} does not reconcile with SimStats.{field}"
        )


def test_counters_without_simstats_fields_reconcile_with_machine(tmp_path):
    """The rest reconcile against the per-core machine counters.

    Uses a single-entry MRQ so multi-line instructions must issue in
    chunks and bounce off a full queue — under the baseline 512-entry
    queue (or any size the smallest instruction fits in whole) the
    all-at-once room check stalls the warp *before* the queue is
    touched, which would leave ``mrq_full_rejections`` untested.
    """
    from repro.sim.config import baseline_config

    base = baseline_config()
    cfg = base.replace(core=dataclasses.replace(base.core, mrq_size=1))
    recorder = MetricsRecorder(interval=INTERVAL)
    sim = build_sim(make_spec(**REQUEST, config=cfg), metrics=recorder)
    sim.run()
    machine = {
        "warps_retired": sum(c.warps_retired for c in sim.cores),
        "mrq_full_rejections": sum(
            c.mrq.total_full_rejections for c in sim.cores
        ),
        "prefetches_merged": sum(
            c.mrq.total_prefetch_merged for c in sim.cores
        ),
        "prefetches_dropped": sum(
            c.prefetch_throttled + c.mrq.total_prefetch_dropped_full
            for c in sim.cores
        ),
        "throttle_drops": sum(c.throttle.total_dropped for c in sim.cores),
    }
    assert set(machine) == set(COUNTERS) - set(SIMSTATS_EQUIVALENTS)
    doc = recorder.to_dict()
    validate_metrics_document(doc)
    for counter, expected in machine.items():
        assert sum(w[counter] for w in doc["windows"]) == expected
    assert machine["mrq_full_rejections"] > 0, (
        "spec no longer exercises MRQ full-queue rejections; pick one that does"
    )


def test_every_window_carries_the_full_schema(tmp_path):
    _, doc = recorded_run(tmp_path)
    for window in doc["windows"]:
        for key in ("index", "start", "end", "cycles", "ipc") + COUNTERS + GAUGES:
            assert key in window
        assert 0.0 <= window["throttle_keep_fraction_min"] <= 1.0
        assert window["ipc"] >= 0.0


def test_ring_bound_drops_oldest_but_totals_stay_exact():
    recorder = MetricsRecorder(interval=INTERVAL, max_windows=2)
    sim = build_sim(make_spec(**REQUEST), metrics=recorder)
    result = sim.run()
    assert recorder.windows_dropped > 0
    assert len(recorder.windows) == 2
    assert recorder.windows_emitted == len(recorder.windows) + recorder.windows_dropped
    # Totals are cumulative snapshots, untouched by ring eviction.
    assert recorder.totals["instructions"] == result.stats.instructions
    assert recorder.windows[-1]["end"] == result.stats.cycles


# -- purity ------------------------------------------------------------


def test_recorder_does_not_perturb_stats(tmp_path):
    """Metrics-enabled and unobserved runs serialize identically."""
    plain = canonical_stats(run_spec(make_spec(**REQUEST)))
    recorded = canonical_stats(
        run_spec(
            make_spec(**REQUEST),
            RunOptions(metrics_dir=tmp_path, metrics_interval=INTERVAL),
        )
    )
    assert plain == recorded
    assert metrics_path_for(make_spec(**REQUEST), tmp_path).exists()


def test_recorded_run_matches_pre_telemetry_golden(tmp_path):
    """A metrics-enabled run still matches the committed golden capture."""
    run = next(
        r for r in golden_runs()
        if r["request"].get("hardware") == "mt-hwp" and r["request"].get("throttle")
    )
    result = run_spec(
        make_spec(**run["request"]),
        RunOptions(
            metrics_dir=tmp_path, metrics_interval=DEFAULT_METRICS_INTERVAL
        ),
    )
    assert sha256(result) == run["sha256"]


# -- resume identity ---------------------------------------------------


def test_kill_and_resume_reproduces_identical_window_series(tmp_path):
    """Interrupt mid-run, restore, finish: window series bit-identical."""
    spec = make_spec(**REQUEST)
    control_rec = MetricsRecorder(interval=INTERVAL)
    control = build_sim(spec, metrics=control_rec)
    control.run()
    control_doc = control_rec.to_dict()
    assert len(control_doc["windows"]) >= 4

    ckpt = tmp_path / "run.ckpt.json"
    interrupted_rec = MetricsRecorder(interval=INTERVAL)
    interrupted = build_sim(spec, metrics=interrupted_rec)
    attach_checkpointing(interrupted, ckpt, interval=3 * INTERVAL, fingerprint="t")

    class _Kill(Exception):
        pass

    def _die_mid_run(sim):
        if sim.cycle >= 4 * INTERVAL:
            raise _Kill

    interrupted.hooks.append(
        PeriodicHook(INTERVAL, _die_mid_run, interrupted.cycle)
    )
    with pytest.raises(_Kill):
        interrupted.run()
    assert ckpt.exists(), "no snapshot was taken before the injected kill"

    envelope = load_checkpoint(ckpt, config=effective_config(spec), fingerprint="t")
    resumed_rec = MetricsRecorder(interval=INTERVAL)
    resumed = restore_simulator(
        envelope,
        effective_config(spec),
        BUILT[interrupted].factory,
        BUILT[interrupted].workload.blocks,
        BUILT[interrupted].workload.max_blocks_per_core,
        metrics=resumed_rec,
    )
    assert resumed_rec.next_sample_cycle == envelope["payload"]["metrics"][
        "next_sample_cycle"
    ]
    resumed.run()
    resumed_doc = resumed_rec.to_dict()
    assert resumed_doc["windows"] == control_doc["windows"]
    assert resumed_doc["totals"] == control_doc["totals"]
    assert resumed_doc["cycles"] == control_doc["cycles"]


def test_restore_without_recorder_ignores_metrics_state(tmp_path):
    """Old code paths (no recorder attached) load new snapshots fine."""
    spec = make_spec(**REQUEST)
    ckpt = tmp_path / "run.ckpt.json"
    recorder = MetricsRecorder(interval=INTERVAL)
    sim = build_sim(spec, metrics=recorder)
    attach_checkpointing(sim, ckpt, interval=2 * INTERVAL, fingerprint="t")
    sim.run()

    plain = build_sim(spec)
    expected = canonical_stats(plain.run())
    # The final checkpoint is removed on completion by run_spec, not by
    # the raw loop; take a fresh mid-run snapshot instead.
    assert ckpt.exists()
    envelope = load_checkpoint(ckpt, config=effective_config(spec), fingerprint="t")
    assert envelope["payload"]["metrics"] is not None
    resumed = restore_simulator(
        envelope,
        effective_config(spec),
        BUILT[sim].factory,
        BUILT[sim].workload.blocks,
        BUILT[sim].workload.max_blocks_per_core,
    )
    assert canonical_stats(resumed.run()) == expected


# -- validation and export ---------------------------------------------


def test_validate_rejects_broken_documents(tmp_path):
    _, doc = recorded_run(tmp_path)

    bad = json.loads(json.dumps(doc))
    bad["schema"] = 99
    with pytest.raises(ValueError, match="schema"):
        validate_metrics_document(bad)

    bad = json.loads(json.dumps(doc))
    bad["windows"][1]["start"] += 1
    with pytest.raises(ValueError, match="contiguous"):
        validate_metrics_document(bad)

    bad = json.loads(json.dumps(doc))
    bad["windows"][0]["instructions"] += 1
    with pytest.raises(ValueError, match="exactness"):
        validate_metrics_document(bad)

    bad = json.loads(json.dumps(doc))
    del bad["windows"][0]["mrq_occupancy"]
    with pytest.raises(ValueError, match="mrq_occupancy"):
        validate_metrics_document(bad)

    with pytest.raises(ValueError, match="JSON object"):
        validate_metrics_document([])


def test_chrome_trace_structure(tmp_path):
    _, doc = recorded_run(tmp_path)
    trace = to_chrome_trace(doc)
    events = trace["traceEvents"]
    assert events[0]["ph"] == "M"
    windows = [e for e in events if e["ph"] == "X"]
    counters = [e for e in events if e["ph"] == "C"]
    assert len(windows) == len(doc["windows"])
    assert counters, "expected counter events"
    for event in windows:
        assert event["dur"] >= 1
        assert event["ts"] >= 0
    # The document round-trips through JSON (what --format chrome emits).
    json.dumps(trace)


def test_interval_option_default_and_rejection():
    assert RunOptions().metrics_interval == DEFAULT_METRICS_INTERVAL
    assert RunOptions(metrics_interval=250).metrics_interval == 250
    for bad in (0, -5):
        with pytest.raises(ValueError, match="metrics_interval"):
            RunOptions(metrics_interval=bad)


def test_recorder_rejects_bad_construction():
    with pytest.raises(ValueError):
        MetricsRecorder(interval=0)
    with pytest.raises(ValueError):
        MetricsRecorder(max_windows=0)


def test_metrics_path_uses_cache_key_prefix(tmp_path):
    from repro.harness.runner import metrics_path_for

    spec = make_spec(**REQUEST)
    path = metrics_path_for(spec, tmp_path)
    assert path.name == f"cell-{fingerprint(spec)[:12]}.metrics.json"
