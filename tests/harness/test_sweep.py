"""Tests for the parallel sweep engine and the persistent result cache.

Covers the acceptance criteria of the sweep-engine work: a fig13-style
grid run with ``jobs >= 4`` is bit-identical to the serial path, and a
warm re-run against the same cache directory completes with zero new
simulations.
"""

import dataclasses
import json
import time

import pytest

from repro.harness.runner import (
    WORKLOAD_MEMO,
    ExperimentRunner,
    make_spec,
    run_spec,
)
from repro.harness.sweep import (
    SCHEMA_VERSION,
    ProgressReporter,
    ResultCache,
    RunFailure,
    RunSpec,
    SweepEngine,
    build_result_cache,
    fingerprint,
)
from repro.sim.gpu import SimulationResult
from repro.sim.stats import SimStats

from tests.harness import faults

SCALE = 0.05

#: A bench_fig13-style grid: benchmarks x (baseline + HW prefetchers).
GRID_BENCHMARKS = ("monte", "cell")
GRID_HARDWARE = ("none", "stride_rpt", "stride_pc", "stream", "ghb")


def grid_specs():
    return [
        make_spec(b, hardware=h, scale=SCALE)
        for b in GRID_BENCHMARKS
        for h in GRID_HARDWARE
    ]


def stats_dicts(outcomes):
    assert not any(isinstance(o, RunFailure) for o in outcomes)
    return [o.stats.to_dict() for o in outcomes]


class TestFingerprint:
    def test_stable_and_hex(self):
        spec = make_spec("monte", scale=SCALE)
        key = fingerprint(spec)
        assert key == fingerprint(make_spec("monte", scale=SCALE))
        assert len(key) == 64
        int(key, 16)  # valid hex

    def test_distance_sentinel_canonicalizes(self):
        # distance=None and distance=1 describe the same simulation and
        # must share one cache entry.
        a = make_spec("monte", software="stride", distance=None, scale=SCALE)
        b = make_spec("monte", software="stride", distance=1, scale=SCALE)
        assert fingerprint(a) == fingerprint(b)

    def test_every_parameter_is_key_material(self):
        base = make_spec("monte", scale=SCALE)
        variants = [
            make_spec("cell", scale=SCALE),
            make_spec("monte", software="stride", scale=SCALE),
            make_spec("monte", hardware="mt-hwp", scale=SCALE),
            make_spec("monte", throttle=True, scale=SCALE),
            make_spec("monte", distance=3, scale=SCALE),
            make_spec("monte", degree=2, scale=SCALE),
            make_spec("monte", perfect_memory=True, scale=SCALE),
            make_spec("monte", scale=SCALE * 2),
        ]
        keys = {fingerprint(base)} | {fingerprint(v) for v in variants}
        assert len(keys) == len(variants) + 1

    def test_config_change_changes_key(self):
        from repro.sim.config import baseline_config

        a = make_spec("monte", scale=SCALE)
        b = make_spec("monte", scale=SCALE, config=baseline_config(num_cores=8))
        assert fingerprint(a) != fingerprint(b)

    def test_key_is_the_digest_of_the_specs_asdict_form(self):
        """Existing cache entries stay addressable: the key hashes the
        canonical JSON of ``dataclasses.asdict(spec)``."""
        import hashlib

        from repro.sim.config import PrefetchCacheConfig, baseline_config

        specs = [
            make_spec("monte", software="mt-swp", hardware="mt-hwp",
                      throttle=True, distance=3, degree=2, scale=SCALE),
            make_spec("cell", perfect_memory=True, scale=SCALE, config=baseline_config(
                num_cores=4,
                prefetch_cache=PrefetchCacheConfig(size_bytes=2048))),
        ]
        for spec in specs:
            canonical = json.dumps(
                {"schema": SCHEMA_VERSION, "spec": dataclasses.asdict(spec)},
                sort_keys=True, separators=(",", ":"),
            )
            assert fingerprint(spec) == hashlib.sha256(canonical.encode()).hexdigest()


class TestSpecValidation:
    def test_unknown_schemes_rejected_eagerly(self):
        with pytest.raises(KeyError, match="software"):
            make_spec("monte", software="no-such-swp", scale=SCALE)
        with pytest.raises(KeyError, match="hardware"):
            make_spec("monte", hardware="no-such-hwp", scale=SCALE)

    @pytest.mark.parametrize(
        "kwargs, needle",
        [
            ({"distance": 0}, "distance"),
            ({"distance": -2}, "distance"),
            ({"degree": 0}, "degree"),
            ({"scale": 0.0}, "scale"),
            ({"scale": -1.0}, "scale"),
        ],
    )
    def test_nonsensical_aggressiveness_rejected(self, kwargs, needle):
        with pytest.raises(ValueError, match=needle):
            make_spec("monte", **{"scale": SCALE, **kwargs})


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = make_spec("monte", scale=SCALE)
        key = fingerprint(spec)
        result = run_spec(spec)
        cache.put(key, spec, result.stats)
        loaded = cache.get(key)
        assert loaded is not None
        assert loaded.to_dict() == result.stats.to_dict()
        assert loaded.benchmark == "monte"
        assert cache.hits == 1 and cache.stores == 1

    def test_layout_is_versioned_and_sharded(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = make_spec("monte", scale=SCALE)
        key = fingerprint(spec)
        cache.put(key, spec, SimStats(cycles=1))
        path = cache.path_for(key)
        assert path.exists()
        assert path.parent.parent == tmp_path / f"v{SCHEMA_VERSION}"
        assert path.parent.name == key[:2]
        payload = json.loads(path.read_text())
        assert payload["schema"] == SCHEMA_VERSION
        assert payload["spec"]["benchmark"] == "monte"
        assert len(cache) == 1

    def test_missing_and_corrupt_entries_are_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = make_spec("monte", scale=SCALE)
        key = fingerprint(spec)
        assert cache.get(key) is None
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_text("{ not json")
        assert cache.get(key) is None
        assert cache.errors == 1

    def test_corrupt_entry_is_evicted_to_forensic_sidecar(self, tmp_path):
        """A corrupt entry is renamed to ``<key>.json.corrupt`` on read:
        later reads stop paying the re-parse tax, the bytes survive for
        ``repro fsck``, and the eviction is counted."""
        cache = ResultCache(tmp_path)
        spec = make_spec("monte", scale=SCALE)
        key = fingerprint(spec)
        faults.corrupt_cache_entry(cache, key, "truncated-json")
        path = cache.path_for(key)
        assert cache.get(key) is None
        assert not path.exists(), "corrupt entry left in place"
        sidecar = path.with_name(path.name + ".corrupt")
        assert sidecar.exists(), "forensic sidecar missing"
        assert cache.corrupt_evicted == 1

    def test_corrupt_eviction_surfaces_in_sweep_summary(self, tmp_path):
        spec = make_spec("monte", scale=SCALE)
        key = fingerprint(spec)
        engine = SweepEngine(cache=ResultCache(tmp_path), jobs=1)
        faults.corrupt_cache_entry(engine.cache, key, "torn-binary")
        engine.run([spec])
        summary = engine._summary_text()
        assert summary is not None
        assert "1 corrupt cache entry evicted" in summary

    @pytest.mark.parametrize("mode", faults.CORRUPTION_MODES)
    def test_realistic_corruption_is_a_miss_never_a_crash(self, tmp_path, mode):
        """Truncated JSON, schema mismatches, torn binary writes, and
        wrong-shaped payloads all degrade to cache misses."""
        cache = ResultCache(tmp_path)
        spec = make_spec("monte", scale=SCALE)
        key = fingerprint(spec)
        faults.corrupt_cache_entry(cache, key, mode)
        assert cache.get(key) is None
        assert cache.errors == 1 and cache.misses == 1

    def test_corrupt_entry_is_overwritten_and_healed(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = make_spec("monte", scale=SCALE)
        key = fingerprint(spec)
        faults.corrupt_cache_entry(cache, key, "truncated-json")
        assert cache.get(key) is None
        cache.put(key, spec, SimStats(cycles=42))
        healed = cache.get(key)
        assert healed is not None and healed.cycles == 42

    def test_sweep_resimulates_over_corrupt_entry(self, tmp_path):
        """End to end: a sweep hitting a corrupt entry quietly re-simulates
        and repairs the cache."""
        spec = make_spec("monte", scale=SCALE)
        key = fingerprint(spec)
        first = SweepEngine(cache=ResultCache(tmp_path), jobs=1)
        [good] = first.run([spec])
        faults.corrupt_cache_entry(first.cache, key, "torn-binary")
        second = SweepEngine(cache=ResultCache(tmp_path), jobs=1)
        [repaired] = second.run([spec])
        assert second.simulated == 1  # corrupt entry did not count as a hit
        assert repaired.stats.to_dict() == good.stats.to_dict()
        third = SweepEngine(cache=ResultCache(tmp_path), jobs=1)
        third.run([spec])
        assert third.cache_hits == 1  # the repair stuck

    def test_truncated_stats_are_never_stored(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = make_spec("monte", scale=SCALE)
        cache.put(fingerprint(spec), spec, SimStats(cycles=5, truncated=True))
        assert len(cache) == 0 and cache.stores == 0

    def test_build_result_cache_knobs(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert build_result_cache(None, use_cache=False) is None
        assert build_result_cache(tmp_path, use_cache=False) is None
        assert build_result_cache(None, use_cache=None) is None
        cache = build_result_cache(tmp_path, use_cache=None)
        assert cache is not None and str(tmp_path) in str(cache.root)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        env_cache = build_result_cache(None, use_cache=None)
        assert env_cache is not None and "env" in str(env_cache.root)


class TestParallelMatchesSerial:
    def test_fig13_style_grid_bit_identical_jobs4(self, tmp_path):
        """Acceptance: parallel (jobs=4) == serial, stats bit-for-bit."""
        specs = grid_specs()
        serial = SweepEngine(cache=None, jobs=1).run(specs)
        parallel_engine = SweepEngine(
            cache=ResultCache(tmp_path), jobs=4,
        )
        parallel = parallel_engine.run(specs)
        assert stats_dicts(parallel) == stats_dicts(serial)
        assert parallel_engine.simulated == len(specs)

    def test_warm_rerun_simulates_nothing(self, tmp_path):
        """Acceptance: a warm re-run is 100% cache hits, zero simulations."""
        specs = grid_specs()
        first = SweepEngine(cache=ResultCache(tmp_path), jobs=4)
        warm_results = first.run(specs)
        second = SweepEngine(cache=ResultCache(tmp_path), jobs=4)
        rerun = second.run(specs)
        assert second.simulated == 0
        assert second.cache_hits == len(specs)
        assert stats_dicts(rerun) == stats_dicts(warm_results)

    def test_duplicate_specs_simulated_once(self):
        spec = make_spec("monte", scale=SCALE)
        engine = SweepEngine(jobs=1)
        outcomes = engine.run([spec, spec, spec])
        assert engine.simulated == 1
        assert outcomes[0] is outcomes[1] is outcomes[2]

    def test_deterministic_result_ordering(self, tmp_path):
        specs = grid_specs()
        engine = SweepEngine(cache=ResultCache(tmp_path), jobs=4)
        outcomes = engine.run(specs)
        for spec, outcome in zip(specs, outcomes):
            assert outcome.stats.benchmark == spec.benchmark


class TestFaultIsolation:
    def bad_spec(self):
        # An unknown benchmark crashes inside the worker at trace time;
        # construct the spec directly to bypass eager validation.
        good = make_spec("monte", scale=SCALE)
        return dataclasses.replace(good, benchmark="no-such-benchmark")

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_crashed_run_records_failure_and_sweep_survives(self, jobs):
        specs = [self.bad_spec(), make_spec("monte", scale=SCALE)]
        engine = SweepEngine(jobs=jobs)
        outcomes = engine.run(specs)
        assert isinstance(outcomes[0], RunFailure)
        assert outcomes[0].kind == "exception"
        assert "no-such-benchmark" in outcomes[0].error
        assert isinstance(outcomes[0].exception, KeyError)
        assert isinstance(outcomes[1], SimulationResult)
        assert engine.failures == 1 and engine.simulated == 1

    def test_failures_are_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        engine = SweepEngine(cache=cache, jobs=1)
        engine.run([self.bad_spec()])
        assert len(cache) == 0

    def test_stalled_run_times_out(self):
        specs = [make_spec("monte", scale=SCALE),
                 make_spec("cell", scale=SCALE)]
        engine = SweepEngine(jobs=2, timeout=0.05, worker=_sleepy_worker)
        outcomes = engine.run(specs)
        assert all(isinstance(o, RunFailure) for o in outcomes)
        assert {o.kind for o in outcomes} == {"timeout"}
        assert engine.failures == 2


def _sleepy_worker(spec, options):
    time.sleep(3.0)
    return SimStats(cycles=1)


class TestProgressReporter:
    def test_reports_progress_and_eta(self):
        import io

        stream = io.StringIO()
        reporter = ProgressReporter(enabled=True, stream=stream)
        reporter.start(total=4, cached=1)
        reporter.step()
        reporter.step(failed=True)
        reporter.finish()
        text = stream.getvalue()
        assert "3/4 done" in text
        assert "1 cached" in text
        assert "1 failed" in text

    def test_disabled_reporter_is_silent(self):
        import io

        stream = io.StringIO()
        reporter = ProgressReporter(enabled=False, stream=stream)
        reporter.start(total=2)
        reporter.step()
        reporter.finish()
        assert stream.getvalue() == ""


class TestExperimentRunnerIntegration:
    def test_disk_cache_shared_across_runners(self, tmp_path):
        r1 = ExperimentRunner(scale=SCALE, cache_dir=tmp_path)
        a = r1.run("cell", hardware="mt-hwp")
        r2 = ExperimentRunner(scale=SCALE, cache_dir=tmp_path)
        b = r2.run("cell", hardware="mt-hwp")
        assert r2.engine.simulated == 0
        assert r2.engine.cache_hits == 1
        assert b.stats.to_dict() == a.stats.to_dict()

    def test_run_reraises_original_exception(self):
        runner = ExperimentRunner(scale=SCALE)
        with pytest.raises(KeyError):
            runner.run("no-such-benchmark")

    def test_warm_populates_memory_cache(self):
        runner = ExperimentRunner(scale=SCALE, jobs=2, use_cache=False)
        requests = [
            {"benchmark": "monte"},
            {"benchmark": "monte", "hardware": "stride_pc"},
        ]
        outcomes = runner.warm(requests)
        assert len(outcomes) == 2
        assert runner.engine.simulated == 2
        simulated_before = runner.engine.simulated
        runner.run("monte")  # memory hit, no new simulation
        assert runner.engine.simulated == simulated_before

    def test_runs_sharing_a_trace_generate_it_once(self):
        """Three cell specs differ only in hardware scheme, so they share
        one trace: an in-process sweep generates it once and serves the
        other two runs from the trace memo."""
        WORKLOAD_MEMO.clear()
        runner = ExperimentRunner(scale=0.1, jobs=1, use_cache=False)
        runner.warm([
            {"benchmark": "cell"},
            {"benchmark": "cell", "hardware": "stride_pc"},
            {"benchmark": "cell", "hardware": "mt-hwp"},
        ])
        assert runner.engine.trace_memo_misses == 1
        assert runner.engine.trace_memo_hits == 2

    def test_warm_returns_failures_without_raising(self):
        runner = ExperimentRunner(scale=SCALE, use_cache=False)
        outcomes = runner.warm([{"benchmark": "no-such-benchmark"},
                                {"benchmark": "monte"}])
        assert isinstance(outcomes[0], RunFailure)
        assert isinstance(outcomes[1], SimulationResult)
        assert runner.engine.simulated == 1

    def test_figures_identical_serial_vs_parallel(self, tmp_path):
        """Figure pipeline end to end: warm parallel path == serial path."""
        from repro.harness import experiments

        subset = ["monte"]
        serial = experiments.figure13(ExperimentRunner(scale=SCALE), subset)
        parallel = experiments.figure13(
            ExperimentRunner(scale=SCALE, jobs=4, cache_dir=tmp_path), subset
        )
        assert parallel == serial
