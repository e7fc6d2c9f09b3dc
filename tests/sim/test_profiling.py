"""Unit tests for the opt-in simulator profiling subsystem."""

import json

import pytest

from repro.harness.runner import make_spec, run_spec
from repro.harness.sweep import RunOptions
from repro.sim.profiling import COMPONENTS, PHASES, PROFILE_SCHEMA, SimProfiler


class TestSimProfiler:
    def test_initial_state(self):
        prof = SimProfiler()
        assert set(prof.wall) == set(PHASES)
        assert set(prof.active_cycles) == set(COMPONENTS)
        assert prof.loop_iterations == 0
        assert prof.cycles == 0
        assert prof.sim_cycles_per_sec == 0.0

    def test_start_finish_records_wall_time(self):
        prof = SimProfiler()
        prof.start()
        prof.finish(1000)
        assert prof.cycles == 1000
        assert prof.wall_seconds > 0.0
        assert prof.sim_cycles_per_sec > 0.0

    def test_cycles_skipped(self):
        prof = SimProfiler()
        prof.cycles = 100
        prof.loop_iterations = 30
        assert prof.cycles_skipped == 70

    def test_to_dict_schema(self):
        prof = SimProfiler()
        prof.benchmark = "cell"
        prof.start()
        prof.finish(10)
        doc = prof.to_dict()
        assert doc["schema"] == PROFILE_SCHEMA
        assert doc["benchmark"] == "cell"
        assert set(doc["phases_wall_seconds"]) == set(PHASES)
        assert set(doc["phases_wall_fraction"]) == set(PHASES)
        assert set(doc["active_cycles"]) == set(COMPONENTS)
        assert doc["counts"]["prefetcher_lookups"] == 0
        assert doc["loop_overhead_seconds"] >= 0.0

    def test_write_roundtrips_json(self, tmp_path):
        prof = SimProfiler()
        prof.start()
        prof.finish(42)
        path = prof.write(tmp_path / "nested" / "profile.json")
        doc = json.loads(path.read_text())
        assert doc["cycles"] == 42

    def test_summary_is_human_readable(self):
        prof = SimProfiler()
        prof.start()
        prof.finish(500)
        prof.wall["issue"] = prof.wall_seconds / 2
        text = prof.summary()
        assert "cycles" in text
        assert "issue" in text


class TestInstrumentedRun:
    @pytest.fixture(scope="class")
    def profiled(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("profiles")
        spec = make_spec("cell", software="stride", throttle=True, scale=0.25)
        result = run_spec(spec, RunOptions(profile_dir=directory))
        (path,) = directory.glob("cell-*.json")
        return result, json.loads(path.read_text())

    def test_profile_written_via_run_spec(self, profiled):
        result, doc = profiled
        assert doc["schema"] == PROFILE_SCHEMA
        assert doc["benchmark"] == "cell"
        assert doc["cycles"] == result.stats.cycles

    def test_loop_iterations_bounded_by_cycles(self, profiled):
        _, doc = profiled
        assert 0 < doc["loop_iterations"] <= doc["cycles"]
        assert doc["cycles_skipped"] == doc["cycles"] - doc["loop_iterations"]

    def test_phases_account_for_most_wall_time(self, profiled):
        _, doc = profiled
        measured = sum(
            v for k, v in doc["phases_wall_seconds"].items() if k != "prefetcher"
        )
        assert 0.0 < measured <= doc["wall_seconds"] + 1e-6

    def test_component_activity_recorded(self, profiled):
        _, doc = profiled
        active = doc["active_cycles"]
        assert active["core_issue"] > 0
        assert active["dram"] > 0
        assert active["mrq_inject"] > 0
        # A response was delivered for every DRAM completion burst.
        assert active["interconnect_response"] > 0

    def test_env_dir_profile(self, tmp_path):
        spec = make_spec("cell", scale=0.25)
        run_spec(spec, RunOptions(profile_dir=tmp_path))
        files = list(tmp_path.glob("cell-*.json"))
        assert len(files) == 1
        doc = json.loads(files[0].read_text())
        assert doc["benchmark"] == "cell"
