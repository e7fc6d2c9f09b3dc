"""BENCHMARK.json follows the naming rules and names the benchmark's files."""

import json
import re

from conftest import BENCH, ROOT
from run import EXPECTED
from workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def definition():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def test_metric_names_and_units_are_valid_and_unique():
    doc = definition()
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    names += [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names))
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    for name in names:
        assert NAME.match(name), name
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")


def test_bounds_and_setup_metric():
    doc = definition()
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert bounds["setup_s"] == max(bounds.values())


def test_command_stays_inside_the_benchmark_paths():
    doc = definition()
    assert doc["paths"] == ["perfbench"]
    assert doc["command"][1].startswith("perfbench/")
    assert (BENCH / "run.py").is_file()
    assert 1 <= doc["run_seconds"] <= 60


def test_every_workload_has_expected_statistics():
    with open(EXPECTED, encoding="utf-8") as handle:
        expected = json.load(handle)
    assert set(expected) == set(WORKLOADS)
    assert all(len(digests) > 1 for digests in expected.values())
