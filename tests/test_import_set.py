"""Each command imports only the modules it runs.

Every ``repro`` process compiles the modules it imports, so start-up
time grows with the import set.  A serial exhibit must not import the
auditor, the perf harness, the invariant checker, the MTAML model, the
process pool or ``socket``; and a pooled sweep must import the invariant
checker *before* it forks, so every worker inherits it instead of
compiling it once per worker.  (The profiler, the metrics recorder and
the snapshot codec are still imported by the runner: see DESIGN §5.13.)
Both checks run in a fresh interpreter: the test process itself has
imported everything by now.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]

#: Modules a serial ``figure`` run never calls into.
NOT_IN_A_SERIAL_EXHIBIT = (
    "repro.harness.fsck",
    "repro.harness.perf",
    "repro.sim.invariants",
    "repro.core.mtaml",
    "concurrent.futures.process",
    "multiprocessing",
    "socket",
)

#: The observer modules the pooled sweep below turns on.
OBSERVERS = (
    "repro.sim.checkpoint",
    "repro.sim.invariants",
    "repro.sim.profiling",
    "repro.sim.telemetry",
)

#: Runs ``repro`` with its arguments, then prints the modules imported
#: after interpreter start-up as the last line.
CLI_SCRIPT = """
import json, sys
preloaded = set(sys.modules)
import repro.cli
status = repro.cli.main(sys.argv[1:])
print(json.dumps({"status": status,
                  "imported": sorted(set(sys.modules) - preloaded)}))
"""

#: Runs a pooled sweep with every observer on (the observer modules are
#: its arguments after the work directory).  Each worker records, at its
#: first run, which of them it already had; the script prints which ones
#: this process had before the sweep.
POOLED_SCRIPT = """
import json, os, sys
from repro.harness.runner import make_spec, run_spec
from repro.harness.sweep import RunFailure, RunOptions, SweepEngine

root, observers = sys.argv[1], sys.argv[2:]
first_run = True

def probing_worker(spec, options):
    global first_run
    if first_run:
        first_run = False
        found = [m for m in observers if m in sys.modules]
        path = os.path.join(root, f"worker-{os.getpid()}.json")
        with open(path, "w") as handle:
            json.dump(found, handle)
    return run_spec(spec, options).stats

before = [m for m in observers if m in sys.modules]
options = RunOptions(
    invariants=True,
    profile_dir=os.path.join(root, "profiles"),
    metrics_dir=os.path.join(root, "metrics"),
    checkpoint_dir=os.path.join(root, "checkpoints"),
    checkpoint_interval=500,
)
specs = [make_spec("cell", hardware=hardware, scale=0.05)
         for hardware in ("none", "stride_pc", "mt-hwp")]
outcomes = SweepEngine(jobs=2, worker=probing_worker, options=options).run(specs)
print(json.dumps({"before": before,
                  "failed": [str(o) for o in outcomes if isinstance(o, RunFailure)]}))
"""


def _run(script, *args, cwd):
    """Run ``script`` in a fresh interpreter without ``REPRO_*`` settings;
    return the JSON object its last stdout line holds."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    done = subprocess.run(
        [sys.executable, "-c", script, *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_serial_exhibit_imports_no_auditor_checker_or_pool(tmp_path):
    result = _run(
        CLI_SCRIPT, "figure", "table4", "--scale", "0.05", "--jobs", "1",
        "--cache-dir", str(tmp_path / "cache"), "--subset", "binomial",
        cwd=tmp_path,
    )
    assert result["status"] == 0
    # The run went through the engine and its cache.
    assert "repro.harness.sweep" in result["imported"]
    assert list((tmp_path / "cache").rglob("*.json"))
    assert [m for m in NOT_IN_A_SERIAL_EXHIBIT if m in result["imported"]] == []


def test_pooled_workers_inherit_the_observer_modules(tmp_path):
    result = _run(POOLED_SCRIPT, str(tmp_path), *OBSERVERS, cwd=tmp_path)
    assert result["failed"] == []
    # Building the specs did not import the invariant checker ...
    assert "repro.sim.invariants" not in result["before"]
    # ... and every worker found every observer module at its first run.
    probes = sorted(tmp_path.glob("worker-*.json"))
    assert probes
    for probe in probes:
        assert json.loads(probe.read_text()) == list(OBSERVERS), probe.name
    # The observers did their work in the workers.
    assert len(list((tmp_path / "metrics").glob("*.metrics.json"))) == 3
    assert len(list((tmp_path / "profiles").glob("*.json"))) == 3
