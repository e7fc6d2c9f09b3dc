"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import FIGURES, main

REPO_ROOT = Path(__file__).parent.parent


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    """Keep CLI tests hermetic: the default persistent cache resolves
    through $REPRO_CACHE_DIR, so point it at a per-test directory."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "default-cache"))


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "monte" in out
    assert "mt-hwp" in out
    assert "mt-swp" in out


def test_run_command_plain(capsys):
    assert main(["run", "cell", "--scale", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "CPI" in out
    assert "speedup" in out


def test_run_command_json(capsys):
    assert main([
        "run", "cell", "--hardware", "mt-hwp", "--scale", "0.1", "--json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cycles"] > 0
    assert "speedup_over_baseline" in payload
    assert "prefetch_accuracy" in payload


def test_run_with_throttle_and_software(capsys):
    assert main([
        "run", "cell", "--software", "mt-swp", "--throttle", "--scale", "0.1",
    ]) == 0
    assert "speedup" in capsys.readouterr().out


def test_compare_command(capsys):
    assert main([
        "compare", "cell", "--schemes", "mt-swp", "mt-hwp", "--scale", "0.1",
    ]) == 0
    out = capsys.readouterr().out
    assert "baseline" in out
    assert "mt-swp" in out and "mt-hwp" in out


def test_compare_rejects_unknown_scheme(capsys):
    # A usage error before anything simulates, so a typo stops a script.
    with pytest.raises(SystemExit) as excinfo:
        main(["compare", "cell", "--schemes", "bogus", "mt-hwp",
              "--scale", "0.1"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_closed_stdout_pipe_ends_quietly():
    """A reader that stops early (``repro list | head -1``) is no error:
    the command exits 0 and prints no traceback."""
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    try:
        done = subprocess.run(
            [sys.executable, "-m", "repro", "list"], stdout=write_end,
            stderr=subprocess.PIPE, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        )
    finally:
        os.close(write_end)
    assert done.returncode == 0
    assert done.stderr == ""


def test_figure_table6(capsys):
    assert main(["figure", "table6"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total_bytes"] == 557


def test_figure_fig7(capsys):
    assert main(["figure", "fig7"]) == 0
    assert "Figure 7" in capsys.readouterr().out


def test_figure_with_subset(capsys):
    assert main(["figure", "fig10", "--scale", "0.1", "--subset", "cell"]) == 0
    out = capsys.readouterr().out
    assert "cell" in out and "geomean" in out


#: The first line each exhibit prints (Table VI prints a JSON document).
FIGURE_TITLES = {
    "table3": "Table III", "table4": "Table IV", "table6": "{",
    "fig7": "Figure 7", "fig8": "Figure 8", "fig10": "Figure 10",
    "fig11": "Figure 11", "fig12": "Figure 12", "fig13": "Figure 13a",
    "fig14": "Figure 14", "fig15": "Figure 15", "fig16": "Figure 16",
    "fig17": "Figure 17", "fig18": "Figure 18",
}


@pytest.mark.parametrize("name", list(FIGURES))
def test_figure_renders_through_the_cli(name, capsys):
    benchmark = "gaussian" if name == "table4" else "cell"
    assert main(["figure", name, "--scale", "0.05", "--jobs", "1",
                 "--no-cache", "--subset", benchmark]) == 0
    assert capsys.readouterr().out.splitlines()[0] == FIGURE_TITLES[name]


@pytest.mark.parametrize("name, subset, outsider", [
    ("table3", ["monte", "gaussian"], "gaussian"),
    ("table4", ["cell"], "cell"),
], ids=["table3", "table4"])
def test_table_subset_without_a_paper_row_is_a_usage_error(
    name, subset, outsider, monkeypatch, capsys
):
    """A paper table has rows for its own benchmarks only: another one
    in its --subset stops the command, naming it, before anything
    simulates."""
    from repro.harness.sweep import SweepEngine

    def no_sweep(self, specs):
        raise AssertionError("simulated before rejecting the subset")

    monkeypatch.setattr(SweepEngine, "run", no_sweep)
    with pytest.raises(SystemExit) as excinfo:
        main(["figure", name, "--scale", "0.05", "--no-cache",
              "--subset", *subset])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = [l for l in captured.err.splitlines() if repr(outsider) in l]
    assert "no row" in line


def test_cache_dir_and_jobs_flags(tmp_path, capsys):
    cache = tmp_path / "cache"
    args = ["run", "cell", "--hardware", "mt-hwp", "--scale", "0.1",
            "--cache-dir", str(cache)]
    assert main(args + ["--jobs", "2"]) == 0
    entries = sorted(cache.glob("v*/*/*.json"))
    assert len(entries) == 2  # baseline + mt-hwp variant persisted
    first_out = capsys.readouterr().out
    # Warm re-run: pure cache hits, same output, no new entries.
    assert main(args) == 0
    assert capsys.readouterr().out == first_out
    assert sorted(cache.glob("v*/*/*.json")) == entries


def test_no_cache_flag_disables_persistence(tmp_path, capsys):
    cache = tmp_path / "cache"
    assert main(["run", "cell", "--scale", "0.1", "--no-cache",
                 "--cache-dir", str(cache)]) == 0
    assert "speedup" in capsys.readouterr().out
    assert not cache.exists()


def test_integrity_flags(tmp_path, monkeypatch, capsys):
    """--invariants checks every run and the fault-tolerance flags
    thread through to a working run with a checkpoint manifest."""
    from repro.sim.invariants import InvariantChecker

    monkeypatch.delenv("REPRO_INVARIANTS", raising=False)
    checked = []
    check_final = InvariantChecker.check_final
    monkeypatch.setattr(
        InvariantChecker, "check_final",
        lambda self, *a, **k: checked.append(1) or check_final(self, *a, **k),
    )
    manifest = tmp_path / "sweep.jsonl"
    assert main([
        "run", "cell", "--scale", "0.1", "--invariants", "--retries", "1",
        "--timeout", "120", "--manifest", str(manifest),
    ]) == 0
    assert checked, "--invariants did not reach the run"
    assert "speedup" in capsys.readouterr().out
    lines = [json.loads(l) for l in manifest.read_text().splitlines()]
    runs = [r for r in lines if r["key"] != "__sweep__"]
    assert runs and all(r["status"] == "done" for r in runs)
    # The sweep-final record marks the manifest as deliberately ended.
    finals = [r for r in lines if r["key"] == "__sweep__"]
    assert finals and finals[-1]["interrupted"] is False


def test_checkpoint_flags_reach_the_runs(tmp_path, monkeypatch, capsys):
    """--checkpoint-dir/--checkpoint-interval snapshot the executed runs
    on the given cadence, and the runs still complete normally."""
    import repro.sim.checkpoint as checkpoint

    written = []
    write = checkpoint.write_checkpoint
    monkeypatch.setattr(
        checkpoint, "write_checkpoint",
        lambda path, sim, **kw: written.append((path, sim.cycle))
        or write(path, sim, **kw),
    )
    ckpt = tmp_path / "checkpoints"
    assert main([
        "run", "cell", "--scale", "0.1",
        "--checkpoint-dir", str(ckpt), "--checkpoint-interval", "400",
    ]) == 0
    assert written and all(path.parent == ckpt for path, _ in written)
    assert min(cycle for _, cycle in written) >= 400
    assert "speedup" in capsys.readouterr().out
    # Completed runs clean their snapshots up.
    assert not list(ckpt.glob("*.ckpt.json"))


def test_checkpoint_dir_resumes_an_interrupted_run(tmp_path, capsys):
    """Re-invoking with the --checkpoint-dir of a killed run resumes it
    from the snapshot it left there and consumes the snapshot."""
    from repro.harness.runner import checkpoint_path_for, make_spec

    from tests.harness import faults

    ckpt = tmp_path / "checkpoints"
    spec = make_spec("cell", software="stride", throttle=True, scale=0.1)
    snapshot = checkpoint_path_for(spec, ckpt)
    cycle = faults.write_midrun_checkpoint(spec, snapshot)
    assert cycle > 0
    assert main([
        "run", "cell", "--software", "stride", "--throttle", "--scale", "0.1",
        "--checkpoint-dir", str(ckpt),
    ]) == 0
    assert "speedup" in capsys.readouterr().out
    assert not snapshot.exists(), "consumed snapshot must be removed"


@pytest.mark.parametrize("argv, message", [
    (["run", "cell", "--distance", "0", "--scale", "0.05", "--no-cache"],
     "prefetch distance must be >= 1"),
    (["figure", "fig10", "--scale", "0", "--no-cache", "--subset", "cell"],
     "scale must be a positive grid-scale factor"),
], ids=["run-distance", "figure-scale"])
def test_rejected_run_parameter_is_a_usage_error(
    argv, message, monkeypatch, capsys
):
    """A run parameter ``make_spec`` rejects stops the command as the
    sweep engine's own rejections do: exit 2 and one ``repro: error:``
    line, before anything simulates."""
    from repro.harness.sweep import SweepEngine

    def no_sweep(self, specs):
        raise AssertionError("simulated before rejecting the parameter")

    monkeypatch.setattr(SweepEngine, "run", no_sweep)
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = [l for l in captured.err.splitlines() if "error" in l]
    assert line.startswith("repro: error: ") and message in line


@pytest.mark.parametrize("flag", [
    "--metrics-interval", "--checkpoint-interval", "--heartbeat-interval",
])
@pytest.mark.parametrize("value", ["0", "-5"])
def test_non_positive_run_option_is_a_usage_error(flag, value, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "cell", "--scale", "0.1", "--no-cache", flag, value])
    assert excinfo.value.code == 2
    assert "must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["run", "cell"],
    ["compare", "cell", "--schemes", "stride_pc"],
    ["figure", "fig15", "--subset", "monte"],
], ids=["run", "compare", "figure"])
@pytest.mark.parametrize("flag, value, message", [
    ("--jobs", "0", "jobs must be >= 1"),
    ("--retries", "-1", "retries must be >= 0"),
    ("--timeout", "-1", "timeout must be positive"),
])
def test_bad_jobs_retries_or_deadline_is_a_usage_error(
    command, flag, value, message, capsys
):
    with pytest.raises(SystemExit) as excinfo:
        main([*command, "--scale", "0.1", "--no-cache", flag, value])
    assert excinfo.value.code == 2
    assert message in capsys.readouterr().err


#: (command, flag, value, least value): a value below what the command
#: can run with.
BELOW_LEAST = [
    ("chaos", "--budget", "-1", "0"),
    ("chaos", "--jobs", "0", "1"),
    ("chaos", "--workers", "0", "1"),
    ("chaos", "--rounds", "0", "1"),
    ("fsck", "--grace", "-5", "0"),
    ("perf", "--repeats", "0", "1"),
    ("diffcheck", "--seeds", "0", "1"),
]


@pytest.mark.parametrize("command, flag, value, least", BELOW_LEAST,
                         ids=[c + f for c, f, _, _ in BELOW_LEAST])
def test_count_below_its_least_value_is_a_usage_error(
    command, flag, value, least, tmp_path, capsys
):
    """A count or grace a command cannot run with stops it with exit 2,
    rather than running a clamped value (a 0-fault chaos campaign, a
    diffcheck that checks nothing)."""
    rest = {"chaos": ["--root", str(tmp_path / "chaos")],
            "fsck": [str(tmp_path)],
            "perf": ["--quick", "--output", "-"]}.get(command, [])
    with pytest.raises(SystemExit) as excinfo:
        main([command, flag, value, *rest])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: must be >= {least}, got {value}" in captured.err


#: Stands in for a pooled run that never finishes: the subprocess patches
#: ``run_spec`` before the CLI's pool forks, so its workers inherit it.
STUCK_RUN_CODE = (
    "import sys, time\n"
    "from repro.harness import runner\n"
    "real = runner.run_spec\n"
    "def run_spec(spec, options=None):\n"
    "    if spec.hardware == 'stride_pc':\n"
    "        time.sleep(60)\n"
    "    return real(spec, options)\n"
    "runner.run_spec = run_spec\n"
    "from repro import cli\n"
    "sys.exit(cli.main(sys.argv[1:]))\n"
)


def test_stuck_pooled_run_ends_the_command_at_its_deadline(tmp_path):
    """A stuck pooled run fails at ``--timeout`` and the command exits
    1 soon after, naming it once: its worker does not keep the process
    alive for the rest of its run."""
    timeout = 2.0
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", STUCK_RUN_CODE, "compare", "cell",
         "--schemes", "stride_pc", "mt-hwp", "--scale", "0.05",
         "--jobs", "2", "--timeout", str(timeout), "--retries", "0",
         "--no-cache"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    elapsed = time.monotonic() - started
    assert done.returncode == 1, done.stderr
    assert elapsed < timeout + 10, f"exited {elapsed:.1f}s after starting"
    [line] = [l for l in done.stderr.splitlines() if "failed [timeout]" in l]
    assert line.startswith("repro: run cell (") and "stride_pc" in line


def test_run_options_do_not_leak_between_invocations(tmp_path, capsys):
    """Run options live in one invocation: a second main() without
    --metrics-dir writes nothing into the first one's directory and
    leaves no REPRO_* variable behind."""
    import os

    before = {k for k in os.environ if k.startswith("REPRO_")}
    metrics = tmp_path / "metrics"
    assert main(["run", "cell", "--scale", "0.05", "--no-cache",
                 "--metrics-dir", str(metrics)]) == 0
    written = sorted(metrics.iterdir())
    assert len(written) == 1
    assert main(["run", "monte", "--scale", "0.05", "--no-cache"]) == 0
    assert sorted(metrics.iterdir()) == written
    assert {k for k in os.environ if k.startswith("REPRO_")} <= before


def test_invalid_benchmark_errors():
    with pytest.raises(KeyError):
        main(["run", "not-a-benchmark"])


def test_figure_with_a_failed_run_exits_1_naming_it(tmp_path, monkeypatch, capsys):
    """A run its sweep failed without raising (here: truncated) ends the
    figure with exit 1 and one stderr line naming the run and its kind."""
    from repro import cli
    from tests.harness import faults

    monkeypatch.setenv(faults.FAULT_DIR_ENV, str(tmp_path))
    make_runner = cli._make_runner

    def failing_runner(args):
        runner = make_runner(args)
        runner.engine.worker = faults.truncating_worker
        return runner

    monkeypatch.setattr(cli, "_make_runner", failing_runner)
    assert main(["figure", "fig15", "--subset", "cell", "--scale", "0.05",
                 "--no-cache"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("repro: run cell (")
    assert "failed [truncated]" in line


def test_invalid_command_exits():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


@pytest.mark.parametrize("command, option", [
    ("run", "--hardware"), ("compare", "--schemes"), ("figure", "--subset"),
    ("perf", "--quick"), ("diffcheck", "--seeds"), ("report", "--format"),
    ("fsck", "--repair"), ("chaos", "--budget"),
])
def test_each_command_parses_its_own_arguments(command, option, capsys):
    """Only the invoked command's sub-parser gets its arguments: its
    help names them, and the top-level help still lists every command."""
    with pytest.raises(SystemExit) as done:
        main([command, "--help"])
    assert done.value.code == 0
    assert option in capsys.readouterr().out
    with pytest.raises(SystemExit):
        main(["--help"])
    assert command in capsys.readouterr().out


SAMPLE_METRICS = Path(__file__).parent / "data" / "sample.metrics.json"


def test_metrics_dir_writes_fingerprinted_documents(tmp_path, capsys):
    """Under --metrics-dir every executed run lands a validated
    <benchmark>-<fp12>.metrics.json."""
    from repro.harness.runner import make_spec, metrics_path_for
    from repro.sim.telemetry import validate_metrics_document

    metrics = tmp_path / "metrics"
    assert main([
        "run", "cell", "--hardware", "mt-hwp", "--throttle", "--scale", "0.1",
        "--metrics-dir", str(metrics), "--metrics-interval", "250",
    ]) == 0
    assert "speedup" in capsys.readouterr().out
    spec = make_spec("cell", hardware="mt-hwp", throttle=True, scale=0.1)
    expected = metrics_path_for(spec, metrics)
    assert expected.exists(), sorted(p.name for p in metrics.iterdir())
    with open(expected, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    validate_metrics_document(doc)
    assert doc["benchmark"] == "cell"
    assert doc["interval"] == 250


def test_report_markdown_default(capsys):
    """`repro report` renders the committed fixture as markdown."""
    assert main(["report", str(SAMPLE_METRICS)]) == 0
    out = capsys.readouterr().out
    assert "# Run metrics: cell" in out
    assert "## Totals" in out
    assert "## Timeline" in out
    assert "## DRAM bandwidth timeline" in out
    assert "| metric | value |" in out


def test_report_json_roundtrip(capsys):
    assert main(["report", str(SAMPLE_METRICS), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    with open(SAMPLE_METRICS, "r", encoding="utf-8") as fh:
        assert doc == json.load(fh)


def test_report_chrome_trace(tmp_path, capsys):
    out_file = tmp_path / "trace.json"
    assert main([
        "report", str(SAMPLE_METRICS), "--format", "chrome",
        "--output", str(out_file),
    ]) == 0
    assert "wrote" in capsys.readouterr().out
    with open(out_file, "r", encoding="utf-8") as fh:
        trace = json.load(fh)
    assert trace["traceEvents"][0]["ph"] == "M"
    assert any(e["ph"] == "X" for e in trace["traceEvents"])


def test_report_rejects_missing_and_invalid_files(tmp_path, capsys):
    assert main(["report", str(tmp_path / "absent.metrics.json")]) == 1
    assert "cannot read" in capsys.readouterr().err

    torn = tmp_path / "torn.metrics.json"
    torn.write_text("{not json")
    assert main(["report", str(torn)]) == 1
    assert "cannot read" in capsys.readouterr().err

    invalid = tmp_path / "invalid.metrics.json"
    with open(SAMPLE_METRICS, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["schema"] = 99
    invalid.write_text(json.dumps(doc))
    assert main(["report", str(invalid)]) == 1
    assert "schema" in capsys.readouterr().err
