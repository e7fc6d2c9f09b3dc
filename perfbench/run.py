"""Exhibit-regeneration benchmark.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig15-cold --seed 1 --seconds 30 --trace 0

Each sample is one fresh ``python -m repro figure ...`` process that
regenerates an exhibit from an empty result cache.  With ``--trace 0``
the benchmark measures samples for ``--seconds`` seconds and reports the
end-to-end metrics (medians over the samples, timings rescaled to the
reference host speed by ``calibrate.py``); with ``--trace 1`` it
alternates untraced samples with samples run under the span wrappers and
``--profile``, and reports the per-layer metrics.  Neither starts a
round of samples that would likely end after ``--seconds``.  README.md describes
the workloads, the metrics and how they relate.

Correctness, checked on every invocation: the golden specs reproduce
``tests/data/golden_stats.json`` byte for byte; the first sample's runs
reproduce the statistics recorded in ``expected_stats.json``; every
sample exits 0; every sample, and a warm re-run over the first sample's
filled cache, renders the same exhibit from the same statistics.  Each
failed run is counted; any failure makes the command exit 1 after
printing its result.  The last line of standard output is one JSON
object.  The metrics reported, and their units, are the ones
``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import calibrate
from sample import (
    CACHE_DIRNAME,
    child_env,
    failed_runs,
    golden_gate,
    run_sample,
    spawn,
    unexpected_runs,
)
from tracing import SPAN_DIR_ENV, load_spans

HERE = Path(__file__).resolve().parent

#: Run digests every workload's sample must reproduce (``expect.py``).
EXPECTED = HERE / "expected_stats.json"

#: Set-up probes per round of the untraced run; ``setup_s`` is the median
#: of all of them.
SETUP_PROBES = 2

#: Scratch directory, under the checkout root, for samples' artifacts.
WORK_DIRNAME = ".perfbench_work"

GOLDEN = Path("tests") / "data" / "golden_stats.json"
CLI_SOURCE = Path("src") / "repro" / "cli.py"
DEFINITION = Path("BENCHMARK.json")


def parse_args(argv: Sequence[str], workload_names: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workload_names))
    parser.add_argument("--seed", type=int, default=0,
                        help="orders the exhibit's benchmarks (default: 0)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measure samples for this long (default: 30)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    return parser.parse_args(argv)


class Ledger:
    """Runs attempted and failed over the whole invocation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def record(self, attempted: int, failed: Sequence[str], label: str) -> None:
        self.attempted += attempted
        self.failed += len(failed)
        if failed:
            shown = ", ".join(failed[:3]) + (" ..." if len(failed) > 3 else "")
            self.problems.append(f"{label}: {len(failed)} failed run(s): {shown}")

    def expect(self, expected: Sequence[str], sample, label: str) -> None:
        """Record ``sample``'s runs against the expected run digests."""
        failed = unexpected_runs(expected, sample)
        if not failed and sample.returncode != 0:
            failed = ["<process>"]
        self.record(max(1, len(expected)), failed,
                    f"{label} against {EXPECTED.name}")

    def compare(self, reference, sample, label: str) -> None:
        """Record ``sample``'s runs against the reference sample's."""
        failed = failed_runs(reference, sample)
        if failed and sample.stderr.strip():
            label += " (stderr: " + sample.stderr.strip().splitlines()[-1] + ")"
        attempted = max(1, len(set(reference.stats) | set(sample.stats)))
        self.record(attempted, failed, label)


def setup_times(root: Path, work: Path, cli_args: List[str]) -> List[float]:
    """Spawn-to-ready seconds of :data:`SETUP_PROBES` set-up probes, each
    run in its own directory under ``work``."""
    times = []
    for index in range(SETUP_PROBES):
        directory = work / f"probe-{index}"
        directory.mkdir(parents=True)
        argv = [sys.executable, str(HERE / "setup_probe.py"), *cli_args,
                "--cache-dir", CACHE_DIRNAME]
        code, start, _, _ = spawn(argv, directory, child_env(root, directory))
        output = (directory / "stdout.txt").read_text().strip()
        if code != 0 or not output:
            raise RuntimeError(f"set-up probe failed (exit {code}): "
                               + (directory / "stderr.txt").read_text()[-500:])
        times.append(float(output) - start)
    return times


def another_round(begin: float, rounds: int, seconds: float) -> bool:
    """Whether a round of the mean length so far still ends in time.

    The first round always runs.
    """
    elapsed = time.monotonic() - begin
    return rounds == 0 or elapsed * (rounds + 1) / rounds <= seconds


def measure(root: Path, work: Path, cli_args: List[str], seconds: float,
            expected: Sequence[str], ledger: Ledger) -> Dict[str, float]:
    """Untraced rounds for ``seconds``; the end-to-end metrics.

    A round is :data:`SETUP_PROBES` set-up probes and one sample; a
    calibration piece is timed before the first round and after every
    round.  The timing metrics are medians rescaled to the reference host
    speed by those pieces (see ``calibrate.py``); the raw medians are
    printed beside them.
    """
    pieces = [calibrate.piece()]
    setups: List[List[float]] = []
    samples = []
    begin = time.monotonic()
    while another_round(begin, len(samples), seconds):
        setups.append(setup_times(root, work / f"setup-{len(samples)}", cli_args))
        samples.append(run_sample(root, work / f"sample-{len(samples)}", cli_args))
        pieces.append(calibrate.piece())
    check_samples(root, samples, cli_args, expected, ledger)
    factor = calibrate.speed_factor(pieces)
    raw = {
        "wall_s": statistics.median(s.wall_s for s in samples),
        "setup_s": statistics.median(t for times in setups for t in times),
        "sim_cycles_per_s": statistics.median(s.cycles / s.wall_s for s in samples),
    }
    print(f"samples: {len(samples)}; walls: "
          + " ".join(f"{s.wall_s:.3f}" for s in samples))
    print(f"calibration pieces (reference {calibrate.REFERENCE_S} s): "
          + " ".join(f"{p:.4f}" for p in pieces) + f"; factor {factor:.4f}")
    print(f"raw medians: wall_s {raw['wall_s']:.4f} s, "
          f"setup_s {raw['setup_s']:.4f} s, "
          f"sim_cycles_per_s {raw['sim_cycles_per_s']:.1f} cycles/s")
    return {
        "wall_s": raw["wall_s"] * factor,
        "setup_s": raw["setup_s"] * factor,
        "sim_cycles_per_s": raw["sim_cycles_per_s"] / factor,
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in samples),
        "success_ratio": 1.0 - ledger.failed / ledger.attempted,
    }


def check_samples(root: Path, samples: list, cli_args: List[str],
                  expected: Sequence[str], ledger: Ledger) -> None:
    """Check the first sample against the expected run digests, and every
    other sample, and a warm re-run, against the first sample."""
    reference = samples[0]
    warm = run_sample(root, reference.directory, cli_args)
    ledger.expect(expected, reference, "sample 0")
    for index, sample in enumerate(samples[1:], 1):
        ledger.compare(reference, sample, f"sample {index}")
    ledger.compare(reference, warm, "warm re-run")
    print(f"runs per sample: {len(reference.stats)}; "
          f"stats digest: {reference.digest()}")


def trace(root: Path, work: Path, cli_args: List[str], jobs: int,
          seconds: float, expected: Sequence[str], ledger: Ledger
          ) -> Dict[str, float]:
    """Alternate untraced and traced samples; the per-layer metrics."""
    from layers import layer_metrics, load_profiles

    launcher = [sys.executable, str(HERE / "traced_cli.py")]
    plain, traced, per_sample = [], [], []
    begin = time.monotonic()
    while another_round(begin, len(traced), seconds):
        index = len(traced)
        plain.append(run_sample(root, work / f"sample-{index}", cli_args))
        directory = work / f"traced-{index}"
        spans = directory / "spans"
        spans.mkdir(parents=True)
        sample = run_sample(root, directory, cli_args + ["--profile", "profiles"],
                            launcher=launcher,
                            extra_env={SPAN_DIR_ENV: str(spans)})
        traced.append(sample)
        launcher_info = json.loads((spans / "launcher.json").read_text())
        profiles, unreadable = load_profiles(directory / "profiles")
        # Each unreadable profile is one run whose check failed.
        ledger.record(0, unreadable, f"traced sample {index} profiles")
        per_sample.append(layer_metrics(
            load_spans(str(spans)), launcher_info, sample.spawn, sample.exit,
            jobs, profiles, sample.stats.values()))
    check_samples(root, plain + traced, cli_args, expected, ledger)
    metrics = {name: statistics.median(m[name] for m in per_sample)
               for name in per_sample[0]}
    metrics["tracing_overhead"] = (
        statistics.median(s.wall_s for s in traced)
        / statistics.median(s.wall_s for s in plain) - 1.0)
    if metrics["sim.loop_overhead_s"] < 0:
        print("note: profiled loop phases exceed sim.run_s; the profile and "
              "the sim.run span disagree", file=sys.stderr)
    return metrics


def missing_checkout_parts(root: Path) -> List[str]:
    """Checkout files the benchmark needs that ``root`` lacks."""
    return [str(p) for p in (CLI_SOURCE, GOLDEN, DEFINITION)
            if not (root / p).is_file()]


def main(argv: Optional[Sequence[str]] = None) -> int:
    root = Path.cwd()
    missing = missing_checkout_parts(root)
    if missing:
        print("perfbench: run from the root of a repro checkout; missing "
              + ", ".join(missing), file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]
    from workloads import WORKLOADS, benchmarks_for, cli_args

    args = parse_args(sys.argv[1:] if argv is None else argv, list(WORKLOADS))
    workload = WORKLOADS[args.workload]
    definition = json.loads((root / DEFINITION).read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"]
             for m in definition["per_layer" if args.trace else "end_to_end"]}
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))[workload.name]
    names = benchmarks_for(workload, args.seed)
    print(f"workload: {workload.name}; seed: {args.seed}; "
          f"benchmarks: {' '.join(names)}")
    work = root / WORK_DIRNAME / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    ledger = Ledger()
    attempted, failed = golden_gate(root / GOLDEN)
    ledger.record(attempted, failed, "golden specs")
    repro_args = cli_args(workload, names)
    if args.trace:
        metrics = trace(root, work, repro_args, workload.jobs, args.seconds,
                        expected, ledger)
    else:
        metrics = measure(root, work, repro_args, args.seconds, expected, ledger)
    undefined = [name for name in units if name not in metrics]
    if undefined:
        print(f"perfbench: {DEFINITION} declares metrics the benchmark does "
              "not compute: " + ", ".join(undefined), file=sys.stderr)
        return 2
    print(f"fail_ratio: {ledger.failed / ledger.attempted:.6f} "
          f"({ledger.failed} of {ledger.attempted} runs)")
    for name, unit in units.items():
        print(f"  {name:<34} {metrics[name]:>16.6g} {unit}")
    for problem in ledger.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    correct = ledger.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
