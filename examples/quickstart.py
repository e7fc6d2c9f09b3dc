"""Quickstart: simulate one benchmark with and without MT-prefetching.

Runs the MonteCarlo benchmark (the paper's standout stride-prefetching
winner) on the Table II baseline GPU several ways — no prefetching, the
many-thread aware hardware prefetcher (MT-HWP), and many-thread aware
software prefetching (MT-SWP) — and prints the headline statistics.
It finishes by re-running the best scheme with a windowed-metrics
recorder attached and writing its document into ``quickstart-metrics/``,
the time-series view of the same run (see OBSERVABILITY.md); render it
with::

    python -m repro report quickstart-metrics/<benchmark>-<fp12>.metrics.json

Usage::

    python examples/quickstart.py [benchmark]
"""

import sys

from repro import run_benchmark
from repro.harness.runner import make_spec, metrics_path_for, run_spec
from repro.harness.sweep import RunOptions


def describe(label, result, baseline=None):
    """Print one run's headline numbers (and speedup over ``baseline``)."""
    stats = result.stats
    speedup = f"  speedup {result.speedup_over(baseline):.2f}x" if baseline else ""
    print(f"{label:<22} cycles {result.cycles:>8}  CPI {result.cpi:6.2f}{speedup}")
    if stats.prefetch_requests_issued:
        print(
            f"{'':<22} prefetches issued {stats.prefetch_requests_issued}"
            f"  accuracy {stats.prefetch_accuracy:.2f}"
            f"  coverage {stats.prefetch_coverage:.2f}"
            f"  late {stats.late_prefetch_fraction:.2f}"
        )


def record_metrics(name: str) -> None:
    """Re-run the throttled MT-HWP scheme with telemetry attached.

    ``run_spec(spec, RunOptions(metrics_dir=...))`` attaches a
    :class:`repro.sim.telemetry.MetricsRecorder` to the simulation and
    writes the windowed time-series document into that directory after
    the run — the same artifact ``--metrics-dir`` produces from the CLI.
    Telemetry is a pure observer: this run's statistics are
    bit-identical to the ``describe``'d one above.
    """
    spec = make_spec(name, hardware="mt-hwp", throttle=True)
    run_spec(spec, RunOptions(metrics_dir="quickstart-metrics"))
    path = metrics_path_for(spec, "quickstart-metrics")
    print(
        f"\nwindowed metrics written to {path} — render with:\n"
        f"  python -m repro report {path}"
    )


def main() -> None:
    """Run the scheme line-up for one benchmark and print the comparison."""
    name = sys.argv[1] if len(sys.argv) > 1 else "monte"
    print(f"benchmark: {name} (Table II baseline GPU, 14 cores)\n")

    baseline = run_benchmark(name)
    describe("no prefetching", baseline)

    perfect = run_benchmark(name, perfect_memory=True)
    describe("perfect memory", perfect, baseline)

    hwp = run_benchmark(name, hardware="mt-hwp")
    describe("MT-HWP", hwp, baseline)

    hwp_t = run_benchmark(name, hardware="mt-hwp", throttle=True)
    describe("MT-HWP + throttling", hwp_t, baseline)

    swp = run_benchmark(name, software="mt-swp")
    describe("MT-SWP", swp, baseline)

    swp_t = run_benchmark(name, software="mt-swp", throttle=True)
    describe("MT-SWP + throttling", swp_t, baseline)

    record_metrics(name)


if __name__ == "__main__":
    main()
