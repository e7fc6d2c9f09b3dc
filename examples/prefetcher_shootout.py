"""Prefetcher shootout: every hardware prefetcher on one benchmark.

Compares the CPU-style prefetchers (stride RPT, per-PC stride, stream
buffers, GHB AC/DC) in both their naive and warp-id enhanced forms against
MT-HWP and its ablations, reproducing the Fig. 13/14 methodology for a
single benchmark of your choice.

Pass ``--metrics DIR`` to also capture a windowed-metrics time-series
per scheme into DIR (one ``<benchmark>-<fingerprint>.metrics.json``
each, exactly what the CLI's ``--metrics-dir`` writes).  The shootout
table tells you *which* prefetcher wins; the metrics timelines tell you
*why* — compare two schemes' ``prefetches_useful`` and ``dram_lines``
columns side by side with::

    python -m repro report DIR/<benchmark>-<fingerprint>.metrics.json

Usage::

    python examples/prefetcher_shootout.py [benchmark] [--metrics DIR]
"""

import sys
from pathlib import Path

from repro import run_benchmark
from repro.harness.runner import HARDWARE_SCHEMES, make_spec, run_spec
from repro.harness.sweep import RunOptions

ORDER = [
    "stride_rpt", "stride_rpt_wid",
    "stride_pc", "stride_pc_wid",
    "stream", "stream_wid",
    "ghb", "ghb_wid", "ghb_feedback",
    "stride_pc_throttle",
    "mt-hwp:pws", "mt-hwp:pws+gs", "mt-hwp:pws+ip", "mt-hwp",
]


def run_scheme(name: str, scheme: str, metrics_dir):
    """Run one scheme, recording a metrics document when requested.

    With a metrics directory the run goes through ``run_spec`` with
    ``RunOptions(metrics_dir=...)``, which attaches a
    :class:`repro.sim.telemetry.MetricsRecorder`; the recorder is a pure
    observer, so the returned statistics are identical either way.
    """
    if metrics_dir is None:
        return run_benchmark(name, hardware=scheme)
    return run_spec(make_spec(name, hardware=scheme),
                    RunOptions(metrics_dir=metrics_dir))


def main() -> None:
    """Print the shootout table (and optionally record metrics per scheme)."""
    argv = list(sys.argv[1:])
    metrics_dir = None
    if "--metrics" in argv:
        flag = argv.index("--metrics")
        metrics_dir = Path(argv[flag + 1])
        del argv[flag:flag + 2]
    name = argv[0] if argv else "mersenne"
    print(f"hardware prefetcher shootout on {name!r}\n")
    baseline = run_benchmark(name)
    print(f"{'scheme':<22} {'speedup':>8} {'accuracy':>9} {'coverage':>9} {'late':>6}")
    print("-" * 58)
    for scheme in ORDER:
        if scheme not in HARDWARE_SCHEMES:
            continue
        result = run_scheme(name, scheme, metrics_dir)
        stats = result.stats
        print(
            f"{scheme:<22} {result.speedup_over(baseline):>7.2f}x"
            f" {stats.prefetch_accuracy:>9.2f}"
            f" {stats.prefetch_coverage:>9.2f}"
            f" {stats.late_prefetch_fraction:>6.2f}"
        )
    print(
        "\nwarp-id enhanced training and the MT-HWP tables recover the\n"
        "per-warp strides that naive (CPU-style) training loses to warp\n"
        "interleaving (paper Figs. 5, 13, 14)."
    )
    if metrics_dir is not None:
        print(
            f"\nper-scheme windowed metrics in {metrics_dir}/ — render with:"
            f"\n  python -m repro report {metrics_dir}/<file>.metrics.json"
        )


if __name__ == "__main__":
    main()
