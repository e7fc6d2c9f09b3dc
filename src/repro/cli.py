"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``run`` — simulate one benchmark under a chosen prefetching scheme and
  print the headline statistics (optionally as JSON).
* ``compare`` — run a set of schemes on one benchmark and print a speedup
  table.
* ``list`` — list benchmarks and schemes.
* ``figure`` — regenerate one of the paper's exhibits (table3, table4,
  table6, fig7, fig8, fig10, ..., fig18) and print it.
* ``diffcheck`` — run the differential correctness harness: seeded
  fuzz kernels/configs cross-checked through the equivalence-oracle
  registry (see :mod:`repro.harness.diffcheck`); exits nonzero on any
  mismatch and writes minimal-repro reports with ``--report-dir``.
* ``report`` — render a windowed-metrics document (written by
  ``--metrics-dir``) as a markdown run report, raw JSON, or a Chrome
  trace-event file loadable in ``chrome://tracing``/Perfetto.
* ``fsck`` — audit every durable artifact under a tree (result cache,
  manifests, checkpoints, metrics, heartbeats, leases, failure
  reports): classify each file ok/corrupt/orphaned/stale,
  quarantine corruption with ``--repair``, collect litter with
  ``--gc``; exits 1 when corruption remains (see
  :mod:`repro.harness.fsck`).
* ``chaos`` — seeded crash-consistency campaign: real multi-process
  sweeps disturbed by randomized faults (SIGKILL, torn writes, disk
  pressure, lease-holder death) until the result set converges
  bit-identical to an undisturbed control and ``fsck`` reports the
  tree clean (see :mod:`repro.harness.chaos`).

The simulating commands (``run``, ``compare``, ``figure``) share the
sweep flags:

* ``--jobs N`` — simulate up to N grid points concurrently in worker
  processes (default 1: serial).  N must be at least 1.
* ``--cache-dir DIR`` — persistent result cache location (default
  ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-mtap``); completed runs are
  reused across invocations, so the shared no-prefetch baseline is
  simulated once per machine, ever.
* ``--no-cache`` — disable the persistent cache for this invocation.
* ``--timeout S`` — per-run wall-clock deadline for pooled runs; only
  the run exceeding its own deadline fails.  S must be positive.
* ``--retries N`` — extra attempts for a pooled run whose worker process
  died (or, with ``--checkpoint-dir``, that missed its deadline); any
  other failure is recorded at once.  N must be at least 0.
* ``--manifest FILE`` — JSONL checkpoint journal; re-invoking with the
  same manifest resumes an interrupted sweep.
* Run options, applied to every run actually executed:
  ``--invariants`` (the integrity checker), ``--profile DIR`` (a
  wall-clock profile JSON per run), ``--metrics-dir DIR`` /
  ``--metrics-interval N`` (a windowed-metrics time-series per run,
  rendered by ``report``), ``--checkpoint-dir DIR`` /
  ``--checkpoint-interval N`` (periodic snapshots; re-invoking with the
  same directory resumes an interrupted run bit-identically),
  and ``--heartbeat-interval S`` (liveness heartbeats from pooled runs,
  written into a private temporary directory that the sweep deletes
  when it ends; nothing reads them, and ``--timeout`` bounds a stuck
  run).
  They build one :class:`~repro.harness.sweep.RunOptions` that the
  sweep engine hands to every run, inline or in a pool worker; nothing
  is exported into the environment.

Cache-backed sweeps claim each uncached spec via an exclusive lease
file before simulating it, so concurrent sweeps sharing one cache
directory partition the work instead of duplicating it; a sweep denied
a claim polls the cache for the other process's result, and orphaned
leases (SIGKILLed claimant) are stolen after a grace period.

A flag value the sweep engine rejects — ``--jobs`` below 1,
``--retries`` below 0, or a non-positive ``--timeout`` or interval — is
a usage error (exit status 2), as is a ``--subset`` benchmark that a
paper table (Table III or IV) has no row for; either stops the command
before anything simulates.

A sweep interrupted by SIGTERM/SIGINT drains in-flight runs, finalizes
the ``--manifest`` journal, and exits with status 130; re-invoking the
same command with the same manifest resumes exactly.  A second signal
forces immediate exit.

A grid point the sweep recorded as failed is never simulated again to
finish an exhibit.  A run that exceeded ``--timeout`` exits with status
1 and one line naming the run and its failure kind; a run that raised
(a deadlock, an invariant violation, an unknown benchmark) re-raises
that exception.

A reader that closes the output pipe early (``| head``) ends the
command quietly with status 0.

``perf`` runs the fixed performance benchmark subset and writes a
``BENCH_perf.json`` throughput document (see :mod:`repro.harness.perf`).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

# Each command's own machinery (the perf harness, the auditor, the chaos
# campaign, the differential checker) is imported inside its handler, so
# a command compiles only the modules it runs.
from repro.harness import experiments, supervise
from repro.harness.coordinate import DEFAULT_LEASE_GRACE
from repro.harness.report import (
    format_metrics_report,
    format_speedup_figure,
    format_sweep,
    format_table,
)
from repro.harness.runner import HARDWARE_SCHEMES, ExperimentRunner, SpecError
from repro.harness.sweep import (
    DEFAULT_CHECKPOINT_INTERVAL,
    RunFailedError,
    RunOptions,
    SweepInterrupted,
)
from repro.sim.artifacts import DEFAULT_METRICS_INTERVAL
from repro.sim.telemetry import to_chrome_trace, validate_metrics_document
from repro.trace.benchmarks import COMPUTE_BENCHMARKS, MEMORY_BENCHMARKS
from repro.trace.swp import SCHEMES as SOFTWARE_SCHEMES


def _add_sweep_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for grid simulation (default: 1, serial)",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="persistent result cache directory "
             "(default: $REPRO_CACHE_DIR or ~/.cache/repro-mtap)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the persistent result cache",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="per-run wall-clock deadline (seconds) for pooled runs",
    )
    parser.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help="extra attempts for a pooled run whose worker died "
             "(default: 2)",
    )
    parser.add_argument(
        "--manifest", default=None, metavar="FILE",
        help="JSONL checkpoint journal for resumable sweeps",
    )
    parser.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="write periodic simulator snapshots into DIR; re-invoking "
             "with the same DIR resumes interrupted runs mid-simulation",
    )
    parser.add_argument(
        "--checkpoint-interval", type=int, default=DEFAULT_CHECKPOINT_INTERVAL,
        metavar="N",
        help="cycles between simulator snapshots "
             f"(default: {DEFAULT_CHECKPOINT_INTERVAL})",
    )
    parser.add_argument(
        "--invariants", action="store_const", const=True, default=None,
        help="enable simulation invariant checking in every run",
    )
    parser.add_argument(
        "--profile", default=None, metavar="DIR",
        help="write a per-run performance profile JSON into DIR",
    )
    parser.add_argument(
        "--metrics-dir", default=None, metavar="DIR",
        help="write a per-run windowed-metrics JSON time-series into DIR; "
             "render with 'python -m repro report'",
    )
    parser.add_argument(
        "--metrics-interval", type=int, default=DEFAULT_METRICS_INTERVAL,
        metavar="N",
        help="nominal simulated cycles per metrics window "
             f"(default: {DEFAULT_METRICS_INTERVAL})",
    )
    parser.add_argument(
        "--heartbeat-interval", type=float, default=None, metavar="S",
        help="pooled runs write liveness heartbeats every S seconds into "
             "a private temporary directory the sweep deletes when it "
             "ends; nothing reads them; use --timeout to bound a stuck run",
    )


def _make_runner(args: argparse.Namespace) -> ExperimentRunner:
    """Build the :class:`ExperimentRunner` shared by the sweep commands.

    Raises ``ValueError`` for a flag value the sweep engine or
    :class:`RunOptions` rejects; ``main`` reports it as a usage error.
    """
    options = RunOptions(
        invariants=args.invariants,
        profile_dir=args.profile,
        metrics_dir=args.metrics_dir,
        metrics_interval=args.metrics_interval,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_interval=args.checkpoint_interval,
        heartbeat_interval=args.heartbeat_interval,
    )
    return ExperimentRunner(
        scale=args.scale,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        use_cache=False if args.no_cache else True,
        progress=sys.stderr.isatty(),
        timeout=args.timeout,
        retries=args.retries,
        manifest=args.manifest,
        options=options,
    )


def _run_arguments(run_p: argparse.ArgumentParser) -> None:
    run_p.add_argument("benchmark")
    run_p.add_argument("--software", default="none", choices=sorted(SOFTWARE_SCHEMES))
    run_p.add_argument("--hardware", default="none", choices=sorted(HARDWARE_SCHEMES))
    run_p.add_argument("--throttle", action="store_true")
    run_p.add_argument(
        "--distance", type=int, default=None,
        help="prefetch distance (default: each scheme's own default)",
    )
    run_p.add_argument("--degree", type=int, default=1)
    run_p.add_argument("--perfect-memory", action="store_true")
    run_p.add_argument("--scale", type=float, default=1.0)
    run_p.add_argument("--json", action="store_true", help="print stats as JSON")
    _add_sweep_flags(run_p)


def _compare_arguments(cmp_p: argparse.ArgumentParser) -> None:
    cmp_p.add_argument("benchmark")
    cmp_p.add_argument(
        "--schemes",
        nargs="+",
        default=["stride", "mt-swp", "stride_pc_wid", "mt-hwp"],
        choices=sorted({*SOFTWARE_SCHEMES, *HARDWARE_SCHEMES} - {"none"}),
        metavar="SCHEME",
        help="schemes to compare against the baseline: %(choices)s",
    )
    cmp_p.add_argument("--throttle", action="store_true")
    cmp_p.add_argument("--scale", type=float, default=1.0)
    _add_sweep_flags(cmp_p)


def _figure_arguments(fig_p: argparse.ArgumentParser) -> None:
    fig_p.add_argument("name", choices=list(FIGURES))
    fig_p.add_argument("--scale", type=float, default=1.0)
    fig_p.add_argument("--subset", nargs="*", default=None)
    _add_sweep_flags(fig_p)


def _perf_arguments(perf_p: argparse.ArgumentParser) -> None:
    perf_p.add_argument(
        "--quick", action="store_true",
        help="run the sub-second smoke subset (CI perf-smoke job)",
    )
    perf_p.add_argument(
        "--repeats", type=int, default=1, metavar="N",
        help="timed repetitions per spec; best-of-N is reported (default: 1)",
    )
    perf_p.add_argument(
        "--output", default="BENCH_perf.json", metavar="FILE",
        help="output document path (default: %(default)s; "
             "'-' prints the summary only)",
    )
    perf_p.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="committed BENCH_perf.json to compare against "
             "(default: the output path's previous content)",
    )
    perf_p.add_argument(
        "--max-regression", type=float, default=0.30, metavar="FRAC",
        help="fail when sim-cycles/sec drops more than FRAC below the "
             "baseline (default: 0.30)",
    )
    perf_p.add_argument(
        "--label", default=None, metavar="TEXT",
        help="history label recorded for this measurement",
    )
    perf_p.add_argument(
        "--json", action="store_true", help="print the full document as JSON",
    )


def _diffcheck_arguments(diff_p: argparse.ArgumentParser) -> None:
    diff_p.add_argument(
        "--seeds", type=int, default=10, metavar="N",
        help="number of fuzz seeds to check (default: 10)",
    )
    diff_p.add_argument(
        "--base-seed", type=int, default=0, metavar="S",
        help="first fuzz seed (default: 0); the sweep is deterministic "
             "in (base seed, seed count)",
    )
    diff_p.add_argument(
        "--budget", type=float, default=None, metavar="S",
        help="wall-clock budget in seconds; the sweep stops between "
             "seeds once exceeded (default: unlimited)",
    )
    diff_p.add_argument(
        "--report-dir", default=None, metavar="D",
        help="write mismatch / minimal-repro JSON reports into D "
             "(default: no files)",
    )
    diff_p.add_argument(
        "--no-shrink", action="store_true",
        help="skip shrinking failing kernels to minimal repros",
    )


def _report_arguments(rep_p: argparse.ArgumentParser) -> None:
    rep_p.add_argument(
        "metrics_file",
        help="a <benchmark>-<fingerprint>.metrics.json document",
    )
    rep_p.add_argument(
        "--format", choices=["md", "json", "chrome"], default="md",
        help="md: markdown run report (default); json: validated raw "
             "document; chrome: trace-event file for "
             "chrome://tracing / Perfetto",
    )
    rep_p.add_argument(
        "--output", default=None, metavar="FILE",
        help="write the rendering to FILE instead of stdout",
    )


def _fsck_arguments(fsck_p: argparse.ArgumentParser) -> None:
    fsck_p.add_argument(
        "roots", nargs="*", metavar="ROOT",
        help="directories or files to audit (default: the resolved "
             "result-cache directory)",
    )
    fsck_p.add_argument(
        "--cache-dir", default=None,
        help="result cache to audit when no ROOT is given "
             "(default: $REPRO_CACHE_DIR or ~/.cache/repro-mtap)",
    )
    fsck_p.add_argument(
        "--grace", type=float, default=None, metavar="S",
        help="seconds of silence before leases/heartbeats count as "
             f"expired (default: {DEFAULT_LEASE_GRACE:.0f})",
    )
    fsck_p.add_argument(
        "--repair", action="store_true",
        help="quarantine corrupt files by renaming to <name>.corrupt",
    )
    fsck_p.add_argument(
        "--gc", action="store_true",
        help="collect stale/orphaned files (expired leases, dead-worker "
             "heartbeats, completed-run checkpoints, torn scratch temps)",
    )
    fsck_p.add_argument(
        "--json", action="store_true",
        help="print the full report document as JSON",
    )


def _chaos_arguments(chaos_p: argparse.ArgumentParser) -> None:
    chaos_p.add_argument(
        "--seed", type=int, default=0, metavar="N",
        help="campaign RNG seed; the fault schedule is deterministic in "
             "(seed, budget) (default: 0)",
    )
    chaos_p.add_argument(
        "--budget", type=int, default=6, metavar="K",
        help="faults to inject before letting the sweep converge "
             "(default: 6)",
    )
    chaos_p.add_argument(
        "--root", default=None, metavar="DIR",
        help="campaign working directory (default: a fresh temporary "
             "directory, removed on success)",
    )
    chaos_p.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="concurrent sweep processes sharing the cache (default: 2)",
    )
    chaos_p.add_argument(
        "--jobs", type=int, default=2, metavar="N",
        help="pool size inside each sweep process (default: 2)",
    )
    chaos_p.add_argument(
        "--scale", type=float, default=0.05,
        help="benchmark scale factor for the campaign grid (default: 0.05)",
    )
    chaos_p.add_argument(
        "--rounds", type=int, default=30, metavar="N",
        help="maximum sweep relaunches before declaring non-convergence "
             "(default: 30)",
    )
    chaos_p.add_argument(
        "--json", action="store_true",
        help="print the full campaign report as JSON",
    )


def _cmd_run(args: argparse.Namespace) -> int:
    variant = dict(
        software=args.software,
        hardware=args.hardware,
        throttle=args.throttle,
        distance=args.distance,
        degree=args.degree,
        perfect_memory=args.perfect_memory,
    )
    [[baseline, result]] = args.runner.grid([args.benchmark], [{}, variant])
    stats = result.stats.as_dict()
    stats["speedup_over_baseline"] = result.speedup_over(baseline)
    # Peak RSS rides along in every harness mode's output (perf totals,
    # sweep manifests, heartbeats) so memory use is always attributable.
    stats["peak_rss_kb"] = supervise.peak_rss_kb()
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
    else:
        print(f"{args.benchmark}: sw={args.software} hw={args.hardware} "
              f"throttle={args.throttle}")
        print(f"  cycles  {result.cycles}")
        print(f"  CPI     {result.cpi:.2f}")
        print(f"  speedup {result.speedup_over(baseline):.2f}x over no-prefetching")
        if result.stats.prefetch_requests_issued:
            print(f"  prefetch accuracy {result.stats.prefetch_accuracy:.2f} "
                  f"coverage {result.stats.prefetch_coverage:.2f} "
                  f"late {result.stats.late_prefetch_fraction:.2f}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    variants = [
        {"throttle": args.throttle,
         ("software" if scheme in SOFTWARE_SCHEMES else "hardware"): scheme}
        for scheme in args.schemes
    ]
    [[baseline, *results]] = args.runner.grid([args.benchmark], [{}, *variants])
    print(f"{'scheme':<20} {'cycles':>9} {'CPI':>7} {'speedup':>8}")
    print("-" * 46)
    print(f"{'baseline':<20} {baseline.cycles:>9} {baseline.cpi:>7.2f} "
          f"{'1.00x':>8}")
    for scheme, result in zip(args.schemes, results):
        print(f"{scheme:<20} {result.cycles:>9} {result.cpi:>7.2f} "
              f"{result.speedup_over(baseline):>7.2f}x")
    return 0


def _cmd_list(_args: argparse.Namespace) -> int:
    print("memory-intensive benchmarks (Table III):")
    print("  " + " ".join(MEMORY_BENCHMARKS))
    print("non-memory-intensive benchmarks (Table IV):")
    print("  " + " ".join(COMPUTE_BENCHMARKS))
    print("software schemes:")
    print("  " + " ".join(sorted(SOFTWARE_SCHEMES)))
    print("hardware schemes:")
    print("  " + " ".join(sorted(HARDWARE_SCHEMES)))
    return 0


def _fig13(runner: ExperimentRunner, subset: Optional[List[str]]) -> str:
    result = experiments.figure13(runner, subset)
    return "\n\n".join(
        format_speedup_figure(
            {"rows": result[part], "geomean": result["geomean_" + part]}, title
        )
        for part, title in (("naive", "Figure 13a"), ("warp_id", "Figure 13b"))
    )


def _fig17(runner: ExperimentRunner, subset: Optional[List[str]]) -> str:
    # The columns are distances; a text table's column names are strings.
    result = experiments.figure17(runner, subset)
    rows = [{str(k): v for k, v in row.items()} for row in result["rows"]]
    means = {str(k): v for k, v in result["geomean"].items()}
    return format_speedup_figure({"rows": rows, "geomean": means}, "Figure 17")


#: ``repro figure`` exhibit -> renderer(runner, subset) of its text.
FIGURES = {
    "table3": lambda runner, subset: format_table(
        experiments.table3(runner, subset),
        ["benchmark", "type", "base_cpi", "paper_base_cpi",
         "pmem_cpi", "paper_pmem_cpi"],
        title="Table III",
    ),
    "table4": lambda runner, subset: format_table(
        experiments.table4(runner, subset),
        ["benchmark", "base_cpi", "pmem_cpi", "hwp_cpi",
         "paper_base_cpi", "paper_pmem_cpi", "paper_hwp_cpi"],
        title="Table IV",
    ),
    "table6": lambda runner, subset: json.dumps(experiments.table6(), indent=2),
    "fig7": lambda runner, subset: format_table(
        experiments.figure7(),
        ["warps", "mtaml", "mtaml_pref", "avg_latency", "effect"],
        title="Figure 7", floatfmt="{:.1f}",
    ),
    "fig8": lambda runner, subset: format_table(
        experiments.figure8(runner, subset),
        ["benchmark", "normalized_latency", "prefetch_accuracy"],
        title="Figure 8",
    ),
    "fig10": lambda runner, subset: format_speedup_figure(
        experiments.figure10(runner, subset), "Figure 10"),
    "fig11": lambda runner, subset: format_speedup_figure(
        experiments.figure11(runner, subset), "Figure 11"),
    "fig12": lambda runner, subset: format_table(
        experiments.figure12(runner, subset),
        ["benchmark", "early_ratio_swp", "early_ratio_swp_t",
         "bandwidth_swp", "bandwidth_swp_t"],
        title="Figure 12",
    ),
    "fig13": _fig13,
    "fig14": lambda runner, subset: format_speedup_figure(
        experiments.figure14(runner, subset), "Figure 14"),
    "fig15": lambda runner, subset: format_speedup_figure(
        experiments.figure15(runner, subset), "Figure 15"),
    "fig16": lambda runner, subset: format_sweep(
        experiments.figure16(runner, subset), "Figure 16", "size_kb"),
    "fig17": _fig17,
    "fig18": lambda runner, subset: format_sweep(
        experiments.figure18(runner, subset), "Figure 18", "cores"),
}


def _cmd_figure(args: argparse.Namespace) -> int:
    print(FIGURES[args.name](args.runner, args.subset or None))
    return 0


def _cmd_perf(args: argparse.Namespace) -> int:
    """``perf``: measure hot-path throughput, write/compare BENCH_perf."""
    from repro.harness import perf

    doc = perf.run_perf(
        quick=args.quick,
        repeats=args.repeats,
        generated=perf.timestamp_now(),
    )
    output = args.output
    baseline_path = args.baseline or (output if output != "-" else None)
    baseline = perf.load_document(baseline_path) if baseline_path else None
    failure = perf.check_regression(doc, baseline or {}, args.max_regression)
    if args.label:
        perf.merge_history(doc, baseline, args.label)
    elif baseline:
        doc["history"] = list(baseline.get("history") or [])
    if output != "-":
        perf.write_document(doc, output)
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(perf.format_summary(doc))
        if output != "-":
            print(f"wrote {output}")
    if failure is not None:
        print(failure, file=sys.stderr)
        return 1
    return 0


def _cmd_diffcheck(args: argparse.Namespace) -> int:
    """``diffcheck``: differential oracles + fuzzer; nonzero on mismatch."""
    from repro.harness.diffcheck import ORACLES, run_diffcheck

    print(f"diffcheck: {len(ORACLES)} oracles x {args.seeds} seeds "
          f"(base seed {args.base_seed})")
    result = run_diffcheck(
        seeds=args.seeds,
        budget=args.budget,
        report_dir=args.report_dir,
        base_seed=args.base_seed,
        shrink=not args.no_shrink,
        log=lambda line: print(f"  {line}", file=sys.stderr),
    )
    print(f"checked {result.seeds_checked} seed(s), {result.runs} simulation "
          f"run(s) in {result.elapsed:.1f}s")
    if result.ok:
        print("diffcheck: OK — no differential mismatches")
        return 0
    print(f"diffcheck: {len(result.mismatches)} mismatch(es)", file=sys.stderr)
    for mismatch in result.mismatches:
        print(mismatch.describe(), file=sys.stderr)
    for path in result.report_paths:
        print(f"report: {path}", file=sys.stderr)
    return 1


def _cmd_report(args: argparse.Namespace) -> int:
    """``report``: render a metrics document as markdown/JSON/Chrome trace."""
    try:
        with open(args.metrics_file) as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"repro report: cannot read {args.metrics_file}: {exc}",
              file=sys.stderr)
        return 1
    try:
        validate_metrics_document(doc)
    except ValueError as exc:
        print(f"repro report: {exc}", file=sys.stderr)
        return 1
    if args.format == "md":
        rendering = format_metrics_report(doc)
    elif args.format == "json":
        rendering = json.dumps(doc, indent=2, sort_keys=True)
    else:
        rendering = json.dumps(to_chrome_trace(doc), indent=2)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(rendering + "\n")
        print(f"wrote {args.output}")
    else:
        print(rendering)
    return 0


def _cmd_fsck(args: argparse.Namespace) -> int:
    """``fsck``: audit artifacts; exit 1 while corruption remains."""
    from repro.harness.fsck import audit, format_summary
    from repro.harness.sweep import default_cache_dir

    roots = [str(r) for r in args.roots]
    if not roots:
        roots = [str(args.cache_dir or default_cache_dir())]
    grace = args.grace if args.grace is not None else DEFAULT_LEASE_GRACE
    report = audit(roots, grace=grace, repair=args.repair, gc=args.gc)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(format_summary(report))
    # Corruption that was successfully quarantined by --repair no longer
    # poisons readers, so a repaired tree exits 0; anything still corrupt
    # (or a failed rename) keeps the exit nonzero for CI.
    return 1 if report.remaining_corrupt() else 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    """``chaos``: seeded crash-consistency campaign; 0 iff it converges."""
    from repro.harness.chaos import run_campaign

    report = run_campaign(
        seed=args.seed,
        budget=args.budget,
        root=args.root,
        workers=args.workers,
        jobs=args.jobs,
        scale=args.scale,
        max_rounds=args.rounds,
        log=lambda line: print(f"  {line}", file=sys.stderr),
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.summary())
    return 0 if report.ok else 1


#: Command -> (help line, function adding its arguments, handler).
COMMANDS = {
    "run": ("simulate one benchmark", _run_arguments, _cmd_run),
    "compare": ("compare schemes on one benchmark", _compare_arguments,
                _cmd_compare),
    "list": ("list benchmarks and schemes", None, _cmd_list),
    "figure": ("regenerate a paper exhibit", _figure_arguments, _cmd_figure),
    "perf": ("benchmark the simulator hot path (BENCH_perf.json)",
             _perf_arguments, _cmd_perf),
    "diffcheck": ("differential correctness harness (equivalence oracles "
                  "+ fuzzer)", _diffcheck_arguments, _cmd_diffcheck),
    "report": ("render a windowed-metrics document (from --metrics-dir)",
               _report_arguments, _cmd_report),
    "fsck": ("audit durable artifacts (cache, manifests, checkpoints, "
             "leases, heartbeats); repair corruption, collect litter",
             _fsck_arguments, _cmd_fsck),
    "chaos": ("seeded crash-consistency campaign over a real "
              "multi-process sweep", _chaos_arguments, _cmd_chaos),
}


def _build_parser(command: Optional[str]) -> argparse.ArgumentParser:
    """The ``repro`` parser, with the arguments of ``command`` alone.

    Every command is a choice, so ``repro --help`` lists them all, but
    only the one being run gets its arguments: building the hundred-odd
    arguments of every command costs a few milliseconds of start-up,
    several times what parsing one command's does.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MICRO-2010 many-thread aware prefetching reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments, _) in COMMANDS.items():
        command_parser = sub.add_parser(name, help=help_line)
        if name == command and add_arguments is not None:
            add_arguments(command_parser)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code.

    A graceful shutdown (first SIGTERM/SIGINT: the sweep drains, journals
    completed runs, and finalizes the manifest) and a forced exit (second
    signal) both return 130, the conventional fatal-signal code.  A run
    that failed without raising (timed out, say) returns 1 with one line
    naming it.  A closed stdout pipe (``| head``) returns 0.
    """
    if argv is None:
        argv = sys.argv[1:]
    # The command is the first word: no top-level option takes a value.
    command = next((arg for arg in argv if not arg.startswith("-")), None)
    parser = _build_parser(command)
    args = parser.parse_args(argv)
    if args.command in ("run", "compare", "figure"):
        try:
            args.runner = _make_runner(args)
        except ValueError as exc:
            parser.error(str(exc))
    handler = COMMANDS[args.command][2]
    try:
        status = handler(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return status
    except BrokenPipeError:
        # Later writes, and the flush at exit, go to os.devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except SpecError as exc:
        # A rejected run parameter or subset, before anything simulates.
        parser.error(str(exc))
    except RunFailedError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 1
    except SweepInterrupted as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 130
    except KeyboardInterrupt:
        print("repro: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
