"""Experiment runner: benchmark x prefetching-scheme x machine-config grid.

Names match the paper's figure legends:

Hardware schemes (Figs. 13-15):
    ``none``, ``stride_rpt``, ``stride_rpt_wid``, ``stride_pc``,
    ``stride_pc_wid``, ``stream``, ``stream_wid``, ``ghb``, ``ghb_wid``,
    ``ghb_feedback`` (GHB+F), ``stride_pc_throttle`` (StridePC+T),
    ``mt-hwp`` (PWS+GS+IP), and the ablations ``mt-hwp:pws``,
    ``mt-hwp:pws+gs``, ``mt-hwp:pws+ip``.

Software schemes (Figs. 10-11): ``none``, ``register``, ``stride``, ``ip``,
``mt-swp`` — or any explicit :class:`SoftwarePrefetchConfig`.

:class:`ExperimentRunner` memoizes results by their full configuration so
figure scripts that share runs (every figure needs the no-prefetch baseline)
pay for each simulation once; it keeps failures too, so a point its sweep
failed raises instead of being simulated again.  Its
:meth:`~ExperimentRunner.grid` sweeps an exhibit's benchmarks x variants
in one call and hands back the results.  Sweep results are
stats-only, and a finished machine holds no reference cycle, so it is
freed as its run ends; :class:`WorkloadMemo` keeps only the trace the
sweep is working on.  :func:`run_spec` executes one spec under a
:class:`~repro.harness.sweep.RunOptions` (checking, observers,
heartbeats), which the runner hands to its sweep engine and the engine to
every run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import warnings
from pathlib import Path
from typing import (
    Callable, Dict, Iterable, List, Mapping, NoReturn, Optional, Sequence, Union,
)

from repro.core.feedback import FeedbackGhbPrefetcher, LatenessThrottledStridePc
from repro.core.ghb import GhbPrefetcher
from repro.core.mt_hwp import MtHwpPrefetcher
from repro.core.stream_pref import StreamPrefetcher
from repro.core.stride_pc import StridePcPrefetcher
from repro.core.stride_rpt import StrideRptPrefetcher
from repro.harness import supervise
from repro.harness.sweep import (
    Outcome,
    ProgressReporter,
    RunFailedError,
    RunFailure,
    RunOptions,
    RunSpec,
    SweepEngine,
    build_result_cache,
    fingerprint,
)
from repro.sim.artifacts import Sink
from repro.sim.checkpoint import (
    attach_checkpointing,
    load_checkpoint,
    restore_simulator,
)
from repro.sim.config import GpuConfig, ThrottleConfig, baseline_config
from repro.sim.errors import CheckpointError, write_failure_report
from repro.sim.gpu import GpuSimulator, SimulationResult
from repro.sim.profiling import SimProfiler
from repro.sim.telemetry import MetricsRecorder
from repro.trace.benchmarks import get_benchmark
from repro.trace.kernels import KernelSpec
from repro.trace.swp import SCHEMES, SoftwarePrefetchConfig
from repro.trace.tracegen import generate_workload


class WorkloadMemo:
    """In-process memo of the last :func:`generate_workload` result.

    A sweep's specs draw from a handful of kernel × software-prefetch
    combinations (six benchmarks, a few schemes), yet every run used to
    regenerate its trace from scratch — for short runs in a warm worker
    process the regeneration rivals the simulation itself.  Workloads
    are immutable once generated: the simulator builds fresh
    :class:`~repro.sim.warp.Warp` objects around the shared instruction
    streams and never writes to a stream or a block tuple, so one
    :class:`~repro.trace.tracegen.Workload` can safely back any number
    of (even concurrent) simulations in this process.

    The memo holds one workload, the last one generated.  Every
    exhibit's grid requests all runs of one trace back to back, so the
    last trace is the only one a serial sweep ever reuses (the exhibit
    tests replay each grid's request order to keep it so); a second
    entry would only keep a finished trace resident.  The old trace is
    dropped before the next is generated, so two are never held at
    once.

    Entries are keyed by a digest of the full kernel spec plus the
    software-prefetch config, so any change to either regenerates.  The
    memo is per-process by construction; pooled sweep workers each keep
    their own, and the sweep engine surfaces the counters it can see
    (the inline path's) in its summary line.
    """

    def __init__(self) -> None:
        self._key: Optional[str] = None
        self._workload = None
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key(kernel: KernelSpec, swp: SoftwarePrefetchConfig) -> str:
        """Stable digest over the kernel spec and software-prefetch config.

        The software prefetch distance is left out unless stride
        prefetching is on: trace generation reads it only on that path,
        so specs that differ only in an unused distance (a hardware
        prefetcher's distance sweep, say) share one trace.
        """
        swp_fields = dataclasses.asdict(swp)
        if not swp.stride:
            del swp_fields["distance"]
        payload = {
            "kernel": dataclasses.asdict(kernel),
            "swp": swp_fields,
        }
        canonical = json.dumps(
            payload, sort_keys=True, separators=(",", ":"), default=repr
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def get(self, kernel: KernelSpec, swp: SoftwarePrefetchConfig):
        """Return the (possibly shared) workload for ``kernel`` under ``swp``."""
        key = self.key(kernel, swp)
        if key == self._key:
            self.hits += 1
            return self._workload
        self.misses += 1
        self._key = self._workload = None
        workload = generate_workload(kernel, swp=swp)
        self._key, self._workload = key, workload
        return workload

    def clear(self) -> None:
        """Drop the held workload and reset the counters (test isolation)."""
        self._key = self._workload = None
        self.hits = 0
        self.misses = 0


#: Process-wide workload memo used by every :func:`_simulate` call.
WORKLOAD_MEMO = WorkloadMemo()


def _mt_hwp_builder(pws: bool, gs: bool, ip: bool) -> Callable:
    def build(distance: int, degree: int):
        return MtHwpPrefetcher(
            distance=distance, degree=degree,
            enable_pws=pws, enable_gs=gs, enable_ip=ip,
        )

    return build


#: name -> builder(distance, degree) for every evaluated hardware scheme.
HARDWARE_SCHEMES: Dict[str, Optional[Callable]] = {
    "none": None,
    "stride_rpt": lambda d, g: StrideRptPrefetcher(distance=d, degree=g),
    "stride_rpt_wid": lambda d, g: StrideRptPrefetcher(
        distance=d, degree=g, warp_aware=True
    ),
    "stride_pc": lambda d, g: StridePcPrefetcher(distance=d, degree=g),
    "stride_pc_wid": lambda d, g: StridePcPrefetcher(
        distance=d, degree=g, warp_aware=True
    ),
    "stream": lambda d, g: StreamPrefetcher(distance=d, degree=g),
    "stream_wid": lambda d, g: StreamPrefetcher(distance=d, degree=g, warp_aware=True),
    "ghb": lambda d, g: GhbPrefetcher(distance=d, degree=g),
    "ghb_wid": lambda d, g: GhbPrefetcher(distance=d, degree=g, warp_aware=True),
    "ghb_feedback": lambda d, g: FeedbackGhbPrefetcher(distance=d, degree=g),
    "stride_pc_throttle": lambda d, g: LatenessThrottledStridePc(distance=d, degree=g),
    "mt-hwp": _mt_hwp_builder(True, True, True),
    "mt-hwp:pws": _mt_hwp_builder(True, False, False),
    "mt-hwp:pws+gs": _mt_hwp_builder(True, True, False),
    "mt-hwp:pws+ip": _mt_hwp_builder(True, False, True),
}


def resolve_software(software: Union[str, SoftwarePrefetchConfig]) -> SoftwarePrefetchConfig:
    """Accept a scheme name or an explicit config."""
    if isinstance(software, SoftwarePrefetchConfig):
        return software
    try:
        return SCHEMES[software]
    except KeyError:
        raise KeyError(
            f"unknown software scheme {software!r}; choose from {sorted(SCHEMES)}"
        ) from None


def _normalize_scheme_args(
    software: Union[str, SoftwarePrefetchConfig],
    hardware: str,
    distance: Optional[int],
) -> tuple:
    """Shared normalization for :func:`run_benchmark` and :func:`make_spec`.

    ``distance=None`` is the sentinel for "scheme default": the software
    config keeps its own distance and the hardware prefetcher uses 1.  Any
    explicit integer — including 1 — overrides both, which is what makes
    it possible to sweep a software scheme's distance back down to 1.
    """
    swp = resolve_software(software)
    if distance is not None and swp.distance != distance:
        swp = dataclasses.replace(swp, distance=distance)
    if hardware not in HARDWARE_SCHEMES:
        raise KeyError(
            f"unknown hardware scheme {hardware!r}; choose from "
            f"{sorted(HARDWARE_SCHEMES)}"
        )
    hw_distance = 1 if distance is None else distance
    return swp, hw_distance


class SpecError(ValueError):
    """A run parameter no simulation accepts, rejected before any runs."""


def make_spec(
    benchmark: str,
    software: Union[str, SoftwarePrefetchConfig] = "none",
    hardware: str = "none",
    throttle: bool = False,
    distance: Optional[int] = None,
    degree: int = 1,
    config: Optional[GpuConfig] = None,
    perfect_memory: bool = False,
    scale: float = 1.0,
) -> RunSpec:
    """Normalize :func:`run_benchmark`-style arguments into a :class:`RunSpec`.

    The normalization is canonical: two argument sets that would produce
    the same simulation produce the same spec, and therefore the same
    cache fingerprint.  Unknown software/hardware scheme names raise
    ``KeyError``, and nonsensical aggressiveness/scale values raise
    :class:`SpecError` — here, before anything is simulated or cached.
    """
    if distance is not None and distance < 1:
        raise SpecError(
            f"prefetch distance must be >= 1 (or None for the scheme "
            f"default), got {distance}"
        )
    if degree < 1:
        raise SpecError(f"prefetch degree must be >= 1, got {degree}")
    if not scale > 0:
        raise SpecError(
            f"scale must be a positive grid-scale factor, got {scale}"
        )
    swp, hw_distance = _normalize_scheme_args(software, hardware, distance)
    return RunSpec(
        benchmark=benchmark,
        software=swp,
        hardware=hardware,
        throttle=bool(throttle),
        distance=hw_distance,
        degree=degree,
        perfect_memory=bool(perfect_memory),
        scale=scale,
        config=config or baseline_config(),
    )


def _simulate(
    kernel: KernelSpec,
    swp: SoftwarePrefetchConfig,
    builder: Optional[Callable],
    distance: int,
    degree: int,
    cfg: GpuConfig,
    throttle: bool,
    perfect_memory: bool,
    strict: bool = False,
    profiler: Optional[SimProfiler] = None,
    metrics: Optional[MetricsRecorder] = None,
    checkpoint_path: Union[str, Path, None] = None,
    checkpoint_interval: int = 0,
    checkpoint_tag: str = "",
    invariants: Optional[bool] = None,
    sentinel: Optional[supervise.RunSentinel] = None,
) -> SimulationResult:
    """The single execution path behind every run (serial, pooled, cached).

    With ``checkpoint_path`` set, the run resumes from a valid snapshot
    at that path when one exists (a corrupt or mismatched snapshot is
    reported and the run falls back to a cold start), auto-snapshots
    every ``checkpoint_interval`` cycles while running, and removes the
    snapshot once the run completes (a finished run needs no resume
    point, and a stale snapshot must not shadow a future re-run).

    ``invariants`` overrides the ``$REPRO_INVARIANTS`` default, on a
    cold start and a resume alike; the differential harness forces it
    on so every oracle run is also machine-checked.

    ``sentinel`` attaches a :class:`repro.harness.supervise.RunSentinel`
    to the run loop (heartbeats, graceful shutdown); it is handed the
    checkpoint hook so a sentinel-triggered exit can flush a snapshot
    first.
    """
    if perfect_memory:
        cfg = cfg.replace(perfect_memory=True)
    if throttle != cfg.throttle.enabled:
        cfg = cfg.replace(throttle=dataclasses.replace(cfg.throttle, enabled=throttle))
    factory = (
        (lambda core_id: builder(distance, degree)) if builder is not None else None
    )
    workload = WORKLOAD_MEMO.get(kernel, swp)
    sim: Optional[GpuSimulator] = None
    if checkpoint_path is not None:
        checkpoint_path = Path(checkpoint_path)
        if checkpoint_path.exists():
            try:
                envelope = load_checkpoint(
                    checkpoint_path, fingerprint=checkpoint_tag, config=cfg
                )
                sim = restore_simulator(
                    envelope, cfg, factory,
                    workload.blocks, workload.max_blocks_per_core,
                    invariants=invariants, profiler=profiler, metrics=metrics,
                )
            except CheckpointError as exc:
                # Recoverable: leave a structured trace of the rejected
                # snapshot, drop it, and cold-start the run.
                Sink("rejected-snapshot report").attempt(
                    write_failure_report,
                    checkpoint_path.with_suffix(".failure.json"),
                    exc.to_report(),
                )
                try:
                    checkpoint_path.unlink(missing_ok=True)
                except OSError:
                    pass
                warnings.warn(
                    f"discarding invalid checkpoint and cold-starting: {exc}",
                    RuntimeWarning,
                    stacklevel=2,
                )
                sim = None
    if sim is None:
        sim = GpuSimulator(
            cfg, factory, invariants=invariants, profiler=profiler,
            metrics=metrics,
        )
        sim.load_workload(workload.blocks, workload.max_blocks_per_core)
    checkpoint = None
    if checkpoint_path is not None:
        checkpoint = attach_checkpointing(
            sim, checkpoint_path, checkpoint_interval, fingerprint=checkpoint_tag
        )
    if sentinel is not None:
        sentinel.attach(sim, checkpoint)
    result = sim.run(strict=strict)
    if checkpoint_path is not None:
        try:
            Path(checkpoint_path).unlink(missing_ok=True)
        except OSError:
            pass
    result.stats.benchmark = kernel.name
    return result


def checkpoint_path_for(spec: RunSpec, directory: Union[str, Path]) -> Path:
    """Canonical auto-checkpoint location for a spec under ``directory``.

    Named ``<benchmark>-<fingerprint[:12]>.ckpt.json`` — the same key
    prefix as cached results and profiles, so a run's artifacts
    correlate — and deterministic across processes, which is what lets a
    retried worker find the snapshot its crashed predecessor left.
    """
    return Path(directory) / f"{spec.benchmark}-{fingerprint(spec)[:12]}.ckpt.json"


def metrics_path_for(spec: RunSpec, directory: Union[str, Path]) -> Path:
    """Canonical metrics-document location for a spec under ``directory``.

    Named ``<benchmark>-<fingerprint[:12]>.metrics.json`` — the same key
    prefix as cached results, profiles and checkpoints, so all of a
    run's artifacts join on the fingerprint (see OBSERVABILITY.md).
    """
    return Path(directory) / f"{spec.benchmark}-{fingerprint(spec)[:12]}.metrics.json"


def run_spec(
    spec: RunSpec, options: Optional[RunOptions] = None, strict: bool = True
) -> SimulationResult:
    """Execute one fully-normalized :class:`RunSpec`.

    This is the sweep-engine worker entry point; no further defaulting
    happens here, so a spec simulates identically no matter which process
    runs it.  Harness runs are *strict* by default: a run that exhausts
    ``max_cycles`` raises :class:`~repro.sim.errors.CycleLimitExceeded`
    instead of returning partial statistics, so a truncated simulation
    can never be cached or averaged into a figure as if it completed.

    ``options`` (:class:`~repro.harness.sweep.RunOptions`; default: no
    observers) says how to check and observe the run; the run derives
    its artifact paths from its directories (:func:`metrics_path_for`,
    :func:`checkpoint_path_for`).  A valid snapshot of *this* spec in
    the checkpoint directory resumes the run bit-identically; a corrupt
    or mismatched one is reported (``<path>.failure.json``), discarded,
    and the run cold-starts.  No option changes the simulated
    statistics — the determinism, checkpoint and telemetry suites assert
    so.
    """
    options = options or RunOptions()
    kernel = get_benchmark(spec.benchmark, scale=spec.scale)
    builder = HARDWARE_SCHEMES[spec.hardware]
    key = fingerprint(spec)
    profiler = SimProfiler() if options.profile_dir is not None else None
    recorder: Optional[MetricsRecorder] = None
    if options.metrics_dir is not None:
        recorder = MetricsRecorder(interval=options.metrics_interval)
        recorder.benchmark = spec.benchmark
        recorder.fingerprint = key
    checkpoint_path = None
    if options.checkpoint_dir is not None:
        checkpoint_path = checkpoint_path_for(spec, options.checkpoint_dir)
    # The sentinel is built before trace generation so its first
    # heartbeat (which records this worker's pid) lands immediately.
    # Without heartbeats (a directory and an interval) it still honors
    # shutdown requests: that is what lets a run checkpoint and bow out
    # on SIGTERM.
    heartbeat = None
    if None not in (options.heartbeat_dir, options.heartbeat_interval):
        heartbeat = supervise.HeartbeatWriter(
            supervise.heartbeat_path_for(spec.benchmark, key, options.heartbeat_dir),
            options.heartbeat_interval,
        )
    sentinel = supervise.RunSentinel(heartbeat=heartbeat)
    result = _simulate(
        kernel, spec.software, builder, spec.distance, spec.degree,
        spec.config, spec.throttle, spec.perfect_memory, strict=strict,
        profiler=profiler,
        metrics=recorder,
        checkpoint_path=checkpoint_path,
        checkpoint_interval=options.checkpoint_interval,
        checkpoint_tag=key,
        invariants=options.invariants,
        sentinel=sentinel,
    )
    sentinel.close()
    if recorder is not None:
        # A snapshot restored into this run can carry the identity of
        # the interrupted process; re-stamp so the document names this
        # spec either way.
        recorder.benchmark = spec.benchmark
        recorder.fingerprint = key
        Sink("metrics document").attempt(
            recorder.write, metrics_path_for(spec, options.metrics_dir)
        )
    if profiler is not None:
        profiler.benchmark = spec.benchmark
        Sink("profile document").attempt(
            profiler.write,
            Path(options.profile_dir) / f"{spec.benchmark}-{key[:12]}.json",
        )
    return result


def run_benchmark(
    benchmark: Union[str, KernelSpec],
    software: Union[str, SoftwarePrefetchConfig] = "none",
    hardware: str = "none",
    throttle: bool = False,
    distance: Optional[int] = None,
    degree: int = 1,
    config: Optional[GpuConfig] = None,
    perfect_memory: bool = False,
    scale: float = 1.0,
) -> SimulationResult:
    """Run one (benchmark, scheme, machine) combination and return results.

    Args:
        benchmark: Benchmark name (see :data:`MEMORY_BENCHMARKS`) or a
            custom :class:`KernelSpec`.
        software: Software prefetching scheme name or config.
        hardware: Hardware prefetcher scheme name (:data:`HARDWARE_SCHEMES`).
        throttle: Enable the adaptive throttle engine (applies to both
            software and hardware prefetch requests).
        distance, degree: Prefetcher aggressiveness (hardware and software).
            ``distance=None`` keeps each scheme's own default; an explicit
            value — including 1 — overrides it.
        config: Machine configuration; defaults to the Table II baseline.
        perfect_memory: All memory requests complete instantly (for the
            PMEM CPI columns of Tables III/IV).
        scale: Grid scale factor passed to :func:`get_benchmark`.
    """
    if isinstance(benchmark, KernelSpec):
        swp, hw_distance = _normalize_scheme_args(software, hardware, distance)
        return _simulate(
            benchmark, swp, HARDWARE_SCHEMES[hardware], hw_distance, degree,
            config or baseline_config(), throttle, perfect_memory, strict=True,
        )
    return run_spec(make_spec(
        benchmark, software=software, hardware=hardware, throttle=throttle,
        distance=distance, degree=degree, config=config,
        perfect_memory=perfect_memory, scale=scale,
    ))


def _raise_failure(failure: RunFailure) -> NoReturn:
    """Raise a failed point as :meth:`ExperimentRunner.run` documents."""
    if failure.exception is not None:
        raise failure.exception
    raise RunFailedError(failure)


class ExperimentRunner:
    """Memoizing front end over the sweep engine.

    Figure scripts share many runs (above all the no-prefetching baseline);
    the runner keeps each completed simulation in memory under its spec
    fingerprint, and — when a cache directory is configured — in the
    persistent on-disk result cache shared machine-wide, so the baseline
    is simulated exactly once, ever, per machine.

    Args:
        config: Default machine configuration for all runs.
        scale: Grid scale factor for all runs.
        jobs: Worker processes for :meth:`warm` sweeps (1 = serial
            inline); at least 1.
        cache_dir: On-disk result cache directory; ``None`` defers to
            ``use_cache`` / ``$REPRO_CACHE_DIR``.
        use_cache: ``True`` forces caching on (default directory if
            ``cache_dir`` is unset), ``False`` forces it off, ``None``
            (default) enables it only when a directory was named.
        progress: Emit a progress/ETA line to stderr during sweeps.
        timeout: **Per-run** deadline in seconds for pooled sweeps; only a
            run exceeding its own deadline fails.
        retries: Extra attempts for a pooled run whose worker process
            died (or that missed its deadline with checkpointing on);
            like deadlines, retries apply to pooled runs only, and any
            other failure is recorded at once.  At least 0.
        manifest: Path to a JSONL checkpoint journal; an interrupted
            sweep re-invoked with the same manifest resumes from partial
            progress.
        options: The :class:`~repro.harness.sweep.RunOptions` every run
            gets: invariant checking, observer directories and intervals,
            and the interval of the heartbeats pooled runs write.

    With a cache configured, the engine claims work-claim leases so
    concurrent sweeps sharing the cache directory do not duplicate a
    simulation (see :mod:`repro.harness.coordinate`).
    """

    def __init__(
        self,
        config: Optional[GpuConfig] = None,
        scale: float = 1.0,
        jobs: int = 1,
        cache_dir: Union[str, Path, None] = None,
        use_cache: Optional[bool] = None,
        progress: bool = False,
        timeout: Optional[float] = None,
        retries: int = 2,
        manifest: Union[str, Path, None] = None,
        options: Optional[RunOptions] = None,
    ) -> None:
        self.config = config or baseline_config()
        self.scale = scale
        self.engine = SweepEngine(
            cache=build_result_cache(cache_dir, use_cache),
            jobs=jobs,
            timeout=timeout,
            progress=ProgressReporter(enabled=progress),
            retries=retries,
            manifest=manifest,
            options=options,
        )
        self._cache: Dict[str, SimulationResult] = {}
        # Points a sweep of this runner failed, by fingerprint.  run()
        # raises the failure instead of simulating the point again in
        # this process, where no deadline applies.
        self._failed: Dict[str, RunFailure] = {}

    def _spec(
        self,
        benchmark: str,
        software: Union[str, SoftwarePrefetchConfig] = "none",
        hardware: str = "none",
        throttle: bool = False,
        distance: Optional[int] = None,
        degree: int = 1,
        perfect_memory: bool = False,
        config: Optional[GpuConfig] = None,
    ) -> RunSpec:
        return make_spec(
            benchmark, software=software, hardware=hardware, throttle=throttle,
            distance=distance, degree=degree, config=config or self.config,
            perfect_memory=perfect_memory, scale=self.scale,
        )

    def run(
        self,
        benchmark: str,
        software: Union[str, SoftwarePrefetchConfig] = "none",
        hardware: str = "none",
        throttle: bool = False,
        distance: Optional[int] = None,
        degree: int = 1,
        perfect_memory: bool = False,
        config: Optional[GpuConfig] = None,
    ) -> SimulationResult:
        """Run (or recall) one combination.

        A failed point raises its failure: the original exception when
        the run raised one, else :class:`~repro.harness.sweep.RunFailedError`
        (a timed-out run, say).  Single runs are strict; only sweeps
        isolate faults.  A point that failed once, here or in
        :meth:`warm`, raises again without running, so finishing an
        exhibit never re-simulates a failed grid point outside its
        sweep's deadline.
        """
        spec = self._spec(
            benchmark, software, hardware, throttle, distance, degree,
            perfect_memory, config,
        )
        key = fingerprint(spec)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        failure = self._failed.get(key)
        if failure is None:
            outcome = self.engine.run([spec])[0]
            if not isinstance(outcome, RunFailure):
                self._cache[key] = outcome
                return outcome
            failure = self._failed[key] = outcome
        _raise_failure(failure)

    def warm(self, requests: Iterable[Mapping[str, object]]) -> List[Outcome]:
        """Fan a grid of run requests out over the worker pool.

        Each request is a dict of :meth:`run` keyword arguments.  Results
        land in the runner's memory (and disk) cache and come back in
        request order.  Failed runs are returned as :class:`RunFailure`
        entries in the corresponding slots and kept under their keys:
        neither a later :meth:`warm` nor :meth:`run` attempts the point
        again, and :meth:`run` raises its failure.
        """
        pairs = []
        for request in requests:
            spec = self._spec(**request)
            pairs.append((fingerprint(spec), spec))
        missing = [
            (k, s) for k, s in pairs if k not in self._cache and k not in self._failed
        ]
        outcomes = self.engine.run([s for _, s in missing])
        for (key, _), outcome in zip(missing, outcomes):
            if isinstance(outcome, RunFailure):
                self._failed[key] = outcome
            else:
                self._cache.setdefault(key, outcome)
        return [
            self._cache[key] if key in self._cache else self._failed[key]
            for key, _ in pairs
        ]

    def grid(
        self,
        benchmarks: Sequence[str],
        variants: Sequence[Mapping[str, object]],
    ) -> List[List[SimulationResult]]:
        """Simulate every benchmark under every variant in one sweep.

        Each variant is a dict of :meth:`run` keyword arguments other
        than ``benchmark``.  The one :meth:`warm` call lists the grid
        benchmark by benchmark, each benchmark's variants in the order
        given, so the runs of one trace (benchmark x software scheme)
        sit next to each other as long as the variants list each
        software scheme's runs together (DESIGN §5.5).  Returns one row
        per benchmark: its variants' results, in order.  A failed point
        raises as :meth:`run` raises it.
        """
        outcomes = self.warm(
            {"benchmark": name, **variant}
            for name in benchmarks
            for variant in variants
        )
        for outcome in outcomes:
            if isinstance(outcome, RunFailure):
                _raise_failure(outcome)
        width = len(variants)
        return [outcomes[i * width:(i + 1) * width] for i in range(len(benchmarks))]


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean, the paper's cross-benchmark average.

    Non-positive values are excluded (a zero-cycle run has no meaningful
    speedup) — but never silently: excluding them skews the mean upward
    and usually indicates a failed or degenerate simulation, so a
    ``RuntimeWarning`` is emitted naming the dropped count.
    """
    all_vals = list(values)
    vals = [v for v in all_vals if v > 0]
    if len(vals) != len(all_vals):
        warnings.warn(
            f"geometric_mean: dropped {len(all_vals) - len(vals)} non-positive "
            f"value(s) out of {len(all_vals)} — a zero speedup usually means a "
            "failed (zero-cycle) simulation",
            RuntimeWarning,
            stacklevel=2,
        )
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))
