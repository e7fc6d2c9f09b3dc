"""Parallel sweep engine with a persistent result cache and fault tolerance.

Every simulation in this reproduction is a pure function of its parameter
tuple — the trace generator is deterministic and the simulator has no
hidden state — so two properties fall out for free and this module
exploits both:

* **Embarrassing parallelism.**  A figure's benchmark x scheme x
  aggressiveness grid can fan out over a process pool
  (:class:`SweepEngine`), with deterministic result ordering (outputs are
  returned in input order regardless of completion order) and worker-level
  fault isolation (a crashed, truncated, or stalled run records a
  structured :class:`RunFailure` instead of killing the sweep).  One
  dispatch loop schedules every sweep; it runs the specs in this process
  instead when the pool would have a single worker.

* **Machine-wide memoization.**  A completed run's statistics can be
  persisted on disk (:class:`ResultCache`) keyed by a stable fingerprint
  of the *full* normalized parameter tuple — ``(benchmark, software,
  hardware, throttle, distance, degree, config, perfect_memory, scale)``
  — plus a schema version.  Any process that later needs the same run
  (above all the shared no-prefetching baseline every figure normalizes
  against) loads it instead of re-simulating.

Fault-tolerance model (the integrity layer of the harness):

* **Per-run deadlines.**  ``timeout`` bounds each pooled run's own wall
  clock, and is the one defence against a stuck run.  The run that
  exceeds its deadline is recorded as a ``timeout`` failure and its
  pool is killed; the runs in flight beside it run again on a fresh
  pool, uncharged, so no stuck worker outlives its deadline.
* **Retry of a dead worker.**  A pooled run whose worker process died
  (the pool reports it as :class:`~concurrent.futures.BrokenExecutor`)
  goes to the back of the queue, up to ``retries`` extra attempts.
  Nothing else a run raises is retried, and neither is a missed
  deadline: the simulator is deterministic and every artifact write is
  best-effort, so any other failure would recur on every attempt.  An
  in-process run has no worker to lose and is never retried.
* **Resume from the result cache.**  An interrupted sweep re-invoked
  with the same cache simulates only what is missing.  A
  :class:`SweepManifest` journals every outcome for a reader and
  ``repro fsck``; nothing reads it back, so an uncached sweep restarts.
* **Mid-run crash recovery.**  With a checkpoint directory in the
  sweep's :class:`RunOptions` (see :mod:`repro.sim.checkpoint`), every
  worker snapshots its simulator periodically and
  :func:`repro.harness.runner.run_spec` resumes from the newest valid
  snapshot, so a crashed worker's retry continues from the last
  checkpoint instead of restarting at cycle 0.
* **Heartbeats** (see :mod:`repro.harness.supervise`).  With a
  heartbeat interval in the options, every pooled worker writes periodic
  liveness heartbeats that record its pid, into the options'
  ``heartbeat_dir`` or else a private temporary directory removed when
  the sweep ends.  Nothing here reads them, and no run is killed
  because its heartbeat went quiet.
* **Best-effort artifact writes.**  Cache entries, manifest lines and
  every per-run artifact go through a :class:`~repro.sim.artifacts.Sink`:
  the first failed write warns once and stops that sink, and the dropped
  cache and manifest writes are counted in the sweep summary.  No failed
  artifact write fails a run or a sweep.
* **Graceful shutdown.**  The first SIGTERM/SIGINT during a sweep stops
  admission, drains in-flight runs (which flush checkpoints), journals a
  final manifest record, and raises :class:`SweepInterrupted`; the CLI
  exits 130 and a re-invocation with the same cache resumes exactly.  A
  draining engine relays SIGTERM to its pool workers, so a signal sent
  to the engine alone reaches the runs too, and kills the workers still
  running after :data:`DRAIN_TIMEOUT`.  A second signal forces
  immediate exit.
* **Cooperative multi-process coordination** (see
  :mod:`repro.harness.coordinate`).  With a cache attached, the engine
  claims a work-claim lease under ``<cache-root>/leases/`` before
  simulating each uncached spec.  A concurrent sweep that finds the
  lease live puts the spec back behind a short gate and claims it again
  later; once the claimant has cached its result and released the
  lease, that claim succeeds and a cache re-check finds the result
  instead of re-simulating it.  A lease whose renewals stopped
  (SIGKILLed claimant) is atomically stolen.  Coordination is purely an
  optimization — correctness still rests on atomic cache writes — and
  an unusable lease directory degrades to uncoordinated runs.

Run options: the engine hands one frozen :class:`RunOptions` to every
worker call beside the spec, ``worker(spec, options)``, pooled or
inline, so no setting travels through process-wide state.  With a
profile, metrics or checkpoint directory in it (the CLI's ``--profile``
/ ``--metrics-dir`` / ``--checkpoint-dir``), each *executed* run
additionally writes a wall-clock profile, a windowed-metrics time-series
document, and periodic snapshots, all named
``<benchmark>-<fingerprint[:12]>.*`` — the same key prefix as this
module's result cache, so a run's artifacts join on the fingerprint
(see OBSERVABILITY.md).  Cache hits execute nothing and therefore emit
nothing.  None of the observers changes simulated statistics, so no
run option participates in the cache fingerprint.

Cache invalidation contract: :data:`SCHEMA_VERSION` must be bumped
whenever a change alters simulation semantics (timing model, prefetcher
behavior, trace generation, stats definitions).  Configuration changes
need no bump — every code-relevant config field is part of the
fingerprint, so a changed config is simply a different key.  See
``DESIGN.md`` for the full rules.

The execution entry point for one spec lives in
:func:`repro.harness.runner.run_spec`; this module only imports it inside
the worker so that ``runner`` can import ``sweep`` without a cycle.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import re
import shutil
import signal
import sys
import tempfile
import threading
import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, Future, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    TextIO,
    Union,
)

from repro.harness import supervise
from repro.harness.coordinate import (
    DEFAULT_LEASE_GRACE,
    LeaseManager,
    lease_dir_for,
)
from repro.sim.artifacts import DEFAULT_METRICS_INTERVAL, Sink, atomic_write_json
from repro.sim.config import GpuConfig
from repro.sim.errors import SimulationError, WorkerInterrupted
from repro.sim.gpu import SimulationResult
from repro.sim.stats import SimStats
from repro.trace.swp import SoftwarePrefetchConfig

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

#: Bump whenever a code change alters what any cached result would contain:
#: simulator timing, prefetcher algorithms, trace generation, or the
#: :class:`SimStats` field set.  Old cache entries live under a versioned
#: subdirectory and are simply never read again after a bump.
#:
#: v2: ``SimStats`` gained the ``truncated`` field (simulation integrity
#: layer); v1 entries cannot state whether they were truncated.
#:
#: v3: Eq. 6 merge accounting fixed — a redundant prefetch probing an
#: in-flight line no longer counts as an intra-core merge/request (it is
#: tracked separately as ``total_prefetch_merged``), demand merges into
#: unsent stores promote the entry, and over-footprint instructions issue
#: in chunks.  Cached v2 stats for prefetching runs are stale.
SCHEMA_VERSION = 3

#: Environment variable overriding the default machine-wide cache root.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Maximum seconds a shutdown request waits for in-flight pooled runs to
#: finish, or checkpoint and bow out, before killing their workers.
DRAIN_TIMEOUT = 30.0

@dataclass(frozen=True)
class RunSpec:
    """One fully-normalized simulation request.

    Build these with :func:`repro.harness.runner.make_spec`, which applies
    the same defaulting as :func:`repro.harness.runner.run_benchmark`
    (scheme-name resolution, the distance sentinel, baseline config) so
    that equal requests always normalize to equal specs — the property the
    cache fingerprint relies on.
    """

    benchmark: str
    software: SoftwarePrefetchConfig
    hardware: str
    throttle: bool
    distance: int
    degree: int
    perfect_memory: bool
    scale: float
    config: GpuConfig


#: Default simulated cycles between auto-checkpoints when a checkpoint
#: directory is set but no interval is given (``--checkpoint-interval``).
DEFAULT_CHECKPOINT_INTERVAL = 50_000


@dataclass(frozen=True)
class RunOptions:
    """How to check and observe runs; never part of a spec's fingerprint.

    The sweep engine hands one to every worker call beside the spec, so
    pooled and inline runs see the same options without any process-wide
    state.  Observers never change simulated statistics, which is why
    none of these fields enters the cache key.  Each run names its
    artifacts ``<benchmark>-<fingerprint[:12]>`` in these directories.

    Attributes:
        invariants: Attach the invariant checker; ``None`` defers to
            ``$REPRO_INVARIANTS``.
        profile_dir: Write a wall-clock profile per executed run here.
        metrics_dir: Write a windowed-metrics document per executed run.
        metrics_interval: Nominal simulated cycles per metrics window.
        checkpoint_dir: Snapshot each run here every
            ``checkpoint_interval`` cycles; a run whose snapshot is
            already there resumes from it, and a finished run removes it.
        checkpoint_interval: Simulated cycles between snapshots.
        heartbeat_interval: Seconds between worker liveness heartbeats.
            Only pooled runs write them.
        heartbeat_dir: Heartbeat files go here (with an interval set);
            a pooled sweep names a private directory when unset.
    """

    invariants: Optional[bool] = None
    profile_dir: Union[str, Path, None] = None
    metrics_dir: Union[str, Path, None] = None
    metrics_interval: int = DEFAULT_METRICS_INTERVAL
    checkpoint_dir: Union[str, Path, None] = None
    checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL
    heartbeat_dir: Union[str, Path, None] = None
    heartbeat_interval: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("metrics_interval", "checkpoint_interval",
                     "heartbeat_interval"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")


@dataclass
class RunFailure:
    """Structured record of one run that crashed, stalled, or truncated.

    Sweeps never die because one grid point did: the failure is returned
    in the run's output slot and the remaining runs proceed.  ``exception``
    carries the original exception object when one is available (both the
    inline path and the pool path preserve it), so strict callers can
    re-raise it.  ``kind`` is the failure taxonomy tag: ``"exception"``,
    ``"timeout"``, ``"truncated"``, ``"invariant"``, ``"deadlock"``,
    ``"interrupted"`` or ``"checkpoint"``.  ``report`` holds the
    diagnostic snapshot payload when the failure was a
    :class:`~repro.sim.errors.SimulationError`.
    """

    spec: RunSpec
    key: str
    kind: str
    error: str
    traceback: str = ""
    exception: Optional[BaseException] = None
    attempts: int = 1
    report: Optional[Dict] = None

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"RunFailure({self.spec.benchmark}, {self.kind}: {self.error})"


class RunFailedError(RuntimeError):
    """A failed run that raised nothing itself, raised where it is needed.

    :meth:`~repro.harness.runner.ExperimentRunner.run` raises it for a
    failure that carries no exception (a timed-out run, say); a failure
    that does re-raises that exception.
    ``failure`` is the :class:`RunFailure`; the message names the run and
    its failure kind on one line, which is what the CLI prints before
    exiting 1.
    """

    def __init__(self, failure: RunFailure) -> None:
        spec = failure.spec
        error = failure.error.splitlines()[0] if failure.error else ""
        super().__init__(
            f"run {spec.benchmark} (software {spec.software.describe()}, "
            f"hardware {spec.hardware}{'+T' if spec.throttle else ''}, "
            f"key {failure.key[:12]}) failed [{failure.kind}]: {error}"
        )
        self.failure = failure


Outcome = Union[SimulationResult, RunFailure]


# ----------------------------------------------------------------------
# Fingerprinting
# ----------------------------------------------------------------------


def fingerprint(spec: RunSpec) -> str:
    """Stable hex digest of a spec plus the cache schema version.

    The digest covers every field of the spec, including the complete
    nested :class:`GpuConfig` — any machine-configuration change yields a
    different key, which is what makes the on-disk cache safe to share
    across sweeps with different configs.
    """
    canonical = json.dumps(
        {"schema": SCHEMA_VERSION, "spec": spec}, default=_dataclass_fields,
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _dataclass_fields(value: object) -> Dict[str, object]:
    """A dataclass's fields by name: how :func:`fingerprint` serializes
    the nested dataclasses it meets, the same JSON as
    ``dataclasses.asdict`` without copying every leaf first."""
    return {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}


# ----------------------------------------------------------------------
# Persistent result store
# ----------------------------------------------------------------------


def default_cache_dir() -> Path:
    """Machine-wide cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-mtap``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-mtap"


_CACHE_ENTRY_NAME = re.compile(r"^[0-9a-f]{64}\.json$")
_CACHE_VERSION_DIR = re.compile(r"^v(\d+)$")


def cache_entry_version(path: Path) -> Optional[int]:
    """Schema version when ``path`` sits in cache layout, else ``None``.

    Layout: ``.../v<N>/<key[:2]>/<key>.json`` with a 64-hex key.
    """
    if not _CACHE_ENTRY_NAME.match(path.name):
        return None
    if path.parent.name != path.name[:2]:
        return None
    version = _CACHE_VERSION_DIR.match(path.parent.parent.name)
    return int(version.group(1)) if version else None


def read_cache_entry(path: Path) -> SimStats:
    """The stats a result-cache entry holds: the one reader of entries.

    An entry is a finished result :meth:`ResultCache.put` stored: a JSON
    object whose schema tag names its ``v<N>`` directory, whose embedded
    key is its filename, and whose stats deserialize and are not flagged
    truncated.  ``repro fsck`` judges entries with this reader too, so
    the auditor calls corrupt exactly what the cache refuses to serve.

    Raises:
        FileNotFoundError: No entry at ``path``.
        OSError: The entry cannot be read.
        ValueError: The entry is not a stored result; the message says
            which rule it breaks.
    """
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # torn JSON or bytes that are not UTF-8
        raise ValueError(f"unparsable: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError("payload is not an object")
    if f"v{payload.get('schema')}" != path.parent.parent.name:
        raise ValueError(
            f"schema tag {payload.get('schema')!r} disagrees with the "
            f"{path.parent.parent.name} directory"
        )
    if payload.get("key") != path.stem:
        raise ValueError("embedded key does not match the filename")
    try:
        stats = SimStats.from_dict(payload["stats"])
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ValueError(f"stats do not deserialize: {exc!r}") from None
    if stats.truncated:
        raise ValueError(
            "stats are flagged truncated (never stored by the engine; "
            "the entry was planted or tampered with)"
        )
    return stats


class ResultCache:
    """Persistent key -> :class:`SimStats` store shared across processes.

    Layout: ``<root>/v<SCHEMA_VERSION>/<key[:2]>/<key>.json``, one file
    per result holding the spec (for auditability) and the raw stats
    counters.  Writes are atomic (temp file + ``os.replace``) so
    concurrent sweep workers and concurrent sweeps can share a directory;
    an entry :func:`read_cache_entry` rejects — torn JSON, a schema or
    key that does not match its path, stats that do not deserialize or
    are flagged truncated — is treated as a miss *and evicted*: the bad
    file is atomically renamed to ``<key>.json.corrupt`` (best-effort)
    so the re-parse tax is paid once, not on every future lookup, and
    the renamed file stays on disk for ``repro fsck`` to report.
    Evictions are counted in ``corrupt_evicted`` and surfaced in the
    sweep summary.  Writes go through :attr:`sink`: the first failed one
    warns and stops caching for the rest of this cache's life, and every
    dropped write is counted (surfaced in the sweep summary).  Truncated
    results are never stored.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root) / f"v{SCHEMA_VERSION}"
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: Entries that could not be read or did not parse.
        self.errors = 0
        self.corrupt_evicted = 0
        self.sink = Sink("result cache")

    def path_for(self, key: str) -> Path:
        """On-disk location for a fingerprint key (two-level fan-out)."""
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[SimStats]:
        """Load cached stats for ``key``, or None on miss/corruption."""
        path = self.path_for(key)
        try:
            stats = read_cache_entry(path)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError):
            self.errors += 1
            self.misses += 1
            self._evict_corrupt(path)
            return None
        self.hits += 1
        return stats

    def _evict_corrupt(self, path: Path) -> None:
        """Quarantine a corrupt entry to ``<name>.corrupt`` (best-effort).

        Atomic rename, so a concurrent reader sees either the corrupt
        file or nothing — never a half-moved one.  A rename failure
        (permissions, a concurrent eviction winning the race) is
        swallowed: eviction is an optimization, the entry was already
        treated as a miss either way.
        """
        try:
            os.replace(path, path.with_name(path.name + ".corrupt"))
        except OSError:
            return
        self.corrupt_evicted += 1

    def put(self, key: str, spec: RunSpec, stats: SimStats) -> None:
        """Persist a completed run atomically (best-effort; never raises)."""
        if stats.truncated:
            # A truncated run is not a result; caching it would let a
            # partial simulation masquerade as a completed one forever.
            return
        payload = {
            "schema": SCHEMA_VERSION,
            "key": key,
            "spec": dataclasses.asdict(spec),
            "stats": stats.to_dict(),
        }
        # Shared atomic-write helper: pid-stamped scratch temp in the
        # same directory, replaced into place, cleaned up on any
        # exception path.  sort_keys makes the entry byte-identical no
        # matter which process wrote it — what lets tests diff two
        # independently-merged caches file by file.
        if self.sink.attempt(
            atomic_write_json, self.path_for(key), payload, sort_keys=True
        ):
            self.stores += 1

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))


def build_result_cache(
    cache_dir: Union[str, Path, None] = None,
    use_cache: Optional[bool] = None,
) -> Optional[ResultCache]:
    """Resolve the (cache_dir, use_cache) knob pair into a cache or ``None``.

    * ``use_cache=False`` — caching off, regardless of ``cache_dir``.
    * ``use_cache=True`` — caching on, in ``cache_dir`` or the default
      machine-wide directory.
    * ``use_cache=None`` (auto) — caching on only when a directory was
      named explicitly (``cache_dir`` argument or ``$REPRO_CACHE_DIR``).
    """
    if use_cache is False:
        return None
    if cache_dir is not None:
        return ResultCache(cache_dir)
    if use_cache:
        return ResultCache(default_cache_dir())
    env = os.environ.get(CACHE_DIR_ENV)
    return ResultCache(env) if env else None


# ----------------------------------------------------------------------
# Checkpointed sweep manifest
# ----------------------------------------------------------------------

def append_line(path: Path, line: str) -> None:
    """Append one line to ``path`` and push it to stable storage.

    The fsync comes before the sweep moves on: a process killed right
    after this call must find the line intact on resume, not sitting in
    a userspace buffer that died with the process.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
        fh.flush()
        os.fsync(fh.fileno())


def parse_manifest_line(line: bytes) -> Optional[Dict]:
    """One journal line as a record: the one parser of manifest lines.

    A record is a JSON object with a ``schema`` tag.  A ``done`` record
    carries a finished run's stats, so its ``stats`` must deserialize
    and not be flagged truncated; they come back as a :class:`SimStats`.
    Anything else — a line torn by an interrupted write (even mid-way
    through a multi-byte UTF-8 character), a foreign line, a ``done``
    record without usable stats — returns ``None``.  ``repro fsck``
    judges journal lines with it.
    """
    try:
        record = json.loads(line.decode("utf-8"))
    except ValueError:  # UnicodeDecodeError included
        return None
    if not isinstance(record, dict) or "schema" not in record:
        return None
    if record.get("status") == "done":
        try:
            record["stats"] = SimStats.from_dict(record["stats"])
        except (KeyError, TypeError, ValueError, AttributeError):
            return None
        if record["stats"].truncated:
            return None
    return record


class SweepManifest:
    """Append-only, write-only JSONL journal of per-spec sweep outcomes.

    One line per recorded outcome: ``{"schema": ..., "key": ...,
    "status": "done"|"failed", ...}``, and a final ``__sweep__`` record.
    Appending a whole, fsync'd line per event makes the journal
    crash-safe: a torn final line costs only itself.  It tells a reader,
    and ``repro fsck``, what a sweep did; an interrupted sweep resumes
    from the result cache.  Appends go through :attr:`sink`: the first
    failed one warns and stops the journal, every dropped append is
    counted in the sweep summary, and the sweep continues.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.sink = Sink("sweep manifest")

    def _append(self, record: Dict) -> None:
        record = {"schema": SCHEMA_VERSION, **record}
        self.sink.attempt(
            append_line, self.path, json.dumps(record, sort_keys=True)
        )

    def record_success(self, key: str, spec: RunSpec, stats: SimStats) -> None:
        """Journal a completed run and its stats."""
        self._append(
            {
                "key": key,
                "status": "done",
                "benchmark": spec.benchmark,
                "stats": stats.to_dict(),
            }
        )

    def record_failure(self, failure: RunFailure) -> None:
        """Journal a failed run: its kind, error and attempts."""
        self._append(
            {
                "key": failure.key,
                "status": "failed",
                "benchmark": failure.spec.benchmark,
                "kind": failure.kind,
                "error": failure.error,
                "attempts": failure.attempts,
            }
        )

    def record_final(self, summary: Dict) -> None:
        """Journal the sweep-final summary record.

        Uses the reserved key ``"__sweep__"`` (spec keys are 64-char hex
        fingerprints, so the two namespaces can never collide).  This is
        what *finalizes* the manifest on both normal completion and
        graceful shutdown: a reader can tell a journal that simply stops
        (crash) from one whose sweep ended deliberately, interrupted or
        not.
        """
        self._append({"key": "__sweep__", "status": "final", **summary})


# ----------------------------------------------------------------------
# Progress / ETA reporting
# ----------------------------------------------------------------------


class ProgressReporter:
    """Single-line progress + ETA reporter for long sweeps.

    On a TTY, writes carriage-return-updated status lines to ``stream``
    (stderr by default).  On a non-TTY stream (a log file, a CI pipe, a
    captured test stream) carriage returns would pile every intermediate
    update into one unreadable line, so only the final status line is
    written, ``\\r``-free.  Disabled reporters are no-ops, so the engine
    can call them unconditionally.  ``finish`` can append a one-line
    sweep summary (dropped cache/manifest writes, interruption status).
    """

    def __init__(self, enabled: bool = True, stream: Optional[TextIO] = None,
                 label: str = "sweep") -> None:
        self.enabled = enabled
        self.stream = stream if stream is not None else sys.stderr
        self.label = label
        self.total = 0
        self.done = 0
        self.cached = 0
        self.failed = 0
        self._t0 = 0.0
        self._tty = self._stream_is_tty()

    def _stream_is_tty(self) -> bool:
        """Best-effort TTY probe (closed/odd streams count as non-TTY)."""
        probe = getattr(self.stream, "isatty", None)
        if probe is None:
            return False
        try:
            return bool(probe())
        except (ValueError, OSError):
            return False

    def start(self, total: int, cached: int = 0) -> None:
        """Begin a sweep of ``total`` runs, ``cached`` already satisfied."""
        self.total = total
        self.done = cached
        self.cached = cached
        self.failed = 0
        self._t0 = time.monotonic()
        self._tty = self._stream_is_tty()
        self._emit()

    def step(self, failed: bool = False) -> None:
        """Record one finished run and refresh the progress line."""
        self.done += 1
        if failed:
            self.failed += 1
        self._emit()

    def finish(self, summary: Optional[str] = None) -> None:
        """Terminate the progress line; optionally append a summary line."""
        if self.enabled and self.total:
            self._emit(final=True)
            self.stream.write("\n")
            if summary:
                self.stream.write(f"[{self.label}] {summary}\n")
            self.stream.flush()

    def _emit(self, final: bool = False) -> None:
        if not self.enabled or not self.total:
            return
        if not final and not self._tty:
            return  # intermediate \r updates are noise in a log file
        elapsed = time.monotonic() - self._t0
        simulated = self.done - self.cached
        if simulated > 0 and self.done < self.total:
            eta = elapsed / simulated * (self.total - self.done)
            eta_text = f" eta {eta:6.1f}s"
        else:
            eta_text = ""
        line = (
            f"[{self.label}] {self.done}/{self.total} done"
            f" ({self.cached} cached, {self.failed} failed)"
            f" elapsed {elapsed:6.1f}s{eta_text}"
        )
        self.stream.write(("\r" if self._tty else "") + line)
        self.stream.flush()


# ----------------------------------------------------------------------
# Worker
# ----------------------------------------------------------------------


def _sweep_worker(spec: RunSpec, options: RunOptions) -> SimStats:
    """Default worker: execute one spec, return its (picklable) stats.

    ``run_spec`` is imported lazily so ``runner`` -> ``sweep`` stays a
    one-way module dependency.  Only the stats leave the call, so the
    simulator object graph (cores, DRAM) is freed as the run ends, in a
    pool worker or in the engine's own process.  Structured simulation
    failures (deadlock, truncation, invariant violations) pickle
    losslessly, diagnostic snapshot included.  The worker leaves signal
    dispositions alone: the pool's initializer installs the worker
    handlers in every pool process, and an in-process run keeps the
    engine's.
    """
    from repro.harness.runner import run_spec

    return run_spec(spec, options).stats


@dataclass
class _PendingRun:
    """Book-keeping for one spec attempt inside the pool scheduler."""

    key: str
    spec: RunSpec
    attempt: int = 0
    deadline: Optional[float] = None
    not_before: float = 0.0  # gate: the next lease claim
    deferred: bool = False  # parked at least once behind a sibling's lease


class SweepInterrupted(RuntimeError):
    """A sweep ended early because a graceful shutdown was requested.

    Raised by :meth:`SweepEngine.run` after the first SIGTERM/SIGINT:
    admission has stopped, in-flight runs have drained (flushing their
    checkpoints) or been killed at :data:`DRAIN_TIMEOUT`, every completed
    result is cached and journaled, and the manifest carries a final
    ``interrupted`` record.  Re-invoking the same sweep with the same
    result cache resumes exactly where this one stopped.

    Attributes:
        done: Unique runs with a recorded outcome at shutdown.
        pending: Unique runs never admitted (or drained unrecorded).
        manifest: Path of the finalized manifest, or None.
    """

    def __init__(
        self,
        message: str,
        done: int = 0,
        pending: int = 0,
        manifest: Optional[Path] = None,
    ) -> None:
        super().__init__(message)
        self.done = done
        self.pending = pending
        self.manifest = manifest


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------


class SweepEngine:
    """Fan a list of :class:`RunSpec` out over workers, cache the results.

    * Duplicate specs are simulated once and share one result object.
    * With a cache attached, previously-completed runs (from any process,
      ever, an interrupted sweep included) are loaded instead of
      simulated.
    * One dispatch loop schedules every sweep.  With ``jobs <= 1``, or a
      single miss, it calls the worker in this process (no pool
      overhead), one run at a time in input order; otherwise it submits
      runs to a process pool.  Either way the results are stats-only: a
      :class:`SimulationResult` whose core/DRAM handles are ``None``, so
      a finished machine is freed as its run ends rather than held by
      the result until the process exits.
    * On the main thread, :meth:`run` drains on the first SIGTERM/SIGINT
      and raises :class:`SweepInterrupted`; a second signal forces
      immediate exit.
    * Results are returned in input order, one outcome per input spec,
      each either a :class:`SimulationResult` or a :class:`RunFailure`.

    Args:
        cache: Persistent result cache, or ``None``.
        jobs: Worker processes (1 = run in this process).  Must be at
            least 1.
        timeout: **Per-run** wall-clock deadline in seconds for pooled
            runs.  A run exceeding it is recorded as a ``timeout``
            failure and its pool is killed; the runs beside it run
            again on a fresh pool, uncharged.  In-process runs cannot
            be preempted and ignore it.  Must be positive; ``None``
            means no deadline.
        progress: Progress/ETA reporter.
        worker: Run-execution callable, called as ``worker(spec,
            options)`` (overridable for testing and fault injection).
        retries: Maximum *additional* attempts for a pooled run whose
            worker process died.  Like deadlines, retries apply to
            pooled runs only; any other failure, a missed deadline
            included, is recorded at once.  Must be at least 0.
        manifest: Write-only journal of every outcome (path or
            :class:`SweepManifest`); a resumed sweep reads the cache.
        lease_grace: Seconds of renewal silence after which another
            process may steal one of this sweep's leases; the same
            default as ``repro fsck --grace``.
        options: The :class:`RunOptions` handed to every worker call.
            With its ``heartbeat_interval`` set, pooled workers write
            per-run heartbeat files (into ``heartbeat_dir``, or a
            private temporary directory removed when :meth:`run` ends).
            In-process runs write no heartbeats.
    """

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        jobs: int = 1,
        timeout: Optional[float] = None,
        progress: Optional[ProgressReporter] = None,
        worker: Callable[[RunSpec, RunOptions], SimStats] = _sweep_worker,
        retries: int = 2,
        manifest: Union[SweepManifest, str, Path, None] = None,
        lease_grace: float = DEFAULT_LEASE_GRACE,
        options: Optional[RunOptions] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if timeout is not None and not timeout > 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.cache = cache
        self.jobs = jobs
        self.timeout = timeout
        self.progress = progress or ProgressReporter(enabled=False)
        self.worker = worker
        self.retries = retries
        if manifest is not None and not isinstance(manifest, SweepManifest):
            manifest = SweepManifest(manifest)
        self.manifest = manifest
        self.options = options or RunOptions()
        self.leases: Optional[LeaseManager] = None
        if self.cache is not None:
            self.leases = LeaseManager(
                lease_dir_for(self.cache.root), grace=lease_grace
            )
        # Cumulative counters, exposed so callers (and the acceptance
        # tests) can verify e.g. that a warm re-run simulated nothing.
        self.simulated = 0
        self.cache_hits = 0
        self.failures = 0
        self.retried = 0
        self.lease_deferred = 0  # specs parked behind a sibling's lease
        self.lease_deferred_hits = 0  # parked specs resolved from its results
        self.interrupted = False  # the last run() ended in a shutdown
        # Trace-memo traffic observed by this engine's process during
        # run() (in-process runs; pool workers keep their own memos).
        self.trace_memo_hits = 0
        self.trace_memo_misses = 0

    # ------------------------------------------------------------------

    def run(self, specs: Sequence[RunSpec]) -> List[Outcome]:
        """Execute a sweep; one outcome per input spec, in input order.

        Raises :class:`SweepInterrupted` when a graceful shutdown arrives
        mid-sweep: everything completed so far is cached and journaled
        and the manifest is finalized, so the same call with the same
        cache resumes exactly.
        """
        keys = [fingerprint(spec) for spec in specs]
        unique: Dict[str, RunSpec] = {}
        for key, spec in zip(keys, specs):
            unique.setdefault(key, spec)

        outcomes: Dict[str, Outcome] = {}
        self.interrupted = False
        # Baseline for the per-run() trace-memo delta (lazy import keeps
        # runner -> sweep a one-way module dependency).
        from repro.harness.runner import WORKLOAD_MEMO

        memo_base = (WORKLOAD_MEMO.hits, WORKLOAD_MEMO.misses)
        with self._signal_guard():
            if self.cache is not None:
                for key in unique:
                    stats = self.cache.get(key)
                    if stats is not None:
                        outcomes[key] = SimulationResult(stats)
                        self.cache_hits += 1

            self.progress.start(len(unique), cached=len(outcomes))
            misses = [(k, s) for k, s in unique.items() if k not in outcomes]
            if misses:
                try:
                    self._dispatch(misses, outcomes)
                finally:
                    if self.leases is not None:
                        # Backstop for abort/shutdown paths: a spec we
                        # never finished must become claimable again
                        # immediately, not after the grace period.
                        self.leases.release_all()
            self.trace_memo_hits += WORKLOAD_MEMO.hits - memo_base[0]
            self.trace_memo_misses += WORKLOAD_MEMO.misses - memo_base[1]
            self.interrupted = supervise.shutdown_requested()
            if self.interrupted:
                self._finalize_interrupted(unique, outcomes)  # raises
            if self.manifest is not None and misses:
                self.manifest.record_final(self._final_summary(len(unique)))
            self.progress.finish(summary=self._summary_text())
        return [outcomes[key] for key in keys]

    # ------------------------------------------------------------------
    # Graceful shutdown
    # ------------------------------------------------------------------

    @contextlib.contextmanager
    def _signal_guard(self):
        """Install first-signal-drains / second-signal-exits handlers.

        Active only on the main thread (the only one Python delivers
        signals to); original dispositions are restored on exit.  The
        process-wide shutdown flag is deliberately *not* reset here: a
        signal that lands between two engine calls must still stop the
        next one.
        """
        if threading.current_thread() is not threading.main_thread():
            yield
            return
        previous = {}
        try:
            for sig in (signal.SIGTERM, signal.SIGINT):
                previous[sig] = signal.signal(sig, self._handle_shutdown_signal)
        except (ValueError, OSError):  # pragma: no cover - odd platforms
            for sig, old in previous.items():
                signal.signal(sig, old)
            previous = {}
        try:
            yield
        finally:
            for sig, old in previous.items():
                signal.signal(sig, old)

    def _handle_shutdown_signal(self, signum: int, frame: object) -> None:
        """First SIGTERM/SIGINT requests a drain; the second forces exit."""
        if supervise.shutdown_requested():
            raise KeyboardInterrupt(
                f"second shutdown signal ({signum}); forcing immediate exit"
            )
        supervise.request_shutdown()

    def _finalize_interrupted(
        self, unique: Dict[str, RunSpec], outcomes: Dict[str, Outcome]
    ) -> None:
        """Finalize the manifest and raise :class:`SweepInterrupted`."""
        done = sum(1 for key in unique if key in outcomes)
        pending = len(unique) - done
        if self.manifest is not None:
            summary = self._final_summary(len(unique))
            summary["interrupted"] = True
            summary["pending"] = pending
            self.manifest.record_final(summary)
        text = self._summary_text()
        self.progress.finish(
            summary=(
                f"interrupted: {done}/{len(unique)} complete, "
                f"{pending} pending" + (f"; {text}" if text else "")
            )
        )
        where = (
            f"; resume with the same result cache ({self.cache.root.parent})"
            if self.cache is not None
            else ""
        )
        raise SweepInterrupted(
            f"sweep interrupted by shutdown request: {done}/{len(unique)} "
            f"runs complete, {pending} pending{where}",
            done=done,
            pending=pending,
            manifest=self.manifest.path if self.manifest is not None else None,
        )

    def _final_summary(self, total: int) -> Dict:
        """Payload for the manifest's sweep-final record."""
        summary: Dict = {
            "interrupted": False,
            "total": total,
            "failed": self.progress.failed,
        }
        dropped = self._dropped_writes()
        if dropped:
            summary["dropped_writes"] = dropped
        if self.trace_memo_hits or self.trace_memo_misses:
            summary["trace_memo_hits"] = self.trace_memo_hits
            summary["trace_memo_misses"] = self.trace_memo_misses
        # Engine-process peak RSS: every harness mode records its memory
        # high-water mark (perf totals, supervision heartbeats, and this
        # manifest record), so no emitted document carries a null.
        summary["peak_rss_kb"] = supervise.peak_rss_kb()
        return summary

    def _dropped_writes(self) -> int:
        """Total cache + manifest writes dropped so far."""
        dropped = 0
        if self.cache is not None:
            dropped += self.cache.sink.dropped
        if self.manifest is not None:
            dropped += self.manifest.sink.dropped
        return dropped

    def _summary_text(self) -> Optional[str]:
        """Human-readable anomaly summary for the progress stream."""
        parts: List[str] = []
        if self.trace_memo_hits or self.trace_memo_misses:
            parts.append(
                f"trace memo {self.trace_memo_hits} hit(s), "
                f"{self.trace_memo_misses} miss(es)"
            )
        if self.cache is not None and self.cache.sink.dropped:
            parts.append(f"{self.cache.sink.dropped} cache write(s) dropped")
        if self.cache is not None and self.cache.corrupt_evicted:
            count = self.cache.corrupt_evicted
            noun = "entry" if count == 1 else "entries"
            parts.append(f"{count} corrupt cache {noun} evicted")
        if self.manifest is not None and self.manifest.sink.dropped:
            parts.append(
                f"{self.manifest.sink.dropped} manifest append(s) dropped"
            )
        if self.lease_deferred:
            parts.append(
                f"{self.lease_deferred} run(s) deferred to a concurrent "
                f"sweep ({self.lease_deferred_hits} resolved from its "
                "results)"
            )
        if self.leases is not None and self.leases.steals:
            parts.append(f"{self.leases.steals} orphaned lease(s) stolen")
        return "; ".join(parts) if parts else None

    # ------------------------------------------------------------------
    # Work-claim coordination
    # ------------------------------------------------------------------

    def _claim(self, key: str) -> bool:
        """True when this sweep may execute ``key`` now.

        Always true without a cache; with one, true when the
        work-claim lease was acquired (stolen-from-the-dead included) or
        the lease layer degraded to unbacked claims.  False means a
        concurrent sweep holds a live claim — defer the spec and claim it
        again later.
        """
        if self.leases is None:
            return True
        return self.leases.try_acquire(key) is not None

    def _release_claim(self, key: str) -> None:
        """Release a held work claim (no-op without a cache)."""
        if self.leases is not None:
            self.leases.release(key)

    def _claimed_cache_hit(
        self, key: str, outcomes: Dict[str, "Outcome"], deferred: bool
    ) -> bool:
        """Post-claim cache re-check; True when the result already landed.

        A claim and the cache read before it are two operations, so a
        concurrent sweep can ``cache.put`` and release its lease in
        between.  That is also how a deferred spec resolves: the sibling
        releases only after caching, so the claim that follows succeeds
        and this read finds the result — a plain cache hit instead of a
        duplicate simulation.
        """
        if self.leases is None or self.cache is None:
            return False
        stats = self.cache.get(key)
        if stats is None:
            return False
        outcomes[key] = SimulationResult(stats)
        self.cache_hits += 1
        if deferred:
            self.lease_deferred_hits += 1
        self._release_claim(key)
        self.progress.step()
        return True

    # ------------------------------------------------------------------

    def _record_success(
        self, key: str, spec: RunSpec, result: SimulationResult,
        outcomes: Dict[str, Outcome], attempts: int = 1,
    ) -> None:
        if result.stats.truncated:
            # A truncated run must never look like a normal result.
            self._record_failure(
                key, spec, "truncated", None, outcomes,
                message=(
                    f"run truncated at max_cycles="
                    f"{spec.config.max_cycles} before completing"
                ),
                attempts=attempts,
            )
            return
        outcomes[key] = result
        self.simulated += 1
        if self.cache is not None:
            self.cache.put(key, spec, result.stats)
        if self.manifest is not None:
            self.manifest.record_success(key, spec, result.stats)
        # Release strictly *after* the cache write: a waiter that sees
        # the lease vanish must find the result, or it re-simulates.
        self._release_claim(key)
        self.progress.step()

    def _record_failure(
        self, key: str, spec: RunSpec, kind: str, exc: Optional[BaseException],
        outcomes: Dict[str, Outcome], message: Optional[str] = None,
        attempts: int = 1,
    ) -> None:
        tb = ""
        report = None
        if exc is not None:
            tb = "".join(
                traceback.format_exception(type(exc), exc, exc.__traceback__)
            )
            if isinstance(exc, SimulationError):
                kind = exc.kind
                report = exc.to_report()
        failure = RunFailure(
            spec=spec,
            key=key,
            kind=kind,
            error=message if message is not None else f"{type(exc).__name__}: {exc}",
            traceback=tb,
            exception=exc,
            attempts=attempts,
            report=report,
        )
        outcomes[key] = failure
        self.failures += 1
        if self.manifest is not None:
            self.manifest.record_failure(failure)
        # A failed spec's claim is released so a concurrent sweep can
        # attempt it with its own retry budget.
        self._release_claim(key)
        self.progress.step(failed=True)

    # ------------------------------------------------------------------

    @staticmethod
    def _signal_workers(signum: int) -> None:
        """Send ``signum`` to every pool worker of this process.

        ``multiprocessing`` lists them.  The engine's process starts no
        other ``multiprocessing`` child, nor does the CLI, a chaos child
        or a perfbench sample.  The drain sends SIGTERM (a busy worker's
        sentinel checkpoints and raises ``WorkerInterrupted`` at its next
        tick; an idle one only raises its flag); a kill sends SIGKILL.
        """
        import multiprocessing

        for child in multiprocessing.active_children():
            try:
                os.kill(child.pid, signum)
            except OSError:
                pass

    def _dispatch(
        self, misses: Sequence, outcomes: Dict[str, Outcome]
    ) -> None:
        """Run the missing specs: dead-worker retries, deadlines, drain.

        The one scheduler of every sweep.  It builds a process pool, whose
        initializer installs the worker signal handlers, only when
        ``min(jobs, misses) > 1``, after importing the invariant checker's
        module (the one observer module a run imports on demand), so the
        forked workers inherit it; otherwise ``submit`` calls the worker
        in this process and stores its stats or exception in a finished
        future, recorded like a pooled completion (with no deadline: an
        in-process run cannot be preempted).

        A pooled run that misses its deadline is recorded as a
        ``timeout`` and its pool is killed: a pool that loses one worker
        terminates the rest anyway.  The runs beside it lost their pool
        to the engine, so they go back to the head of the queue
        uncharged, and a fresh pool takes the remaining work.  A pooled
        run whose worker died (its future raised
        :class:`~concurrent.futures.BrokenExecutor`, as every run in
        flight beside a death does) goes to the back of the queue, up to
        ``retries`` extra attempts.  A spec whose lease a concurrent
        sweep holds waits one lease poll behind the ``not_before`` gate.
        With ``options.heartbeat_interval`` set, pool workers write
        liveness heartbeats into a directory this method names.

        A graceful-shutdown request flips the loop into *drain* mode: no
        new admissions, SIGTERM to the pool workers, and
        :data:`DRAIN_TIMEOUT` seconds for in-flight runs to finish
        (recorded) or bow out with ``WorkerInterrupted`` (left pending).
        No worker outlives the loop: runs still in flight when it ends (a
        drain that ran out, an exception) have their workers killed.
        """
        max_workers = min(self.jobs, len(misses))
        pooled = max_workers > 1

        heartbeat_dir: Optional[Path] = None
        private_dir: Optional[str] = None
        if pooled and self.options.heartbeat_interval is not None:
            if self.options.heartbeat_dir is None:
                private_dir = tempfile.mkdtemp(prefix="repro-heartbeats-")
                heartbeat_dir = Path(private_dir)
            else:
                heartbeat_dir = Path(self.options.heartbeat_dir)
                heartbeat_dir.mkdir(parents=True, exist_ok=True)
        options = dataclasses.replace(self.options, heartbeat_dir=heartbeat_dir)

        def fresh_executor() -> ProcessPoolExecutor:
            # Only a sweep that builds a pool imports one (and with it
            # multiprocessing).
            from concurrent.futures import ProcessPoolExecutor

            return ProcessPoolExecutor(
                max_workers=max_workers,
                initializer=supervise.install_worker_signal_handlers,
            )

        executor: Optional[ProcessPoolExecutor] = None
        if pooled:
            # A forked worker inherits its parent's modules; one it had
            # to import itself would be compiled once per worker.
            import repro.sim.invariants  # noqa: F401

            executor = fresh_executor()
        work: deque = deque(_PendingRun(key, spec) for key, spec in misses)
        running: Dict[Future, _PendingRun] = {}

        def retire_executor(kill: bool) -> None:
            nonlocal executor
            if kill:
                self._signal_workers(signal.SIGKILL)
            executor.shutdown(wait=False, cancel_futures=True)
            executor = None

        def submit(run: _PendingRun) -> None:
            nonlocal executor
            if not pooled:
                future: Future = Future()
                try:
                    future.set_result(self.worker(run.spec, options))
                except Exception as exc:  # noqa: BLE001 - fault isolation
                    future.set_exception(exc)
                running[future] = run
                return
            if executor is None:
                executor = fresh_executor()
            try:
                future = executor.submit(self.worker, run.spec, options)
            except (BrokenExecutor, RuntimeError):
                retire_executor(kill=False)
                executor = fresh_executor()
                future = executor.submit(self.worker, run.spec, options)
            run.deadline = (
                time.monotonic() + self.timeout if self.timeout else None
            )
            running[future] = run

        draining = False
        drain_deadline = 0.0
        try:
            while work or running:
                if supervise.shutdown_requested():
                    if not draining:
                        draining = True
                        drain_deadline = time.monotonic() + DRAIN_TIMEOUT
                        if pooled:
                            self._signal_workers(signal.SIGTERM)
                    if not running or time.monotonic() >= drain_deadline:
                        return
                if not draining:
                    now = time.monotonic()
                    # Dispatch work whose gate has passed, up to the pool
                    # size.  A spec whose work-claim lease a concurrent
                    # sweep holds goes back behind the gate until its
                    # next claim.
                    gated: List[_PendingRun] = []
                    while work and len(running) < max_workers:
                        run = work.popleft()
                        if run.not_before > now:
                            gated.append(run)
                            continue
                        if not self._claim(run.key):
                            if not run.deferred:
                                run.deferred = True
                                self.lease_deferred += 1
                            run.not_before = now + min(
                                max(self.leases.grace / 5.0, 0.05), 0.5
                            )
                            gated.append(run)
                            continue
                        if self._claimed_cache_hit(
                            run.key, outcomes, run.deferred
                        ):
                            continue
                        submit(run)
                    work.extendleft(reversed(gated))
                    if not running:
                        gates = [
                            r.not_before for r in work if r.not_before > now
                        ]
                        if gates:
                            # Capped so a shutdown request interrupts the
                            # idle gate wait promptly (PEP 475 makes a
                            # plain sleep restart after the signal).
                            time.sleep(
                                min(0.25, max(0.0, min(gates) - now))
                            )
                        continue
                # Wait for a completion, the earliest deadline, or the
                # earliest gate — whichever comes first, and at most
                # 0.25 s, so shutdown requests are serviced promptly.
                now = time.monotonic()
                wait_bounds = [0.25]
                wait_bounds.extend(
                    run.deadline - now
                    for run in running.values()
                    if run.deadline is not None
                )
                wait_bounds.extend(
                    run.not_before - now for run in work if run.not_before > now
                )
                done, _ = wait(
                    set(running), timeout=max(0.005, min(wait_bounds)),
                    return_when=FIRST_COMPLETED,
                )
                now = time.monotonic()
                for future in done:
                    run = running.pop(future)
                    try:
                        stats = future.result()
                    except Exception as exc:  # noqa: BLE001 - fault isolation
                        if (
                            isinstance(exc, WorkerInterrupted)
                            and supervise.shutdown_requested()
                        ):
                            # The worker checkpointed and bowed out; the
                            # run stays unrecorded (pending), so a resumed
                            # sweep executes it.  The process-wide flag,
                            # not ``draining``: one group signal reaches
                            # the workers and the engine together, so a
                            # worker can bow out before this loop has seen
                            # the flag.
                            continue
                        if (
                            not draining
                            and isinstance(exc, BrokenExecutor)
                            and run.attempt < self.retries
                        ):
                            run.attempt += 1
                            self.retried += 1
                            work.append(run)
                        else:
                            self._record_failure(
                                run.key, run.spec, "exception", exc, outcomes,
                                attempts=run.attempt + 1,
                            )
                    else:
                        self._record_success(
                            run.key, run.spec, SimulationResult(stats),
                            outcomes, attempts=run.attempt + 1,
                        )
                overdue = [
                    run for run in running.values()
                    if run.deadline is not None and now >= run.deadline
                ]
                if overdue:
                    # Kill the pool, after taking its runs out of
                    # ``running``: their futures resolve with
                    # BrokenProcessPool, unread.  The runs beside the
                    # overdue ones keep their leases (a claim is
                    # re-entrant) and run again first, uncharged.
                    beside = [r for r in running.values() if r.deadline > now]
                    running.clear()
                    retire_executor(kill=True)
                    work.extendleft(reversed(beside))
                    for run in overdue:
                        self._record_failure(
                            run.key, run.spec, "timeout", None, outcomes,
                            message=(
                                f"run exceeded its {self.timeout}s deadline; "
                                "its pool was killed"
                            ),
                            attempts=run.attempt + 1,
                        )
        finally:
            if executor is not None:
                retire_executor(kill=bool(running))
            if private_dir is not None:
                shutil.rmtree(private_dir, ignore_errors=True)
