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
  clock.  Only the run that exceeds its deadline is recorded as a
  ``timeout`` failure; every other run proceeds.  A hung worker's slot is
  written off, and when every slot is hung the pool is replaced.
* **Bounded retry with exponential backoff** — but only for *transient*
  failures (a crashed worker process, ``OSError``).  Deterministic
  failures (:class:`~repro.sim.errors.SimulationError` subclasses such as
  invariant violations or cycle-limit truncation, and ordinary
  exceptions) would fail identically on every attempt and are never
  retried.
* **Checkpointed manifests.**  With a :class:`SweepManifest` attached,
  every completed run is journaled (append-only JSONL); an interrupted
  sweep re-invoked with the same manifest resumes from partial progress
  even without a result cache.
* **Mid-run crash recovery.**  With a checkpoint directory in the
  sweep's :class:`RunOptions` (see :mod:`repro.sim.checkpoint`), every
  worker snapshots its simulator periodically and
  :func:`repro.harness.runner.run_spec` resumes from the newest valid
  snapshot, so a crashed or deadline-hit
  worker's retry continues from the last checkpoint instead of
  restarting at cycle 0 — and deadline hits become retryable, since
  each attempt makes forward progress.
* **Failure budgets.**  ``max_failures`` aborts the sweep once too many
  runs fail; unexecuted runs are recorded as ``aborted`` failures, so
  callers always receive one outcome per input spec.
* **Supervised liveness** (see :mod:`repro.harness.supervise`).  With a
  heartbeat interval in the options, every pooled worker writes periodic
  liveness heartbeats and the engine kills+requeues a heartbeat-silent
  (*wedged*) run well before its full ``timeout`` deadline, while a slow
  but progressing run is left alone.
* **Disk pressure.**  Out-of-space errors on cache/manifest/heartbeat
  writes warn once and disable that sink (with dropped-write counts in
  the sweep summary) instead of crashing.
* **Graceful shutdown.**  The first SIGTERM/SIGINT during a sweep stops
  admission, drains in-flight runs (which flush checkpoints), journals a
  final manifest record, and raises :class:`SweepInterrupted`; the CLI
  exits 130 and a re-invocation with the same ``--manifest`` resumes
  exactly.  A second signal forces immediate exit.
* **Cooperative multi-process coordination** (see
  :mod:`repro.harness.coordinate`).  With a cache attached, the engine
  claims a work-claim lease under ``<cache-root>/leases/`` before
  simulating each uncached spec.  A concurrent sweep that finds the
  lease live puts the spec back behind the gate retry backoff uses and
  claims it again later; once the claimant has cached its result and
  released the lease, that claim succeeds and a cache re-check finds the
  result instead of re-simulating it.  A lease whose renewals stopped
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
import errno
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
import warnings
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    TextIO,
    Tuple,
    Union,
)

from repro.harness import supervise
from repro.harness.coordinate import (
    DEFAULT_LEASE_GRACE,
    LeaseManager,
    lease_dir_for,
)
from repro.harness.supervise import is_disk_pressure
from repro.sim.checkpoint import (
    DEFAULT_CHECKPOINT_INTERVAL,
    atomic_write_json,
    free_bytes,
)
from repro.sim.config import GpuConfig
from repro.sim.errors import SimulationError, WorkerInterrupted
from repro.sim.gpu import SimulationResult
from repro.sim.stats import SimStats
from repro.sim.telemetry import DEFAULT_METRICS_INTERVAL
from repro.trace.swp import SoftwarePrefetchConfig

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

#: Multiples of the heartbeat interval of silence a supervised pool
#: tolerates before it declares a run wedged.
STALL_GRACE = 5.0

#: Maximum seconds a shutdown request waits for in-flight pooled runs to
#: finish, or checkpoint and bow out.
DRAIN_TIMEOUT = 30.0

#: Exception types treated as transient (retryable) worker failures: the
#: pool infrastructure died (:class:`BrokenExecutor` covers a killed or
#: crashed worker process) or the OS briefly misbehaved.  Deterministic
#: simulation failures are explicitly excluded — retrying them reproduces
#: the identical failure at full simulation cost.
TRANSIENT_EXCEPTIONS = (BrokenExecutor, OSError, EOFError, ConnectionError)

#: ``OSError`` errnos that denote deterministic environment failures —
#: a full disk, a quota, a permission wall, a path that does not exist.
#: Retrying these burns the whole retry budget (at full simulation cost)
#: on an attempt that can never succeed, so they are classified as
#: permanent.  An ``OSError`` with *no* errno (e.g. a pool pipe tearing
#: mid-pickle) stays transient: it signals infrastructure, not policy.
PERMANENT_OS_ERRNOS = frozenset(
    {
        errno.EACCES,
        errno.EPERM,
        errno.EROFS,
        errno.ENOSPC,
        getattr(errno, "EDQUOT", -1),
        errno.ENOENT,
        errno.ENOTDIR,
        errno.EISDIR,
        errno.ENAMETOOLONG,
    }
)


def is_transient_failure(exc: BaseException) -> bool:
    """True when retrying ``exc``'s run could plausibly succeed.

    Structured simulation failures are deterministic, hence permanent.
    ``OSError`` is classified by errno: resource exhaustion and
    permission errors (:data:`PERMANENT_OS_ERRNOS`) fail identically on
    every attempt, while connection/pipe-level errors (and errno-less
    ``OSError``\\ s from pool infrastructure) remain retryable.
    """
    if isinstance(exc, SimulationError):
        return False
    if not isinstance(exc, TRANSIENT_EXCEPTIONS):
        return False
    if isinstance(exc, OSError) and not isinstance(exc, ConnectionError):
        if exc.errno in PERMANENT_OS_ERRNOS:
            return False
    return True


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
            The sweep engine supervises its pools when this is set.
        heartbeat_dir: Heartbeat files go here (with an interval set);
            the engine names a private directory for a pool it
            supervises when unset.
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
    ``"wedged"`` (heartbeat-silent worker killed by the supervisor),
    ``"interrupted"``, ``"checkpoint"``, or ``"aborted"`` (not executed
    after the ``max_failures`` budget ran out).  ``report`` holds the diagnostic snapshot payload when the
    failure was a :class:`~repro.sim.errors.SimulationError`.
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
    payload = {"schema": SCHEMA_VERSION, "spec": dataclasses.asdict(spec)}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


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
    sweep summary.  I/O errors degrade gracefully but *audibly*: the
    first failed write emits a ``RuntimeWarning``, every dropped write is
    counted (``dropped``, and surfaced in the sweep summary), and disk
    pressure (ENOSPC/EDQUOT) disables the sink for the rest of the
    process instead of shredding the remaining free blocks with doomed
    temp files.  Truncated results are never stored.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root) / f"v{SCHEMA_VERSION}"
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.errors = 0
        self.dropped = 0
        self.corrupt_evicted = 0
        self.disabled = False
        self._warned = False

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
        if self.disabled:
            self.dropped += 1
            return
        path = self.path_for(key)
        payload = {
            "schema": SCHEMA_VERSION,
            "key": key,
            "spec": dataclasses.asdict(spec),
            "stats": stats.to_dict(),
        }
        try:
            # Shared atomic-write helper: pid-stamped scratch temp in the
            # same directory, replaced into place, cleaned up on any
            # exception path.  sort_keys makes the entry byte-identical
            # no matter which process wrote it — what lets tests diff
            # two independently-merged caches file by file.
            atomic_write_json(path, payload, sort_keys=True)
        except OSError as exc:
            self.errors += 1
            self.dropped += 1
            if is_disk_pressure(exc):
                self.disabled = True
            if not self._warned:
                self._warned = True
                detail = (
                    "caching disabled for the rest of this process"
                    if self.disabled
                    else "entry dropped"
                )
                warnings.warn(
                    f"result cache write to {path} failed ({exc}); {detail}",
                    RuntimeWarning,
                    stacklevel=2,
                )
            return
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

#: Minimum free bytes required before a manifest append is attempted.
#: One journal line is well under a kilobyte; the floor exists so a
#: nearly-full disk degrades to counted, warned-about drops instead of
#: an ENOSPC storm from inside the fsync path.
MANIFEST_FREE_SPACE_FLOOR = 1 << 20


def parse_manifest_line(line: bytes) -> Optional[Dict]:
    """One journal line as a record: the one parser of manifest lines.

    A record is a JSON object with a ``schema`` tag.  A ``done`` record
    is replayed as a finished run, so its ``stats`` must deserialize and
    not be flagged truncated; they come back as a :class:`SimStats`.
    Anything else — a line torn by an interrupted write (even mid-way
    through a multi-byte UTF-8 character), a foreign line, a ``done``
    record without usable stats — returns ``None``.
    :meth:`SweepManifest.load` and ``repro fsck`` both use it.
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
    """Append-only JSONL journal of per-spec sweep outcomes.

    One line per completed attempt: ``{"schema": ..., "key": ...,
    "status": "done"|"failed", ...}``.  Appending a whole line per event
    makes the journal crash-safe — a torn final line (the interrupted
    write) is skipped on load, and everything before it is intact.  On
    resume, ``done`` entries are replayed as instant results; ``failed``
    entries, and ``done`` entries whose stats do not deserialize, are
    re-attempted (which gives cross-invocation retry semantics for
    transient infrastructure failures).

    Records from a different :data:`SCHEMA_VERSION` are ignored: a
    simulator-semantics change makes old results unusable, exactly as
    with the result cache.

    Appends are preflighted against a small free-space floor and fail
    loudly-but-safely: the first dropped append emits a
    ``RuntimeWarning`` (a silent journal gap would surface much later as
    a mysteriously re-executed run), every drop is counted in
    ``dropped`` and surfaced in the sweep summary, and the sweep itself
    continues.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.dropped = 0
        self._warned = False

    def load(self) -> Dict[str, Dict]:
        """Latest valid record per key; empty when the journal is absent.

        The journal is read as bytes and parsed per line
        (:func:`parse_manifest_line`), so a torn line costs only itself.
        A ``done`` record's ``stats`` is a :class:`SimStats`.
        """
        entries: Dict[str, Dict] = {}
        try:
            raw = self.path.read_bytes()
        except OSError:
            return entries
        for line in raw.splitlines():
            record = parse_manifest_line(line)
            if record is None or record["schema"] != SCHEMA_VERSION:
                continue
            key = record.get("key")
            if isinstance(key, str):
                entries[key] = record
        return entries

    def _append(self, record: Dict) -> None:
        record = {"schema": SCHEMA_VERSION, **record}
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            space = free_bytes(self.path.parent)
            if space is not None and space < MANIFEST_FREE_SPACE_FLOOR:
                raise OSError(
                    errno.ENOSPC,
                    f"free space below {MANIFEST_FREE_SPACE_FLOOR} byte floor",
                )
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
                # Push the record through to stable storage before the
                # sweep moves on: a process killed right after this call
                # must find the line intact on resume, not sitting in a
                # userspace buffer that died with the process.
                fh.flush()
                os.fsync(fh.fileno())
        except OSError as exc:
            self.dropped += 1
            if not self._warned:
                self._warned = True
                warnings.warn(
                    f"sweep manifest append to {self.path} dropped ({exc}); "
                    "resume coverage for this sweep will be incomplete",
                    RuntimeWarning,
                    stacklevel=2,
                )

    def record_success(self, key: str, spec: RunSpec, stats: SimStats) -> None:
        """Journal a completed run so a resumed sweep can replay it."""
        self._append(
            {
                "key": key,
                "status": "done",
                "benchmark": spec.benchmark,
                "stats": stats.to_dict(),
            }
        )

    def record_failure(self, failure: RunFailure) -> None:
        """Journal a failed run (resumed sweeps re-attempt it)."""
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
    can call them unconditionally.

    Beyond done/cached/failed, the line breaks out the ``aborted``
    count (unexecuted after the ``max_failures`` budget) when nonzero,
    and ``finish`` can append a one-line sweep summary (dropped
    cache/manifest writes, interruption status).
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
        self.aborted = 0
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
        self.aborted = 0
        self._t0 = time.monotonic()
        self._tty = self._stream_is_tty()
        self._emit()

    def step(self, failed: bool = False, aborted: bool = False) -> None:
        """Record one finished run and refresh the progress line.

        ``aborted`` runs are failures too (they produced no stats) and
        are counted under both tallies.
        """
        self.done += 1
        if aborted:
            self.aborted += 1
        if failed or aborted:
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
        extras = f", {self.aborted} aborted" if self.aborted else ""
        line = (
            f"[{self.label}] {self.done}/{self.total} done"
            f" ({self.cached} cached, {self.failed} failed{extras})"
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
    not_before: float = 0.0  # gate: retry backoff or next lease claim
    submitted_wall: float = 0.0  # wall clock of the last submit (liveness)
    collateral: int = 0  # free requeues granted after a supervised kill
    deferred: bool = False  # parked at least once behind a sibling's lease


class SweepInterrupted(RuntimeError):
    """A sweep ended early because a graceful shutdown was requested.

    Raised by :meth:`SweepEngine.run` after the first SIGTERM/SIGINT:
    admission has stopped, in-flight runs have drained (flushing their
    checkpoints), every completed result is journaled, and the manifest
    carries a final ``interrupted`` record.  Re-invoking the same sweep
    with the same manifest resumes exactly where this one stopped.

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
      ever) are loaded instead of simulated; with a manifest attached,
      runs journaled by an interrupted sweep are replayed the same way.
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
        jobs: Worker processes (1 = run in this process).
        timeout: **Per-run** wall-clock deadline in seconds for pooled
            runs.  A run exceeding it is recorded as a ``timeout``
            failure; other runs are unaffected.  In-process runs cannot
            be preempted and ignore it.  Must be positive; ``None``
            means no deadline.
        progress: Progress/ETA reporter.
        worker: Run-execution callable, called as ``worker(spec,
            options)`` (overridable for testing and fault injection).
        retries: Maximum *additional* attempts for a transiently-failed
            run (crashed worker, ``OSError``).  Deterministic failures
            are never retried.
        retry_backoff: Base backoff in seconds; attempt ``n`` waits
            ``retry_backoff * 2**(n-1)`` before re-dispatch.
        max_failures: Abort the sweep once this many runs have failed;
            remaining runs are recorded as ``aborted``.  ``None`` means
            never abort.  Must be at least 1.
        manifest: Checkpoint journal (path or :class:`SweepManifest`)
            for resumable sweeps.
        lease_grace: Seconds of renewal silence after which another
            process may steal one of this sweep's leases.  ``None``
            derives it from the supervision stall threshold
            (``heartbeat_interval * STALL_GRACE``, floored) when
            supervising, else
            :data:`~repro.harness.coordinate.DEFAULT_LEASE_GRACE`.
        options: The :class:`RunOptions` handed to every worker call.
            Its ``heartbeat_interval`` turns on supervision for pooled
            runs: workers write per-run heartbeat files (into
            ``heartbeat_dir``, or a private temporary directory removed
            when :meth:`run` ends) and the engine kills+requeues a run
            silent for ``heartbeat_interval * STALL_GRACE`` seconds
            (floor 2 s) instead of waiting out the full ``timeout``.
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
        retry_backoff: float = 0.5,
        max_failures: Optional[int] = None,
        manifest: Union[SweepManifest, str, Path, None] = None,
        lease_grace: Optional[float] = None,
        options: Optional[RunOptions] = None,
    ) -> None:
        if timeout is not None and not timeout > 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        if max_failures is not None and max_failures < 1:
            raise ValueError(f"max_failures must be >= 1, got {max_failures}")
        self.cache = cache
        self.jobs = max(1, int(jobs))
        self.timeout = timeout
        self.progress = progress or ProgressReporter(enabled=False)
        self.worker = worker
        self.retries = max(0, int(retries))
        self.retry_backoff = max(0.0, float(retry_backoff))
        self.max_failures = max_failures
        if manifest is not None and not isinstance(manifest, SweepManifest):
            manifest = SweepManifest(manifest)
        self.manifest = manifest
        self.options = options or RunOptions()
        self.leases: Optional[LeaseManager] = None
        heartbeat_interval = self.options.heartbeat_interval
        if self.cache is not None:
            if lease_grace is None:
                lease_grace = (
                    max(
                        heartbeat_interval * STALL_GRACE,
                        supervise.WEDGE_GRACE_FLOOR,
                    )
                    if heartbeat_interval is not None
                    else DEFAULT_LEASE_GRACE
                )
            self.leases = LeaseManager(
                lease_dir_for(self.cache.root),
                grace=lease_grace,
                renew_interval=heartbeat_interval,
            )
        # Cumulative counters, exposed so callers (and the acceptance
        # tests) can verify e.g. that a warm re-run simulated nothing.
        self.simulated = 0
        self.cache_hits = 0
        self.manifest_hits = 0
        self.failures = 0
        self.retried = 0
        self.wedged = 0  # heartbeat-silent runs killed by the supervisor
        self.lease_deferred = 0  # specs parked behind a sibling's lease
        self.lease_deferred_hits = 0  # parked specs resolved from its results
        self.interrupted = False  # the last run() ended in a shutdown
        self._sweep_failures = 0  # per-run() failure count for max_failures
        # Trace-memo traffic observed by this engine's process during
        # run() (in-process runs; pool workers keep their own memos).
        self.trace_memo_hits = 0
        self.trace_memo_misses = 0

    # ------------------------------------------------------------------

    def run(self, specs: Sequence[RunSpec]) -> List[Outcome]:
        """Execute a sweep; one outcome per input spec, in input order.

        Raises :class:`SweepInterrupted` when a graceful shutdown arrives
        mid-sweep: everything completed so far is journaled and the
        manifest is finalized, so the same call with the same manifest
        resumes exactly.
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
                for key, spec in unique.items():
                    stats = self.cache.get(key)
                    if stats is not None:
                        outcomes[key] = SimulationResult(stats)
                        self.cache_hits += 1
            if self.manifest is not None:
                journal = self.manifest.load()
                for key, spec in unique.items():
                    if key in outcomes:
                        continue
                    record = journal.get(key)
                    if record is None or record.get("status") != "done":
                        continue
                    stats = record["stats"]
                    outcomes[key] = SimulationResult(stats)
                    self.manifest_hits += 1
                    if self.cache is not None:
                        self.cache.put(key, spec, stats)

            self._sweep_failures = 0
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
            f"; resume with the same manifest ({self.manifest.path})"
            if self.manifest is not None
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
        if self.progress.aborted:
            summary["aborted"] = self.progress.aborted
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
        """Total cache + manifest writes dropped so far (disk pressure)."""
        dropped = 0
        if self.cache is not None:
            dropped += self.cache.dropped
        if self.manifest is not None:
            dropped += self.manifest.dropped
        return dropped

    def _summary_text(self) -> Optional[str]:
        """Human-readable anomaly summary for the progress stream."""
        parts: List[str] = []
        if self.trace_memo_hits or self.trace_memo_misses:
            parts.append(
                f"trace memo {self.trace_memo_hits} hit(s), "
                f"{self.trace_memo_misses} miss(es)"
            )
        if self.progress.aborted:
            parts.append(f"{self.progress.aborted} aborted")
        if self.cache is not None and self.cache.dropped:
            parts.append(f"{self.cache.dropped} cache write(s) dropped")
        if self.cache is not None and self.cache.corrupt_evicted:
            count = self.cache.corrupt_evicted
            noun = "entry" if count == 1 else "entries"
            parts.append(f"{count} corrupt cache {noun} evicted")
        if self.manifest is not None and self.manifest.dropped:
            parts.append(f"{self.manifest.dropped} manifest append(s) dropped")
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
        self._sweep_failures += 1
        if self.manifest is not None:
            self.manifest.record_failure(failure)
        # A failed spec's claim is released so a concurrent sweep can
        # attempt it with its own retry budget.
        self._release_claim(key)
        self.progress.step(failed=True)

    def _record_aborted(
        self, items: Sequence[Tuple[str, RunSpec]], outcomes: Dict[str, Outcome]
    ) -> None:
        for key, spec in items:
            if key in outcomes:
                continue
            outcomes[key] = RunFailure(
                spec=spec,
                key=key,
                kind="aborted",
                error=(
                    f"sweep aborted after {self._sweep_failures} failure(s) "
                    f"(max_failures={self.max_failures}); run not executed"
                ),
            )
            self.failures += 1
            self.progress.step(aborted=True)

    # ------------------------------------------------------------------

    @staticmethod
    def _heartbeat_path(run: _PendingRun, directory: Path) -> Path:
        """Canonical heartbeat file for a pending run."""
        return supervise.heartbeat_path_for(run.spec.benchmark, run.key, directory)

    def _clear_heartbeat(self, run: _PendingRun, directory: Path) -> None:
        """Drop a stale heartbeat so the next attempt starts fresh."""
        try:
            self._heartbeat_path(run, directory).unlink(missing_ok=True)
        except OSError:
            pass

    @staticmethod
    def _kill_worker(pid: int) -> bool:
        """SIGKILL a wedged worker process; True when the signal landed."""
        try:
            os.kill(pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError, OSError):
            return False
        return True

    def _relay_shutdown(
        self, running: Dict[Future, _PendingRun], directory: Optional[Path]
    ) -> None:
        """Forward the shutdown request to in-flight worker processes.

        Workers whose pid is known (from their heartbeat in
        ``directory``, None when unsupervised) get a SIGTERM; their
        sentinel then checkpoints and raises ``WorkerInterrupted`` at the
        next tick.  Workers without a heartbeat yet simply finish their
        (short, pre-simulation) work and drain normally.
        """
        if directory is None:
            return
        own = os.getpid()
        for run in running.values():
            beat = supervise.read_heartbeat(self._heartbeat_path(run, directory))
            pid = beat.get("pid") if beat else None
            if isinstance(pid, int) and pid != own:
                try:
                    os.kill(pid, signal.SIGTERM)
                except (ProcessLookupError, PermissionError, OSError):
                    pass

    def _dispatch(
        self, misses: Sequence, outcomes: Dict[str, Outcome]
    ) -> None:
        """Run the missing specs: retries, deadlines, supervision, drain.

        The one scheduler of every sweep.  It builds a process pool, whose
        initializer installs the worker signal handlers, only when
        ``min(jobs, misses) > 1``; otherwise ``submit`` calls the worker
        in this process and stores its stats or exception in a finished
        future, recorded like a pooled completion (with no deadline: an
        in-process run cannot be preempted).

        A hung pool run only costs its own slot: its future is abandoned
        at the deadline and the slot written off.  When every slot of the
        current executor is written off (or the pool breaks), a fresh
        executor takes over the remaining work.  All executors are shut
        down without waiting at the end, so orphaned workers die on
        their own without stalling the sweep.

        With ``options.heartbeat_interval`` set, pool workers
        additionally write liveness heartbeats and a heartbeat-silent run
        is killed (by the pid its own heartbeat recorded) and requeued as
        ``wedged`` long before the full deadline.  Killing a pool process
        makes the executor report ``BrokenProcessPool`` for innocent
        co-resident futures; completions inside a short post-kill window
        are requeued without burning their retry budget (``collateral``).

        Retries and lease deferrals share the ``not_before`` gate: a
        retried run waits out its backoff, and a spec whose lease a
        concurrent sweep holds waits one lease poll, behind the queued
        runs.

        A graceful-shutdown request flips the loop into *drain* mode: no
        new admissions, in-flight futures are given :data:`DRAIN_TIMEOUT`
        seconds to finish (results recorded) or bow out with
        ``WorkerInterrupted`` (left unrecorded, hence resumed later).
        """
        max_workers = min(self.jobs, len(misses))
        pooled = max_workers > 1
        executors: List[ProcessPoolExecutor] = []
        lost_slots = 0
        # With a checkpoint directory, every worker checkpoints its run
        # periodically and run_spec() resumes from the newest valid
        # snapshot — which makes deadline hits worth retrying.
        resumable = self.options.checkpoint_dir is not None

        heartbeat_interval = self.options.heartbeat_interval
        supervising = pooled and heartbeat_interval is not None
        heartbeat_dir: Optional[Path] = None
        private_dir: Optional[str] = None
        if supervising:
            if self.options.heartbeat_dir is None:
                private_dir = tempfile.mkdtemp(prefix="repro-heartbeats-")
                heartbeat_dir = Path(private_dir)
            else:
                heartbeat_dir = Path(self.options.heartbeat_dir)
                heartbeat_dir.mkdir(parents=True, exist_ok=True)
            stall_threshold = max(
                heartbeat_interval * STALL_GRACE, supervise.WEDGE_GRACE_FLOOR
            )
        options = dataclasses.replace(self.options, heartbeat_dir=heartbeat_dir)
        kill_window_until = 0.0

        def fresh_executor() -> ProcessPoolExecutor:
            nonlocal lost_slots
            ex = ProcessPoolExecutor(
                max_workers=max_workers,
                initializer=supervise.install_worker_signal_handlers,
            )
            executors.append(ex)
            lost_slots = 0
            return ex

        executor = fresh_executor() if pooled else None
        work: deque = deque(_PendingRun(key, spec) for key, spec in misses)
        running: Dict[Future, _PendingRun] = {}

        def submit(run: _PendingRun) -> None:
            nonlocal executor
            if executor is None:
                future: Future = Future()
                try:
                    future.set_result(self.worker(run.spec, options))
                except Exception as exc:  # noqa: BLE001 - fault isolation
                    future.set_exception(exc)
                running[future] = run
                return
            if supervising:
                self._clear_heartbeat(run, heartbeat_dir)
            run.submitted_wall = time.time()
            try:
                future = executor.submit(self.worker, run.spec, options)
            except (BrokenExecutor, RuntimeError):
                executor = fresh_executor()
                future = executor.submit(self.worker, run.spec, options)
            run.deadline = (
                time.monotonic() + self.timeout if self.timeout else None
            )
            running[future] = run

        def requeue(run: _PendingRun, now: float) -> None:
            run.attempt += 1
            self.retried += 1
            run.not_before = now + (
                self.retry_backoff * 2 ** (run.attempt - 1)
            )
            work.append(run)

        draining = False
        drain_deadline = 0.0
        try:
            while work or running:
                if supervise.shutdown_requested():
                    if not draining:
                        draining = True
                        drain_deadline = time.monotonic() + DRAIN_TIMEOUT
                        self._relay_shutdown(running, heartbeat_dir)
                    if not running or time.monotonic() >= drain_deadline:
                        return
                if not draining:
                    if (
                        self.max_failures is not None
                        and self._sweep_failures >= self.max_failures
                    ):
                        for future in running:
                            future.cancel()
                        self._record_aborted(
                            [
                                (r.key, r.spec)
                                for r in list(running.values()) + list(work)
                            ],
                            outcomes,
                        )
                        break
                    now = time.monotonic()
                    # Dispatch work whose gate has passed, up to the live
                    # capacity of the current executor.  A spec whose
                    # work-claim lease a concurrent sweep holds goes back
                    # behind the gate until its next claim.
                    capacity = max(0, max_workers - lost_slots)
                    gated: List[_PendingRun] = []
                    while work and len(running) < capacity:
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
                        elif work and capacity == 0:
                            executor = fresh_executor()
                        continue
                # Wait for a completion, the earliest deadline, or the
                # earliest gate — whichever comes first, and at most
                # 0.25 s, so wedge scans and shutdown requests are
                # serviced promptly.
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
                            # run stays unrecorded (pending), so a resume
                            # with the same manifest re-executes it.  The
                            # process-wide flag, not ``draining``: one
                            # group signal reaches the workers and the
                            # engine together, so a worker can bow out
                            # before this loop has seen the flag.
                            continue
                        if (
                            not draining
                            and isinstance(exc, BrokenExecutor)
                            and now < kill_window_until
                            and run.collateral < 3
                        ):
                            # Collateral damage from a supervised kill of
                            # a co-resident worker: requeue without
                            # charging the run's own retry budget.
                            run.collateral += 1
                            work.append(run)
                            continue
                        if (
                            not draining
                            and is_transient_failure(exc)
                            and run.attempt < self.retries
                        ):
                            requeue(run, now)
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
                # Supervision: kill+requeue heartbeat-silent runs well
                # before their full deadline.
                if supervising and running:
                    now_wall = time.time()
                    for future, run in list(running.items()):
                        beat = supervise.read_heartbeat(
                            self._heartbeat_path(run, heartbeat_dir)
                        )
                        alive_at = beat["wall"] if beat else run.submitted_wall
                        silence = now_wall - alive_at
                        if silence <= stall_threshold:
                            continue
                        running.pop(future)
                        if future.cancel():
                            # Still queued (a slot died after submit): not
                            # a wedge — resubmit without charging retries.
                            work.append(run)
                            continue
                        self.wedged += 1
                        pid = beat.get("pid") if beat else None
                        if isinstance(pid, int) and self._kill_worker(pid):
                            # The pool will report BrokenProcessPool for
                            # co-resident futures; open the forgiveness
                            # window and let a fresh executor take over.
                            kill_window_until = time.monotonic() + 5.0
                        else:
                            # No pid to kill: abandon the worker and
                            # write its slot off.
                            lost_slots += 1
                        self._clear_heartbeat(run, heartbeat_dir)
                        if not draining and run.attempt < self.retries:
                            requeue(run, time.monotonic())
                            continue
                        self._record_failure(
                            run.key, run.spec, "wedged", None, outcomes,
                            message=(
                                f"no heartbeat for {silence:.1f}s (stall "
                                f"threshold {stall_threshold:.1f}s); worker "
                                "killed and run "
                                + ("abandoned" if draining else "requeued")
                            ),
                            attempts=run.attempt + 1,
                        )
                # Enforce per-run deadlines: only the overdue run fails.
                overdue = [
                    future
                    for future, run in running.items()
                    if run.deadline is not None and now >= run.deadline
                ]
                for future in overdue:
                    run = running.pop(future)
                    if not future.cancel():
                        # Already executing in a worker we cannot reclaim:
                        # write the slot off.
                        lost_slots += 1
                    if not draining and resumable and run.attempt < self.retries:
                        # With auto-checkpointing on, the abandoned worker
                        # has been leaving snapshots behind; a fresh
                        # attempt resumes from the newest one instead of
                        # restarting at cycle 0, so each retry makes
                        # forward progress even against a too-tight
                        # deadline.
                        requeue(run, now)
                        continue
                    self._record_failure(
                        run.key, run.spec, "timeout", None, outcomes,
                        message=(
                            f"run exceeded its {self.timeout}s deadline; "
                            "abandoned (worker slot written off)"
                        ),
                        attempts=run.attempt + 1,
                    )
                if (
                    not draining
                    and lost_slots >= max_workers
                    and (work or running)
                ):
                    # Every slot is hung: move still-queued futures back to
                    # the work list and start over on a fresh pool.
                    for future, run in list(running.items()):
                        if future.cancel():
                            running.pop(future)
                            work.append(run)
                    if not running:
                        executor = fresh_executor()
        finally:
            for ex in executors:
                # Never block on hung workers; orphaned runs finish (or
                # die) on their own without affecting us.
                ex.shutdown(wait=False, cancel_futures=True)
            if private_dir is not None:
                shutil.rmtree(private_dir, ignore_errors=True)
