"""Deterministic fault-injection harness for the sweep engine.

These are module-level, picklable worker functions that stand in for the
real :func:`repro.harness.runner.run_spec` worker inside
:class:`~repro.harness.sweep.SweepEngine`, injecting the failure modes
the engine's fault-tolerance machinery must handle:

* a pool worker that dies once, then succeeds on retry
  (:func:`flaky_worker`),
* pool workers that die on every attempt (:func:`crashing_worker`),
* errors a run raises, which must *not* be retried: an ``OSError``
  (:func:`oserror_worker`) or a deterministic simulation failure
  (:func:`invariant_worker`),
* stalls confined to one benchmark (:func:`selectively_slow_worker`),
* truncated runs returning partial statistics (:func:`truncating_worker`).

A worker "dies" the way a crashed one does: its process exits at once
(:func:`die`), so the pool breaks and the engine sees
:class:`~concurrent.futures.BrokenExecutor`.  Only a pool worker may
die.  In a process ``multiprocessing`` did not start (the test process
itself) :func:`die` raises instead: a sweep with one miss runs in
process even with ``jobs >= 2``, so a test of a dying worker needs a
second spec beside it.  A death breaks every run in flight in its pool,
so a healthy spec beside a dying one may be retried too; tests assert
exact attempt counts only for the dying spec.

Determinism across processes: pool workers cannot share in-memory
counters with the test process, so per-spec attempt counts live as
marker files in the directory named by ``$REPRO_FAULT_DIR``.  Tests set
the variable (and clean the directory) via fixtures; fork-started pool
workers inherit it.  Every worker records its attempts there, so tests
can assert exact retry counts regardless of which process ran the spec.

:func:`corrupt_cache_entry` covers the persistent-cache side: it
clobbers an on-disk :class:`~repro.harness.sweep.ResultCache` entry in
one of several realistic ways (truncated JSON, schema-version mismatch,
torn binary write) which the cache must treat as a miss, never a crash.
:func:`corrupt_checkpoint` does the same for simulator snapshots, which
:func:`repro.sim.checkpoint.load_checkpoint` must reject with a
structured :class:`~repro.sim.errors.CheckpointError` — never load
silently and never crash the worker.  :func:`checkpointing_crash_worker`
combines the two layers: its first ``cell`` attempt dies right after
leaving a genuine mid-run snapshot behind, and later attempts run the
real :func:`~repro.harness.runner.run_spec`, which must resume from it.
:func:`sigkill_after_snapshot` is the hardest variant — it SIGKILLs its
own process right after the snapshot lands, so it must only ever run in
a dedicated subprocess.

The supervised-runtime additions cover the mechanisms of
``repro.harness.supervise``: :func:`raise_enospc` is a monkeypatch shim
standing in for a full disk;
:func:`selectively_crashing_worker` dies on every attempt of one spec so
it burns its whole retry budget; and :func:`supervised_sweep_main` is a
subprocess driver for the SIGTERM-mid-sweep acceptance test.
"""

from __future__ import annotations

import errno
import json
import multiprocessing
import os
import time
from pathlib import Path

from repro.harness.sweep import SCHEMA_VERSION, ResultCache, fingerprint
from repro.sim.errors import InvariantViolation
from repro.sim.stats import SimStats

#: Directory for cross-process attempt counters (set by the test).
FAULT_DIR_ENV = "REPRO_FAULT_DIR"

#: How long a "stalled" worker sleeps.  Long enough to blow any test
#: deadline by an order of magnitude, short enough that an orphaned
#: worker finishing its nap never stalls pytest shutdown noticeably.
STALL_SECONDS = 2.5

#: Attempts after which a worker that dies on every attempt raises
#: instead, so an engine that ignores its retry budget fails a test
#: rather than hanging it.
MAX_DEATHS = 5


def _fault_dir() -> Path:
    path = os.environ.get(FAULT_DIR_ENV)
    if not path:
        raise RuntimeError(
            f"fault-injection workers need ${FAULT_DIR_ENV} to be set"
        )
    return Path(path)


def record_attempt(spec) -> int:
    """Append one attempt marker for ``spec``; returns the attempt number.

    Markers are one file per attempt (create-exclusive), so concurrent
    workers in different processes never lose an increment.
    """
    directory = _fault_dir() / fingerprint(spec)[:16]
    directory.mkdir(parents=True, exist_ok=True)
    attempt = 1
    while True:
        try:
            (directory / f"attempt-{attempt}").touch(exist_ok=False)
            return attempt
        except FileExistsError:
            attempt += 1


def attempts_made(spec) -> int:
    """How many attempts any process has recorded for ``spec``."""
    directory = _fault_dir() / fingerprint(spec)[:16]
    if not directory.is_dir():
        return 0
    return sum(1 for _ in directory.glob("attempt-*"))


def _stats_for(spec) -> SimStats:
    """Deterministic fake statistics, distinguishable per benchmark."""
    stats = SimStats(
        cycles=1000 + len(spec.benchmark),
        instructions=100,
    )
    stats.benchmark = spec.benchmark
    return stats


def die(attempt: int = 1) -> None:
    """End this pool worker's process at once, as a crash would.

    Raises ``RuntimeError`` instead in a process ``multiprocessing`` did
    not start, where an exit would end the test run, and once ``attempt``
    passes :data:`MAX_DEATHS`.
    """
    if multiprocessing.parent_process() is None:
        raise RuntimeError("a fault worker dies only in a pool worker process")
    if attempt > MAX_DEATHS:
        raise RuntimeError(f"still dying after {MAX_DEATHS} attempts")
    os._exit(1)


def flaky_worker(spec, options) -> SimStats:
    """Die on the first attempt of a ``monte`` run and succeed on every
    other attempt and spec: the retry-then-success scenario."""
    if record_attempt(spec) == 1 and spec.benchmark == "monte":
        die()
    return _stats_for(spec)


def crashing_worker(spec, options) -> SimStats:
    """Die on *every* attempt of every spec: retry exhaustion."""
    die(record_attempt(spec))


def oserror_worker(spec, options) -> SimStats:
    """Raise ``OSError`` on every attempt: an errno-less one for
    ``monte``, ``ENOSPC`` for any other spec.  The worker survives, so
    the engine must record the error at once."""
    attempt = record_attempt(spec)
    if spec.benchmark == "monte":
        raise OSError(f"injected errno-less fault (attempt {attempt})")
    raise OSError(errno.ENOSPC, "No space left on device (injected)")


def invariant_worker(spec, options) -> SimStats:
    """Raise a deterministic :class:`InvariantViolation` on every attempt.

    The engine must record it immediately (kind ``"invariant"``) without
    burning retries: the violation is a property of the simulation, not
    of the infrastructure.
    """
    record_attempt(spec)
    raise InvariantViolation(
        "injected invariant violation",
        violations=["cycle 42: injected ledger imbalance"],
        snapshot={"cycle": 42},
    )


def selectively_slow_worker(spec, options) -> SimStats:
    """Stall (sleep well past any test deadline) for benchmark ``monte``
    only; return instantly for everything else.  Lets tests prove that a
    per-run deadline condemns exactly the stalled run."""
    record_attempt(spec)
    if spec.benchmark == "monte":
        time.sleep(STALL_SECONDS)
    return _stats_for(spec)


def truncating_worker(spec, options) -> SimStats:
    """Return statistics flagged ``truncated`` — a run that hit its cycle
    limit.  The engine must surface it as a ``truncated`` failure and
    must never cache it."""
    record_attempt(spec)
    stats = _stats_for(spec)
    stats.truncated = True
    return stats


def fast_worker(spec, options) -> SimStats:
    """Always succeed instantly (control runs alongside injected faults)."""
    record_attempt(spec)
    return _stats_for(spec)


# ----------------------------------------------------------------------
# Cache corruption
# ----------------------------------------------------------------------

CORRUPTION_MODES = ("truncated-json", "schema-mismatch", "torn-binary",
                    "wrong-shape")


def corrupt_cache_entry(cache: ResultCache, key: str, mode: str) -> Path:
    """Clobber the cache entry for ``key`` in a realistic way.

    Modes:

    * ``truncated-json`` — the file ends mid-object, as if the writer
      died before finishing (without the atomic-rename protection).
    * ``schema-mismatch`` — a well-formed entry written by an
      incompatible (future) schema version.
    * ``torn-binary`` — non-UTF-8 garbage, as from a torn page or a
      foreign file landing in the cache directory.
    * ``wrong-shape`` — valid JSON of the wrong type entirely.
    * ``key-mismatch`` — a valid entry of another spec copied under
      ``key``'s name.
    * ``bad-stats`` — a well-formed entry whose stats do not
      deserialize.
    * ``truncated-stats`` — a well-formed entry whose stats are flagged
      truncated, which :meth:`ResultCache.put` never stores.

    Returns the path that was written.
    """
    path = cache.path_for(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    if mode == "truncated-json":
        full = json.dumps({"schema": 2, "key": key, "stats": {"cycles": 1}})
        path.write_text(full[: len(full) // 2], encoding="utf-8")
    elif mode == "schema-mismatch":
        path.write_text(
            json.dumps({"schema": 999, "key": key,
                        "stats": {"cycles": 1}}),
            encoding="utf-8",
        )
    elif mode == "torn-binary":
        path.write_bytes(b"\x00\xff\xfe{torn" + os.urandom(16))
    elif mode == "wrong-shape":
        path.write_text(json.dumps(["not", "a", "cache", "entry"]),
                        encoding="utf-8")
    elif mode in ("key-mismatch", "bad-stats", "truncated-stats"):
        entry = {"schema": SCHEMA_VERSION, "key": key,
                 "stats": SimStats(cycles=7).to_dict()}
        if mode == "key-mismatch":
            entry["key"] = "0" * 64
        elif mode == "bad-stats":
            entry["stats"] = "x"
        else:
            entry["stats"]["truncated"] = True
        path.write_text(json.dumps(entry), encoding="utf-8")
    else:  # pragma: no cover - guard against typo'd parametrization
        raise ValueError(f"unknown corruption mode {mode!r}")
    return path


# ----------------------------------------------------------------------
# Checkpoint corruption and crash-resume
# ----------------------------------------------------------------------

CHECKPOINT_CORRUPTION_MODES = (
    "truncated-json", "torn-binary", "wrong-shape", "missing-fields",
    "schema-mismatch", "digest-mismatch", "fingerprint-mismatch",
)


def corrupt_checkpoint(path, mode: str) -> Path:
    """Clobber (or fabricate) a checkpoint file at ``path`` realistically.

    Modes beyond the cache-style ones: ``missing-fields`` drops envelope
    keys, ``digest-mismatch`` tampers with a structurally valid
    envelope's payload after digesting (a bit-flip in flight), and
    ``fingerprint-mismatch`` is a *perfectly valid* snapshot of some
    other run — the subtlest case, rejectable only via the fingerprint.

    Returns the path that was written.
    """
    from repro.sim.checkpoint import CHECKPOINT_SCHEMA, payload_digest

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    valid_payload = {"cycle": 7, "cores": []}
    envelope = {
        "schema": CHECKPOINT_SCHEMA,
        "fingerprint": "someone-elses-run",
        "config_sha256": "0" * 64,
        "cycle": 7,
        "payload": valid_payload,
        "payload_sha256": payload_digest(valid_payload),
    }
    if mode == "truncated-json":
        full = json.dumps(envelope)
        path.write_text(full[: len(full) // 2], encoding="utf-8")
    elif mode == "torn-binary":
        path.write_bytes(b"\x00\xff\xfe{torn" + os.urandom(16))
    elif mode == "wrong-shape":
        path.write_text(json.dumps(["not", "an", "envelope"]),
                        encoding="utf-8")
    elif mode == "missing-fields":
        path.write_text(json.dumps({"schema": CHECKPOINT_SCHEMA}),
                        encoding="utf-8")
    elif mode == "schema-mismatch":
        envelope["schema"] = 999
        path.write_text(json.dumps(envelope), encoding="utf-8")
    elif mode == "digest-mismatch":
        envelope["payload"] = {"cycle": 8, "cores": []}  # post-digest tamper
        path.write_text(json.dumps(envelope), encoding="utf-8")
    elif mode == "fingerprint-mismatch":
        path.write_text(json.dumps(envelope), encoding="utf-8")
    else:  # pragma: no cover - guard against typo'd parametrization
        raise ValueError(f"unknown corruption mode {mode!r}")
    return path


def _build_sim_for(spec):
    """Build and load a simulator for ``spec`` exactly as ``run_spec`` would."""
    import dataclasses

    from repro.harness.runner import HARDWARE_SCHEMES
    from repro.sim.gpu import GpuSimulator
    from repro.trace.benchmarks import get_benchmark
    from repro.trace.tracegen import generate_workload

    cfg = spec.config
    if spec.perfect_memory:
        cfg = cfg.replace(perfect_memory=True)
    if spec.throttle != cfg.throttle.enabled:
        cfg = cfg.replace(
            throttle=dataclasses.replace(cfg.throttle, enabled=spec.throttle)
        )
    builder = HARDWARE_SCHEMES[spec.hardware]
    factory = (
        (lambda core_id: builder(spec.distance, spec.degree))
        if builder is not None else None
    )
    kernel = get_benchmark(spec.benchmark, scale=spec.scale)
    workload = generate_workload(kernel, swp=spec.software)
    sim = GpuSimulator(cfg, factory)
    sim.load_workload(workload.blocks, workload.max_blocks_per_core)
    return sim


def write_midrun_checkpoint(spec, path) -> int:
    """Leave behind exactly what a crashed checkpointing worker would.

    Simulates ``spec`` until the first auto-snapshot lands at ``path``
    (tagged with the spec's sweep fingerprint, as ``run_spec`` tags it),
    then abandons the simulation — the on-disk state a worker killed
    right after its first checkpoint leaves.  Returns the snapshot cycle.
    """
    from repro.sim.checkpoint import write_checkpoint
    from repro.sim.gpu import PeriodicHook

    sim = _build_sim_for(spec)

    class _Abandon(Exception):
        pass

    snapshot_cycle = []

    def crash_after_snapshot(s):
        write_checkpoint(path, s, fingerprint=fingerprint(spec))
        snapshot_cycle.append(s.cycle)
        raise _Abandon

    sim.hooks.append(PeriodicHook(500, crash_after_snapshot, sim.cycle))
    try:
        sim.run()
    except _Abandon:
        pass
    return snapshot_cycle[0]


def sigkill_after_snapshot(spec, directory) -> None:
    """Auto-checkpoint a run of ``spec`` and SIGKILL right afterwards.

    **Subprocess use only** — this kills the calling process dead, with
    no cleanup, exactly like the OOM killer or a pulled plug.  The
    snapshot lands at the spec's canonical location under the checkpoint
    ``directory`` first, so what the parent test finds on disk is a
    genuine artifact of a hard-killed process (written, synced via
    ``os.replace``, then orphaned), not a simulated crash.
    """
    import signal

    from repro.harness.runner import checkpoint_path_for
    from repro.sim.checkpoint import write_checkpoint
    from repro.sim.gpu import PeriodicHook

    path = checkpoint_path_for(spec, directory)
    sim = _build_sim_for(spec)

    def write_and_die(s):
        write_checkpoint(path, s, fingerprint=fingerprint(spec))
        os.kill(os.getpid(), signal.SIGKILL)

    sim.hooks.append(PeriodicHook(500, write_and_die, sim.cycle))
    sim.run(strict=True)
    raise RuntimeError(
        "unreachable: the process should have died at its first snapshot"
    )


def checkpointing_crash_worker(spec, options) -> SimStats:
    """Die once right after leaving a genuine mid-run snapshot.

    The first attempt of a ``cell`` run writes a real auto-checkpoint to
    the spec's canonical location under ``options.checkpoint_dir`` and
    dies: the crash-after-first-snapshot scenario.  Every other attempt
    and spec runs the real :func:`~repro.harness.runner.run_spec`, which
    must find the snapshot and resume from it (asserted by the caller
    via bit-identical stats).
    """
    from repro.harness.runner import checkpoint_path_for, run_spec

    attempt = record_attempt(spec)
    directory = options.checkpoint_dir
    if directory is None:
        raise RuntimeError(
            "checkpointing_crash_worker needs a checkpoint directory"
        )
    if attempt == 1 and spec.benchmark == "cell":
        write_midrun_checkpoint(spec, checkpoint_path_for(spec, directory))
        die()
    return run_spec(spec, options).stats


# ----------------------------------------------------------------------
# Supervised-runtime faults: disk pressure, poison specs, and a
# SIGTERM-able subprocess sweep driver
# ----------------------------------------------------------------------

#: Per-run pacing for :func:`paced_worker` — slow enough that the parent
#: test can observe a sweep mid-flight and SIGTERM it, fast enough that
#: draining two in-flight runs stays well inside the drain timeout.
PACE_SECONDS = 0.35


def selectively_crashing_worker(spec, options) -> SimStats:
    """Die on every attempt of benchmark ``monte`` (a poison spec) and
    succeed for everything else, so that spec burns its whole retry
    budget."""
    attempt = record_attempt(spec)
    if spec.benchmark == "monte":
        die(attempt)
    return _stats_for(spec)


def raise_enospc(*args, **kwargs):
    """Monkeypatch shim: fail like a full filesystem (``ENOSPC``).

    Swap it in for ``os.replace``, ``atomic_write_json`` or any other
    write a sink makes to simulate disk exhaustion at that write site
    without actually filling a disk.
    """
    raise OSError(errno.ENOSPC, "No space left on device (injected)")


def paced_worker(spec, options) -> SimStats:
    """Run the real simulation, preceded by a short pace-keeping sleep.

    Used by :func:`supervised_sweep_main`: the sleep keeps the sweep
    in flight long enough for the parent test to SIGTERM it mid-run.
    The pool's initializer has installed the worker signal handlers, so
    a drain SIGTERM becomes the cooperative shutdown flag instead of
    killing the worker outright.
    """
    from repro.harness.runner import run_spec

    time.sleep(PACE_SECONDS)
    return run_spec(spec, options).stats


def supervised_sweep_main(argv=None) -> None:
    """Subprocess entry point for the SIGTERM-mid-sweep acceptance test.

    Runs a small but real 8-cell sweep (two benchmarks, four hardware
    schemes, tiny scale) through a supervised, journaled
    :class:`~repro.harness.sweep.SweepEngine` with graceful shutdown
    enabled.  Prints exactly one marker line so the parent can tell the
    two legitimate endings apart:

    * ``INTERRUPTED done=<n> pending=<m>`` + exit 130 — a shutdown
      signal drained the sweep; the manifest is finalized and resumable.
    * ``COMPLETE <json>`` + exit 0 — the sweep finished; the JSON maps
      each spec fingerprint to its stats dict (sorted keys, so two
      COMPLETE lines from independent processes are comparable
      byte-for-byte).

    ``argv[0]`` must be the manifest path; the parent reuses it across
    the interrupted run and the resume run.
    """
    import sys

    from repro.harness.runner import make_spec
    from repro.harness.sweep import RunOptions, SweepEngine, SweepInterrupted

    args = list(sys.argv[1:] if argv is None else argv)
    if not args:
        raise SystemExit("usage: supervised_sweep_main <manifest-path>")
    manifest = args[0]
    specs = [
        make_spec(benchmark=bench, hardware=hw, scale=0.05)
        for bench in ("monte", "cell")
        for hw in ("none", "stride_pc", "stride_pc_wid", "stream")
    ]
    engine = SweepEngine(
        jobs=2,
        manifest=manifest,
        worker=paced_worker,
        options=RunOptions(heartbeat_interval=0.2),
        retries=1,
    )
    try:
        outcomes = engine.run(specs)
    except SweepInterrupted as exc:
        print(f"INTERRUPTED done={exc.done} pending={exc.pending}",
              flush=True)
        raise SystemExit(130)
    table = {
        fingerprint(spec): outcome.stats.to_dict()
        for spec, outcome in zip(specs, outcomes)
    }
    print("COMPLETE " + json.dumps(table, sort_keys=True), flush=True)
    raise SystemExit(0)


def coordinated_sweep_main(argv=None) -> None:
    """Subprocess entry point for the multi-process coordination tests.

    Runs the same small real grid as :func:`supervised_sweep_main`, but
    through a *cache-backed, lease-coordinated* engine: ``argv[0]`` is
    the cache directory shared with sibling processes.  Prints exactly
    one line on success::

        COMPLETE simulated=<n> deferred_hits=<m> <json>

    where ``<n>`` is the number of runs this process simulated itself,
    ``<m>`` the number it resolved from a sibling's cached results after
    being denied the lease, and ``<json>`` maps each spec fingerprint to
    its stats dict (sorted keys, byte-comparable across processes).
    Exits 130 on a drain signal, like its uncoordinated sibling.
    """
    import sys

    from repro.harness.runner import make_spec
    from repro.harness.sweep import RunOptions, SweepEngine, SweepInterrupted

    args = list(sys.argv[1:] if argv is None else argv)
    if not args:
        raise SystemExit("usage: coordinated_sweep_main <cache-dir>")
    specs = [
        make_spec(benchmark=bench, hardware=hw, scale=0.05)
        for bench in ("monte", "cell")
        for hw in ("none", "stride_pc", "stride_pc_wid", "stream")
    ]
    engine = SweepEngine(
        cache=ResultCache(args[0]),
        jobs=2,
        worker=paced_worker,
        options=RunOptions(heartbeat_interval=0.2),
        retries=1,
        # Generous on purpose: the acceptance test asserts *zero*
        # duplicated simulations, and a tight grace lets a healthy
        # holder's lease lapse under CI load (a legal at-least-once
        # steal, but not what this scenario measures).  Liveness still
        # holds — a killed holder is detected by pid, not by grace.
        lease_grace=60.0,
    )
    try:
        outcomes = engine.run(specs)
    except SweepInterrupted as exc:
        print(f"INTERRUPTED done={exc.done} pending={exc.pending}",
              flush=True)
        raise SystemExit(130)
    table = {
        fingerprint(spec): outcome.stats.to_dict()
        for spec, outcome in zip(specs, outcomes)
    }
    print(
        f"COMPLETE simulated={engine.simulated} "
        f"deferred_hits={engine.lease_deferred_hits} "
        + json.dumps(table, sort_keys=True),
        flush=True,
    )
    raise SystemExit(0)


def lease_hold_main(argv=None) -> None:
    """Subprocess entry point that claims a lease and then hangs forever.

    ``argv`` is ``<lease-dir> <key>``: acquire the lease through a real
    :class:`~repro.harness.coordinate.LeaseManager` (so it renews on
    cadence), print ``HELD`` as the parent's synchronization point, and
    sleep until killed.  The parent SIGKILLs this process to manufacture
    an orphaned-but-recently-renewed lease whose claimant pid is dead —
    the exact artifact the steal path must recover from.
    """
    import sys

    from repro.harness.coordinate import LeaseManager

    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) < 2:
        raise SystemExit("usage: lease_hold_main <lease-dir> <key>")
    manager = LeaseManager(args[0], grace=30.0, renew_interval=0.1)
    lease = manager.try_acquire(args[1])
    if lease is None:
        raise SystemExit("lease denied")
    print("HELD", flush=True)
    while True:
        time.sleep(0.5)
