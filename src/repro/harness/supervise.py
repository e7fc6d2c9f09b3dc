"""Supervised worker runtime: heartbeats and shutdown.

The sweep engine (:mod:`repro.harness.sweep`) runs simulations in worker
processes it cannot look inside.  This module is the protocol between
the two sides:

* **Liveness heartbeats.**  Each worker periodically writes a tiny
  ``{cycle, wall, peak_rss_kb, pid}`` record to a per-run heartbeat file
  (:class:`HeartbeatWriter`, driven by a run-loop hook like checkpoint
  auto-snapshots) in the heartbeat directory the engine names in the
  run's :class:`~repro.harness.sweep.RunOptions`.  The engine-side
  supervisor reads the record's age to distinguish *slow but
  progressing* (fresh heartbeat, advancing cycle) from *wedged* (silent
  past the stall threshold), so a stuck run is killed and requeued long
  before its full ``--timeout`` deadline expires.
* **The run sentinel.**  :class:`RunSentinel` is the worker-side
  self-monitor: on every supervision tick it emits a heartbeat and
  honors shutdown requests by flushing the run's checkpoint hook and
  raising a picklable :class:`~repro.sim.errors.WorkerInterrupted`.
* **Graceful shutdown.**  A process-wide flag
  (:func:`request_shutdown` / :func:`shutdown_requested`) set by the
  engine's first SIGTERM/SIGINT stops admission and lets in-flight runs
  checkpoint and bow out.  In a pool worker the handlers that
  :func:`install_worker_signal_handlers` installs, as the pool's
  initializer, raise the worker's own flag on every signal; a run in
  the engine's process stays under the engine's handlers.
* **Disk-pressure degradation.**  :func:`is_disk_pressure` classifies
  ``ENOSPC``/``EDQUOT``; heartbeat writes that hit them warn once and
  disable themselves instead of crashing the run.

Everything here is engine-agnostic and importable from workers: it
depends only on the sim layer (errors, checkpoint helpers), never on
:mod:`repro.harness.sweep`, so ``sweep`` -> ``supervise`` stays a
one-way dependency.
"""

from __future__ import annotations

import errno
import json
import os
import resource
import signal
import sys
import threading
import time
import warnings
from pathlib import Path
from typing import Dict, Optional, Union

from repro.sim.checkpoint import atomic_write_json
from repro.sim.errors import WorkerInterrupted
from repro.sim.gpu import PeriodicHook

#: Heartbeat record format version.
HEARTBEAT_SCHEMA = 1

#: Cycle cadence of the run-loop supervision hook (the heartbeat and
#: shutdown tick).  Deliberately much finer than the checkpoint
#: interval — the tick itself is wall-clock-gated, so a fine cycle
#: cadence costs one call per 1000 cycles, not one file write.
SUPERVISION_HOOK_CYCLES = 1000

#: A run whose heartbeat is older than ``interval * STALL_GRACE`` (with
#: this floor, covering worker startup and trace generation) is wedged.
WEDGE_GRACE_FLOOR = 2.0


def heartbeat_path_for(
    benchmark: str, key: str, directory: Union[str, Path]
) -> Path:
    """Canonical heartbeat location for a run under ``directory``.

    ``<benchmark>-<key[:12]>.hb.json`` — the same key prefix as cached
    results, profiles, and checkpoints, so one run's artifacts correlate,
    and deterministic across processes, which is what lets the engine
    find the heartbeat a worker is writing.
    """
    return Path(directory) / f"{benchmark}-{key[:12]}.hb.json"


def peak_rss_kb() -> int:
    """Peak resident set size of this process in kilobytes.

    The peak over the process's whole life (``ru_maxrss``), not over
    one run: a pool worker reused across runs reports the largest any
    of them reached, and a forked worker starts from its parent's peak.
    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - platform-specific
        peak //= 1024
    return int(peak)


def is_disk_pressure(exc: BaseException) -> bool:
    """True when ``exc`` is an out-of-space condition (ENOSPC/EDQUOT)."""
    if not isinstance(exc, OSError):
        return False
    return exc.errno in (errno.ENOSPC, getattr(errno, "EDQUOT", -1))


def load_heartbeat(path: Union[str, Path]) -> Dict:
    """The record at ``path``: the one parser of heartbeat files.

    A heartbeat is a JSON object with this module's
    :data:`HEARTBEAT_SCHEMA` and a numeric ``wall`` timestamp, as
    :class:`HeartbeatWriter` writes it.  ``repro fsck`` judges heartbeat
    files with this parser.

    Raises:
        OSError: The file cannot be read (``FileNotFoundError`` when
            absent).
        ValueError: The file is not a heartbeat record; the message says
            why.
    """
    try:
        record = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # torn JSON or bytes that are not UTF-8
        raise ValueError(f"unparsable: {exc}") from None
    if not isinstance(record, dict):
        raise ValueError("record is not an object")
    if record.get("schema") != HEARTBEAT_SCHEMA:
        raise ValueError(
            f"schema {record.get('schema')!r} != {HEARTBEAT_SCHEMA}"
        )
    if not isinstance(record.get("wall"), (int, float)):
        raise ValueError("no numeric wall timestamp")
    return record


def read_heartbeat(path: Union[str, Path]) -> Optional[Dict]:
    """Latest heartbeat record at ``path``, or None when absent.

    A record :func:`load_heartbeat` rejects degrades to
    ``{"wall": <mtime>}`` — enough for staleness checks even when the
    payload is unusable (heartbeat writes are atomic, so this is rare).
    """
    path = Path(path)
    try:
        return load_heartbeat(path)
    except FileNotFoundError:
        return None
    except (OSError, ValueError):
        pass
    try:
        return {"wall": path.stat().st_mtime}
    except OSError:
        return None


# ----------------------------------------------------------------------
# Graceful-shutdown flag
# ----------------------------------------------------------------------

_SHUTDOWN = threading.Event()


def request_shutdown() -> None:
    """Raise the process-wide graceful-shutdown flag (idempotent)."""
    _SHUTDOWN.set()


def shutdown_requested() -> bool:
    """True once a graceful shutdown has been requested in this process."""
    return _SHUTDOWN.is_set()


def reset_shutdown() -> None:
    """Clear the shutdown flag (tests and deliberate sweep restarts)."""
    _SHUTDOWN.clear()


def _worker_signal_handler(signum: int, frame: object) -> None:
    """Pool-worker handler: convert SIGTERM/SIGINT into the flag.

    The run sentinel observes the flag at its next tick, flushes a
    checkpoint, and raises :class:`~repro.sim.errors.WorkerInterrupted`
    — a controlled exit instead of an instant kill mid-write.
    """
    request_shutdown()


def install_worker_signal_handlers() -> None:
    """Install graceful SIGTERM/SIGINT handling in a pool worker.

    The sweep engine's process pools run it as their ``initializer``,
    once per worker process.  Idempotent; silently a no-op off the main
    thread or on platforms without these signals (a worker must never
    die because it could not customize signal disposition).
    """
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(sig, _worker_signal_handler)
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            return


# ----------------------------------------------------------------------
# Worker side: heartbeat writer + run sentinel
# ----------------------------------------------------------------------


class HeartbeatWriter:
    """Wall-clock-gated writer of per-run heartbeat records.

    ``beat()`` is cheap to call often (the supervision hook fires every
    :data:`SUPERVISION_HOOK_CYCLES` cycles): it only touches the disk
    once per ``interval`` seconds.  Writes are atomic (shared
    :func:`~repro.sim.checkpoint.atomic_write_json` helper) so the
    engine never reads a torn record.  Disk pressure (ENOSPC/EDQUOT)
    warns once and disables the sink — liveness reporting degrades, the
    simulation itself survives.
    """

    def __init__(self, path: Union[str, Path], interval: float) -> None:
        self.path = Path(path)
        self.interval = max(0.0, float(interval))
        self.enabled = True
        self.writes = 0
        self.dropped = 0
        self._last = float("-inf")

    def beat(self, cycle: int, force: bool = False) -> None:
        """Write a heartbeat record when the interval has elapsed."""
        if not self.enabled:
            return
        now = time.monotonic()
        if not force and now - self._last < self.interval:
            return
        record = {
            "schema": HEARTBEAT_SCHEMA,
            "pid": os.getpid(),
            "cycle": int(cycle),
            "wall": time.time(),
            "peak_rss_kb": peak_rss_kb(),
        }
        try:
            atomic_write_json(self.path, record)
        except OSError as exc:
            self.dropped += 1
            if is_disk_pressure(exc):
                self.enabled = False
                warnings.warn(
                    f"heartbeat writes to {self.path} disabled ({exc}); "
                    "the supervisor will fall back to the full deadline",
                    RuntimeWarning,
                    stacklevel=2,
                )
            return
        self._last = now
        self.writes += 1

    def close(self) -> None:
        """Remove the heartbeat file (a completed run needs no liveness)."""
        try:
            self.path.unlink(missing_ok=True)
        except OSError:
            pass


class RunSentinel:
    """Worker-side self-monitor attached to a simulator's run loop.

    On every supervision tick (every :data:`SUPERVISION_HOOK_CYCLES`
    simulated cycles) the sentinel:

    1. emits a liveness heartbeat (wall-clock gated),
    2. honors a pending graceful-shutdown request — flush a checkpoint
       if one is armed, then raise
       :class:`~repro.sim.errors.WorkerInterrupted`.

    The exception is a picklable :class:`~repro.sim.errors.SimulationError`
    subclass, so it crosses the pool pipe losslessly and is never
    treated as a retryable infrastructure fault.
    """

    def __init__(self, heartbeat: Optional[HeartbeatWriter] = None) -> None:
        self.heartbeat = heartbeat
        self.checkpoint: Optional[PeriodicHook] = None
        if heartbeat is not None:
            # First beat immediately: it records this worker's pid before
            # trace generation starts, so the engine can relay signals to
            # (or reclaim) the worker even if the run wedges early.
            heartbeat.beat(0, force=True)

    def attach(
        self, sim: object, checkpoint: Optional[PeriodicHook] = None
    ) -> None:
        """Append a hook calling :meth:`tick` to ``sim``'s run loop.

        ``checkpoint`` is the run's checkpoint hook, if any; a
        structured exit flushes it first.
        """
        self.checkpoint = checkpoint
        sim.hooks.append(
            PeriodicHook(SUPERVISION_HOOK_CYCLES, self.tick, sim.cycle)
        )

    def tick(self, sim: object) -> None:
        """One supervision tick (called by the simulator's run loop)."""
        if self.heartbeat is not None:
            self.heartbeat.beat(sim.cycle)
        if shutdown_requested():
            self._flush_checkpoint(sim)
            raise WorkerInterrupted(
                f"graceful shutdown requested; run interrupted at cycle "
                f"{sim.cycle} (checkpoint flushed if armed)",
                snapshot={"cycle": sim.cycle, "pid": os.getpid()},
            )

    def _flush_checkpoint(self, sim: object) -> None:
        """Best-effort final snapshot before a structured worker exit."""
        if self.checkpoint is None:
            return
        try:
            self.checkpoint.fire(sim)
        except OSError:  # pragma: no cover - best-effort by design
            pass

    def close(self) -> None:
        """Tear down after a successful run (removes the heartbeat)."""
        if self.heartbeat is not None:
            self.heartbeat.close()
