"""Structured simulation-failure taxonomy with diagnostic snapshots.

Every abnormal simulation outcome is a subclass of
:class:`SimulationError`:

* :class:`DeadlockError` — the event loop proved no component can ever
  make progress again (or the forward-progress watchdog fired).  Carries
  a human-readable diagnosis of *which* component is wedged.
* :class:`CycleLimitExceeded` — the run hit ``max_cycles`` with warps
  still unretired.  The corresponding :class:`~repro.sim.stats.SimStats`
  carries ``truncated=True`` so a truncated run can never masquerade as
  a completed one.
* :class:`InvariantViolation` — a machine-checked invariant (request
  conservation, retirement accounting, prefetch ledgers; see
  :mod:`repro.sim.invariants`) failed, i.e. the simulator state is
  corrupt and any statistics derived from it are meaningless.
* :class:`CheckpointError` — a simulator snapshot failed validation on
  load (see :mod:`repro.sim.checkpoint`); the run falls back to a cold
  start and the error is recorded so the bad snapshot leaves a trace.
* :class:`WorkerInterrupted` — a graceful-shutdown request reached the
  worker mid-run; the run checkpointed and bowed out, and a follow-up
  sweep with the same manifest re-executes (or resumes) it.

Each exception carries a *diagnostic snapshot*: a plain-JSON dict of the
machine state at failure time (cycle, per-core warp states, queue
depths, partial stats) built by
:func:`repro.sim.invariants.snapshot_simulator`.  Snapshots serialize
into failure-report JSON files via :func:`write_failure_report` (a
rejected checkpoint, a differential-check mismatch) so the failure
leaves an artifact that can be inspected long after the process is
gone.  Every class pickles losslessly, which is what lets a worker in
a process pool raise them across the pipe.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Union

#: Schema tag written into every failure report so future readers can
#: evolve the format without guessing.
FAILURE_REPORT_SCHEMA = 1


class SimulationError(RuntimeError):
    """Base class for structured simulation failures.

    Subclasses ``RuntimeError`` so pre-taxonomy callers that caught
    ``RuntimeError`` keep working.

    Args:
        message: Human-readable description of the failure.
        snapshot: JSON-able diagnostic snapshot of the machine state
            (see :func:`repro.sim.invariants.snapshot_simulator`).
    """

    #: Short machine-readable tag used by failure reports and sweep
    #: failure records (``RunFailure.kind``).
    kind = "simulation-error"

    def __init__(self, message: str, snapshot: Optional[Dict] = None) -> None:
        super().__init__(message)
        self.snapshot: Dict = snapshot if snapshot is not None else {}

    def __reduce__(self):
        return (type(self), (self.args[0], self.snapshot))

    def to_report(self) -> Dict:
        """Serialize into a failure-report payload (plain JSON types)."""
        return {
            "schema": FAILURE_REPORT_SCHEMA,
            "error": type(self).__name__,
            "kind": self.kind,
            "message": str(self),
            "snapshot": self.snapshot,
        }


class DeadlockError(SimulationError):
    """No component can make progress; ``str(exc)`` names the culprit."""

    kind = "deadlock"


class CycleLimitExceeded(SimulationError):
    """The run exhausted ``max_cycles`` before every warp retired."""

    kind = "truncated"


class CheckpointError(SimulationError):
    """A simulator checkpoint could not be loaded or validated.

    Raised by :mod:`repro.sim.checkpoint` when a snapshot file is
    unreadable, structurally invalid, fails its payload digest, or was
    written for a different schema version / configuration fingerprint.
    The sweep engine treats it as a *recoverable* condition: the run
    falls back to a cold start and the error is recorded in the run's
    failure report so the corrupt snapshot leaves a trace.

    Args:
        message: Human-readable description of what failed validation.
        snapshot: Diagnostic context (path, expected/actual digests...).
    """

    kind = "checkpoint"


class WorkerInterrupted(SimulationError):
    """A graceful-shutdown request interrupted this run mid-flight.

    Raised by the worker-side run sentinel once the process-wide
    shutdown flag (first SIGTERM/SIGINT) is observed, after flushing a
    checkpoint when one is armed.  The sweep engine drops the run
    unrecorded — it is *pending*, not failed — so resuming with the same
    manifest re-executes it.

    Args:
        message: Human-readable description with the interrupted cycle.
        snapshot: ``{cycle, pid}`` at the interruption point.
    """

    kind = "interrupted"


class InvariantViolation(SimulationError):
    """A machine-checked simulator invariant failed.

    Args:
        message: Summary line.
        snapshot: Diagnostic snapshot at the failing check.
        violations: The individual failed-invariant descriptions (one
            check pass can surface several).
    """

    kind = "invariant"

    def __init__(
        self,
        message: str,
        snapshot: Optional[Dict] = None,
        violations: Optional[List[str]] = None,
    ) -> None:
        super().__init__(message, snapshot)
        self.violations: List[str] = list(violations or [])

    def __reduce__(self):
        return (type(self), (self.args[0], self.snapshot, self.violations))

    def to_report(self) -> Dict:
        report = super().to_report()
        report["violations"] = list(self.violations)
        return report


def write_failure_report(path: Union[str, Path], report: Dict) -> Path:
    """Write a failure-report dict as pretty JSON; returns the path.

    Parent directories are created.  The write goes through the one
    atomic-write helper, so a crash mid-write leaves no torn report for
    ``repro fsck`` to call corrupt.
    """
    # Imported here because repro.sim.checkpoint imports this module.
    from repro.sim.checkpoint import atomic_write_json

    return atomic_write_json(path, report, indent=2, sort_keys=True)


def load_failure_report(path: Union[str, Path]) -> Dict:
    """Read back a report written by :func:`write_failure_report`.

    The one reader of failure reports (``repro fsck`` uses it too).
    Raises ``OSError`` when the file cannot be read and ``ValueError``
    when it is not a JSON object.
    """
    report = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(report, dict):
        raise ValueError("failure report is not a JSON object")
    return report
