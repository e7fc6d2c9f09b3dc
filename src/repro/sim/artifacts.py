"""Durable-artifact helpers shared by the observers and the harness.

Every file a run or a sweep leaves behind (result-cache entries, leases,
heartbeats, checkpoints, metrics and profile documents, failure reports,
``BENCH_perf.json``) is written through :func:`atomic_write_json`.  The
best-effort ones — written to help later, never needed by the run that
writes them — go through a :class:`Sink`, the one failure policy: a
write that raises ``OSError`` is dropped, counted and warned about once,
and its sink writes nothing more.  The module also holds the metrics
recorder's default cadence, which
:class:`~repro.harness.sweep.RunOptions` and the CLI state too.  It
depends on the standard library alone, so the result cache, leases and
heartbeats do not depend on the snapshot codec.
"""

from __future__ import annotations

import json
import os
import warnings
from pathlib import Path
from typing import Callable, Optional, Union

#: Default simulated cycles per windowed-metrics sample
#: (:class:`~repro.sim.telemetry.MetricsRecorder`, ``--metrics-interval``).
DEFAULT_METRICS_INTERVAL = 1000


def scratch_path(path: Union[str, Path]) -> Path:
    """Scratch temp location for an atomic write targeting ``path``.

    ``.tmp-<pid>-<name>`` in the same directory: the same filesystem (so
    ``os.replace`` stays atomic), a leading dot + ``tmp`` prefix so
    humans and the artifact auditor (:mod:`repro.harness.fsck`) recognize
    scratch litter at a glance, and a pid stamp so the auditor can
    attribute an orphaned temp to a dead writer and collect it under
    ``--gc`` while leaving a live writer's in-flight temp alone.
    """
    path = Path(path)
    return path.parent / f".tmp-{os.getpid()}-{path.name}"


def atomic_write_json(
    path: Union[str, Path],
    document: object = None,
    indent: Optional[int] = None,
    sort_keys: bool = False,
    trailing_newline: bool = False,
    text: Optional[str] = None,
) -> Path:
    """Write ``document`` as JSON to ``path`` atomically; returns the path.

    Parent directories are created.  The document is serialized to a
    pid-unique temp file (:func:`scratch_path`) in the same directory and
    moved into place with ``os.replace`` (atomic on POSIX), so concurrent
    writers cannot observe — or leave behind — a torn file at the final
    path.  On *any* failure after the temp file is created (serialization
    error, ENOSPC mid-write, a failed replace) the temp is removed before
    the exception propagates, so an exception path never leaks scratch
    litter.  ``indent`` / ``sort_keys`` / ``trailing_newline`` exist for
    rare, human-diffed documents such as ``BENCH_perf.json`` and failure
    reports; ``indent`` switches ``json`` to its pure-Python encoder,
    which leaves garbage for the cyclic collector, so per-run documents
    are written compact.  ``text`` is JSON the caller already encoded,
    written verbatim instead of encoding ``document`` (a checkpoint
    writes the canonical text it digested).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = scratch_path(path)
    if text is None:
        text = json.dumps(document, indent=indent, sort_keys=sort_keys)
    if trailing_newline:
        text += "\n"
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        try:
            tmp.unlink(missing_ok=True)
        except OSError:  # pragma: no cover - cleanup is best-effort
            pass
        raise
    return path


class Sink:
    """The failure policy of one owner's best-effort artifact writes.

    The result cache, the sweep manifest, a run's heartbeats, its
    auto-checkpoints, its metrics and profile documents and the report
    of a rejected snapshot each write through their own sink.  A write
    that raises ``OSError`` (a full disk, a quota, a lost directory) is
    dropped and counted in :attr:`dropped`; the first drop emits one
    ``RuntimeWarning`` naming the sink, the path and the error; and the
    sink then *stops* for the rest of its owner's life, so every later
    write is a counted drop that touches no file.  The run or sweep
    carries on: nothing these sinks write is needed to finish it.
    """

    __slots__ = ("name", "dropped", "stopped")

    def __init__(self, name: str) -> None:
        self.name = name
        self.dropped = 0
        self.stopped = False

    def attempt(
        self, write: Callable[..., object], path: Union[str, Path],
        *args: object, **kwargs: object,
    ) -> bool:
        """Call ``write(path, *args, **kwargs)``; True when it wrote."""
        if self.stopped:
            self.dropped += 1
            return False
        try:
            write(path, *args, **kwargs)
        except OSError as exc:
            self.dropped += 1
            self.stopped = True
            warnings.warn(
                f"{self.name} write to {path} failed ({exc}); dropping it "
                f"and every later {self.name} write",
                RuntimeWarning,
                stacklevel=3,
            )
            return False
        return True
