"""Span recording around the simulator's public entry points.

The traced launcher (``traced_cli.py``) calls :func:`install`, which
replaces each entry point named in :data:`ENTRY_POINTS` by a wrapper that
records one span per call: a name, a start, an end, the span that caused
it and the run fingerprint of the simulation it belongs to.  Spans stay
in memory; a process appends them to its own ``spans-<pid>.jsonl`` file
whenever its outermost span closes, which in a pool worker is once per
run, so spans survive the worker being reused or torn down.

Pool workers inherit the wrappers: a forked worker keeps the patched
module attributes and resets its span buffer in an at-fork hook, and a
spawned worker re-imports the launcher as ``__mp_main__``, which
installs them again (see ``traced_cli.py``).

All times are ``time.monotonic()`` seconds, a system-wide clock on
Linux, so spans from different processes share one time axis.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Environment variable naming the directory span files are written to.
SPAN_DIR_ENV = "PERFBENCH_SPAN_DIR"


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs.get(name)


def _spec_key(args: tuple, kwargs: dict) -> str:
    from repro.harness.sweep import fingerprint

    return fingerprint(_arg(args, kwargs, 0, "spec"))


def _method_key(args: tuple, kwargs: dict) -> str:
    return _arg(args, kwargs, 1, "key")


def _sweep_counters(engine) -> Dict[str, int]:
    return {
        "simulated": engine.simulated,
        "failures": engine.failures,
        "retried": engine.retried,
    }


def _checkpoint_bytes(args: tuple, kwargs: dict, result) -> Dict[str, int]:
    try:
        return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}
    except OSError:
        return {"bytes": 0}


def _instructions(args: tuple, kwargs: dict, result) -> Dict[str, int]:
    return {"instructions": result.total_instructions()}


#: (module, attribute path, span name, key-of(args, kwargs) or None,
#: attrs-after(args, kwargs, result) or None).  Each entry is a public
#: entry point of one layer; the span name's prefix names the layer.
ENTRY_POINTS: Tuple[tuple, ...] = (
    ("repro.cli", "main", "cli.main", None, None),
    ("repro.trace.benchmarks", "get_benchmark", "trace.get_benchmark", None, None),
    ("repro.trace.tracegen", "generate_workload", "trace.generate", None,
     _instructions),
    ("repro.sim.gpu", "GpuSimulator.load_workload", "sim.load_workload", None, None),
    ("repro.sim.gpu", "GpuSimulator.run", "sim.run", None, None),
    ("repro.harness.runner", "run_spec", "harness.run_spec", _spec_key, None),
    ("repro.harness.sweep", "SweepEngine.run", "harness.sweep", None, None),
    ("repro.harness.sweep", "ResultCache.get", "harness.cache_get", _method_key, None),
    ("repro.harness.sweep", "ResultCache.put", "harness.cache_put", _method_key, None),
    ("repro.harness.coordinate", "LeaseManager.try_acquire", "harness.lease",
     _method_key, None),
    ("repro.harness.coordinate", "LeaseManager.release", "harness.lease",
     _method_key, None),
    ("repro.harness.sweep", "SweepManifest.record_success", "harness.manifest",
     _method_key, None),
    ("repro.harness.supervise", "HeartbeatWriter.beat", "harness.heartbeat", None, None),
    ("repro.sim.checkpoint", "write_checkpoint", "checkpoint.write", None,
     _checkpoint_bytes),
    ("repro.sim.telemetry", "MetricsRecorder.sample", "telemetry.sample", None, None),
    ("repro.sim.telemetry", "MetricsRecorder.write", "telemetry.write", None, None),
    # The profile documents are the tracer's own output; spanning their
    # write keeps it out of the harness's per-run overhead.
    ("repro.sim.profiling", "SimProfiler.write", "tracing.profile_write", None, None),
)

#: Span name -> counters read before and after the call; the span keeps
#: their difference.
COUNTERS = {"harness.sweep": _sweep_counters}


class Tracer:
    """Per-process span buffer with a per-thread stack of open spans.

    A span is the list ``[id, parent, name, start, end, key, pid, attrs]``;
    ids are ``"<pid>:<n>"`` so they stay unique across processes.  A span
    opened with no key inherits its parent's, so every span under a
    ``run_spec`` call carries that run's fingerprint.
    """

    def __init__(self, span_dir: str) -> None:
        self.span_dir = span_dir
        self.pid = os.getpid()
        self.spans: List[list] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        # Parent of this process's root spans: the span open in the
        # forking thread at fork time (None in the launcher).
        self.remote_parent: Optional[str] = None

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def after_fork(self) -> None:
        """Start an empty buffer in a forked child, linked to the parent."""
        stack = self._stack()
        self.remote_parent = stack[-1][0] if stack else None
        self._local.stack = []
        self.spans = []
        self.pid = os.getpid()
        self._lock = threading.Lock()

    def open(self, name: str, key: Optional[str]) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if key is None and parent is not None:
            key = parent[5]
        span = [f"{self.pid}:{next(self._ids)}",
                parent[0] if parent else self.remote_parent, name,
                time.monotonic(), None, key, self.pid, None]
        stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[4] = time.monotonic()
        stack = self._stack()
        stack.pop()
        with self._lock:
            self.spans.append(span)
        if not stack:
            self.flush()

    def flush(self) -> None:
        """Append the buffered spans to this process's span file."""
        with self._lock:
            spans, self.spans = self.spans, []
            if not spans:
                return
            path = os.path.join(self.span_dir, f"spans-{self.pid}.jsonl")
            with open(path, "a", encoding="utf-8") as handle:
                for span in spans:
                    handle.write(json.dumps(span) + "\n")


def _wrap(tracer: Tracer, fn: Callable, name: str, key_of, attrs_after,
          counters_of=None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name, key_of(args, kwargs) if key_of else None)
        before = counters_of(args[0]) if counters_of else None
        try:
            result = fn(*args, **kwargs)
        finally:
            if before is not None:
                after = counters_of(args[0])
                span[7] = {k: after[k] - before[k] for k in after}
            tracer.close(span)
        if attrs_after is not None:
            span[7] = attrs_after(args, kwargs, result)
        return result

    return wrapper


def install(span_dir: str) -> Tracer:
    """Wrap every entry point in :data:`ENTRY_POINTS`; return the tracer.

    A wrapped module-level function is also rebound in every loaded
    ``repro`` module that imported it by name, so callers that did
    ``from module import function`` record spans too.
    """
    tracer = Tracer(span_dir)
    for module_name, attr_path, name, key_of, attrs_after in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        owner_name, _, attr = attr_path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = getattr(owner, attr)
        wrapped = _wrap(tracer, original, name, key_of, attrs_after,
                        COUNTERS.get(name))
        setattr(owner, attr, wrapped)
        if owner_name:
            continue
        for loaded_name, loaded in list(sys.modules.items()):
            if (loaded_name == "repro" or loaded_name.startswith("repro.")) and \
                    getattr(loaded, attr, None) is original:
                setattr(loaded, attr, wrapped)
    os.register_at_fork(after_in_child=tracer.after_fork)
    return tracer


def load_spans(span_dir: str) -> List[list]:
    """Read every span file under ``span_dir`` (all processes)."""
    spans: List[list] = []
    for entry in sorted(os.listdir(span_dir)):
        if entry.startswith("spans-") and entry.endswith(".jsonl"):
            with open(os.path.join(span_dir, entry), encoding="utf-8") as handle:
                spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


def union_length(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    end = float("-inf")
    for start, stop in sorted(intervals):
        if stop <= end:
            continue
        total += stop - max(start, end)
        end = stop
    return total


def self_times(spans: Sequence[list]) -> Dict[str, float]:
    """Span id -> duration minus the part its same-process children cover.

    Children in another process (pool workers) ran concurrently with
    their parent, so they never reduce its self time.
    """
    by_id = {span[0]: span for span in spans}
    children: Dict[str, List[Tuple[float, float]]] = {}
    for span in spans:
        parent = by_id.get(span[1])
        if parent is None or parent[6] != span[6]:
            continue
        start = max(span[3], parent[3])
        stop = min(span[4], parent[4])
        if stop > start:
            children.setdefault(parent[0], []).append((start, stop))
    return {
        span[0]: (span[4] - span[3]) - union_length(children.get(span[0], ()))
        for span in spans
    }
