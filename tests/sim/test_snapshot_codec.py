"""The snapshot codec: complete by construction, exact on resume.

:mod:`repro.sim.checkpoint` stores every field of every object reachable
from the simulator unless the object's class declares it static or
derived.  This suite pins the three properties that make that safe:

1. **Completeness** — for every hardware scheme (throttling, telemetry
   and invariant checking on) and for the reference DRAM scheduler, a
   mid-run snapshot stores or declares every field of every reachable
   object, and no declaration names a field that no longer exists.
2. **Exactness** — restoring a snapshot and snapshotting again gives the
   same bytes (profiler attached too), and a resumed run writes the same
   snapshots as the uninterrupted one at every later boundary and ends
   with the same :class:`~repro.sim.stats.SimStats`.
3. **No forgotten fields** — a field added to a component is stored and
   restored with no declaration, and a snapshot whose recorded layout no
   longer matches the code is rejected so the run cold-starts.
"""

import dataclasses
import json
import math
import warnings
from collections import OrderedDict, deque

import pytest

from repro.core.stride_pc import StrideEntry, StridePcPrefetcher
from repro.harness.runner import (
    HARDWARE_SCHEMES,
    checkpoint_path_for,
    make_spec,
    run_spec,
)
from repro.sim import mrq as mrq_module
from repro.sim.checkpoint import (
    canonical_json,
    declared_fields,
    dump_state,
    load_state,
    restore_simulator,
)
from repro.sim.errors import load_failure_report
from repro.sim.gpu import GpuSimulator
from repro.sim.invariants import InvariantChecker
from repro.sim.memory_request import MemoryRequest
from repro.sim.profiling import SimProfiler
from repro.sim.telemetry import MetricsRecorder
from repro.sim.warp import Warp
from repro.trace.benchmarks import get_benchmark
from repro.trace.tracegen import generate_workload

from tests.harness import faults
from tests.sim.test_checkpoint import golden_sha, stats_sha

#: Cycles between snapshots: a monte run at scale 0.1 lasts ~12k cycles.
INTERVAL = 1500


class Bag:
    """A root holding one of each container kind the machine holds."""

    def __init__(self):
        self.lru = OrderedDict()
        self.history = deque(maxlen=3)
        self.tokens = set()
        self.rows = {}
        self.rate = 0.0
        self.shared = None
        self.also = []
        self.again = {}


class TaggedRequest(MemoryRequest):
    """A request class grown by one slot, with no snapshot declaration."""

    __slots__ = ("tag",)

    def __init__(self, line_addr, *args, **kwargs):
        super().__init__(line_addr, *args, **kwargs)
        self.tag = line_addr % 7


class CountingPrefetcher(StridePcPrefetcher):
    """A prefetcher grown by one instance-``__dict__`` field, undeclared."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.lookups_seen = 0

    def observe(self, pc, warp_id, addr, cycle):
        self.lookups_seen += 1
        return super().observe(pc, warp_id, addr, cycle)


def test_codec_round_trips_every_container_kind():
    """LRU order, a bounded deque, sets, tuple keys, inf, and identity."""
    bag = Bag()
    entry = StrideEntry(0x1000)
    entry.train(0x1040)
    for line in (64, 128, 192):
        bag.lru[line] = line // 64
    bag.lru.move_to_end(64)                    # order is LRU state
    bag.history.extend([1, 2, 3, 4])           # 1 aged out past maxlen
    bag.tokens.update({7, 3, 11})
    bag.rows[(5, 2)] = "pc5-warp2"             # tuple dict keys
    bag.rate = float("inf")
    bag.shared = entry                         # one object, three places
    bag.also = [entry]
    bag.again = {9: entry}

    text = canonical_json(dump_state(bag))
    clone = load_state(json.loads(text), Bag())

    assert canonical_json(dump_state(clone)) == text
    assert type(clone.lru) is OrderedDict
    assert list(clone.lru.items()) == [(128, 2), (192, 3), (64, 1)]
    assert clone.history == deque([2, 3, 4]) and clone.history.maxlen == 3
    clone.history.append(5)
    assert list(clone.history) == [3, 4, 5]
    assert clone.tokens == {3, 7, 11}
    assert clone.rows == {(5, 2): "pc5-warp2"}
    assert math.isinf(clone.rate)
    assert clone.shared is clone.also[0] is clone.again[9]
    assert clone.shared is not entry
    assert (clone.shared.last_addr, clone.shared.stride) == (0x1040, 0x40)


def test_unstorable_value_fails_loudly():
    bag = Bag()
    bag.shared = print
    with pytest.raises(TypeError, match="builtin_function_or_method"):
        dump_state(bag)


def test_stale_declaration_fails_loudly(monkeypatch):
    monkeypatch.setattr(InvariantChecker, "snapshot_static", ("sim", "renamed"))
    with pytest.raises(TypeError, match="renamed"):
        dump_state(InvariantChecker(None))


# ----------------------------------------------------------------------
# Whole-machine completeness and exactness
# ----------------------------------------------------------------------


def build(spec, reference=False, profiler=None, builder=None):
    """A loaded simulator for ``spec`` with telemetry and invariants on.

    Returns ``(sim, restore)`` where ``restore(payload, profiler)``
    rebuilds a simulator from a payload the way the harness does.
    """
    cfg = spec.config.replace(
        throttle=dataclasses.replace(spec.config.throttle, enabled=True)
    )
    if reference:
        cfg = cfg.replace(dram=dataclasses.replace(cfg.dram, reference_scheduler=True))
    builder = builder or HARDWARE_SCHEMES[spec.hardware]
    factory = (
        (lambda core_id: builder(spec.distance, spec.degree))
        if builder is not None else None
    )
    workload = generate_workload(get_benchmark(spec.benchmark, scale=spec.scale))
    sim = GpuSimulator(
        cfg, factory, profiler=profiler, metrics=MetricsRecorder(interval=400)
    )
    # A short check interval, so the checker's schedule is live state.
    sim.invariants = InvariantChecker(sim, interval=700)
    sim.load_workload(workload.blocks, workload.max_blocks_per_core)

    def restore(payload, profiler=None):
        return restore_simulator(
            {"payload": json.loads(payload)}, cfg, factory, workload.blocks,
            workload.max_blocks_per_core, invariants=True, profiler=profiler,
            metrics=MetricsRecorder(),
        )

    return sim, restore


def run_with_snapshots(sim):
    """Run to completion; return (result, {cycle: canonical payload})."""
    snapshots = {}

    def writer(s):
        snapshots[s.cycle] = canonical_json(dump_state(s))

    sim.checkpoint_interval = INTERVAL
    sim.checkpoint_write = writer
    return sim.run(strict=True), snapshots


def all_fields(obj):
    """Every field an object has: slots of its classes plus its __dict__."""
    names = set(getattr(obj, "__dict__", ()))
    for klass in type(obj).__mro__:
        names.update(
            s for s in vars(klass).get("__slots__", ())
            if s not in ("__dict__", "__weakref__")
        )
    return names


def reachable(root, layout):
    """Every repro object reachable from ``root`` through stored fields."""
    seen = set()
    stack = [root]
    while stack:
        value = stack.pop()
        if isinstance(value, (list, tuple, set, deque)):
            stack.extend(value)
        elif isinstance(value, dict):
            stack.extend(value)
            stack.extend(value.values())
        elif type(value).__module__.startswith("repro.") and id(value) not in seen:
            seen.add(id(value))
            yield value
            _module, stored = layout[type(value).__qualname__]
            stack.extend(getattr(value, name) for name in stored)


SCHEMES = [(name, False) for name in sorted(HARDWARE_SCHEMES)] + [("mt-hwp", True)]


@pytest.mark.parametrize(
    "hardware, reference", SCHEMES,
    ids=[f"{h}{'-reference' if r else ''}" for h, r in SCHEMES],
)
def test_snapshots_are_complete_and_exact(hardware, reference):
    """Complete, restore-exact and resume-exact, for every scheme."""
    spec = make_spec("monte", hardware=hardware, throttle=True, scale=0.1)

    # (c) resumed snapshots and stats match the uninterrupted run's.
    sim, restore = build(spec, reference)
    straight, snapshots = run_with_snapshots(sim)
    cycles = sorted(snapshots)
    assert len(cycles) >= 4, cycles
    middle = cycles[len(cycles) // 2]
    resumed, later = run_with_snapshots(restore(snapshots[middle]))
    assert resumed.stats.to_dict() == straight.stats.to_dict()
    for cycle in cycles[cycles.index(middle) + 1:]:
        assert later.get(cycle) == snapshots[cycle], f"diverged at {cycle}"

    # (a) and (b) on a profiled run: every field stored or declared, and
    # restore + re-snapshot reproduces the bytes.
    sim, restore = build(spec, reference, profiler=SimProfiler())
    _, snapshots = run_with_snapshots(sim)
    text = snapshots[sorted(snapshots)[len(snapshots) // 2]]
    payload = json.loads(text)
    restored = restore(text, profiler=SimProfiler())
    classes = set()
    for obj in reachable(restored, payload["@layout"]):
        _module, stored = payload["@layout"][type(obj).__qualname__]
        assert all_fields(obj) == set(stored) | declared_fields(type(obj)), type(obj)
        classes.add(type(obj).__qualname__)
    assert {"Core", "MemoryRequest", "Warp", "BufferEntry", "SimProfiler",
            "MetricsRecorder", "InvariantChecker"} <= classes
    assert canonical_json(dump_state(restored)) == text


def test_added_field_is_stored_without_declaration(monkeypatch):
    """New fields — in __slots__ or an instance __dict__ — need no declaration."""
    monkeypatch.setattr(mrq_module, "MemoryRequest", TaggedRequest)
    spec = make_spec("monte", hardware="stride_pc_wid", scale=0.1)
    sim, restore = build(
        spec, builder=lambda d, g: CountingPrefetcher(distance=d, degree=g)
    )
    _, snapshots = run_with_snapshots(sim)
    text = snapshots[sorted(snapshots)[1]]
    layout = json.loads(text)["@layout"]
    assert "lookups_seen" in layout["CountingPrefetcher"][1]
    assert "tag" in layout["TaggedRequest"][1]

    restored = restore(text)
    # A fresh CountingPrefetcher starts at zero: these counts were restored.
    assert any(c.prefetcher.lookups_seen for c in restored.cores)
    assert canonical_json(dump_state(restored)) == text
    requests = [r for c in restored.cores for r in c.mrq._entries.values()]
    assert requests and all(type(r) is TaggedRequest for r in requests)
    assert all(r.tag == r.line_addr % 7 for r in requests)


def test_layout_change_rejects_the_snapshot_and_cold_starts(
    tmp_path, monkeypatch
):
    """A snapshot whose recorded layout differs from the code never loads."""
    request = {"benchmark": "cell", "hardware": "none", "scale": 0.25,
               "software": "stride", "throttle": True}
    spec = make_spec(**request)
    snapshot = checkpoint_path_for(spec, tmp_path)
    faults.write_midrun_checkpoint(spec, snapshot)

    # The code now stores a field the snapshot's layout lacks.
    monkeypatch.setattr(Warp, "snapshot_static", ())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run_spec(spec, checkpoint_path=snapshot, checkpoint_interval=0)
    assert any("cold-starting" in str(w.message) for w in caught)
    assert stats_sha(result) == golden_sha(request)
    report = load_failure_report(snapshot.with_suffix(".failure.json"))
    assert report["kind"] == "checkpoint"
    assert "field layout of Warp changed" in report["message"]
    assert not snapshot.exists()
