"""Checkpoint/restore determinism and envelope-validation suite.

The checkpoint subsystem's contract (see :mod:`repro.sim.checkpoint`)
has two halves, and this suite pins both:

1. **Bit-identical resume.**  A simulator snapshotted at several mid-run
   cycles and restored into a fresh process-worth of state must finish
   with byte-identical serialized :class:`~repro.sim.stats.SimStats` —
   asserted against the same ``tests/data/golden_stats.json`` captures
   the determinism suite uses, so resume correctness is anchored to the
   seed simulator, not merely to self-consistency.  This must hold with
   invariant checking enabled and with a profiler attached.
2. **Validation.**  Every way a snapshot can be wrong — torn write,
   binary garbage, schema drift, tampered payload, wrong run, wrong
   machine — must surface as a structured, picklable
   :class:`~repro.sim.errors.CheckpointError`, never a silent load.
"""

import dataclasses
import hashlib
import json
import pickle
import weakref
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.harness.runner import HARDWARE_SCHEMES, make_spec
from repro.harness.sweep import fingerprint
from repro.sim.artifacts import atomic_write_json, scratch_path
from repro.sim.checkpoint import (
    CHECKPOINT_SCHEMA,
    attach_checkpointing,
    canonical_json,
    config_fingerprint,
    load_checkpoint,
    payload_digest,
    restore_simulator,
    write_checkpoint,
)
from repro.sim.config import baseline_config
from repro.sim.errors import CheckpointError
from repro.sim.gpu import GpuSimulator, PeriodicHook
from repro.sim.profiling import SimProfiler
from repro.trace.benchmarks import get_benchmark
from repro.trace.tracegen import generate_workload

from tests.harness import faults

GOLDEN_PATH = Path(__file__).parent.parent / "data" / "golden_stats.json"

#: Test-side handles (factory, workload, kernel) of each simulator
#: :func:`build_sim` made, kept off the simulator because a snapshot
#: stores every attribute the simulator has.
BUILT = weakref.WeakKeyDictionary()

#: Golden runs exercised for round-trip resume: together they cover the
#: MT-HWP tables (PWS/GS/IP), a stride prefetcher with the adaptive
#: throttle engine, software MT-prefetching, and the no-prefetch
#: baseline machinery.
ROUNDTRIP_REQUESTS = (
    {"benchmark": "backprop", "hardware": "mt-hwp", "scale": 0.25,
     "software": "none", "throttle": True},
    {"benchmark": "cell", "hardware": "none", "scale": 0.25,
     "software": "stride", "throttle": True},
    {"benchmark": "stream", "hardware": "stride_pc_wid", "scale": 0.5,
     "software": "none"},
)


def golden_sha(request) -> str:
    """The golden stats hash for a run request, from the committed file."""
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        runs = json.load(fh)["runs"]
    for run in runs:
        if run["request"] == request:
            return run["sha256"]
    raise KeyError(f"no golden capture for {request}")


def stats_sha(result) -> str:
    """Canonical stats hash, matching the determinism suite's encoding."""
    canon = json.dumps(
        result.stats.to_dict(), sort_keys=True, separators=(",", ":")
    ).encode()
    return hashlib.sha256(canon).hexdigest()


def effective_config(spec):
    """The machine config a run of ``spec`` actually simulates under.

    Mirrors the harness's ``_simulate`` adjustment: the spec carries
    ``throttle`` as a flag beside a baseline config, and the simulator
    (hence the checkpoint's ``config_sha256``) sees the merged result.
    """
    cfg = spec.config
    if spec.throttle != cfg.throttle.enabled:
        cfg = cfg.replace(
            throttle=dataclasses.replace(cfg.throttle, enabled=spec.throttle)
        )
    return cfg


def build_sim(spec, profiler=None, invariants=None) -> GpuSimulator:
    """Construct and load a simulator for ``spec``, run_spec-equivalent."""
    cfg = effective_config(spec)
    builder = HARDWARE_SCHEMES[spec.hardware]
    factory = (
        (lambda core_id: builder(spec.distance, spec.degree))
        if builder is not None else None
    )
    kernel = get_benchmark(spec.benchmark, scale=spec.scale)
    workload = generate_workload(kernel, swp=spec.software)
    sim = GpuSimulator(cfg, factory, invariants=invariants, profiler=profiler)
    sim.load_workload(workload.blocks, workload.max_blocks_per_core)
    BUILT[sim] = SimpleNamespace(factory=factory, workload=workload, kernel=kernel)
    return sim


def capture_snapshots(spec, directory, snapshots=3, profiler=None,
                      invariants=None):
    """Run ``spec`` to completion, snapshotting at ``snapshots`` cycles.

    Returns ``(result, paths)``; each path holds one distinct mid-run
    envelope, tagged with the spec's sweep fingerprint.
    """
    sim = build_sim(spec, profiler=profiler, invariants=invariants)
    paths = []

    def writer(s):
        path = Path(directory) / f"snap-{s.cycle}.ckpt.json"
        write_checkpoint(path, s, fingerprint=fingerprint(spec))
        paths.append(path)

    # Intervals chosen so each golden run yields >= 3 mid-run snapshots
    # (golden cycle counts: cell 2356, backprop 7152, stream 17160).
    interval = {"backprop": 1800, "cell": 600, "stream": 4300}[spec.benchmark]
    sim.hooks.append(PeriodicHook(interval, writer, sim.cycle))
    result = sim.run(strict=True)
    result.stats.benchmark = BUILT[sim].kernel.name
    assert len(paths) >= snapshots, (
        f"expected >= {snapshots} snapshots, got {len(paths)}"
    )
    return result, paths


def resume_from(path, spec, profiler=None, invariants=None):
    """Validate + restore a snapshot of ``spec`` and run it to completion."""
    sim = build_sim(spec, profiler=profiler, invariants=invariants)
    envelope = load_checkpoint(path, fingerprint=fingerprint(spec))
    restored = restore_simulator(
        envelope,
        sim.config,
        BUILT[sim].factory,
        BUILT[sim].workload.blocks,
        BUILT[sim].workload.max_blocks_per_core,
        invariants=invariants,
        profiler=profiler,
    )
    result = restored.run(strict=True)
    result.stats.benchmark = BUILT[sim].kernel.name
    return result


# ----------------------------------------------------------------------
# Bit-identical resume
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "request_", ROUNDTRIP_REQUESTS,
    ids=lambda r: f"{r['benchmark']}-{r['hardware']}-{r['software']}",
)
def test_resume_is_bit_identical_to_golden(request_, tmp_path):
    """Every mid-run snapshot resumes to the golden stats, bit for bit."""
    spec = make_spec(**request_)
    expected = golden_sha(request_)
    result, paths = capture_snapshots(spec, tmp_path)
    assert stats_sha(result) == expected, (
        "checkpointing perturbed the simulation itself"
    )
    for path in paths:
        resumed = resume_from(path, spec)
        assert stats_sha(resumed) == expected, (
            f"resume from {path.name} diverged from the golden capture"
        )


def test_resume_mid_sleep_is_bit_identical(tmp_path):
    """Snapshots taken with cores mid-sleep resume to the golden stats.

    Between loop iterations a core can be waiting on its busy port
    (until ``port_free_cycle``) or ``blocked`` until an external event,
    and its warps can be parked on load tokens.  ``blocked`` and the
    resident warps are stored, so a resumed core blocked with warps (a
    credit block) keeps accruing the skipped polls' stall cycles; the
    parked flags and the issue mask are derived, rebuilt unparked on
    restore.  This test
    snapshots densely, keeps only instants that caught one of the
    three, requires the kept set to cover all three, and resumes the
    first snapshot of each kind and the first four; every such resume
    must reproduce the golden capture byte for byte.
    """
    request_ = {"benchmark": "stream", "hardware": "stride_pc_wid",
                "scale": 0.5, "software": "none"}
    spec = make_spec(**request_)
    sim = build_sim(spec)
    paths = []
    first_caught = {}  # kind of sleep -> first snapshot that caught it

    def writer(s):
        kinds = {
            "credit block": any(
                core.blocked and core.warps for core in s.cores
            ),
            "busy port": any(core.port_free_cycle > s.cycle for core in s.cores),
            "parked warp": any(
                warp.parked for core in s.cores for warp in core.warps
            ),
        }
        if not any(kinds.values()):
            return
        path = Path(tmp_path) / f"sleep-{s.cycle}.ckpt.json"
        write_checkpoint(path, s, fingerprint=fingerprint(spec))
        paths.append(path)
        for kind, caught in kinds.items():
            if caught:
                first_caught.setdefault(kind, path)

    # Dense, off-phase with wake periods.
    sim.hooks.append(PeriodicHook(401, writer, sim.cycle))
    result = sim.run(strict=True)
    result.stats.benchmark = BUILT[sim].kernel.name
    expected = golden_sha(request_)
    assert stats_sha(result) == expected
    assert sorted(first_caught) == ["busy port", "credit block", "parked warp"]
    for path in sorted(set(paths[:4]) | set(first_caught.values())):
        resumed = resume_from(path, spec)
        assert stats_sha(resumed) == expected, (
            f"mid-sleep resume from {path.name} diverged"
        )


def test_resume_under_invariant_checking(tmp_path, monkeypatch):
    """Round trip with the integrity checker attached on both sides.

    The checker's own schedule state is checkpointed too, so the resumed
    run re-checks at the same cycles — and a restore that corrupted the
    machine state would trip it loudly here.
    """
    monkeypatch.setenv("REPRO_INVARIANTS", "1")
    request_ = ROUNDTRIP_REQUESTS[0]
    spec = make_spec(**request_)
    expected = golden_sha(request_)
    _, paths = capture_snapshots(spec, tmp_path, invariants=True)
    resumed = resume_from(paths[1], spec, invariants=True)
    assert stats_sha(resumed) == expected


def test_resume_with_profiler_accumulates(tmp_path):
    """Profiler counters span the interrupted and resuming processes.

    The snapshot carries the profiler's counters; a resumed run restores
    them, so simulated-cycle attribution (``loop_iterations``,
    ``active_cycles``) ends up identical to an uninterrupted profiled
    run — while the resumed process alone clearly simulated less.
    """
    request_ = ROUNDTRIP_REQUESTS[1]
    spec = make_spec(**request_)
    full_profiler = SimProfiler()
    _, paths = capture_snapshots(spec, tmp_path, profiler=full_profiler)
    resumed_profiler = SimProfiler()
    resumed = resume_from(paths[-1], spec, profiler=resumed_profiler)
    assert stats_sha(resumed) == golden_sha(request_)
    assert resumed_profiler.loop_iterations == full_profiler.loop_iterations
    assert resumed_profiler.active_cycles == full_profiler.active_cycles
    assert resumed_profiler.cycles == full_profiler.cycles


def test_resumed_run_does_not_rewrite_resume_cycle(tmp_path):
    """After resume, the next auto-snapshot lands at a *later* boundary.

    Re-snapshotting at the resume cycle itself would make a crash loop
    (crash, resume, re-crash) spin without forward progress ever being
    required of the interval schedule.
    """
    request_ = ROUNDTRIP_REQUESTS[1]
    spec = make_spec(**request_)
    _, paths = capture_snapshots(spec, tmp_path)
    envelope = load_checkpoint(paths[0], fingerprint=fingerprint(spec))
    sim = build_sim(spec)
    restored = restore_simulator(
        envelope, sim.config, BUILT[sim].factory,
        BUILT[sim].workload.blocks, BUILT[sim].workload.max_blocks_per_core,
    )
    cycles_written = []
    restored.hooks.append(
        PeriodicHook(600, lambda s: cycles_written.append(s.cycle), restored.cycle)
    )
    restored.run(strict=True)
    assert cycles_written, "resumed run never re-snapshotted"
    assert min(cycles_written) > envelope["cycle"]


# ----------------------------------------------------------------------
# Envelope validation
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def valid_snapshot(tmp_path_factory):
    """One real mid-run snapshot (plus its spec) shared across tests."""
    directory = tmp_path_factory.mktemp("snaps")
    spec = make_spec(**ROUNDTRIP_REQUESTS[1])
    _, paths = capture_snapshots(spec, directory, snapshots=1)
    return spec, paths[0]


@pytest.mark.parametrize("mode", faults.CHECKPOINT_CORRUPTION_MODES)
def test_corrupt_snapshots_are_rejected(mode, tmp_path):
    """Every corruption mode raises a structured CheckpointError."""
    path = faults.corrupt_checkpoint(tmp_path / "bad.ckpt.json", mode)
    with pytest.raises(CheckpointError) as excinfo:
        load_checkpoint(path, fingerprint="the-real-run")
    assert excinfo.value.kind == "checkpoint"
    assert excinfo.value.snapshot["path"] == str(path)


def test_missing_file_is_rejected(tmp_path):
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "never-written.ckpt.json")


def test_fingerprint_mismatch_rejected(valid_snapshot):
    """A valid snapshot of the wrong run must not load."""
    _, path = valid_snapshot
    with pytest.raises(CheckpointError) as excinfo:
        load_checkpoint(path, fingerprint="a-different-run")
    assert "fingerprint" in str(excinfo.value)


def test_config_mismatch_rejected(valid_snapshot):
    """A snapshot taken under a different machine config must not load."""
    spec, path = valid_snapshot
    other = baseline_config().replace(num_cores=spec.config.num_cores + 1)
    with pytest.raises(CheckpointError) as excinfo:
        load_checkpoint(path, config=other)
    assert "config" in str(excinfo.value)
    # ... while the true fingerprint and effective config both pass.
    envelope = load_checkpoint(
        path, fingerprint=fingerprint(spec), config=effective_config(spec)
    )
    assert envelope["schema"] == CHECKPOINT_SCHEMA
    assert envelope["cycle"] > 0


def test_digest_survives_json_roundtrip(valid_snapshot):
    """The payload digest is stable across serialize/parse cycles.

    This is the property that lets the digest be verified on *load* of
    the written file: Python's JSON round-trips every payload value
    (shortest-repr floats, ``Infinity``) exactly.
    """
    _, path = valid_snapshot
    envelope = json.loads(path.read_text(encoding="utf-8"))
    reparsed = json.loads(canonical_json(envelope["payload"]))
    assert payload_digest(reparsed) == envelope["payload_sha256"]


def test_checkpoint_error_pickles():
    """Workers raise CheckpointError across pool pipes, snapshot intact."""
    original = CheckpointError(
        "digest mismatch", snapshot={"path": "/x", "expected": "aa"}
    )
    clone = pickle.loads(pickle.dumps(original))
    assert isinstance(clone, CheckpointError)
    assert str(clone) == "digest mismatch"
    assert clone.snapshot == {"path": "/x", "expected": "aa"}
    assert clone.kind == "checkpoint"


def test_config_fingerprint_distinguishes_configs():
    base = baseline_config()
    assert config_fingerprint(base) == config_fingerprint(baseline_config())
    assert config_fingerprint(base) != config_fingerprint(
        base.replace(num_cores=base.num_cores + 1)
    )


# ----------------------------------------------------------------------
# Atomic writes
# ----------------------------------------------------------------------


def test_atomic_write_json_basics(tmp_path):
    """Creates parents, leaves no temp files, and overwrites atomically."""
    target = tmp_path / "deep" / "nested" / "doc.json"
    atomic_write_json(target, {"a": 1})
    assert json.loads(target.read_text(encoding="utf-8")) == {"a": 1}
    atomic_write_json(target, {"b": 2, "a": 1}, indent=2, sort_keys=True,
                      trailing_newline=True)
    text = target.read_text(encoding="utf-8")
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    leftovers = list(target.parent.glob(".tmp-*")) + list(
        target.parent.glob("*.tmp.*")
    )
    assert not leftovers, "temp file left behind"


def test_scratch_path_is_sibling_hidden_and_pid_stamped():
    """Scratch temps are dot-hidden siblings carrying the writer's pid."""
    import os

    target = Path("/some/dir/doc.json")
    tmp = scratch_path(target)
    assert tmp.parent == target.parent
    assert tmp.name == f".tmp-{os.getpid()}-doc.json"


def test_atomic_write_json_cleans_scratch_on_failure(tmp_path, monkeypatch):
    """A failed publish must not leave the scratch temp behind.

    The rename is forced to fail (read-only-rename shim), standing in
    for any mid-write crash short of SIGKILL; the target must stay
    absent and the directory must hold no ``.tmp-*`` litter for fsck to
    later classify as orphaned.
    """
    import os

    target = tmp_path / "doc.json"

    def refuse(*_args, **_kwargs):
        raise OSError(28, "No space left on device (injected)")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError):
        atomic_write_json(target, {"a": 1})
    monkeypatch.undo()
    assert not target.exists()
    assert not list(tmp_path.glob(".tmp-*")), "scratch temp left behind"


def test_attach_checkpointing_zero_interval_disarms():
    """interval <= 0 must leave the hook disarmed (the off switch)."""
    spec = make_spec(**ROUNDTRIP_REQUESTS[1])
    sim = build_sim(spec)
    assert attach_checkpointing(sim, "/nonexistent/never.json", 0) is None
    assert sim.hooks == []
    sim.run(strict=True)  # would crash writing to /nonexistent if armed


def test_auto_snapshots_hash_the_config_once_and_match_a_direct_write(
    tmp_path, monkeypatch
):
    """The hook hashes the config when it is attached, not per snapshot,
    and each envelope it writes equals :func:`write_checkpoint`'s own."""
    from repro.sim import checkpoint

    spec = make_spec(**ROUNDTRIP_REQUESTS[1])
    sim = build_sim(spec)
    hashed = []
    real_fingerprint = checkpoint.config_fingerprint

    def counting_fingerprint(config):
        hashed.append(config)
        return real_fingerprint(config)

    monkeypatch.setattr(checkpoint, "config_fingerprint", counting_fingerprint)
    auto = tmp_path / "auto.ckpt.json"
    hook = attach_checkpointing(sim, auto, 600, fingerprint=fingerprint(spec))
    direct = []

    def compare(s):
        # Runs after the auto-snapshot hook at the same loop top.
        path = tmp_path / f"direct-{s.cycle}.ckpt.json"
        monkeypatch.setattr(checkpoint, "config_fingerprint", real_fingerprint)
        write_checkpoint(path, s, fingerprint=fingerprint(spec))
        monkeypatch.setattr(checkpoint, "config_fingerprint", counting_fingerprint)
        assert path.read_bytes() == auto.read_bytes()
        direct.append(path)

    sim.hooks.append(PeriodicHook(hook.interval, compare, sim.cycle))
    sim.run(strict=True)
    assert len(direct) >= 3
    assert len(hashed) == 1
