"""Randomized crash-consistency campaign over a real multi-process sweep.

``python -m repro chaos`` answers the question every durability layer in
this harness implicitly promises to answer: *if you kill, starve, and
corrupt a fleet of cooperating sweep processes at random, does the final
result set still come out bit-identical to an undisturbed run — and does
the artifact tree audit clean afterwards?*

The campaign is a seeded scheduler around genuinely separate OS
processes:

1. **Disturb.** Launch ``workers`` sweep children (each a coordinated,
   checkpointing :class:`~repro.harness.sweep.SweepEngine` sharing one
   result cache, whose runs go to a supervised process pool or, with
   ``jobs=1``, run in the child itself under the engine's signal
   handlers) over a small fixed benchmark grid, then
   inject ``budget`` faults drawn from a seeded RNG: SIGKILL of a whole
   child process group, graceful SIGTERM, SIGKILL aimed at the current
   holder of a live work-claim lease, torn (truncated) cache entries and
   checkpoint snapshots, and timed ENOSPC windows during which every
   best-effort artifact write in the children (cache entries,
   heartbeats, checkpoints) fails with ``ENOSPC``.
2. **Converge.** Relaunch fresh, undisturbed children until one finishes
   its whole grid successfully and every grid fingerprint has a cached
   result (bounded by ``max_rounds``).
3. **Compare.** Re-simulate the grid in-process, cache-free, and demand
   the surviving cache entries be *bit-identical* to the control stats.
4. **Audit.** Plant one final, known set of corruptions (a torn cache
   entry, a garbage checkpoint, an expired lease, dead-writer scratch
   and heartbeat litter), then require ``repro fsck`` to report every
   planted item, and ``fsck --repair --gc`` to leave the tree clean.

Faults whose precondition is momentarily absent (no checkpoint on disk
yet, no live lease) fall back to a SIGKILL, so the injected-fault count
always reaches the budget.  The fault *schedule* (kinds, delays,
targets) is deterministic in ``seed``; actual interleavings are real
nondeterminism — which is the point.
"""

from __future__ import annotations

import errno
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from repro.harness import supervise
from repro.harness.coordinate import (
    LEASE_SCHEMA,
    LEASE_SUFFIX,
    LeaseManager,
    lease_dir_for,
    pid_alive,
)
from repro.harness.fsck import FsckReport, audit
from repro.harness.sweep import (
    ResultCache,
    RunOptions,
    cache_entry_version,
    fingerprint,
)
from repro.sim.artifacts import Sink
from repro.sim.gpu import SimulationResult
from repro.sim.stats import SimStats

#: Seconds each chaos worker idles before simulating (small increments,
#: so signals land mid-run instead of between runs).  Exported to
#: children via :data:`PACE_ENV`; the scale-0.05 grid simulates in
#: 0.01–0.05s per spec, far too fast for faults to hit otherwise.
DEFAULT_PACE = 0.35

#: Environment variable carrying the per-run pacing delay to children.
PACE_ENV = "REPRO_CHAOS_PACE"

#: The fault kinds the campaign scheduler draws from.
FAULT_KINDS = (
    "sigkill", "sigterm", "lease_kill", "torn_cache",
    "torn_checkpoint", "enospc",
)


def campaign_specs(scale: float = 0.05) -> List:
    """The fixed benchmark × scheme grid a chaos campaign sweeps.

    Small enough to converge in seconds, varied enough to exercise the
    prefetcher paths, and including the shared no-prefetch baselines the
    coordination layer is meant to deduplicate.
    """
    from repro.harness.runner import make_spec

    grid = [
        ("monte", "none"), ("monte", "stride_pc"), ("monte", "mt-hwp"),
        ("cell", "none"), ("cell", "stride_pc"), ("cell", "mt-hwp"),
    ]
    return [
        make_spec(benchmark, hardware=hardware, scale=scale)
        for benchmark, hardware in grid
    ]


def paced_worker(spec, options: RunOptions) -> SimStats:
    """Sweep-worker entry that idles :data:`PACE_ENV` seconds, then runs.

    The idle is sliced into 20 ms sleeps so SIGTERM still drains
    promptly.  Module-level (picklable) so pooled engines can use it.
    """
    from repro.harness.runner import run_spec

    try:
        pace = float(os.environ.get(PACE_ENV, "") or 0.0)
    except ValueError:
        pace = 0.0
    deadline = time.monotonic() + max(0.0, pace)
    while time.monotonic() < deadline:
        if supervise.shutdown_requested():
            break
        time.sleep(0.02)
    return run_spec(spec, options).stats


def _install_enospc_shim(flag_path: str) -> None:
    """Fail every sink write with ``ENOSPC`` while ``flag_path`` exists.

    Wraps :meth:`~repro.sim.artifacts.Sink.attempt` on the class, which
    every best-effort artifact write goes through, so the write itself
    fails and its sink stops, as on a full disk.  Pooled workers fork
    after this runs and inherit the shim.
    """
    real = Sink.attempt

    def attempt(self, write, path, *args, **kwargs) -> bool:
        if os.path.exists(flag_path):
            write = _disk_full
        return real(self, write, path, *args, **kwargs)

    Sink.attempt = attempt


def _disk_full(*args, **kwargs) -> None:
    """A write during an ENOSPC window."""
    raise OSError(errno.ENOSPC, "No space left on device (chaos window)")


def child_main(config: Dict) -> int:
    """Entry point of one chaos sweep child (its own process group).

    Runs the campaign grid through a coordinated, checkpointing engine
    (pooled and supervised, or in process when ``config["jobs"]`` is 1)
    against the shared cache named in ``config``.  Exit status:
    0 when every grid spec ended in a successful result, 130 on a
    graceful shutdown, 1 otherwise.
    """
    from repro.harness.sweep import SweepEngine, SweepInterrupted

    supervise.install_worker_signal_handlers()
    flag = config.get("enospc_flag")
    if flag:
        _install_enospc_shim(flag)
    specs = campaign_specs(config.get("scale", 0.05))
    engine = SweepEngine(
        cache=ResultCache(config["cache_dir"]),
        jobs=config.get("jobs", 2),
        worker=paced_worker,
        retries=config.get("retries", 3),
        lease_grace=config.get("lease_grace", 2.0),
        manifest=config.get("manifest"),
        options=RunOptions(
            checkpoint_dir=config.get("checkpoint_dir"),
            checkpoint_interval=config.get("checkpoint_interval", 2000),
            heartbeat_dir=config.get("heartbeat_dir"),
            heartbeat_interval=config.get("heartbeat_interval", 0.2),
        ),
    )
    try:
        outcomes = engine.run(specs)
    except SweepInterrupted:
        return 130
    ok = all(isinstance(outcome, SimulationResult) for outcome in outcomes)
    return 0 if ok else 1


@dataclass
class FaultRecord:
    """One injected fault: what, when (campaign-relative), and to whom."""

    kind: str
    offset: float
    detail: str = ""

    def to_dict(self) -> Dict:
        """Plain-JSON form for the campaign report."""
        return {
            "kind": self.kind,
            "offset": round(self.offset, 3),
            "detail": self.detail,
        }


@dataclass
class ChaosReport:
    """Everything a chaos campaign observed and concluded."""

    seed: int
    budget: int
    root: str
    faults: List[FaultRecord] = field(default_factory=list)
    rounds: int = 0
    converged: bool = False
    identical: bool = False
    mismatches: List[str] = field(default_factory=list)
    planted: List[Dict] = field(default_factory=list)
    fsck_pre: Optional[Dict] = None
    fsck_post: Optional[Dict] = None
    repaired: int = 0
    collected: int = 0
    clean_after: bool = False
    error: str = ""

    @property
    def ok(self) -> bool:
        """Campaign verdict: disturbed, converged, identical, audited clean."""
        return (
            not self.error
            and len(self.faults) >= self.budget
            and self.converged
            and self.identical
            and self.clean_after
        )

    def to_dict(self) -> Dict:
        """Plain-JSON campaign report (``repro chaos --json``)."""
        return {
            "seed": self.seed,
            "budget": self.budget,
            "root": self.root,
            "ok": self.ok,
            "faults": [fault.to_dict() for fault in self.faults],
            "rounds": self.rounds,
            "converged": self.converged,
            "identical": self.identical,
            "mismatches": list(self.mismatches),
            "planted": list(self.planted),
            "fsck_pre": self.fsck_pre,
            "fsck_post": self.fsck_post,
            "repaired": self.repaired,
            "collected": self.collected,
            "clean_after": self.clean_after,
            "error": self.error,
        }

    def summary(self) -> str:
        """Human-readable multi-line campaign summary."""
        verdict = "OK" if self.ok else "FAILED"
        kinds: Dict[str, int] = {}
        for fault in self.faults:
            kinds[fault.kind] = kinds.get(fault.kind, 0) + 1
        lines = [
            f"chaos(seed={self.seed}): {verdict} — "
            f"{len(self.faults)} fault(s) injected "
            f"({', '.join(f'{k}x{v}' for k, v in sorted(kinds.items()))})",
            f"  converged in {self.rounds} recovery round(s): "
            f"{self.converged}",
            f"  results bit-identical to undisturbed control: "
            f"{self.identical}",
            f"  fsck: {len(self.planted)} planted corruption(s) all "
            f"reported, repaired {self.repaired}, collected "
            f"{self.collected}, clean afterwards: {self.clean_after}",
        ]
        for mismatch in self.mismatches:
            lines.append(f"  mismatch: {mismatch}")
        if self.error:
            lines.append(f"  error: {self.error}")
        return "\n".join(lines)


class _Fleet:
    """Lifecycle manager for the chaos sweep children.

    Each child runs ``python -m repro.harness.chaos <config-json>`` in
    its *own session* (process group), so a SIGKILL aimed at a child can
    take its pool workers down with it — killing only the engine would
    orphan workers blocked on the pool's call queue.
    """

    def __init__(self, config: Dict, env: Dict[str, str], log_dir: Path):
        self.config = config
        self.env = env
        self.log_dir = log_dir
        self.children: List[subprocess.Popen] = []
        self._spawned = 0

    def spawn(self) -> subprocess.Popen:
        """Launch one sweep child; returns the live Popen handle."""
        self.log_dir.mkdir(parents=True, exist_ok=True)
        log = open(
            self.log_dir / f"child-{self._spawned}.log", "w",
            encoding="utf-8",
        )
        self._spawned += 1
        child = subprocess.Popen(
            [
                sys.executable, "-m", "repro.harness.chaos",
                json.dumps(self.config),
            ],
            stdout=log,
            stderr=subprocess.STDOUT,
            env=self.env,
            start_new_session=True,
        )
        log.close()  # the child holds its own descriptor
        self.children.append(child)
        return child

    def alive(self) -> List[subprocess.Popen]:
        """Children still running (also reaps the exited ones)."""
        return [child for child in self.children if child.poll() is None]

    def kill(self, child: subprocess.Popen, signum: int) -> None:
        """Signal a child's whole process group (best-effort)."""
        try:
            os.killpg(child.pid, signum)
        except (ProcessLookupError, PermissionError):
            pass

    def wait_all(self, timeout: float) -> None:
        """Wait for every child to exit; SIGKILL stragglers at timeout."""
        deadline = time.monotonic() + timeout
        for child in self.children:
            remaining = max(0.1, deadline - time.monotonic())
            try:
                child.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                self.kill(child, signal.SIGKILL)
                child.wait()

    def terminate_all(self) -> None:
        """SIGKILL every still-running child group (campaign teardown)."""
        for child in self.alive():
            self.kill(child, signal.SIGKILL)
            child.wait()


def _cache_entry_files(cache: ResultCache) -> List[Path]:
    """Every result-cache entry file currently on disk, sorted."""
    if not cache.root.is_dir():
        return []
    return sorted(
        path
        for path in cache.root.rglob("*.json")
        if cache_entry_version(path) is not None
    )


def _truncate(path: Path) -> bool:
    """Tear a file mid-write: keep the first half of its bytes."""
    try:
        raw = path.read_bytes()
        path.write_bytes(raw[: max(1, len(raw) // 2)])
        return True
    except OSError:
        return False


def _dead_pid() -> int:
    """A pid that is definitely not running (for litter planting)."""
    pid = 400000
    while pid_alive(pid) is not False:
        pid += 1
    return pid


def _plant_corruptions(
    root: Path, cache: ResultCache, lease_grace: float
) -> List[Dict]:
    """Plant a known corruption/litter set for the fsck acceptance check.

    Returns ``[{path, status}, ...]`` — each entry is the artifact's path
    and the fsck status it must be reported with.
    """
    planted: List[Dict] = []

    entries = _cache_entry_files(cache)
    if entries and _truncate(entries[0]):
        planted.append({"path": str(entries[0]), "status": "corrupt"})

    checkpoint = root / "checkpoints" / "chaos-planted.ckpt.json"
    checkpoint.parent.mkdir(parents=True, exist_ok=True)
    checkpoint.write_text("{\"schema\": 1, \"fingerprint\": ", encoding="utf-8")
    planted.append({"path": str(checkpoint), "status": "corrupt"})

    lease_dir = lease_dir_for(cache.root)
    lease_dir.mkdir(parents=True, exist_ok=True)
    expired = lease_dir / ("f" * 64 + ".lease")
    now = time.time()
    expired.write_text(
        json.dumps({
            "schema": LEASE_SCHEMA,
            "pid": os.getpid(),
            "host": "chaos-planted",
            "fingerprint": "f" * 64,
            "acquired_wall": now - 10 * max(lease_grace, 1.0),
            "renewed_wall": now - 10 * max(lease_grace, 1.0),
            "token": "deadbeefdeadbeef",
        }),
        encoding="utf-8",
    )
    planted.append({"path": str(expired), "status": "stale"})

    dead = _dead_pid()
    scratch = root / "checkpoints" / f".tmp-{dead}-torn.ckpt.json"
    scratch.write_text("{\"torn\": ", encoding="utf-8")
    planted.append({"path": str(scratch), "status": "orphaned"})

    heartbeat = root / "heartbeats" / "chaos-planted.hb.json"
    heartbeat.parent.mkdir(parents=True, exist_ok=True)
    heartbeat.write_text(
        json.dumps({
            "schema": supervise.HEARTBEAT_SCHEMA,
            "pid": dead,
            "wall": now,
            "benchmark": "chaos-planted",
        }),
        encoding="utf-8",
    )
    planted.append({"path": str(heartbeat), "status": "orphaned"})
    return planted


def _check_planted(report: FsckReport, planted: List[Dict]) -> List[str]:
    """Planted items the auditor missed or misclassified (empty = good)."""
    by_path = {str(finding.path): finding for finding in report.findings}
    problems: List[str] = []
    for item in planted:
        finding = by_path.get(item["path"])
        if finding is None:
            problems.append(f"fsck did not report planted {item['path']}")
        elif finding.status != item["status"]:
            problems.append(
                f"fsck classified planted {item['path']} as "
                f"{finding.status}, expected {item['status']}"
            )
    return problems


def run_campaign(
    seed: int = 0,
    budget: int = 6,
    root: Union[str, Path, None] = None,
    workers: int = 2,
    jobs: int = 2,
    scale: float = 0.05,
    max_rounds: int = 30,
    pace: float = DEFAULT_PACE,
    lease_grace: float = 2.0,
    log: Optional[Callable[[str], None]] = None,
) -> ChaosReport:
    """Run one full chaos campaign; see the module docstring for phases.

    Args:
        seed: RNG seed; the fault schedule is deterministic in it.
        budget: Faults to inject before letting the fleet converge.
        root: Working directory (created if needed).  ``None`` uses a
            fresh temporary directory, removed again when the campaign
            passes (kept for inspection when it fails).
        workers: Concurrent sweep children during the disturbance phase.
        jobs: Pool size inside each child engine; 1 runs each child's
            specs in the child itself.
        scale: Benchmark scale factor for the campaign grid.
        max_rounds: Recovery relaunches before declaring non-convergence.
        pace: Seconds each worker idles per run during the disturbance
            phase (gives faults something to land in the middle of).
        lease_grace: Lease-steal grace used by children and the audit.
        log: Optional line sink for progress narration.
    """
    say = log or (lambda line: None)
    rng = random.Random(seed)
    temporary = root is None
    if temporary:
        root = tempfile.mkdtemp(prefix="repro-chaos-")
    root = Path(root)
    report = ChaosReport(seed=seed, budget=max(0, int(budget)), root=str(root))

    cache_dir = root / "cache"
    heartbeat_dir = root / "heartbeats"
    checkpoint_dir = root / "checkpoints"
    flag = root / "enospc.flag"
    for directory in (cache_dir, heartbeat_dir, checkpoint_dir):
        directory.mkdir(parents=True, exist_ok=True)
    cache = ResultCache(cache_dir)

    import repro

    src_root = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env[PACE_ENV] = str(max(0.0, pace))
    env.pop("REPRO_CACHE_DIR", None)  # children must use the campaign cache

    config = {
        "cache_dir": str(cache_dir),
        "jobs": max(1, int(jobs)),
        "scale": scale,
        "heartbeat_interval": 0.2,
        "heartbeat_dir": str(heartbeat_dir),
        "checkpoint_dir": str(checkpoint_dir),
        "checkpoint_interval": 2000,
        "lease_grace": lease_grace,
        "enospc_flag": str(flag),
    }
    fleet = _Fleet(config, env, root / "logs")
    fleets = [fleet]
    specs = campaign_specs(scale)
    keys = [fingerprint(spec) for spec in specs]
    start = time.monotonic()

    try:
        say(f"disturbance: {workers} worker(s), {report.budget} fault(s)")
        for _ in range(max(1, int(workers))):
            fleet.spawn()

        while len(report.faults) < report.budget:
            time.sleep(rng.uniform(0.1, 0.4))
            while len(fleet.alive()) < max(1, int(workers)):
                fleet.spawn()
            kind = rng.choice(FAULT_KINDS)
            detail = _inject(kind, fleet, cache, checkpoint_dir, flag, rng)
            if detail is None:
                kind, detail = "sigkill", _inject(
                    "sigkill", fleet, cache, checkpoint_dir, flag, rng
                )
            report.faults.append(
                FaultRecord(kind, time.monotonic() - start, detail or "")
            )
            say(f"fault {len(report.faults)}/{report.budget}: "
                f"{kind} ({detail})")

        flag.unlink(missing_ok=True)  # never converge under fake ENOSPC
        fleet.wait_all(timeout=120.0)

        say("convergence: relaunching undisturbed sweeps")
        config_calm = dict(config)
        fleet_calm = _Fleet(
            config_calm, {**env, PACE_ENV: "0"}, root / "logs-calm"
        )
        fleets.append(fleet_calm)
        while report.rounds < max(1, int(max_rounds)):
            child = fleet_calm.spawn()
            returncode = child.wait(timeout=300)
            report.rounds += 1
            cached = sum(1 for key in keys if cache.get(key) is not None)
            say(f"round {report.rounds}: exit {returncode}, "
                f"{cached}/{len(keys)} cached")
            if returncode == 0 and cached == len(keys):
                report.converged = True
                break
        if not report.converged:
            report.error = (
                f"no convergence within {max_rounds} recovery round(s)"
            )
            return report

        say("control: re-simulating the grid in-process, cache-free")
        from repro.harness.runner import run_spec

        report.identical = True
        for spec, key in zip(specs, keys):
            control = run_spec(spec).stats.to_dict()
            cached_stats = cache.get(key)
            survived = (
                cached_stats is not None
                and cached_stats.to_dict() == control
            )
            if not survived:
                report.identical = False
                report.mismatches.append(
                    f"{spec.benchmark} {key[:12]}…: cached result "
                    + ("missing" if cached_stats is None
                       else "differs from control")
                )
        if not report.identical:
            return report

        say("audit: planting corruption, then fsck / --repair --gc / fsck")
        report.planted = _plant_corruptions(root, cache, lease_grace)
        pre = audit([root], grace=lease_grace)
        report.fsck_pre = pre.counts()
        missed = _check_planted(pre, report.planted)
        if missed:
            report.error = "; ".join(missed)
            return report
        repaired = audit([root], grace=lease_grace, repair=True, gc=True)
        report.repaired = repaired.repaired
        report.collected = repaired.collected
        post = audit([root], grace=lease_grace)
        report.fsck_post = post.counts()
        report.clean_after = post.clean and not post.remaining_corrupt()
        if not report.clean_after:
            report.error = "tree not clean after fsck --repair --gc"
        return report
    except Exception as exc:  # noqa: BLE001 - campaign must report, not raise
        report.error = f"{type(exc).__name__}: {exc}"
        return report
    finally:
        for group in fleets:
            group.terminate_all()
        flag.unlink(missing_ok=True)
        if temporary and report.ok:
            shutil.rmtree(root, ignore_errors=True)


def _inject(
    kind: str,
    fleet: _Fleet,
    cache: ResultCache,
    checkpoint_dir: Path,
    flag: Path,
    rng: random.Random,
) -> Optional[str]:
    """Apply one fault; returns a detail string, or None if inapplicable.

    ``sigkill``/``sigterm`` always apply (the caller guarantees a live
    child); the others return None when their precondition is absent so
    the caller can fall back to a SIGKILL and still meet the budget.
    """
    if kind in ("sigkill", "sigterm"):
        victims = fleet.alive()
        if not victims:
            return None
        victim = rng.choice(victims)
        signum = signal.SIGKILL if kind == "sigkill" else signal.SIGTERM
        fleet.kill(victim, signum)
        if kind == "sigkill":
            victim.wait()
        return f"pid {victim.pid}"
    if kind == "lease_kill":
        leases = LeaseManager(lease_dir_for(cache.root))
        holders = {child.pid: child for child in fleet.alive()}
        for lease in sorted(leases.directory.glob(f"*{LEASE_SUFFIX}")):
            record = leases.read(lease.stem) or {}
            child = holders.get(record.get("pid"))
            if child is not None:
                fleet.kill(child, signal.SIGKILL)
                child.wait()
                return f"lease holder pid {child.pid} ({lease.name})"
        return None
    if kind == "torn_cache":
        entries = _cache_entry_files(cache)
        if not entries:
            return None
        target = rng.choice(entries)
        return f"tore {target.name}" if _truncate(target) else None
    if kind == "torn_checkpoint":
        snapshots = sorted(checkpoint_dir.glob("*.ckpt.json"))
        if not snapshots:
            return None
        target = rng.choice(snapshots)
        return f"tore {target.name}" if _truncate(target) else None
    if kind == "enospc":
        window = rng.uniform(0.2, 0.5)
        flag.write_text("full\n", encoding="utf-8")
        time.sleep(window)
        flag.unlink(missing_ok=True)
        return f"{window:.2f}s window"
    return None


if __name__ == "__main__":  # pragma: no cover - child subprocess entry
    sys.exit(child_main(json.loads(sys.argv[1])))
