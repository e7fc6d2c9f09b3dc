"""Work-claim lease suite: unit protocol tests + multi-process acceptance.

The unit half pins the :class:`~repro.harness.coordinate.LeaseManager`
protocol file by file: exclusive creation, denial of live claims,
staleness (schema drift, dead pid, renewal silence), tombstoned steals,
token-checked release, renewal cadence, and the degraded mode that turns
an unusable lease directory into plain uncoordinated execution.

The acceptance half is the headline claim of the coordination layer: two
*real subprocess sweeps* sharing one cache directory complete a real
benchmark grid with **zero duplicated simulations** — the per-process
simulated counts sum to exactly the grid size — and publish
byte-identical results; and a claimant SIGKILLed mid-hold never wedges
the fleet, because its lease is detected dead and stolen.
"""

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.harness.coordinate import (
    LEASE_SCHEMA,
    Lease,
    LeaseManager,
    lease_dir_for,
    pid_alive,
)
from repro.harness.runner import make_spec, run_spec
from repro.harness.sweep import ResultCache, SweepEngine, fingerprint

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

SCALE = 0.05


def spec_for(benchmark="monte", **kw):
    return make_spec(benchmark, scale=SCALE, **kw)


class TestPidAlive:
    def test_own_pid_is_alive(self):
        assert pid_alive(os.getpid()) is True

    def test_dead_pid_is_dead(self):
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()
        # The pid is reaped; os.kill must report ProcessLookupError.
        assert pid_alive(child.pid) is False

    def test_nonsense_pids_are_unknowable(self):
        assert pid_alive(0) is None
        assert pid_alive(-5) is None


class TestLeaseProtocol:
    def test_acquire_writes_full_record(self, tmp_path):
        manager = LeaseManager(tmp_path)
        lease = manager.try_acquire("k1")
        assert isinstance(lease, Lease) and lease.backed
        record = json.loads(lease.path.read_text(encoding="utf-8"))
        assert record["schema"] == LEASE_SCHEMA
        assert record["pid"] == os.getpid()
        assert record["fingerprint"] == "k1"
        assert record["token"] == lease.token
        assert record["renewed_wall"] >= record["acquired_wall"] - 1e-6
        assert manager.claims == 1

    def test_reacquire_by_holder_returns_same_lease(self, tmp_path):
        manager = LeaseManager(tmp_path)
        first = manager.try_acquire("k1")
        second = manager.try_acquire("k1")
        assert first is second
        assert manager.claims == 1

    def test_live_lease_denies_a_second_process(self, tmp_path):
        holder = LeaseManager(tmp_path, grace=30.0)
        rival = LeaseManager(tmp_path, grace=30.0)
        assert holder.try_acquire("k1") is not None
        assert rival.try_acquire("k1") is None
        assert rival.denials == 1

    def test_release_unlinks_and_enables_next_claim(self, tmp_path):
        holder = LeaseManager(tmp_path)
        rival = LeaseManager(tmp_path)
        lease = holder.try_acquire("k1")
        holder.release("k1")
        assert not lease.path.exists()
        assert holder.releases == 1
        assert rival.try_acquire("k1") is not None

    def test_release_is_token_checked(self, tmp_path):
        """A release racing a steal must never delete the thief's lease."""
        holder = LeaseManager(tmp_path)
        lease = holder.try_acquire("k1")
        thief_record = json.loads(lease.path.read_text(encoding="utf-8"))
        thief_record["token"] = "0000000000000000"
        lease.path.write_text(json.dumps(thief_record), encoding="utf-8")
        holder.release("k1")
        assert lease.path.exists(), "released a lease we no longer own"

    def test_expired_lease_is_stolen(self, tmp_path):
        holder = LeaseManager(tmp_path, grace=0.2)
        rival = LeaseManager(tmp_path, grace=0.2)
        lease = holder.try_acquire("k1")
        assert lease is not None
        # Stop the renewal thread, then forge an expired record in place
        # (a holder whose renewals went silent an hour ago).
        holder.release_all()
        record = {
            "schema": LEASE_SCHEMA, "pid": os.getpid(),
            "host": rival.host, "fingerprint": "k1",
            "acquired_wall": time.time() - 60,
            "renewed_wall": time.time() - 60,
            "token": "feedfacefeedface",
        }
        lease.path.write_text(json.dumps(record), encoding="utf-8")
        stolen = rival.try_acquire("k1")
        assert stolen is not None
        assert rival.steals == 1
        assert not list(tmp_path.glob("*.steal.*")), "tombstone left behind"

    def test_dead_pid_lease_is_stolen_before_grace(self, tmp_path):
        """A SIGKILLed local claimant is stale immediately, not after grace."""
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()
        rival = LeaseManager(tmp_path, grace=3600.0)
        path = rival.path_for("k1")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({
                "schema": LEASE_SCHEMA, "pid": child.pid,
                "host": rival.host, "fingerprint": "k1",
                "acquired_wall": time.time(), "renewed_wall": time.time(),
                "token": "deadbeefdeadbeef",
            }),
            encoding="utf-8",
        )
        assert rival.try_acquire("k1") is not None
        assert rival.steals == 1

    def test_unparsable_lease_is_stale_and_stolen(self, tmp_path):
        rival = LeaseManager(tmp_path, grace=3600.0)
        path = rival.path_for("k1")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{ torn", encoding="utf-8")
        assert rival.is_stale(rival.read("k1"))
        assert rival.try_acquire("k1") is not None

    def test_renewal_advances_renewed_wall(self, tmp_path):
        manager = LeaseManager(tmp_path, grace=5.0, renew_interval=0.1)
        lease = manager.try_acquire("k1")
        first = json.loads(lease.path.read_text(encoding="utf-8"))
        deadline = time.monotonic() + 5.0
        while manager.renewals == 0 and time.monotonic() < deadline:
            time.sleep(0.05)
        assert manager.renewals >= 1
        renewed = json.loads(lease.path.read_text(encoding="utf-8"))
        assert renewed["renewed_wall"] > first["renewed_wall"]
        assert renewed["token"] == lease.token
        manager.release_all()

    def test_unwritable_directory_degrades_not_blocks(self, tmp_path):
        blocker = tmp_path / "leases"
        blocker.write_text("a file where a directory should be")
        manager = LeaseManager(blocker)
        with pytest.warns(RuntimeWarning, match="degraded"):
            lease = manager.try_acquire("k1")
        assert lease is not None and not lease.backed
        assert manager.degraded

    def test_lease_dir_for_is_inside_versioned_root(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert lease_dir_for(cache.root) == cache.root / "leases"


class TestEngineCoordination:
    """In-process pair of engines sharing one cache (fast, deterministic)."""

    def test_two_engines_partition_work_without_duplicates(self, tmp_path):
        specs = [
            spec_for("monte"), spec_for("monte", hardware="stride_pc"),
            spec_for("cell"),
        ]

        def slow_worker(spec, options):
            time.sleep(0.3)
            from repro.harness.runner import run_spec
            return run_spec(spec, options).stats

        engines = [
            SweepEngine(
                cache=ResultCache(tmp_path), jobs=1, worker=slow_worker,
                lease_grace=5.0,
            )
            for _ in range(2)
        ]
        results = [None, None]

        def drive(i):
            results[i] = engines[i].run(specs)

        threads = [
            threading.Thread(target=drive, args=(i,)) for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        total = engines[0].simulated + engines[1].simulated
        assert total == len(specs), "duplicated (or lost) simulations"
        assert engines[0].lease_deferred + engines[1].lease_deferred > 0
        tables = [
            [outcome.stats.to_dict() for outcome in run] for run in results
        ]
        assert tables[0] == tables[1]

    def test_claim_is_atomic_with_content(self, tmp_path):
        """A concurrent poller must never observe a half-born lease.

        Lease creation is scratch-write + hard-link, so the record is
        complete the instant the file is visible; an ``O_EXCL`` create
        followed by a write would expose an empty file that a poller
        parses to ``{}``, judges stale, and steals — duplicating live
        work.  A reader hammering ``read()`` while the writer churns
        through acquire/release cycles must only ever see ``None`` (no
        file) or a full schema-1 record, never unparsable garbage.
        """
        directory = tmp_path / "leases"
        writer = LeaseManager(directory, grace=30.0)
        reader = LeaseManager(directory, grace=30.0)
        keys = [f"{i:064x}" for i in range(40)]
        torn = []
        stop = threading.Event()

        def poll():
            while not stop.is_set():
                for key in keys:
                    record = reader.read(key)
                    if record is not None and not record:
                        torn.append(key)

        thread = threading.Thread(target=poll, daemon=True)
        thread.start()
        try:
            for _ in range(5):
                for key in keys:
                    assert writer.try_acquire(key) is not None
                    writer.release(key)
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not torn, f"half-born leases observed: {torn[:3]}"
        # And the claim path leaves no scratch litter behind.
        assert not list(directory.glob(".tmp-*"))

    def test_post_claim_cache_recheck_closes_poll_claim_race(self, tmp_path):
        """A result that lands between a sweep's cache read and its
        lease claim must become a cache hit, not a re-simulation.

        The race is two non-atomic steps: the sweep reads the cache
        (miss) before it dispatches, and a spec deferred behind a
        sibling's lease claims again later — but the sibling can
        ``cache.put`` *and* release in between.  The dispatch loop closes
        it with ``_claimed_cache_hit``, which re-checks the cache after
        every successful claim, so here a claimed key whose result is
        already cached records a hit and releases the lease without
        simulating.
        """
        cache = ResultCache(tmp_path)
        spec = spec_for("monte")
        key = fingerprint(spec)
        stats = run_spec(spec).stats
        cache.put(key, spec, stats)
        engine = SweepEngine(cache=cache, jobs=1, lease_grace=5.0)
        assert engine._claim(key)
        outcomes = {}
        assert engine._claimed_cache_hit(key, outcomes, deferred=True)
        assert outcomes[key].stats.to_dict() == stats.to_dict()
        assert engine.cache_hits == 1
        assert engine.lease_deferred_hits == 1
        assert engine.simulated == 0
        # The claim was released, not leaked.
        assert key not in engine.leases.held_keys()
        assert not list(lease_dir_for(cache.root).glob("*.lease"))

    def test_coordination_off_means_no_lease_manager(self, tmp_path):
        engine = SweepEngine(cache=ResultCache(tmp_path), coordinate=False)
        assert engine.leases is None

    def test_no_cache_means_nothing_to_coordinate(self):
        engine = SweepEngine(cache=None)
        assert engine.leases is None

    def test_waiter_reclaims_when_claimant_dies_without_result(self, tmp_path):
        """A lease that disappears with no cached result is re-claimed."""
        cache = ResultCache(tmp_path)
        spec = spec_for("monte")
        key = fingerprint(spec)
        foreign = LeaseManager(lease_dir_for(cache.root), grace=5.0)
        assert foreign.try_acquire(key) is not None

        def release_soon():
            time.sleep(0.4)
            foreign.release_all()  # claimant "dies" without caching anything

        threading.Thread(target=release_soon, daemon=True).start()
        engine = SweepEngine(cache=cache, jobs=1, lease_grace=5.0)
        [outcome] = engine.run([spec])
        assert outcome.stats.cycles > 0
        assert engine.simulated == 1
        assert engine.lease_deferred == 1


CHILD_CODE = (
    "import sys\n"
    "from tests.harness.faults import coordinated_sweep_main\n"
    "coordinated_sweep_main(sys.argv[1:])\n"
)

HOLDER_CODE = (
    "import sys\n"
    "from tests.harness.faults import lease_hold_main\n"
    "lease_hold_main(sys.argv[1:])\n"
)


def _subprocess_env():
    return {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}


def _parse_complete(stdout: str):
    line = next(
        ln for ln in stdout.splitlines() if ln.startswith("COMPLETE ")
    )
    _, simulated, deferred, table = line.split(" ", 3)
    return (
        int(simulated.split("=")[1]),
        int(deferred.split("=")[1]),
        table,
    )


class TestMultiProcessAcceptance:
    """Two real subprocess sweeps over one cache: zero duplicates."""

    def test_concurrent_sweeps_share_one_cache_without_duplicates(
        self, tmp_path
    ):
        cache_dir = tmp_path / "shared-cache"
        env = _subprocess_env()
        children = [
            subprocess.Popen(
                [sys.executable, "-c", CHILD_CODE, str(cache_dir)],
                cwd=REPO_ROOT, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True,
            )
            for _ in range(2)
        ]
        outs = []
        for child in children:
            out, err = child.communicate(timeout=240)
            assert child.returncode == 0, err
            outs.append(out)
        parsed = [_parse_complete(out) for out in outs]
        simulated = [p[0] for p in parsed]
        # The headline acceptance claim: the 8-spec grid was simulated
        # exactly 8 times across BOTH processes — zero duplicated work.
        assert sum(simulated) == 8, f"per-process counts: {simulated}"
        # Lease claims were genuinely exercised: with a 0.35s-paced
        # worker both processes overlapped, so at least one of them was
        # denied a claim and resolved the spec from its sibling's cache.
        deferred_hits = [p[1] for p in parsed]
        assert sum(deferred_hits) > 0 or min(simulated) == 0
        # Byte-identical published results (sorted-keys JSON of every
        # fingerprint's stats) from both processes.
        assert parsed[0][2] == parsed[1][2]
        # And no lease litter: every claim was released.
        leases = lease_dir_for(ResultCache(cache_dir).root)
        assert not list(leases.glob("*.lease"))

    def test_sigkilled_claimant_is_stolen_from(self, tmp_path):
        """SIGKILL a real subprocess mid-hold; the survivor must steal
        its lease (dead-pid staleness, well before any grace) and run."""
        cache_dir = tmp_path / "cache"
        cache = ResultCache(cache_dir)
        spec = spec_for("monte")
        key = fingerprint(spec)
        holder = subprocess.Popen(
            [
                sys.executable, "-c", HOLDER_CODE,
                str(lease_dir_for(cache.root)), key,
            ],
            cwd=REPO_ROOT, env=_subprocess_env(),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            assert holder.stdout.readline().strip() == "HELD"
            holder.kill()  # SIGKILL: no release, no cleanup
            holder.wait(timeout=30)
            engine = SweepEngine(cache=cache, jobs=1, lease_grace=3600.0)
            [outcome] = engine.run([spec])
            assert engine.simulated == 1
            assert outcome.stats.cycles > 0
            assert engine.leases.steals == 1
            assert cache.get(key) is not None
        finally:
            if holder.poll() is None:
                holder.kill()
                holder.wait()
