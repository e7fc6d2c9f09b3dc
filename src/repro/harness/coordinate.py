"""Cooperative multi-process sweep coordination via work-claim leases.

Several sweep processes (CI jobs, developers, cron re-runs) routinely
hammer one shared ``--cache-dir`` at once.  The result cache already
makes that crash-*safe* (atomic writes, corrupt-entry eviction), but not
crash-*cooperative*: without coordination every process simulates every
uncached spec itself and all but one of the identical results win a
pointless ``os.replace`` race.  This module adds the missing protocol:

* **Claim before simulating.**  Before dispatching an uncached spec, a
  sweep atomically claims ``<cache-root>/leases/<key>.lease``: the full
  record is written to a scratch sibling and hard-linked to the lease
  name — exactly one process can win the link, and the record is
  complete the instant the lease is visible (no reader can catch a
  half-born lease and judge it stale).  The record is ``{schema, pid,
  host, fingerprint, acquired_wall, renewed_wall, token}``.
* **Defer instead of duplicating.**  A process that finds a live lease
  puts the spec back in its work queue and claims it again after a short
  poll interval.  The claimant releases its lease only *after* the cache
  write, so once it finishes the waiter's claim succeeds, the waiter's
  post-claim cache read finds the result, and it records a cache hit
  instead of a duplicate simulation.
* **Renew on a fixed cadence.**  The claimant renews its leases
  (atomic rewrite bumping ``renewed_wall``) from a small daemon thread
  every :data:`DEFAULT_RENEW_INTERVAL` seconds, or half the grace when
  that is shorter.
* **Steal from the dead.**  A lease whose renewal age exceeds the grace
  period — or whose recorded pid is provably dead on this host — is
  orphaned: the claimant was SIGKILLed or wedged.  Stealing is a rename
  to a pid-unique tombstone (only one thief can win the rename; losers
  get ``FileNotFoundError``) followed by a fresh atomic claim, so a
  killed process never wedges the rest of the fleet.

Failure-domain note: lease files are an *optimization*, never a
correctness gate.  If the lease directory is unwritable the manager
degrades to unbacked claims (every process simulates, exactly the
pre-coordination behavior) rather than blocking work, and a waiter whose
claimant dies without caching anything reclaims the spec and simulates
it itself.  Correctness still rests solely on the cache's atomic writes
and deterministic simulation.
"""

from __future__ import annotations

import errno
import json
import os
import threading
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.sim.artifacts import atomic_write_json

#: Lease record format version; readers ignore records from other
#: versions (treated as stale, hence stealable — an old-protocol process
#: must not be able to park a spec forever).
LEASE_SCHEMA = 1

#: Filename suffix of a lease file (``<fingerprint>.lease``).
LEASE_SUFFIX = ".lease"

#: Subdirectory of the versioned cache root holding the lease files.
LEASES_DIRNAME = "leases"

#: Default seconds of renewal silence after which a lease is orphaned,
#: for a sweep and ``repro fsck`` alike: generous enough for a busy
#: claimant whose renewal thread is briefly starved, short enough that a
#: SIGKILLed claimant only parks its specs for seconds.
DEFAULT_LEASE_GRACE = 30.0

#: Default seconds between renewals of held leases.
DEFAULT_RENEW_INTERVAL = 5.0


def pid_alive(pid: int) -> Optional[bool]:
    """Liveness of a local pid: True/False, or None when unknowable.

    ``os.kill(pid, 0)`` delivers no signal but performs the existence
    and permission checks.  ``EPERM`` means the pid exists but belongs
    to another user — alive.  Anything else unexpected reports None so
    callers fall back to wall-clock staleness alone.
    """
    if pid <= 0:
        return None
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    except OSError:
        return None
    return True


def lease_dir_for(cache_root: Union[str, Path]) -> Path:
    """Canonical lease directory for a (versioned) cache root.

    Lives *inside* the versioned root — ``<root>/v<N>/leases`` — so a
    schema bump that makes old cache entries unreadable also retires
    their leases.
    """
    return Path(cache_root) / LEASES_DIRNAME


@dataclass
class Lease:
    """One held work claim: the on-disk file and the token proving ownership.

    ``backed`` is False for degraded claims granted when the lease
    directory was unwritable — they have no on-disk presence, are never
    renewed, and release is a no-op; the holder simply simulates as if
    coordination were off.
    """

    key: str
    path: Path
    token: str
    acquired_wall: float
    backed: bool = True
    last_renewed: float = field(default=0.0)


class LeaseManager:
    """Acquire, renew, steal, and release work-claim leases for one sweep.

    One instance per :class:`~repro.harness.sweep.SweepEngine`; it tracks
    every lease the engine holds and renews them from a single daemon
    thread, so both the inline path and every pooled run share one
    renewal cadence (the engine's pid is in the record — exactly what a
    sibling needs to detect that a SIGKILLed engine's claims are dead).

    Args:
        directory: The lease directory (see :func:`lease_dir_for`).
        grace: Seconds of renewal silence after which another process may
            steal a lease.
        renew_interval: Seconds between renewals of held leases; defaults
            to :data:`DEFAULT_RENEW_INTERVAL`.  Clamped below
            ``grace / 2`` so a healthy holder can never look stale.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        grace: float = DEFAULT_LEASE_GRACE,
        renew_interval: Optional[float] = None,
    ) -> None:
        self.directory = Path(directory)
        self.grace = max(0.2, float(grace))
        if renew_interval is None:
            renew_interval = DEFAULT_RENEW_INTERVAL
        self.renew_interval = min(max(0.05, float(renew_interval)), self.grace / 2)
        self.host = os.uname().nodename
        self.claims = 0  # leases successfully acquired (stolen included)
        self.denials = 0  # acquire attempts refused by a live lease
        self.steals = 0  # orphaned leases stolen
        self.releases = 0
        self.renewals = 0
        self.degraded = False  # lease dir unwritable; claims are unbacked
        self._held: Dict[str, Lease] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._warned = False

    # ------------------------------------------------------------------
    # Paths and records
    # ------------------------------------------------------------------

    def path_for(self, key: str) -> Path:
        """On-disk lease file for a fingerprint key."""
        return self.directory / f"{key}{LEASE_SUFFIX}"

    def read(self, key: str) -> Optional[Dict]:
        """Parse the on-disk lease record for ``key``.

        Returns None when no lease file exists.  An unparsable file
        (torn by a crashed legacy writer, or hand-edited) returns an
        empty dict — which every staleness check treats as stale, so
        garbage can never park a spec forever.
        """
        try:
            record = json.loads(self.path_for(key).read_text(encoding="utf-8"))
        except (FileNotFoundError, NotADirectoryError):
            return None
        except (OSError, ValueError, UnicodeDecodeError):
            return {}
        return record if isinstance(record, dict) else {}

    def is_stale(self, record: Optional[Dict]) -> bool:
        """Whether a lease record is orphaned and may be stolen.

        Stale when any of: the record is unparsable or from another
        schema version; its claimant pid is provably dead on this host;
        or its renewal age exceeds the grace period.  A live record from
        another host is trusted on wall-clock alone (clocks across a
        shared filesystem are assumed sane to within the grace period).
        """
        if not record:
            return True
        if record.get("schema") != LEASE_SCHEMA:
            return True
        pid = record.get("pid")
        if (
            record.get("host") == self.host
            and isinstance(pid, int)
            and pid_alive(pid) is False
        ):
            return True
        renewed = record.get("renewed_wall", record.get("acquired_wall"))
        if not isinstance(renewed, (int, float)):
            return True
        return (time.time() - float(renewed)) > self.grace

    # ------------------------------------------------------------------
    # Acquire / steal
    # ------------------------------------------------------------------

    def try_acquire(self, key: str) -> Optional[Lease]:
        """Claim ``key``; returns the lease, or None when someone holds it.

        The claim is a scratch write plus hard link — atomic on every
        filesystem the cache supports, so exactly one process wins.  On
        losing, the existing record is inspected: a live lease is a
        denial (the caller defers the spec and claims it again later), a
        stale one is stolen and the claim retried.  Infrastructure failures
        (unwritable lease directory) degrade to an *unbacked* lease: the
        caller proceeds uncoordinated rather than blocking on an
        optimization.
        """
        with self._lock:
            held = self._held.get(key)
            if held is not None:
                return held
        for _ in range(3):  # create -> (steal -> create) -> racing winner
            lease = self._create(key)
            if lease is not None:
                with self._lock:
                    self._held[key] = lease
                    if lease.backed:
                        self.claims += 1
                        self._ensure_renewal_thread()
                return lease
            record = self.read(key)
            if record is None:
                continue  # vanished between create and read; retry create
            if not self.is_stale(record):
                self.denials += 1
                return None
            if not self._steal(key):
                # Another thief won the rename; their fresh lease is live.
                self.denials += 1
                return None
            self.steals += 1
        self.denials += 1
        return None

    def _create(self, key: str) -> Optional[Lease]:
        """One atomic claim attempt; None when the lease already exists."""
        path = self.path_for(key)
        now = time.time()
        token = os.urandom(8).hex()
        record = {
            "schema": LEASE_SCHEMA,
            "pid": os.getpid(),
            "host": self.host,
            "fingerprint": key,
            "acquired_wall": now,
            "renewed_wall": now,
            "token": token,
        }
        try:
            # Kept outside the O_EXCL try: mkdir on a path occupied by a
            # *file* raises FileExistsError too, and that must degrade,
            # not masquerade as "someone holds the lease".
            self.directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            return self._degrade(key, exc)
        # The record is written to a scratch sibling first and then
        # hard-linked to the lease name: ``link`` is the atomic claim
        # (EEXIST means someone else holds it), and the record is
        # complete the instant the lease becomes visible.  A plain
        # ``O_EXCL`` create + write is NOT enough — a concurrent poller
        # can read the just-created empty file, parse nothing, judge the
        # lease stale, and steal work a live claimant just won.  The
        # token in the scratch name keeps two managers in one process
        # (same pid) from clobbering each other's half-written scratch.
        scratch = path.with_name(f".tmp-{os.getpid()}-{token}-{path.name}")
        try:
            with open(scratch, "w", encoding="utf-8") as fh:
                json.dump(record, fh, sort_keys=True)
        except OSError as exc:
            try:
                scratch.unlink(missing_ok=True)
            except OSError:
                pass
            return self._degrade(key, exc)
        try:
            os.link(scratch, path)
        except FileExistsError:
            return None
        except OSError as exc:
            return self._degrade(key, exc)
        finally:
            try:
                scratch.unlink(missing_ok=True)
            except OSError:  # pragma: no cover - fsck collects the orphan
                pass
        return Lease(
            key=key, path=path, token=token, acquired_wall=now,
            last_renewed=time.monotonic(),
        )

    def _degrade(self, key: str, exc: OSError) -> Lease:
        """Grant an unbacked lease when the lease dir is unusable."""
        self.degraded = True
        if not self._warned:
            self._warned = True
            warnings.warn(
                f"lease directory {self.directory} unusable ({exc}); "
                "sweep coordination degraded to uncoordinated execution",
                RuntimeWarning,
                stacklevel=3,
            )
        return Lease(
            key=key,
            path=self.path_for(key),
            token="",
            acquired_wall=time.time(),
            backed=False,
        )

    def _steal(self, key: str) -> bool:
        """Atomically remove an orphaned lease; True when this call won.

        The rename to a pid-unique tombstone is the arbitration point:
        of N processes that all judged the lease stale, exactly one
        rename succeeds; the rest get ``FileNotFoundError``.  The
        tombstone is unlinked immediately (a crash in between leaves a
        ``.steal.<pid>`` file that ``repro fsck --gc`` collects).
        """
        path = self.path_for(key)
        tombstone = path.with_name(f"{path.name}.steal.{os.getpid()}")
        try:
            os.rename(path, tombstone)
        except FileNotFoundError:
            return False
        except OSError:
            return False
        try:
            tombstone.unlink(missing_ok=True)
        except OSError:  # pragma: no cover - tombstone collected by fsck
            pass
        return True

    # ------------------------------------------------------------------
    # Renewal
    # ------------------------------------------------------------------

    def _ensure_renewal_thread(self) -> None:
        """Start (or restart) the daemon renewal thread; caller holds lock."""
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._renew_loop, name="lease-renewal", daemon=True
        )
        self._thread.start()

    def _renew_loop(self) -> None:
        """Renew every held backed lease until stopped or none remain."""
        tick = min(max(self.renew_interval / 2, 0.02), 1.0)
        while not self._stop.wait(tick):
            with self._lock:
                if not self._held:
                    self._thread = None
                    return
                leases = [l for l in self._held.values() if l.backed]
            now = time.monotonic()
            for lease in leases:
                if now - lease.last_renewed >= self.renew_interval:
                    self._renew(lease)

    def _renew(self, lease: Lease) -> None:
        """Rewrite one lease with a fresh ``renewed_wall`` (atomic).

        Ownership is verified first: if the on-disk token is not ours the
        lease was stolen (we must have looked dead); we stop renewing and
        drop it from the held set — the thief now owns the spec, and our
        eventual cache write is still safe (atomic, idempotent content).
        """
        record = self.read(lease.key)
        if record is not None and record.get("token") not in ("", lease.token):
            with self._lock:
                self._held.pop(lease.key, None)
            return
        payload = {
            "schema": LEASE_SCHEMA,
            "pid": os.getpid(),
            "host": self.host,
            "fingerprint": lease.key,
            "acquired_wall": lease.acquired_wall,
            "renewed_wall": time.time(),
            "token": lease.token,
        }
        try:
            atomic_write_json(lease.path, payload, sort_keys=True)
        except OSError:
            return  # renewal is best-effort; grace absorbs a missed beat
        lease.last_renewed = time.monotonic()
        self.renewals += 1

    # ------------------------------------------------------------------
    # Release
    # ------------------------------------------------------------------

    def release(self, key: str) -> None:
        """Release the held lease for ``key`` (no-op when not held).

        Callers must release only *after* publishing the result to the
        cache: a waiter whose next claim succeeds and still misses the
        cache concludes the claimant died and simulates the spec.
        The unlink is ownership-checked by token so a release racing a
        steal never deletes the thief's fresh lease.
        """
        with self._lock:
            lease = self._held.pop(key, None)
        if lease is None or not lease.backed:
            return
        record = self.read(key)
        if record and record.get("token") not in ("", lease.token):
            return  # stolen while we worked; the thief owns the file now
        try:
            lease.path.unlink(missing_ok=True)
        except OSError:  # pragma: no cover - fsck collects it as stale
            return
        self.releases += 1

    def release_all(self) -> None:
        """Release every held lease (engine teardown / abort paths)."""
        with self._lock:
            keys = list(self._held)
        for key in keys:
            self.release(key)
        self._stop.set()

    def held_keys(self) -> List[str]:
        """Fingerprint keys currently held by this manager."""
        with self._lock:
            return list(self._held)
