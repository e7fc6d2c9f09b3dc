"""Artifact-auditor suite: classification matrix, repair, gc, exit codes.

Builds a little artifact zoo — real cache entries, checkpoints written
by the actual checkpoint machinery, metrics documents emitted by a real
run, manifests, leases, heartbeats, scratch temps — plants known damage
in it, and pins :func:`repro.harness.fsck.audit`'s verdict for every
file.  The CLI half pins the satellite contract: ``repro fsck`` exits 1
when corruption was found, and 0 after a successful ``--repair``.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.harness.coordinate import LEASE_SCHEMA, LeaseManager
from repro.harness.fsck import FSCK_SCHEMA, audit, classify, format_summary
from repro.harness.runner import make_spec, metrics_path_for, run_spec
from repro.harness.supervise import HEARTBEAT_SCHEMA
from repro.harness.sweep import ResultCache, RunOptions, fingerprint
from repro.sim.checkpoint import payload_digest
from repro.sim.stats import SimStats

from tests.harness import faults

SCALE = 0.05


def _dead_pid() -> int:
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    return child.pid


def _status_of(report, path) -> str:
    for finding in report.findings:
        if str(finding.path) == str(path):
            return finding.status
    raise AssertionError(f"{path} not audited")


class TestClassificationMatrix:
    def test_valid_cache_entry_is_ok(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = make_spec("monte", scale=SCALE)
        key = fingerprint(spec)
        cache.put(key, spec, SimStats(cycles=10, instructions=5))
        report = audit([tmp_path])
        assert _status_of(report, cache.path_for(key)) == "ok"

    def test_torn_cache_entry_is_corrupt(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = make_spec("monte", scale=SCALE)
        key = fingerprint(spec)
        faults.corrupt_cache_entry(cache, key, "truncated-json")
        report = audit([tmp_path])
        assert _status_of(report, cache.path_for(key)) == "corrupt"

    def test_truncated_flagged_entry_is_corrupt(self, tmp_path):
        """An entry claiming truncated stats could only have been planted
        — the engine refuses to store them."""
        cache = ResultCache(tmp_path)
        spec = make_spec("monte", scale=SCALE)
        key = fingerprint(spec)
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "schema": 3, "key": key,
            "spec": {"benchmark": "monte"},
            "stats": SimStats(cycles=3, truncated=True).to_dict(),
        }), encoding="utf-8")
        report = audit([tmp_path])
        assert _status_of(report, path) == "corrupt"

    def test_checkpoint_valid_stale_and_corrupt(self, tmp_path):
        spec = make_spec("monte", scale=SCALE)
        key = fingerprint(spec)
        live = tmp_path / "ckpt" / f"monte-{key[:12]}.ckpt.json"
        live.parent.mkdir(parents=True)
        faults.write_midrun_checkpoint(spec, live)
        report = audit([tmp_path])
        assert _status_of(report, live) == "ok"

        # Cache the spec's result: the same snapshot is now superseded.
        cache = ResultCache(tmp_path / "cache")
        cache.put(key, spec, SimStats(cycles=9))
        report = audit([tmp_path])
        assert _status_of(report, live) == "stale"

        torn = live.with_name(f"cell-{key[:12]}.ckpt.json")
        torn.write_bytes(live.read_bytes()[:40])
        report = audit([tmp_path])
        assert _status_of(report, torn) == "corrupt"

        # A valid snapshot written before a class gained a field: its
        # recorded layout no longer matches, so a resume would reject it.
        envelope = json.loads(live.read_text(encoding="utf-8"))
        envelope["fingerprint"] = "0" * 64
        envelope["payload"]["@layout"]["DramChannel"][1].remove("due_cycle")
        envelope["payload_sha256"] = payload_digest(envelope["payload"])
        older = live.with_name(f"bfs-{key[:12]}.ckpt.json")
        older.write_text(json.dumps(envelope), encoding="utf-8")
        report = audit([tmp_path])
        assert _status_of(report, older) == "stale"
        assert "DramChannel" in next(
            f.detail for f in report.findings if str(f.path) == str(older)
        )
        audit([tmp_path], gc=True)
        assert not older.exists()

    def test_metrics_valid_and_corrupt(self, tmp_path):
        spec = make_spec("monte", scale=SCALE)
        good = metrics_path_for(spec, tmp_path)
        run_spec(spec, RunOptions(metrics_dir=tmp_path, metrics_interval=500))
        bad = tmp_path / "cell-def.metrics.json"
        bad.write_text('{"schema": 999}', encoding="utf-8")
        report = audit([tmp_path])
        assert _status_of(report, good) == "ok"
        assert _status_of(report, bad) == "corrupt"

    def test_lease_live_expired_and_dead(self, tmp_path):
        manager = LeaseManager(tmp_path, grace=30.0)
        live = manager.try_acquire("a" * 64)
        record = json.loads(live.path.read_text(encoding="utf-8"))

        expired = tmp_path / ("b" * 64 + ".lease")
        expired.write_text(json.dumps({
            **record, "fingerprint": "b" * 64,
            "acquired_wall": time.time() - 3600,
            "renewed_wall": time.time() - 3600,
        }), encoding="utf-8")

        dead = tmp_path / ("c" * 64 + ".lease")
        dead.write_text(json.dumps({
            **record, "fingerprint": "c" * 64, "pid": _dead_pid(),
        }), encoding="utf-8")

        torn = tmp_path / ("d" * 64 + ".lease")
        torn.write_text("{ torn", encoding="utf-8")

        report = audit([tmp_path], grace=30.0)
        assert _status_of(report, live.path) == "ok"
        assert _status_of(report, expired) == "stale"
        assert _status_of(report, dead) == "stale"
        assert _status_of(report, torn) == "corrupt"
        manager.release_all()

    def test_heartbeat_live_and_dead(self, tmp_path):
        live = tmp_path / "monte-abc.hb.json"
        live.write_text(json.dumps({
            "schema": HEARTBEAT_SCHEMA, "pid": os.getpid(),
            "wall": time.time(), "benchmark": "monte",
        }), encoding="utf-8")
        dead = tmp_path / "cell-def.hb.json"
        dead.write_text(json.dumps({
            "schema": HEARTBEAT_SCHEMA, "pid": _dead_pid(),
            "wall": time.time(), "benchmark": "cell",
        }), encoding="utf-8")
        report = audit([tmp_path])
        assert _status_of(report, live) == "ok"
        assert _status_of(report, dead) == "orphaned"

    def test_scratch_and_tombstone_litter(self, tmp_path):
        mine = tmp_path / f".tmp-{os.getpid()}-doc.json"
        mine.write_text("{", encoding="utf-8")
        orphan = tmp_path / f".tmp-{_dead_pid()}-doc.json"
        orphan.write_text("{", encoding="utf-8")
        tombstone = tmp_path / ("e" * 64 + f".lease.steal.{_dead_pid()}")
        tombstone.write_text("{}", encoding="utf-8")
        report = audit([tmp_path])
        assert _status_of(report, mine) == "ok"
        assert _status_of(report, orphan) == "orphaned"
        assert _status_of(report, tombstone) == "orphaned"

    def test_manifest_tolerates_torn_tail_but_not_garbage(self, tmp_path):
        journal = tmp_path / "sweep.manifest"
        journal.write_text(
            json.dumps({"schema": 1, "key": "x", "status": "done",
                        "stats": SimStats(cycles=4).to_dict()})
            + "\n" + '{"schema": 1, "ke',  # torn final line
            encoding="utf-8",
        )
        garbage = tmp_path / "other.jsonl"
        garbage.write_text("not json at all\nstill not\n", encoding="utf-8")
        report = audit([tmp_path])
        assert _status_of(report, journal) == "ok"
        assert _status_of(report, garbage) == "corrupt"

    def test_quarantined_and_unaudited_files_are_ok(self, tmp_path):
        forensic = tmp_path / "entry.json.corrupt"
        forensic.write_bytes(b"\x00\x01")
        readme = tmp_path / "README.txt"
        readme.write_text("notes", encoding="utf-8")
        report = audit([tmp_path])
        assert _status_of(report, forensic) == "ok"
        assert _status_of(report, readme) == "ok"

    def test_classify_routes_by_suffix(self, tmp_path):
        path = tmp_path / "plain.json"
        path.write_text("{}", encoding="utf-8")
        finding = classify(path, 30.0, set())
        assert finding.sink == "json" and finding.status == "ok"


#: Cache-entry corruptions: torn JSON, a schema tag that is not its
#: directory's, a key that is not its filename, stats that do not
#: deserialize, and stats flagged truncated.
CACHE_CORRUPTIONS = (
    "truncated-json", "schema-mismatch", "key-mismatch", "bad-stats",
    "truncated-stats",
)


class TestOneReaderContract:
    """The harness and the auditor read each format through one parser,
    so they cannot disagree about a file."""

    @pytest.mark.parametrize("mode", CACHE_CORRUPTIONS)
    def test_cache_refuses_exactly_what_fsck_calls_corrupt(
        self, tmp_path, mode
    ):
        cache = ResultCache(tmp_path)
        key = fingerprint(make_spec("monte", scale=SCALE))
        path = faults.corrupt_cache_entry(cache, key, mode)
        assert _status_of(audit([tmp_path]), path) == "corrupt"
        assert cache.get(key) is None
        assert cache.corrupt_evicted == 1
        assert not path.exists()
        assert path.with_name(path.name + ".corrupt").exists()

    def test_fsck_judges_leases_like_the_engine(self, tmp_path):
        manager = LeaseManager(tmp_path, grace=30.0)
        now = time.time()
        base = {
            "schema": LEASE_SCHEMA, "host": manager.host, "pid": os.getpid(),
            "acquired_wall": now, "renewed_wall": now, "token": "t",
        }
        dead = _dead_pid()
        records = {
            "a": base,
            "b": {**base, "pid": dead},  # dead claimant on this host
            # A pid number says nothing about a process on another host.
            "c": {**base, "pid": dead, "host": "elsewhere"},
            "d": {**base, "renewed_wall": now - 3600},
            "e": {**base, "schema": 999},
        }
        for letter, record in records.items():
            (tmp_path / (letter * 64 + ".lease")).write_text(
                json.dumps(record), encoding="utf-8"
            )
        report = audit([tmp_path], grace=30.0)
        for letter, record in records.items():
            expected = "stale" if manager.is_stale(record) else "ok"
            path = tmp_path / (letter * 64 + ".lease")
            assert _status_of(report, path) == expected, letter
        assert _status_of(report, tmp_path / ("c" * 64 + ".lease")) == "ok"


class TestRepairAndGc:
    def _zoo(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = make_spec("monte", scale=SCALE)
        key = fingerprint(spec)
        cache.put(key, spec, SimStats(cycles=10))
        corrupt = cache.path_for(key)
        corrupt.write_bytes(corrupt.read_bytes()[:30])
        stale_lease = tmp_path / "leases" / ("a" * 64 + ".lease")
        stale_lease.parent.mkdir(parents=True)
        stale_lease.write_text(json.dumps({
            "schema": LEASE_SCHEMA, "pid": os.getpid(), "host": "h",
            "fingerprint": "a" * 64,
            "acquired_wall": time.time() - 3600,
            "renewed_wall": time.time() - 3600, "token": "t",
        }), encoding="utf-8")
        orphan = tmp_path / f".tmp-{_dead_pid()}-x.json"
        orphan.write_text("{", encoding="utf-8")
        return corrupt, stale_lease, orphan

    def test_repair_quarantines_corrupt_only(self, tmp_path):
        corrupt, stale_lease, orphan = self._zoo(tmp_path)
        report = audit([tmp_path], repair=True)
        assert report.repaired == 1
        assert not corrupt.exists()
        assert corrupt.with_name(corrupt.name + ".corrupt").exists()
        assert stale_lease.exists() and orphan.exists()  # gc not requested

    def test_gc_collects_stale_and_orphaned_only(self, tmp_path):
        corrupt, stale_lease, orphan = self._zoo(tmp_path)
        report = audit([tmp_path], gc=True)
        assert report.collected == 2
        assert not stale_lease.exists() and not orphan.exists()
        assert corrupt.exists()  # repair not requested

    def test_repair_plus_gc_leaves_tree_clean(self, tmp_path):
        self._zoo(tmp_path)
        audit([tmp_path], repair=True, gc=True)
        after = audit([tmp_path])
        assert after.clean
        assert not after.remaining_corrupt()

    def test_report_document_shape(self, tmp_path):
        self._zoo(tmp_path)
        doc = audit([tmp_path]).to_dict()
        assert doc["schema"] == FSCK_SCHEMA
        assert doc["clean"] is False
        assert set(doc["counts"]) == {"ok", "corrupt", "orphaned", "stale"}
        assert doc["counts"]["corrupt"] == 1
        assert all(
            {"path", "sink", "status", "detail"} <= set(f)
            for f in doc["findings"]
        )
        summary = format_summary(audit([tmp_path]))
        assert "1 corrupt" in summary


class TestCliExitCodes:
    def test_fsck_exits_1_on_corruption_0_after_repair(
        self, tmp_path, capsys
    ):
        cache = ResultCache(tmp_path)
        spec = make_spec("monte", scale=SCALE)
        key = fingerprint(spec)
        cache.put(key, spec, SimStats(cycles=10))
        entry = cache.path_for(key)
        entry.write_bytes(entry.read_bytes()[:25])

        assert cli_main(["fsck", str(tmp_path)]) == 1
        assert cli_main(["fsck", str(tmp_path), "--repair", "--gc"]) == 0
        assert cli_main(["fsck", str(tmp_path)]) == 0
        capsys.readouterr()

    def test_fsck_json_document(self, tmp_path, capsys):
        (tmp_path / "x.json").write_text("{}", encoding="utf-8")
        assert cli_main(["fsck", str(tmp_path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == FSCK_SCHEMA and doc["clean"] is True

    def test_fsck_defaults_to_resolved_cache_dir(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cachehome"))
        (tmp_path / "cachehome").mkdir()
        assert cli_main(["fsck"]) == 0
        out = capsys.readouterr().out
        assert "fsck:" in out
