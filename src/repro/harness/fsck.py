"""Artifact auditor: classify, repair, and collect every durable sink.

The harness accumulates a zoo of on-disk artifacts — result-cache
entries, sweep manifests, simulator checkpoints, metrics documents,
failure reports (``*.failure.json``, left by rejected checkpoints),
heartbeats, work-claim leases, and the scratch temps of interrupted
atomic writes.  Each format is read by one parser that lives
with the module that writes it: :func:`~repro.harness.sweep.read_cache_entry`,
:func:`~repro.harness.sweep.parse_manifest_line`,
:func:`~repro.sim.checkpoint.load_checkpoint`,
:func:`~repro.harness.supervise.load_heartbeat`,
:meth:`~repro.harness.coordinate.LeaseManager.read` with
:meth:`~repro.harness.coordinate.LeaseManager.is_stale`, and
:func:`~repro.sim.errors.load_failure_report`.  ``repro fsck`` walks a
tree, routes each file to its parser, and maps the answer to a verdict,
so the auditor calls a file bad exactly when the harness would refuse
it.

Every audited file lands in exactly one status:

* ``ok`` — validates against its sink's rules (or is a non-artifact the
  auditor does not judge).
* ``corrupt`` — fails validation: torn JSON, digest mismatch, schema
  from nowhere, a cache entry the result cache would not serve.  Under
  ``--repair`` these are quarantined by an atomic rename to
  ``<name>.corrupt`` — the same convention
  :meth:`~repro.harness.sweep.ResultCache.get` uses for its own
  evictions — so readers stop paying the re-parse tax and the evidence
  survives for forensics.
* ``orphaned`` — litter attributable to a dead writer: a scratch temp
  or steal tombstone whose embedded pid no longer runs, a heartbeat
  whose process is gone.  Collected under ``--gc``.
* ``stale`` — valid but superseded: a lease a sweep would steal, a
  checkpoint for a run whose result already sits in the cache, a
  checkpoint whose recorded field layout the running code no longer has
  (a resume would reject it and cold-start).  Collected under ``--gc``.

The auditor never deletes anything it classified ``corrupt`` (repair
renames, keeping the bytes) and never touches anything ``ok`` — the
worst a buggy classification can cost is a re-simulation, never data.
"""

from __future__ import annotations

import json
import os
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Union

from repro.harness.coordinate import (
    DEFAULT_LEASE_GRACE,
    LEASE_SUFFIX,
    LeaseManager,
    pid_alive,
)
from repro.harness.supervise import load_heartbeat
from repro.harness.sweep import (
    cache_entry_version,
    parse_manifest_line,
    read_cache_entry,
)
from repro.sim.checkpoint import check_layout, load_checkpoint
from repro.sim.errors import CheckpointError, load_failure_report
from repro.sim.telemetry import validate_metrics_document

#: Format version of the ``repro fsck --json`` report document.
FSCK_SCHEMA = 1

#: The four verdicts; see the module docstring for their semantics.
STATUSES = ("ok", "corrupt", "orphaned", "stale")

_SCRATCH = re.compile(r"^\.tmp-(\d+)-")
_STEAL_TOMBSTONE = re.compile(r"\.lease\.steal\.(\d+)$")


@dataclass
class Finding:
    """One audited file: where it is, what it is, and the verdict."""

    path: Path
    sink: str
    status: str
    detail: str = ""
    action: str = ""  # "", "repaired", "collected", or "<verb>-failed"

    def to_dict(self) -> Dict:
        """Plain-JSON form for the ``--json`` report."""
        record = {
            "path": str(self.path),
            "sink": self.sink,
            "status": self.status,
            "detail": self.detail,
        }
        if self.action:
            record["action"] = self.action
        return record


@dataclass
class FsckReport:
    """The outcome of one audit pass over a set of roots."""

    roots: List[Path]
    grace: float
    findings: List[Finding] = field(default_factory=list)
    repaired: int = 0
    collected: int = 0

    def counts(self) -> Dict[str, int]:
        """Files per status (all four statuses always present)."""
        tally = {status: 0 for status in STATUSES}
        for finding in self.findings:
            tally[finding.status] += 1
        return tally

    def remaining_corrupt(self) -> List[Finding]:
        """Corrupt findings not successfully repaired (the exit-1 set)."""
        return [
            f
            for f in self.findings
            if f.status == "corrupt" and f.action != "repaired"
        ]

    @property
    def clean(self) -> bool:
        """True when nothing is corrupt, orphaned, or stale."""
        return all(f.status == "ok" for f in self.findings)

    def to_dict(self) -> Dict:
        """Plain-JSON report document (``repro fsck --json``)."""
        return {
            "schema": FSCK_SCHEMA,
            "roots": [str(root) for root in self.roots],
            "grace": self.grace,
            "counts": self.counts(),
            "repaired": self.repaired,
            "collected": self.collected,
            "clean": self.clean,
            "findings": [f.to_dict() for f in self.findings],
        }


def _dead_writer(pid_text: str) -> Optional[bool]:
    """Liveness verdict for a pid embedded in a litter filename."""
    try:
        pid = int(pid_text)
    except ValueError:
        return False
    return pid_alive(pid)


def _classify_lease(path: Path, grace: float) -> Finding:
    """Lease file, judged by the rules a sweep steals leases by."""
    leases = LeaseManager(path.parent, grace=grace)
    record = leases.read(path.stem)
    if record is None:
        return Finding(path, "lease", "ok", "released during the audit")
    if not record:
        return Finding(
            path, "lease", "corrupt", "unreadable or not a JSON object"
        )
    pid = record.get("pid")
    if leases.is_stale(record):
        return Finding(
            path, "lease", "stale",
            f"claim by pid {pid} is orphaned; a sweep would steal it",
        )
    return Finding(path, "lease", "ok", f"live claim by pid {pid}")


def _classify_heartbeat(path: Path, grace: float) -> Finding:
    """Heartbeat file: a live worker's, a dead worker's, or garbage."""
    try:
        record = load_heartbeat(path)
    except OSError as exc:
        return Finding(path, "heartbeat", "corrupt", f"unreadable: {exc}")
    except ValueError as exc:
        return Finding(path, "heartbeat", "corrupt", str(exc))
    pid = record.get("pid")
    if isinstance(pid, int) and pid_alive(pid) is False:
        return Finding(
            path, "heartbeat", "orphaned", f"writer pid {pid} is dead"
        )
    age = time.time() - float(record["wall"])
    if age > max(grace, 60.0):
        return Finding(
            path, "heartbeat", "orphaned",
            f"last beat {age:.0f}s ago (pid liveness unknown)",
        )
    return Finding(path, "heartbeat", "ok", f"live worker pid {pid}")


def _classify_checkpoint(path: Path, cache_keys: Set[str]) -> Finding:
    """Checkpoint envelope: valid, superseded (by a cached result or by
    a change to the simulator's field layout), or torn."""
    try:
        envelope = load_checkpoint(path)
    except CheckpointError as exc:
        return Finding(path, "checkpoint", "corrupt", str(exc))
    key = envelope.get("fingerprint", "")
    if isinstance(key, str) and key in cache_keys:
        return Finding(
            path, "checkpoint", "stale",
            "run already completed (cached result exists for "
            f"fingerprint {key[:12]}…)",
        )
    try:
        check_layout(envelope["payload"]["@layout"])
    except CheckpointError as exc:
        return Finding(
            path, "checkpoint", "stale",
            f"a resume would reject it and cold-start: {exc}",
        )
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        return Finding(
            path, "checkpoint", "corrupt", f"unusable @layout: {exc!r}"
        )
    return Finding(
        path, "checkpoint", "ok",
        f"valid snapshot at cycle {envelope.get('cycle')}",
    )


def _classify_metrics(path: Path) -> Finding:
    """Windowed-metrics document: schema/typing/contiguity validation."""
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
        validate_metrics_document(document)
    except OSError as exc:
        return Finding(path, "metrics", "corrupt", f"unreadable: {exc}")
    except (ValueError, UnicodeDecodeError, TypeError) as exc:
        return Finding(path, "metrics", "corrupt", str(exc))
    return Finding(
        path, "metrics", "ok", f"{len(document.get('windows', []))} windows"
    )


def _classify_cache_entry(path: Path) -> Finding:
    """Result-cache entry: ok exactly when the cache would serve it."""
    try:
        stats = read_cache_entry(path)
    except OSError as exc:
        return Finding(path, "cache", "corrupt", f"unreadable: {exc}")
    except ValueError as exc:
        return Finding(path, "cache", "corrupt", str(exc))
    return Finding(path, "cache", "ok", f"{stats.cycles} cycles")


def _classify_manifest(path: Path) -> Finding:
    """Append-only JSONL journal: count valid records vs torn lines."""
    try:
        raw = path.read_bytes()
    except OSError as exc:
        return Finding(path, "manifest", "corrupt", f"unreadable: {exc}")
    lines = [line for line in raw.splitlines() if line.strip()]
    valid = sum(1 for line in lines if parse_manifest_line(line) is not None)
    torn = len(lines) - valid
    if lines and not valid:
        return Finding(
            path, "manifest", "corrupt",
            f"no parseable record among {len(lines)} line(s)",
        )
    detail = f"{valid} record(s)"
    if torn:
        # Torn trailing lines are the journal's designed crash mode,
        # so they do not make the file corrupt.
        detail += f", {torn} torn line(s) tolerated"
    return Finding(path, "manifest", "ok", detail)


def _classify_report(path: Path) -> Finding:
    """Failure report: must at least be a JSON object."""
    try:
        record = load_failure_report(path)
    except OSError as exc:
        return Finding(path, "failure-report", "corrupt", f"unreadable: {exc}")
    except ValueError as exc:
        return Finding(path, "failure-report", "corrupt", f"unparsable: {exc}")
    kind = record.get("kind", record.get("error", ""))
    return Finding(
        path, "failure-report", "ok", f"report ({kind})" if kind else "report"
    )


def classify(
    path: Path, grace: float, cache_keys: Set[str]
) -> Finding:
    """Route one file to its sink's validator and return the verdict.

    ``cache_keys`` is the set of fingerprints with a valid cache entry
    (used to spot completed-run checkpoints); pass an empty set when the
    scan roots do not include a cache.
    """
    name = path.name
    if name.endswith(".corrupt"):
        return Finding(
            path, "quarantined", "ok",
            "previously quarantined corrupt artifact (kept for forensics)",
        )
    scratch = _SCRATCH.match(name)
    tombstone = _STEAL_TOMBSTONE.search(name)
    for match, sink in ((scratch, "scratch"), (tombstone, "lease")):
        if match is None:
            continue
        alive = _dead_writer(match.group(1))
        if alive:
            return Finding(
                path, sink, "ok",
                f"in-flight write by live pid {match.group(1)}",
            )
        return Finding(
            path, sink, "orphaned",
            f"writer pid {match.group(1)} is dead"
            if alive is False
            else f"writer pid {match.group(1)} unverifiable; treated as dead",
        )
    if name.endswith(LEASE_SUFFIX):
        return _classify_lease(path, grace)
    if name.endswith(".hb.json"):
        return _classify_heartbeat(path, grace)
    if name.endswith(".ckpt.json"):
        return _classify_checkpoint(path, cache_keys)
    if name.endswith(".metrics.json"):
        return _classify_metrics(path)
    if name.endswith(".failure.json"):
        return _classify_report(path)
    if cache_entry_version(path) is not None:
        return _classify_cache_entry(path)
    if path.suffix in (".jsonl", ".manifest") or "manifest" in name:
        return _classify_manifest(path)
    if path.suffix == ".json":
        # Generic JSON artifacts (profiles, perf documents): whole-file
        # parse, falling back to a JSONL read — an unnamed manifest must
        # not be flagged corrupt just for being line-oriented.
        try:
            json.loads(path.read_text(encoding="utf-8"))
            return Finding(path, "json", "ok", "parses")
        except OSError as exc:
            return Finding(path, "json", "corrupt", f"unreadable: {exc}")
        except (ValueError, UnicodeDecodeError):
            finding = _classify_manifest(path)
            if finding.status == "ok":
                return finding
            return Finding(path, "json", "corrupt", "unparsable JSON")
    return Finding(path, "other", "ok", "not an audited artifact")


def _iter_files(roots: Sequence[Path]) -> Iterable[Path]:
    """All regular files under ``roots``, deduplicated, sorted."""
    seen: Set[Path] = set()
    for root in roots:
        root = Path(root)
        if root.is_file():
            candidates: Iterable[Path] = [root]
        elif root.is_dir():
            candidates = sorted(p for p in root.rglob("*") if p.is_file())
        else:
            continue
        for path in candidates:
            resolved = Path(os.path.realpath(path))
            if resolved in seen:
                continue
            seen.add(resolved)
            yield path


def _repair(finding: Finding) -> None:
    """Quarantine one corrupt file to ``<name>.corrupt`` (atomic rename)."""
    target = finding.path.with_name(finding.path.name + ".corrupt")
    try:
        os.replace(finding.path, target)
    except OSError as exc:
        finding.action = f"repair-failed: {exc}"
        return
    finding.action = "repaired"


def _collect(finding: Finding) -> None:
    """Unlink one stale/orphaned file."""
    try:
        finding.path.unlink(missing_ok=True)
    except OSError as exc:
        finding.action = f"collect-failed: {exc}"
        return
    finding.action = "collected"


def audit(
    roots: Sequence[Union[str, Path]],
    grace: float = DEFAULT_LEASE_GRACE,
    repair: bool = False,
    gc: bool = False,
) -> FsckReport:
    """Audit every file under ``roots``; optionally repair and collect.

    Two passes: the first classifies cache entries (their keys are
    needed to spot completed-run checkpoints), the second classifies
    everything else.  With ``repair``, corrupt files are renamed to
    ``<name>.corrupt``; with ``gc``, stale and orphaned files are
    unlinked.  Both mutations are recorded per finding in ``action`` and
    tallied on the report.

    Args:
        roots: Directories (or single files) to walk.
        grace: Seconds of silence after which leases and heartbeats are
            considered expired (at least 0; match the sweep's lease grace).
        repair: Quarantine corrupt files.
        gc: Collect stale/orphaned files.
    """
    root_paths = [Path(root) for root in roots]
    report = FsckReport(roots=root_paths, grace=float(grace))
    files = list(_iter_files(root_paths))
    cache_findings = {
        path: _classify_cache_entry(path)
        for path in files
        if cache_entry_version(path) is not None
    }
    cache_keys = {
        path.stem for path, f in cache_findings.items() if f.status == "ok"
    }
    for path in files:
        finding = cache_findings.get(path) or classify(
            path, report.grace, cache_keys
        )
        report.findings.append(finding)
        if repair and finding.status == "corrupt":
            _repair(finding)
            if finding.action == "repaired":
                report.repaired += 1
        if gc and finding.status in ("stale", "orphaned"):
            _collect(finding)
            if finding.action == "collected":
                report.collected += 1
    return report


def format_summary(report: FsckReport) -> str:
    """Human-readable multi-line summary of an audit pass."""
    counts = report.counts()
    lines = [
        "fsck: "
        + ", ".join(f"{counts[status]} {status}" for status in STATUSES)
        + f" across {len(report.findings)} file(s)"
    ]
    for finding in report.findings:
        if finding.status == "ok" and not finding.action:
            continue
        suffix = f" [{finding.action}]" if finding.action else ""
        lines.append(
            f"  {finding.status:>8}  {finding.path}  "
            f"({finding.sink}: {finding.detail}){suffix}"
        )
    if report.repaired or report.collected:
        lines.append(
            f"fsck: repaired {report.repaired}, collected {report.collected}"
        )
    return "\n".join(lines)
