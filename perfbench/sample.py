"""One sample: a fresh ``repro`` process regenerating an exhibit cold.

A sample spawns the command in its own directory with an empty result
cache, through ``spawn.py``, which waits for it with ``os.wait4``: its
resource usage covers the process and every descendant it reaped (the
pool workers), so ``ru_maxrss`` is the largest resident set of any
process in the sample.
The simulated statistics are read back from the sample's result cache,
one entry per completed run, keyed by run fingerprint.
"""

from __future__ import annotations

import collections
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: Directory, relative to a sample's directory, that holds its result cache.
CACHE_DIRNAME = "cache"

#: The spawner every timed command runs under.
SPAWN = Path(__file__).resolve().parent / "spawn.py"


@dataclass
class Sample:
    """What one spawned command did and produced."""

    directory: Path
    returncode: int
    spawn: float
    exit: float
    peak_rss_mb: float
    exhibit: str
    stderr: str
    stats: Dict[str, dict] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        """Host seconds from spawn to exit."""
        return self.exit - self.spawn

    @property
    def cycles(self) -> int:
        """Simulated cycles summed over the sample's runs."""
        return sum(stats["cycles"] for stats in self.stats.values())

    def run_digests(self) -> Dict[str, str]:
        """Fingerprint -> SHA-256 of that run's canonical statistics."""
        return {key: stats_digest(stats) for key, stats in self.stats.items()}

    def digest(self) -> str:
        """SHA-256 over the sorted run digests.

        It covers every run's statistics but not the fingerprints, so a
        change to how runs are keyed leaves it alone.
        """
        joined = "\n".join(sorted(self.run_digests().values()))
        return hashlib.sha256(joined.encode()).hexdigest()


def stats_digest(stats: dict) -> str:
    """SHA-256 of one run's statistics, serialized as the golden file's."""
    canonical = json.dumps(stats, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def child_env(root: Path, directory: Path) -> Dict[str, str]:
    """Environment for a spawned command: the checkout's sources, no
    inherited ``REPRO_*`` settings, and temporary files kept inside the
    sample's directory."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(root / "src")
    tmp = directory / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def spawn(argv: Sequence[str], directory: Path, env: Dict[str, str]
          ) -> Tuple[int, float, float, float]:
    """Run ``argv`` in ``directory``; stdout and stderr go to files there.

    The command runs under ``spawn.py``, which times it and reads its
    resource usage.  Returns (exit code, spawn time, exit time, peak RSS
    in MB).
    """
    report = directory / "spawn.json"
    report.unlink(missing_ok=True)
    with open(directory / "stdout.txt", "wb") as out, \
            open(directory / "stderr.txt", "wb") as err:
        subprocess.run([sys.executable, str(SPAWN), str(report), *argv],
                       cwd=directory, env=env, stdout=out, stderr=err,
                       check=True)
    with open(report, encoding="utf-8") as handle:
        done = json.load(handle)
    # ru_maxrss is in kilobytes on Linux.
    return (done["returncode"], done["start"], done["end"],
            done["maxrss_kb"] / 1024.0)


def read_cache(cache_root: Path) -> Dict[str, dict]:
    """Fingerprint -> stats for every readable entry of a result cache.

    Entries live at ``<root>/v<schema>/<key[:2]>/<key>.json``; quarantined
    ``.corrupt`` files, lease files and the dot-named scratch files of
    interrupted writes do not match that pattern.  An entry that cannot
    be read is reported and left out, so its run counts as failed.
    """
    stats: Dict[str, dict] = {}
    for path in sorted(cache_root.glob("v*/??/[!.]*.json")):
        try:
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
            stats[payload["key"]] = payload["stats"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"perfbench: unreadable cache entry {path}: {exc!r}",
                  file=sys.stderr)
    return stats


def run_sample(root: Path, directory: Path, cli_args: Sequence[str],
               launcher: Optional[Sequence[str]] = None,
               extra_env: Optional[Dict[str, str]] = None) -> Sample:
    """Regenerate one exhibit in ``directory`` with its own result cache.

    ``launcher`` replaces ``python -m repro`` (the traced run uses the
    tracing launcher); ``cli_args`` are the ``repro`` arguments without
    ``--cache-dir``.  Reusing a directory re-runs over its filled cache.
    """
    directory.mkdir(parents=True, exist_ok=True)
    env = child_env(root, directory)
    env.update(extra_env or {})
    prefix = list(launcher) if launcher else [sys.executable, "-m", "repro"]
    argv = prefix + list(cli_args) + ["--cache-dir", CACHE_DIRNAME]
    code, start, end, rss = spawn(argv, directory, env)
    return Sample(
        directory=directory,
        returncode=code,
        spawn=start,
        exit=end,
        peak_rss_mb=rss,
        exhibit=(directory / "stdout.txt").read_text(encoding="utf-8"),
        stderr=(directory / "stderr.txt").read_text(encoding="utf-8",
                                                    errors="replace"),
        stats=read_cache(directory / CACHE_DIRNAME),
    )


def failed_runs(reference: Sample, sample: Sample) -> List[str]:
    """Runs of ``sample`` that failed against the reference sample.

    A run fails when it is missing from the sample's cache (it failed or
    ran out of retries), when its statistics differ from the reference,
    or when it is absent from the reference.  A sample that exited
    nonzero or rendered a different exhibit with every run intact counts
    one failure, so no broken sample passes as clean.
    """
    keys = set(reference.stats) | set(sample.stats)
    failed = sorted(k for k in keys
                    if reference.stats.get(k) != sample.stats.get(k))
    if not failed and (sample.returncode != 0
                       or sample.exhibit != reference.exhibit):
        failed = ["<process>"]
    return failed


def unexpected_runs(expected: Sequence[str], sample: Sample) -> List[str]:
    """Runs of ``sample`` that the expected run digests do not account for.

    ``expected`` holds one statistics digest per run of the workload.
    The two are compared as multisets, independent of fingerprints: a run
    whose statistics changed is one failure (its new digest is unexpected
    and its old one missing), as is a missing or an extra run.
    """
    actual = sample.run_digests()
    extra = collections.Counter(actual.values()) - collections.Counter(expected)
    missing = collections.Counter(expected) - collections.Counter(actual.values())
    failed = []
    for key, digest in sorted(actual.items()):
        if extra[digest] > 0:
            extra[digest] -= 1
            failed.append(key)
    unmatched = sum(missing.values()) - len(failed)
    return failed + ["<missing expected run>"] * max(unmatched, 0)


def golden_gate(golden_path: Path) -> Tuple[int, List[str]]:
    """Re-simulate the golden specs in this process.

    Returns (specs attempted, requests whose serialized ``SimStats``
    differ from the golden capture or that raised).
    """
    from repro.harness.runner import make_spec, run_spec

    with open(golden_path, encoding="utf-8") as handle:
        runs = json.load(handle)["runs"]
    failed = []
    for run in runs:
        try:
            stats = run_spec(make_spec(**run["request"])).stats.to_dict()
        except Exception as exc:  # a crashing spec is a failed check
            failed.append(f"{run['request']}: {exc!r}")
            continue
        if stats_digest(stats) != run["sha256"]:
            failed.append(str(run["request"]))
    return len(runs), failed
