"""Write ``expected_stats.json``: the statistics each workload must reproduce.

    python3 perfbench/expect.py     # from the root of a checkout

Runs one cold sample of every workload and records, per workload, the
sorted digests of its runs' statistics (``sample.stats_digest``).  The
benchmark counts every run of its first sample that these digests do
not account for as failed.  The digests do not depend on ``--seed``,
which only orders the runs.  Regenerate the file only with a change that
is meant to alter simulated results, as ``tests/data/golden_stats.json``
would be.
"""

import json
import shutil
import sys
from pathlib import Path

from run import EXPECTED, WORK_DIRNAME, missing_checkout_parts
from sample import run_sample


def main() -> int:
    root = Path.cwd()
    missing = missing_checkout_parts(root)
    if missing:
        print("expect: run from the root of a repro checkout; missing "
              + ", ".join(missing), file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from workloads import WORKLOADS, benchmarks_for, cli_args

    work = root / WORK_DIRNAME / "expect"
    shutil.rmtree(work, ignore_errors=True)
    expected = {}
    for name, workload in WORKLOADS.items():
        sample = run_sample(root, work / name,
                            cli_args(workload, benchmarks_for(workload, 0)))
        if sample.returncode != 0:
            print(f"expect: {name} exited {sample.returncode}:\n"
                  + sample.stderr[-2000:], file=sys.stderr)
            return 1
        expected[name] = sorted(sample.run_digests().values())
        print(f"{name}: {len(expected[name])} runs, digest {sample.digest()}")
    EXPECTED.write_text(json.dumps(expected, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
