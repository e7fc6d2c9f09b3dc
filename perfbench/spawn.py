"""Run one command; report its wall time, exit status and peak RSS.

    python perfbench/spawn.py <report.json> <command> [<argument> ...]

The command inherits this process's standard streams, directory and
environment.  The report holds the ``time.monotonic()`` seconds just
before the spawn and just after the exit, the exit status, and the
``ru_maxrss`` of the command and every descendant it reaped.

A process's ``ru_maxrss`` also counts the resident set of the process
that exec'd it, so the benchmark spawns every timed command through this
small interpreter rather than from its own larger process.
"""

import json
import os
import subprocess
import sys
import time


def main(argv):
    report, command = argv[0], argv[1:]
    start = time.monotonic()
    proc = subprocess.Popen(command)
    _, status, usage = os.wait4(proc.pid, 0)
    end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(report, "w", encoding="utf-8") as handle:
        json.dump({"start": start, "end": end, "returncode": proc.returncode,
                   "maxrss_kb": usage.ru_maxrss}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
