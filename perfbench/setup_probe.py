"""Set-up probe: ``python perfbench/setup_probe.py <repro arguments>``.

Runs ``repro.cli.main`` as ``python -m repro`` would, but stops at the
first call into the sweep engine, the moment the CLI is ready to
simulate, and prints that moment as ``time.monotonic()`` seconds.  The
caller subtracts its spawn time: interpreter start, imports, argument
parsing, runner and cache construction.
"""

import os
import sys
import time


class _Ready(Exception):
    pass


def _ready(*args, **kwargs):
    raise _Ready(time.monotonic())


def main(argv):
    import repro.cli
    from repro.harness.sweep import SweepEngine

    SweepEngine.run = _ready
    try:
        repro.cli.main(argv)
    except _Ready as ready:
        print(repr(ready.args[0]), flush=True)
        # Nothing was simulated or written; skip interpreter teardown.
        os._exit(0)
    print("setup probe: the command never reached the sweep engine",
          file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
