"""Traced launcher: ``python perfbench/traced_cli.py <repro arguments>``.

Behaves like ``python -m repro <repro arguments>`` with the span wrappers
of :mod:`tracing` installed, writing span files into
``$PERFBENCH_SPAN_DIR``.  It records the import of ``repro.cli`` as the
``cli.import`` span and its own start time in ``launcher.json`` there,
so the caller can add the interpreter start-up before it.
"""

import json
import os
import sys
import time

START = time.monotonic()

import tracing  # noqa: E402  (stdlib only; START must come first)


def main(argv):
    span_dir = os.environ[tracing.SPAN_DIR_ENV]
    import_start = time.monotonic()
    import repro.cli
    import_end = time.monotonic()
    tracer = tracing.install(span_dir)
    tracer.spans.append([f"{tracer.pid}:0", None, "cli.import", import_start,
                         import_end, None, tracer.pid, None])
    with open(os.path.join(span_dir, "launcher.json"), "w", encoding="utf-8") as handle:
        json.dump({"pid": tracer.pid, "start": START}, handle)
    return repro.cli.main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
elif __name__ == "__mp_main__":
    # A spawned pool worker re-imports this script under this name
    # before it runs any task: trace its runs too.
    tracing.install(os.environ[tracing.SPAN_DIR_ENV])
