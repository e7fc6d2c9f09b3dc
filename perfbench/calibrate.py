"""Host-speed calibration for the end-to-end timings.

The benchmark runs on shared hosts whose speed drifts and jitters: on
the 2-CPU VM it was written on, the same cold ``table4-cold`` sample took
2.8 s in one minute and 5.2 s a few minutes later, a piece (below) took
anywhere from 0.26 s to 0.54 s within one 30-second run, and every
process on the host slowed down and sped up together.  Medians over a
run remove some of that jitter but not the drift, so the quartile spread
of raw wall times over ten runs reached 27%.

A calibration piece is a fixed pure-Python workload that shares no code
with ``repro``: a small discrete-event loop over a heap and a dict, and
scattered attribute updates over a working set of 131 072 objects, the two
kinds of interpreter work the simulator does.  The benchmark measures
in rounds (set-up probes, then one sample) and times a piece before the
first round and after every round.  It rescales the run's timings to the
*reference speed*, at which a piece takes :data:`REFERENCE_S` seconds:
they are multiplied by ``REFERENCE_S / mean(piece times)``.  One factor
per run, from the mean, follows the drift between runs; within a run a
piece predicts the sample next to it only weakly (README.md has the
figures), so rescaling round by round added noise.  The pieces share no
code with ``repro``, so a change to the program moves the rescaled
timings exactly as it moves the raw ones.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time
from typing import Sequence

#: Seconds one piece takes at the reference speed: about its median on
#: the 2-CPU x86_64 VM the benchmark was written on.
REFERENCE_S = 0.4

#: Objects in the scattered-update working set.
WORKING_SET = 1 << 17


class _Record:
    __slots__ = ("addr", "ready", "hits")

    def __init__(self, addr: int) -> None:
        self.addr = addr
        self.ready = 0
        self.hits = 0


def _event_loop(steps: int = 200_000) -> int:
    heap = [(i, i) for i in range(64)]
    counts = [0] * 64
    table = {}
    total = 0
    for step in range(steps):
        when, slot = heapq.heappop(heap)
        counts[slot] += 1
        table[(slot, counts[slot] & 7)] = when
        total += len(table) & 3
        heapq.heappush(heap, (when + 1 + (slot * 7 + step) % 13, slot))
    return total


def _scattered_updates(steps: int = 150_000) -> int:
    records = [_Record(i * 64) for i in range(WORKING_SET)]
    index = {}
    state = 12345
    total = 0
    for step in range(steps):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        record = records[state % WORKING_SET]
        record.hits += 1
        record.ready = step + (state & 15)
        page = record.addr >> 12
        index[page] = index.get(page, 0) + 1
        total += record.ready & 1
    return total


def piece() -> float:
    """Seconds one calibration piece takes on the host right now.

    The cyclic garbage collector is off during the piece: its passes
    scan every object of the process, so they would make the piece's
    time depend on what else this process holds.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        _event_loop()
        _scattered_updates()
        return time.perf_counter() - start
    finally:
        gc.enable()


def speed_factor(pieces: Sequence[float]) -> float:
    """Multiplier taking a run's host timings to the reference speed."""
    return REFERENCE_S / statistics.mean(pieces)
