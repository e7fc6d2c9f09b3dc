"""Hardware prefetcher interface.

A hardware prefetcher observes the core's demand global-load stream —
``(pc, warp_id, base_address)`` triples — and returns byte addresses to
prefetch.  Aggressiveness is characterized by two parameters (paper
Section II-C3):

* **prefetch distance** — how far ahead of the triggering demand address the
  prefetch targets are, in units of the detected stride;
* **prefetch degree** — how many consecutive targets one trigger generates.

Naive (as-proposed-for-CPUs) prefetchers ignore ``warp_id``; the enhanced
versions evaluated in Section VIII-A incorporate it into their table index,
which the paper shows is necessary because warp interleaving otherwise makes
a strongly-strided per-warp stream look random (Fig. 5).
"""

from __future__ import annotations

import abc
from typing import Dict, List

#: Bytes per memory transaction (line).  Prefetchers align their targets
#: to it, the trace generator coalesces every access to these lines, and
#: the prefetch cache, the DRAM address map and the cores move them; no
#: config field sets it.
LINE_BYTES = 64


class HardwarePrefetcher(abc.ABC):
    """Base class for all hardware prefetchers.

    Prefetchers keep their fields in ``__slots__``; a subclass whose name
    varies per instance adds ``name`` to its own slots.
    """

    __slots__ = ("distance", "degree", "triggers", "observations")

    #: Human-readable identifier used by the experiment harness.
    name: str = "base"

    def __init__(self, distance: int = 1, degree: int = 1) -> None:
        if distance < 1 or degree < 1:
            raise ValueError("prefetch distance and degree must be >= 1")
        self.distance = distance
        self.degree = degree
        self.triggers = 0
        self.observations = 0

    @abc.abstractmethod
    def observe(self, pc: int, warp_id: int, addr: int, cycle: int) -> List[int]:
        """Train on a demand access and return prefetch target addresses."""

    def targets_from_stride(self, addr: int, stride: int) -> List[int]:
        """Expand (addr, stride) into distance/degree many targets."""
        if stride == 0:
            return []
        return [
            addr + stride * (self.distance + k) for k in range(self.degree)
        ]

    def _tables(self):
        """The prefetcher's LRU tables, for diagnostic aggregation.

        Subclasses with training tables override this; the profiler sums
        each table's lookup/hit tallies into its ``table_lookups`` /
        ``table_hits`` counts at the end of an instrumented run.
        """
        return ()

    def table_stats(self) -> Dict[str, int]:
        """Aggregate lookup/hit tallies over all tables (diagnostics)."""
        lookups = 0
        hits = 0
        for table in self._tables():
            lookups += table.lookups
            hits += table.hits
        return {"lookups": lookups, "hits": hits}

    def periodic_update(self, metrics: Dict[str, float]) -> None:
        """Hook for feedback-directed variants; called once per period.

        ``metrics`` carries per-window ``accuracy``, ``lateness``,
        ``issued``, ``useful`` and ``late`` values measured by the core.
        The base implementation ignores feedback.
        """

    def reset(self) -> None:
        """Forget all training state (used between kernels in tests)."""
        self.triggers = 0
        self.observations = 0


class NullPrefetcher(HardwarePrefetcher):
    """A prefetcher that never prefetches (the no-prefetching baseline)."""

    __slots__ = ()

    name = "none"

    def observe(self, pc: int, warp_id: int, addr: int, cycle: int) -> List[int]:
        self.observations += 1
        return []
