"""Memory-access coalescing for warp memory instructions.

On the modelled 8800GT-class hardware, the per-thread addresses of one warp
memory instruction are coalesced into line-sized (64B) memory transactions.
Fully coalesced accesses (consecutive 4-byte elements) touch 2 lines per
32-thread warp; fully uncoalesced accesses (per-thread stride of a line or
more) touch one line per thread, up to 32 transactions — the paper's
"uncoal-type" benchmarks are dominated by these.

Coalescing happens at trace-generation time in this simulator (the trace
stores the resulting line sets); the general coalescer lives here.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from repro.core.base import LINE_BYTES

#: Threads per warp (CUDA).  The trace generator, the coalescer and the
#: core's resident-thread limit all assume it; no config field sets it.
WARP_SIZE = 32


def coalesce(addresses: Iterable[int], line_bytes: int = LINE_BYTES) -> Tuple[int, ...]:
    """Coalesce per-thread byte addresses into unique, ordered line addresses.

    The result preserves first-touch order (the order memory transactions are
    generated), which keeps traces deterministic.
    """
    seen = set()
    lines: List[int] = []
    for addr in addresses:
        line = (addr // line_bytes) * line_bytes
        if line not in seen:
            seen.add(line)
            lines.append(line)
    return tuple(lines)


def warp_addresses(
    base: int, lane_stride: int, warp_size: int = WARP_SIZE
) -> List[int]:
    """Per-lane byte addresses for a warp access.

    ``lane_stride`` is the byte distance between consecutive lanes'
    elements: the element size gives a fully coalesced access; >= 64
    bytes is fully uncoalesced.
    """
    return [base + lane * lane_stride for lane in range(warp_size)]
