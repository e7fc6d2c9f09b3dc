"""Memory-access coalescing for warp memory instructions.

On the modelled 8800GT-class hardware, the per-thread addresses of one warp
memory instruction are coalesced into line-sized (64B) memory transactions.
Fully coalesced accesses (consecutive 4-byte elements) touch 2 lines per
32-thread warp; fully uncoalesced accesses (per-thread stride of a line or
more) touch one line per thread, up to 32 transactions — the paper's
"uncoal-type" benchmarks are dominated by these.

Coalescing happens at trace-generation time in this simulator (the trace
stores the resulting line sets), but the logic lives here so it is testable
and reusable.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from repro.core.base import LINE_BYTES

#: Threads per warp (CUDA).  The trace generator, the coalescer and the
#: core's resident-thread limit all assume it; no config field sets it.
WARP_SIZE = 32


def line_of(addr: int, line_bytes: int = LINE_BYTES) -> int:
    """64B-align a byte address."""
    return (addr // line_bytes) * line_bytes


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


def coalesce_warp_access(
    base: int,
    lane_stride: int,
    warp_size: int = WARP_SIZE,
    line_bytes: int = LINE_BYTES,
) -> Tuple[int, ...]:
    """Convenience: coalesced line set of a strided warp access."""
    return coalesce(warp_addresses(base, lane_stride, warp_size), line_bytes)


def lines_for_footprint(
    base: int, footprint_bytes: int, line_bytes: int = LINE_BYTES
) -> Tuple[int, ...]:
    """All line addresses overlapping [base, base + footprint_bytes)."""
    if footprint_bytes <= 0:
        return ()
    first = (base // line_bytes) * line_bytes
    last = ((base + footprint_bytes - 1) // line_bytes) * line_bytes
    return tuple(range(first, last + line_bytes, line_bytes))


def is_coalesced(addresses: Sequence[int], line_bytes: int = LINE_BYTES) -> bool:
    """True when a warp access needs at most 2 transactions per 32 lanes."""
    if not addresses:
        return True
    max_transactions = max(1, (len(addresses) + 15) // 16)
    return len(coalesce(addresses, line_bytes)) <= max_transactions
