"""Warp execution state.

A warp is the smallest unit of hardware execution (paper Section II-A).  The
core's in-order scheduler issues one warp-instruction at a time from some
ready warp, switching warps when source operands are not ready.  Warp state
tracks the position in the warp's trace and the outstanding load tokens.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.sim.isa import WarpInstruction


class Warp:
    """One warp's dynamic execution state on a core."""

    __slots__ = (
        "warp_id",
        "block_id",
        "stream",
        "pc_index",
        "tokens_done",
        "_pending_lines",
        "finished",
        "slot",
        "parked",
    )

    #: The instruction stream is static: a snapshot does not store it, and
    #: restore re-links it by warp id (``GpuSimulator.after_restore``).
    snapshot_static = ("stream",)
    #: The core's scan state, rebuilt by ``Core.after_restore``.
    snapshot_derived = ("slot", "parked")

    def __init__(self, warp_id: int, block_id: int, stream: List[WarpInstruction]) -> None:
        self.warp_id = warp_id
        self.block_id = block_id
        self.stream = stream
        self.pc_index = 0
        self.tokens_done: Set[int] = set()
        self._pending_lines: Dict[int, int] = {}
        #: Kept as a plain attribute (not a property over ``pc_index``):
        #: the issue loop and the core's drain check read it once per warp
        #: per eventful cycle, making it the single hottest attribute in
        #: the simulator.  Only :meth:`advance` (and its inlined copy on
        #: ``Core.try_issue``'s compute path) moves ``pc_index``, so it is
        #: updated there.
        self.finished = not stream
        #: Position in the owning core's warp list (its issue-mask bit).
        self.slot = 0
        #: True while the core's scan has set the warp aside because its
        #: next instruction waits on an incomplete load token.
        self.parked = False

    def peek(self) -> Optional[WarpInstruction]:
        """The next instruction to issue, or None when finished."""
        if self.finished:
            return None
        return self.stream[self.pc_index]

    def deps_ready(self, inst: WarpInstruction) -> bool:
        """True when every load token the instruction waits on is complete."""
        wait = inst.wait_tokens
        if not wait:
            return True
        return self.tokens_done.issuperset(wait)

    def blocked_on_tokens(self) -> bool:
        """True when the next instruction waits on an outstanding load."""
        inst = self.peek()
        return inst is not None and not self.deps_ready(inst)

    def begin_load(self, token: int, num_lines: int) -> None:
        """Record an issued LOAD with ``num_lines`` outstanding lines.

        A zero-line load (e.g. fully cache-hit at issue) completes
        immediately.
        """
        if num_lines <= 0:
            self.tokens_done.add(token)
        else:
            self._pending_lines[token] = num_lines

    def line_complete(self, token: int) -> bool:
        """One line of load ``token`` arrived; True if the token completed."""
        remaining = self._pending_lines.get(token)
        if remaining is None:
            return token in self.tokens_done
        if remaining <= 1:
            del self._pending_lines[token]
            self.tokens_done.add(token)
            return True
        self._pending_lines[token] = remaining - 1
        return False

    def advance(self) -> None:
        """Consume the current instruction."""
        self.pc_index += 1
        if self.pc_index >= len(self.stream):
            self.finished = True
