"""Issue scan ≡ the full warp walk it replaced, call for call.

:meth:`Core.try_issue` meets only the warps whose bit is set in the
core's issue mask, from ``_rr_index`` upward and then from position 0,
and parks a warp whose next instruction waits on an incomplete load
token until :meth:`Core.on_response` completes it.  The walk it
replaced examined every resident warp from ``_rr_index`` behind a
ready-cycle gate, returned ``(issued, min_ready)``, and slept the core
until ``wake_cycle``.  The determinism suite pins byte-identical stats
across that change, so this suite keeps the old walk and its run-loop
step as the reference and requires, on every cycle, the same poll
decision, pick, ``_rr_index``, port release, stall count, blocked and
credit state and event candidate, and a ``min_ready`` of None: the gate
never fired, since a warp's ready cycle was its own last issue's port
release and a core is polled only once its port is free.

Streams mix dependent loads, stores, software prefetches and compute
of three latencies over a small MRQ, so MRQ-full stalls, chunked issue
of loads wider than the MRQ, parked warps and block compaction are
common; several blocks per core retire and refill, which leaves
``_rr_index`` past the compacted warp list now and then.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.throttle import ThrottleConfig, ThrottleEngine
from repro.sim.config import CoreConfig, baseline_config
from repro.sim.core import Core
from repro.sim.isa import Op, compute, fdiv, imul, load, prefetch, store


class _FullWalkCore(Core):
    """The full warp walk, kept as the reference."""

    __slots__ = ("asleep", "wake_cycle", "ready", "wrapped_scans")

    def __init__(self, core_id, config, throttle):
        super().__init__(core_id, config, throttle=throttle)
        self.asleep = False
        self.wake_cycle = None
        self.ready = {}  # warp id -> the cycle its ready gate opens
        self.wrapped_scans = 0

    def try_issue(self, cycle):
        if self.port_free_cycle > cycle:
            self.asleep = True
            self.wake_cycle = self.port_free_cycle
            self.sleep_credit = False
            self.woken = False
            return False, self.port_free_cycle
        self.asleep = False
        warps = self.warps
        num_warps = len(warps)
        if num_warps == 0:
            self.asleep = True
            self.wake_cycle = None
            self.sleep_credit = False
            self.woken = False
            return False, None
        impure = False
        min_ready = None
        index = self._rr_index
        self.wrapped_scans += index >= num_warps
        for _ in range(num_warps):
            if index >= num_warps:
                index -= num_warps
            warp = warps[index]
            index += 1
            if warp.finished:
                continue
            ready_cycle = self.ready.get(warp.warp_id, 0)
            if ready_cycle > cycle:
                if min_ready is None or ready_cycle < min_ready:
                    min_ready = ready_cycle
                continue
            inst = warp.stream[warp.pc_index]
            wait = inst.wait_tokens
            if wait and not warp.tokens_done.issuperset(wait):
                continue
            if not inst.is_memory:
                free = cycle + self._issue_cycles[inst.op]
                self.port_free_cycle = free
                self.instructions += 1
                pc_index = warp.pc_index + 1
                warp.pc_index = pc_index
                if pc_index >= len(warp.stream):
                    warp.finished = True
                    self._retire_warp(warp)
            elif warp.line_offset > 0:
                if not self._issue_chunk(warp, inst, cycle):
                    impure = True
                    continue
            elif (
                inst.global_memory
                and inst.op != Op.PREFETCH
                and not self._mrq_has_room(inst)
            ):
                if self._mrq_new_lines(inst) <= self.mrq.size:
                    continue
                if not self._issue_chunk(warp, inst, cycle):
                    impure = True
                    continue
            else:
                self._issue(warp, inst, cycle)
            # Every issue path set the warp's ready cycle to the port's
            # release.
            self.ready[warp.warp_id] = self.port_free_cycle
            self._rr_index = index if index < num_warps else 0
            self.asleep = True
            self.wake_cycle = self.port_free_cycle
            self.sleep_credit = False
            self.woken = False
            return True, None
        self.stall_cycles += 1
        if not impure:
            self.asleep = True
            self.wake_cycle = min_ready
            self.sleep_credit = True
            self.woken = False
        return False, min_ready

    def loop_step(self, cycle):
        """The old run loop's issue step: (polled, issued, event candidate)."""
        if self.asleep:
            wake = self.wake_cycle
            if wake is None or wake > cycle:
                if not self.woken:
                    if self.sleep_credit:
                        self.stall_cycles += 1
                    return False, False, wake
                if self.port_free_cycle > cycle:
                    self.woken = False
                    return False, False, wake
            self.asleep = False
            self.woken = False
        issued, min_ready = self.try_issue(cycle)
        assert min_ready is None, (
            f"the ready gate fired: min_ready {min_ready} at cycle {cycle}"
        )
        if issued:
            return True, True, self.port_free_cycle
        return True, False, min_ready


def _loop_step(core, cycle):
    """The run loop's issue step for one core: (polled, issued, event)."""
    free = core.port_free_cycle
    if free > cycle:
        return False, False, free
    if core.blocked:
        if not core.woken:
            if core.sleep_credit:
                core.stall_cycles += 1
            return False, False, None
        core.blocked = False
    if core.try_issue(cycle):
        return True, True, core.port_free_cycle
    return True, False, None


def _make_pair(mrq_size, max_blocks):
    config = baseline_config(core=CoreConfig(mrq_size=mrq_size))
    core = Core(0, config, throttle=ThrottleEngine(ThrottleConfig()))
    reference = _FullWalkCore(0, config, ThrottleEngine(ThrottleConfig()))
    core.max_blocks = reference.max_blocks = max_blocks
    return core, reference


def _state(core):
    """What a scan may change, beyond the warps' sleep bookkeeping."""
    return (
        core._rr_index, core.port_free_cycle, core.stall_cycles,
        core.instructions, core.demand_loads, core.prefetch_issued,
        core.mrq.total_full_rejections, core.pcache.total_misses,
        sorted(core.mrq._entries), core.warps_retired,
        [(w.warp_id, w.pc_index, w.line_offset, w.finished,
          sorted(w.tokens_done)) for w in core.warps],
    )


def _blocked(reference, issued):
    """The reference's blocked/credit state in the scan's terms."""
    blocked = reference.asleep and not issued
    return blocked, blocked and reference.sleep_credit


def _replay(mrq_size, max_blocks, blocks, latencies, sends, max_cycles=3000):
    """Drive the scan and the full walk through one workload in lock step.

    Each cycle delivers the due responses to both cores, fills free
    block slots, runs each loop's issue step, then sends up to the
    cycle's number of MRQ requests (a load's or prefetch's response
    arrives after the next latency of the cycle list).  Returns the
    number of scans the reference started with ``_rr_index`` past its
    warp list.
    """
    core, reference = _make_pair(mrq_size, max_blocks)
    queue = list(blocks)
    in_flight = []  # (due cycle, seq, scan-side request, reference request)
    seq = 0
    for cycle in range(max_cycles):
        due = [item for item in in_flight if item[0] <= cycle]
        in_flight = [item for item in in_flight if item[0] > cycle]
        for _, _, request, ref_request in sorted(due):
            core.on_response(request, cycle)
            reference.on_response(ref_request, cycle)
        while queue and core.has_free_block_slot():
            assert reference.has_free_block_slot()
            block = queue.pop(0)
            core.assign_block(block)
            reference.assign_block(block)
        step = _loop_step(core, cycle)
        ref_step = reference.loop_step(cycle)
        assert step == ref_step, f"cycle {cycle}: {step} != {ref_step}"
        assert _state(core) == _state(reference), f"cycle {cycle}"
        if step[0]:
            assert (core.blocked, core.blocked and core.sleep_credit) == (
                _blocked(reference, step[1])
            ), f"cycle {cycle}"
            if core.blocked:
                assert not core.woken and not reference.woken
        for _ in range(sends[cycle % len(sends)]):
            request = core.mrq.pop_sendable(cycle)
            ref_request = reference.mrq.pop_sendable(cycle)
            assert (request is None) == (ref_request is None)
            if request is None:
                break
            assert request.line_addr == ref_request.line_addr
            if not request.is_store:
                latency = latencies[seq % len(latencies)]
                in_flight.append((cycle + latency, seq, request, ref_request))
                seq += 1
        if not queue and core.drained and not in_flight:
            assert reference.drained
            break
    return reference.wrapped_scans


@st.composite
def _workloads(draw):
    """A handful of equal blocks of small warps over a small MRQ.

    Each warp's loads produce fresh tokens, and a dependent instruction
    waits on one or two tokens of earlier loads of the same warp, so
    every dependency can be met.  Lines come from a pool of a dozen, so
    merges, prefetch-cache hits and MRQ-full stalls are frequent; a load
    may touch more lines than the MRQ holds, which issues in chunks.
    """
    mrq_size = draw(st.integers(1, 4))
    max_blocks = draw(st.integers(1, 3))
    lines = st.lists(st.integers(0, 11).map(lambda n: n * 128), min_size=1,
                     max_size=6, unique=True)
    kinds = st.sampled_from(
        ("compute", "imul", "fdiv", "load", "dependent", "store", "prefetch")
    )
    # A kernel's blocks all hold its warps-per-block, which keeps
    # ``_rr_index`` below twice a compacted list's length: with a
    # smaller block behind a larger one, the reference walk indexes
    # past its list.
    warps_per_block = draw(st.integers(1, 4))
    blocks = []
    warp_id = 0
    for block_id in range(draw(st.integers(1, 5))):
        warps = []
        for _ in range(warps_per_block):
            stream, tokens = [], []
            for pc, kind in enumerate(draw(st.lists(kinds, min_size=1,
                                                    max_size=8))):
                waits = ()
                if tokens and (kind == "dependent" or draw(st.booleans())):
                    waits = tuple(sorted(set(draw(
                        st.lists(st.sampled_from(tokens), min_size=1,
                                 max_size=2)))))
                if kind == "load":
                    stream.append(load(pc, len(tokens), draw(lines),
                                       wait_tokens=waits))
                    tokens.append(len(tokens))
                elif kind == "store":
                    stream.append(store(pc, draw(lines), wait_tokens=waits))
                elif kind == "prefetch":
                    stream.append(prefetch(pc, draw(lines)))
                else:
                    build = {"imul": imul, "fdiv": fdiv}.get(kind, compute)
                    stream.append(build(pc, wait_tokens=waits))
            warps.append((warp_id, stream))
            warp_id += 1
        blocks.append((block_id, warps))
    latencies = draw(st.lists(st.integers(1, 40), min_size=1, max_size=8))
    sends = draw(st.lists(st.integers(0, 2), min_size=1, max_size=6).filter(any))
    return mrq_size, max_blocks, blocks, latencies, sends


class TestIssueScanEquivalence:
    @given(workload=_workloads())
    @settings(max_examples=200, deadline=None)
    def test_scan_matches_the_full_walk_on_every_cycle(self, workload):
        _replay(*workload)

    def test_scan_wraps_a_pointer_left_past_a_compacted_block(self):
        """An issue that retires a block can leave ``_rr_index`` past the
        compacted list; the next scan wraps it once, not to position 0.

        Round robin over a0 a1 b0 b1: b1 retires first, then b0's last
        issue, at position 2, sets ``_rr_index`` to 3 and compacts block
        b away.  The next scan must start at a1 (3 - 2 = 1), not a0.
        """
        blocks = [
            (0, [(0, [compute()] * 6), (1, [compute()] * 6)]),
            (1, [(2, [compute()] * 2), (3, [compute()])]),
        ]
        assert _replay(4, 2, blocks, [5], [1]) == 1

    def test_parked_warp_waits_for_its_token(self):
        """A warp parks on its dependent instruction and the response
        that completes the token brings it back into the scan."""
        blocks = [(0, [
            (0, [load(0, 0, [0]), compute(1, wait_tokens=[0])]),
            (1, [fdiv(0)] * 3),
        ])]
        _replay(4, 1, blocks, [50], [1])
        core, _ = _make_pair(4, 1)
        core.assign_block(blocks[0])
        assert core.try_issue(0)          # warp 0's load
        assert core.try_issue(4)          # warp 1's first divide
        assert core.try_issue(36)         # warp 0 parks, warp 1 divides
        assert core.warps[0].parked and core._issuable == 0b10
        core.on_response(core.mrq.pop_sendable(37), 90)
        assert not core.warps[0].parked and core._issuable == 0b11
