"""Unit + property tests for memory coalescing."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.coalescer import coalesce, warp_addresses
from repro.trace.tracegen import warp_lines


class TestBasics:
    """The line sets :func:`warp_lines` gives every trace access."""

    def test_fully_coalesced_float_access(self):
        """32 consecutive 4-byte elements -> 2 transactions."""
        assert warp_lines(base=0, lane_stride=4) == (0, 64)

    def test_unaligned_coalesced_access(self):
        assert warp_lines(base=32, lane_stride=4) == (0, 64, 128)

    def test_fully_uncoalesced_access(self):
        """Per-lane stride of one line -> one transaction per lane."""
        lines = warp_lines(base=0, lane_stride=64)
        assert len(lines) == 32
        assert lines == tuple(range(0, 32 * 64, 64))

    def test_broadcast_access(self):
        assert warp_lines(base=256, lane_stride=0) == (256,)


class TestProperties:
    @given(base=st.integers(0, 1 << 30), stride=st.integers(0, 256))
    @settings(max_examples=200)
    def test_fast_paths_match_general_coalescer(self, base, stride):
        """tracegen's fast-path warp_lines == the general coalescer."""
        expected = set(coalesce(warp_addresses(base, stride)))
        got = set(warp_lines(base, stride))
        assert got == expected

    @given(
        base=st.integers(0, 1 << 30),
        stride=st.integers(0, 256),
        active=st.integers(1, 32),
    )
    @settings(max_examples=200)
    def test_active_lanes_subset(self, base, stride, active):
        partial = set(warp_lines(base, stride, active))
        full = set(warp_lines(base, stride, 32))
        assert partial <= full
        assert len(partial) <= active

    @given(addrs=st.lists(st.integers(0, 1 << 20), max_size=64))
    @settings(max_examples=200)
    def test_coalesce_invariants(self, addrs):
        lines = coalesce(addrs)
        # All aligned, unique, and covering every address.
        assert all(line % 64 == 0 for line in lines)
        assert len(set(lines)) == len(lines)
        assert {a // 64 * 64 for a in addrs} == set(lines)
