"""Unit tests for feedback-directed prefetchers and the LRU table."""

from repro.core.feedback import FeedbackGhbPrefetcher, LatenessThrottledStridePc
from repro.core.tables import LruTable
from repro.sim.checkpoint import dump_state, load_state


class TestLruTable:
    def test_put_get(self):
        table = LruTable(2)
        table.put("a", 1)
        assert table.get("a") == 1
        assert table.get("b") is None

    def test_eviction_order(self):
        table = LruTable(2)
        table.put("a", 1)
        table.put("b", 2)
        table.get("a")  # refresh
        evicted = table.put("c", 3)
        assert evicted == ("b", 2)
        assert table.evictions == 1

    def test_update_refreshes(self):
        table = LruTable(2)
        table.put("a", 1)
        table.put("b", 2)
        table.put("a", 10)
        evicted = table.put("c", 3)
        assert evicted == ("b", 2)
        assert table.get("a") == 10

    def test_get_without_touch(self):
        table = LruTable(2)
        table.put("a", 1)
        table.put("b", 2)
        table.get("a", touch=False)
        evicted = table.put("c", 3)
        assert evicted == ("a", 1)

    def test_capacity_validation(self):
        import pytest
        with pytest.raises(ValueError):
            LruTable(0)

    def test_items_lru_to_mru(self):
        table = LruTable(3)
        table.put("a", 1)
        table.put("b", 2)
        table.get("a")
        assert [k for k, _ in table.items()] == ["b", "a"]


class TestFeedbackGhb:
    def test_degree_increases_on_high_accuracy(self):
        pref = FeedbackGhbPrefetcher()
        pref.periodic_update({"issued": 100.0, "accuracy": 0.9})
        assert pref.degree == 2
        pref.periodic_update({"issued": 100.0, "accuracy": 0.9})
        pref.periodic_update({"issued": 100.0, "accuracy": 0.9})
        pref.periodic_update({"issued": 100.0, "accuracy": 0.9})
        assert pref.degree == pref.max_degree

    def test_degree_decreases_on_low_accuracy(self):
        pref = FeedbackGhbPrefetcher()
        pref.periodic_update({"issued": 100.0, "accuracy": 0.9})
        pref.periodic_update({"issued": 100.0, "accuracy": 0.1})
        assert pref.degree == 1
        pref.periodic_update({"issued": 100.0, "accuracy": 0.1})
        assert pref.degree == pref.min_degree

    def test_no_samples_no_change(self):
        pref = FeedbackGhbPrefetcher()
        pref.periodic_update({"issued": 0.0, "accuracy": 0.0})
        assert pref.degree == 1

    def test_is_warp_aware_by_default(self):
        assert FeedbackGhbPrefetcher().warp_aware


class TestLatenessThrottledStridePc:
    def train(self, pref, n=3):
        out = []
        for i in range(n):
            out = pref.observe(0x10, 0, i * 128, i)
        return out

    def test_high_lateness_raises_drop_fraction(self):
        pref = LatenessThrottledStridePc()
        pref.periodic_update({"issued": 100.0, "lateness": 0.9})
        assert pref.drop_fraction == 0.2
        for _ in range(10):
            pref.periodic_update({"issued": 100.0, "lateness": 0.9})
        assert pref.drop_fraction == pref.max_drop

    def test_low_lateness_relaxes(self):
        pref = LatenessThrottledStridePc()
        pref.periodic_update({"issued": 100.0, "lateness": 0.9})
        pref.periodic_update({"issued": 100.0, "lateness": 0.1})
        assert pref.drop_fraction == 0.0

    def test_drop_fraction_drops_generated_prefetches(self):
        pref = LatenessThrottledStridePc()
        pref.drop_fraction = 0.5
        fired = 0
        self.train(pref)
        for i in range(3, 43):
            if pref.observe(0x10, 0, i * 128, i):
                fired += 1
        assert 10 <= fired <= 30  # roughly half dropped
        assert pref.dropped > 0

    def test_zero_drop_fraction_transparent(self):
        pref = LatenessThrottledStridePc()
        targets = self.train(pref)
        assert targets  # trained stride fires normally

    def test_idle_windows_relax_throttle(self):
        pref = LatenessThrottledStridePc()
        pref.drop_fraction = 0.6
        pref.periodic_update({"issued": 0.0})
        assert abs(pref.drop_fraction - 0.4) < 1e-9


class TestDegreeHistoryCap:
    def test_history_is_bounded(self):
        from repro.core.feedback import DEGREE_HISTORY_CAP

        pref = FeedbackGhbPrefetcher()
        for _ in range(DEGREE_HISTORY_CAP * 3):
            pref.periodic_update({"issued": 100.0, "accuracy": 0.9})
        assert len(pref.degree_history) == DEGREE_HISTORY_CAP
        assert pref.degree_history.maxlen == DEGREE_HISTORY_CAP

    def test_summary_counters_cover_the_whole_run(self):
        """The deque only keeps the tail; min/max/updates summarize the
        full trajectory, including values the cap evicted."""
        from repro.core.feedback import DEGREE_HISTORY_CAP

        pref = FeedbackGhbPrefetcher(min_degree=1, max_degree=4)
        # Drive accuracy low first (degree sinks to min), then high for
        # long enough that the low-degree entries age out of the deque.
        for _ in range(3):
            pref.periodic_update({"issued": 100.0, "accuracy": 0.1})
        for _ in range(DEGREE_HISTORY_CAP + 10):
            pref.periodic_update({"issued": 100.0, "accuracy": 0.9})
        assert min(pref.degree_history) > pref.degree_min
        assert pref.degree_min == 1
        assert pref.degree_max == 4
        assert pref.degree_updates == DEGREE_HISTORY_CAP + 13

    def test_state_dict_round_trips_history_and_cap(self):
        """The snapshot codec round-trips the history with its cap."""
        pref = FeedbackGhbPrefetcher()
        for accuracy in (0.9, 0.9, 0.1, 0.9):
            pref.periodic_update({"issued": 100.0, "accuracy": accuracy})
        state = dump_state(pref)
        maxlen, _history = state["degree_history"]["q"]
        assert maxlen == pref.degree_history.maxlen
        clone = FeedbackGhbPrefetcher()
        load_state(state, clone)
        assert list(clone.degree_history) == list(pref.degree_history)
        assert clone.degree_history.maxlen == pref.degree_history.maxlen
        assert clone.degree_updates == pref.degree_updates
        assert clone.degree_min == pref.degree_min
        assert clone.degree_max == pref.degree_max
        assert dump_state(clone) == state

    def test_restored_history_keeps_enforcing_the_cap(self):
        from repro.core.feedback import DEGREE_HISTORY_CAP

        pref = FeedbackGhbPrefetcher()
        for _ in range(5):
            pref.periodic_update({"issued": 100.0, "accuracy": 0.9})
        clone = FeedbackGhbPrefetcher()
        load_state(dump_state(pref), clone)
        for _ in range(DEGREE_HISTORY_CAP * 2):
            clone.periodic_update({"issued": 100.0, "accuracy": 0.9})
        assert len(clone.degree_history) == DEGREE_HISTORY_CAP
