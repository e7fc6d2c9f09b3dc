"""Feedback-directed baseline prefetchers (paper Section VIII-C).

* **GHB+F** — the feedback-driven GHB in the style of Srinath et al.
  (HPCA'07): prefetch *degree* is adjusted periodically from measured
  prefetch accuracy — more prefetches when accuracy is high, fewer when low.
  The paper notes such accuracy-driven feedback saturates in GPGPUs where
  accuracy is routinely ~100%.
* **StridePC+T** — the warp-id enhanced StridePC prefetcher with a lateness-
  driven throttle: "StridePC with throttling reduces the number of generated
  prefetches based on the lateness of the earlier generated prefetches."
  When most outstanding prefetches are late (the stream benchmark reaches
  93%), the generated-request rate is cut back, which the paper shows
  recovers 40% on stream.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List

from repro.core.ghb import GhbPrefetcher
from repro.core.stride_pc import StridePcPrefetcher

#: Maximum retained entries in :attr:`FeedbackGhbPrefetcher.degree_history`.
#: The history exists for post-run inspection of the feedback trajectory;
#: unbounded it grows one entry per throttle period for the whole run and
#: bloats every checkpoint.  The tail is what matters for diagnosis, so the
#: history is a bounded deque and the full trajectory is summarized by the
#: ``degree_updates`` / ``degree_min`` / ``degree_max`` counters.
DEGREE_HISTORY_CAP = 64


class FeedbackGhbPrefetcher(GhbPrefetcher):
    """GHB AC/DC with accuracy-driven degree adjustment (GHB+F)."""

    __slots__ = (
        "accuracy_high", "accuracy_low", "min_degree", "max_degree",
        "degree_history", "degree_updates", "degree_min", "degree_max",
    )

    def __init__(
        self,
        accuracy_high: float = 0.75,
        accuracy_low: float = 0.40,
        min_degree: int = 1,
        max_degree: int = 4,
        **kwargs: object,
    ) -> None:
        kwargs.setdefault("warp_aware", True)
        super().__init__(**kwargs)  # type: ignore[arg-type]
        self.name = "ghb_feedback"
        self.accuracy_high = accuracy_high
        self.accuracy_low = accuracy_low
        self.min_degree = min_degree
        self.max_degree = max_degree
        self.degree_history: Deque[int] = deque(
            [self.degree], maxlen=DEGREE_HISTORY_CAP
        )
        # Whole-run trajectory summary (the deque only keeps the tail).
        self.degree_updates = 0
        self.degree_min = self.degree
        self.degree_max = self.degree

    def periodic_update(self, metrics: Dict[str, float]) -> None:
        issued = metrics.get("issued", 0.0)
        if issued <= 0:
            return
        accuracy = metrics.get("accuracy", 0.0)
        if accuracy >= self.accuracy_high:
            self.degree = min(self.max_degree, self.degree + 1)
        elif accuracy < self.accuracy_low:
            self.degree = max(self.min_degree, self.degree - 1)
        self.degree_history.append(self.degree)
        self.degree_updates += 1
        self.degree_min = min(self.degree_min, self.degree)
        self.degree_max = max(self.degree_max, self.degree)


class LatenessThrottledStridePc(StridePcPrefetcher):
    """Warp-id enhanced StridePC with lateness-driven throttling
    (StridePC+T)."""

    __slots__ = (
        "lateness_high", "lateness_low", "drop_step", "max_drop",
        "drop_fraction", "_counter", "dropped",
    )

    def __init__(
        self,
        lateness_high: float = 0.70,
        lateness_low: float = 0.30,
        drop_step: float = 0.2,
        max_drop: float = 0.8,
        **kwargs: object,
    ) -> None:
        kwargs.setdefault("warp_aware", True)
        super().__init__(**kwargs)  # type: ignore[arg-type]
        self.name = "stride_pc_throttle"
        self.lateness_high = lateness_high
        self.lateness_low = lateness_low
        self.drop_step = drop_step
        self.max_drop = max_drop
        self.drop_fraction = 0.0
        self._counter = 0
        self.dropped = 0

    def periodic_update(self, metrics: Dict[str, float]) -> None:
        issued = metrics.get("issued", 0.0)
        if issued <= 0:
            # Nothing sampled: relax the throttle so sampling resumes.
            self.drop_fraction = max(0.0, self.drop_fraction - self.drop_step)
            return
        lateness = metrics.get("lateness", 0.0)
        if lateness > self.lateness_high:
            self.drop_fraction = min(self.max_drop, self.drop_fraction + self.drop_step)
        elif lateness < self.lateness_low:
            self.drop_fraction = max(0.0, self.drop_fraction - self.drop_step)

    def observe(self, pc: int, warp_id: int, addr: int, cycle: int) -> List[int]:
        targets = super().observe(pc, warp_id, addr, cycle)
        if not targets or self.drop_fraction <= 0.0:
            return targets
        # Deterministic modular dropping of generated prefetches.
        self._counter += 1
        if (self._counter % 10) < int(round(self.drop_fraction * 10)):
            self.dropped += len(targets)
            return []
        return targets
