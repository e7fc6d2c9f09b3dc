"""The benchmark's workloads and the seed that shapes their inputs.

Each workload regenerates one paper exhibit from an empty result cache
(README.md says why each was chosen and which layer it loads).  On the
serial workloads the seed orders the exhibit's benchmarks: its rows, and
the order the sweep runs them in.  The set of simulations stays the
same, so the timings and the simulated statistics of different seeds are
comparable.  A pooled sweep keeps the exhibit's own order: there the
dispatch order sets how the workers' loads balance, so it would make
timings differ between seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.trace.benchmarks import COMPUTE_BENCHMARKS

#: Memory-intensive subset: two stride-type, one mp-type and one
#: uncoal-type benchmark, by the Table III classes.
MEMORY_SUBSET: Tuple[str, ...] = ("monte", "stream", "backprop", "bfs")

#: Cycles between snapshots in the observed workload.  At scale 0.1 its
#: runs last 3k-20k cycles, so the default interval (50 000) never fires;
#: 2000 makes every run write a few.
CHECKPOINT_INTERVAL = 2000

#: Seconds between worker heartbeats in the observed workload.
HEARTBEAT_INTERVAL = 1.0


@dataclass(frozen=True)
class Workload:
    """One exhibit regeneration.

    Attributes:
        name: Workload name as passed to ``--workload``.
        figure: ``repro figure`` exhibit name.
        scale: Grid scale of every run.
        jobs: Sweep worker processes (1 runs inline, in the CLI process).
        memory_subset: Runs :data:`MEMORY_SUBSET`; otherwise all of
            Table IV's compute-intensive benchmarks.
        observed: Runs with a manifest, metrics documents, checkpoints
            and heartbeats, as EXPERIMENTS.md's practical invocation does.
    """

    name: str
    figure: str
    scale: float
    jobs: int
    memory_subset: bool
    observed: bool


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("fig15-cold", "fig15", 0.15, 1, True, False),
        Workload("table4-cold", "table4", 0.5, 1, False, False),
        Workload("fig17-pooled", "fig17", 0.1, 2, True, True),
    )
}


def benchmarks_for(workload: Workload, seed: int) -> List[str]:
    """The workload's benchmarks, in the order ``seed`` gives them if the
    workload runs serially."""
    names = list(MEMORY_SUBSET if workload.memory_subset else COMPUTE_BENCHMARKS)
    if workload.jobs == 1:
        random.Random(seed).shuffle(names)
    return names


def cli_args(workload: Workload, benchmarks: List[str]) -> List[str]:
    """``repro`` arguments of one sample (the sample adds ``--cache-dir``).

    Observer paths are relative: each sample runs in its own directory.
    """
    args = ["figure", workload.figure, "--scale", str(workload.scale),
            "--jobs", str(workload.jobs)]
    if workload.observed:
        args += [
            "--manifest", "manifest.jsonl",
            "--metrics-dir", "metrics",
            "--checkpoint-dir", "checkpoints",
            "--checkpoint-interval", str(CHECKPOINT_INTERVAL),
            "--heartbeat-interval", str(HEARTBEAT_INTERVAL),
        ]
    return args + ["--subset"] + benchmarks
