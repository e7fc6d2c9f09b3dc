"""Differential correctness harness: equivalence oracles + spec fuzzer.

The invariant checker (:mod:`repro.sim.invariants`) rejects *impossible*
simulator states; this module rejects *plausible-yet-wrong* ones by
cross-checking configurations that must — by construction — produce
identical statistics:

* a simulation with no prefetcher ≡ any prefetcher behind a throttle
  pinned at max degree (every prefetch dropped) ≡ MT-HWP with all three
  tables disabled ≡ an explicit :class:`~repro.core.base.NullPrefetcher`;
* MT-HWP with the GS and IP tables disabled ≡ the pure per-warp stride
  prefetcher (same table geometry), because the PWS path *is* warp-aware
  StridePC;
* a warp-id-enhanced baseline ≡ its naive variant on a single-warp
  workload, where the warp id is constant and cannot change any table key;
* doubling ``max_cycles`` on a run that already retired changes nothing.

Every oracle run executes on the harness's single execution path
(:func:`repro.harness.runner._simulate`) under strict mode with the
invariant checker forced on, and the two sides are compared field by
field over the lossless ``SimStats.to_dict()`` serialization.  Any
difference outside an oracle's explicitly-allowed field set becomes a
structured :class:`DifferentialMismatch`.

On top of the oracles, every run is held to *sanity bounds* that no
correct simulation can violate regardless of scheme — raw-counter forms
deliberately, because the derived properties clamp (``prefetch_accuracy``
caps at 1.0 and would mask an overcount):

* ``useful_prefetches <= prefetch_requests_issued`` (accuracy ∈ [0, 1]);
* ``intra_core_merges <= total_mrq_requests`` (merge ratio ∈ [0, 1]);
* ``issued + throttled + redundant <= generated`` (the prefetch funnel
  only narrows);
* ``truncated`` is False (strict mode raised otherwise).

The **fuzzer** drives the whole stack with seeded random small kernels
and machine configs (32-entry MRQs, which one uncoalesced
warp-instruction fills, to exercise the full-queue paths, single cores,
odd strides, stores before loads), runs every hardware scheme on
each, and applies the oracles plus the bounds.  A failure is *shrunk* —
blocks, loop iterations, body operations, then threads are greedily
reduced while the failure reproduces — and the minimal repro spec is
written to the failure-report directory via the existing
:func:`~repro.sim.errors.write_failure_report` machinery.

CLI: ``python -m repro diffcheck [--seeds N --budget S --report-dir D]``.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.core.base import NullPrefetcher
from repro.core.mt_hwp import MtHwpPrefetcher
from repro.core.stride_pc import StridePcPrefetcher
from repro.harness.runner import HARDWARE_SCHEMES, _simulate
from repro.sim.config import GpuConfig, ThrottleConfig, baseline_config
from repro.sim.errors import SimulationError, write_failure_report
from repro.sim.stats import SimStats
from repro.trace.kernels import Compute, KernelSpec, Load, Store
from repro.trace.swp import SCHEMES

#: Schema tag for diffcheck mismatch reports.
DIFFCHECK_REPORT_SCHEMA = 1

#: Fields the null-family oracle allows to differ: a max-pinned throttle
#: *sees* the generated prefetches before dropping every one of them,
#: while a null scheme never generates any.  Everything the memory
#: system can observe must still match exactly.
NULL_FAMILY_ALLOWED = frozenset(
    {"prefetch_requests_generated", "prefetch_requests_throttled"}
)


# ----------------------------------------------------------------------
# Variants and execution
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Variant:
    """One side of a differential comparison.

    ``builder`` is either a scheme name from
    :data:`~repro.harness.runner.HARDWARE_SCHEMES` or an explicit
    ``builder(distance, degree)`` callable (oracles that need custom
    table geometry).  ``key`` must uniquely identify the variant within
    one kernel/config context — it is the memo key.
    """

    key: str
    builder: Union[str, Callable, None] = None
    distance: int = 1
    degree: int = 1
    software: str = "none"
    throttle: bool = False
    #: Pin the throttle at max degree with a period longer than any run,
    #: so every prefetch is dropped and no update can ever lower it.
    pin_throttle_max: bool = False
    max_cycles: Optional[int] = None
    #: Run with the linear-scan reference DRAM scheduler instead of the
    #: indexed default (the ``dram-indexed-vs-reference`` oracle's rhs).
    reference_dram: bool = False

    def resolve_builder(self) -> Optional[Callable]:
        """The concrete ``builder(distance, degree)`` for this variant."""
        if callable(self.builder) or self.builder is None:
            return self.builder  # type: ignore[return-value]
        return HARDWARE_SCHEMES[self.builder]


class DiffRunner:
    """Memoizing executor: every oracle run is strict + invariant-checked.

    A simulation failure (deadlock, truncation, invariant violation) in
    any variant is itself a differential finding — degenerate configs
    must *run*, not crash — so exceptions are captured and surfaced as
    mismatches by the callers rather than aborting the whole sweep.
    """

    def __init__(self) -> None:
        self._memo: Dict[str, Union[SimStats, SimulationError]] = {}
        self.runs = 0

    def run(self, kernel: KernelSpec, cfg: GpuConfig, variant: Variant) -> SimStats:
        """Run (or recall) one variant; raises the captured failure."""
        key = json.dumps(
            [kernel_to_dict(kernel), config_to_dict(cfg), variant.key],
            sort_keys=True,
        )
        hit = self._memo.get(key)
        if hit is None:
            try:
                hit = self._execute(kernel, cfg, variant)
            except SimulationError as exc:
                hit = exc
            self._memo[key] = hit
            self.runs += 1
        if isinstance(hit, SimulationError):
            raise hit
        return hit

    def _execute(self, kernel: KernelSpec, cfg: GpuConfig, variant: Variant) -> SimStats:
        if variant.max_cycles is not None:
            cfg = cfg.replace(max_cycles=variant.max_cycles)
        if variant.reference_dram:
            cfg = cfg.replace(
                dram=dataclasses.replace(cfg.dram, reference_scheduler=True)
            )
        throttle = variant.throttle
        if variant.pin_throttle_max:
            base = cfg.throttle
            cfg = cfg.replace(
                throttle=ThrottleConfig(
                    enabled=True,
                    period=cfg.max_cycles + 1,
                    initial_degree=base.max_degree,
                    max_degree=base.max_degree,
                )
            )
            throttle = True
        result = _simulate(
            kernel,
            SCHEMES[variant.software],
            variant.resolve_builder(),
            variant.distance,
            variant.degree,
            cfg,
            throttle,
            perfect_memory=False,
            invariants=True,
        )
        return result.stats


# ----------------------------------------------------------------------
# Mismatch reporting
# ----------------------------------------------------------------------


@dataclass
class DifferentialMismatch:
    """One confirmed differential failure, shrunk where possible."""

    oracle: str
    detail: str
    kernel: Dict
    config: Dict
    #: field name -> (lhs value, rhs value) for every diverging field;
    #: empty when the failure is a crash rather than a stats divergence.
    fields: Dict[str, Tuple[object, object]] = field(default_factory=dict)
    seed: Optional[int] = None

    def describe(self) -> str:
        """Multi-line human-readable rendering (one line per field)."""
        parts = [f"[{self.oracle}] {self.detail}"]
        for name, (lhs, rhs) in sorted(self.fields.items()):
            parts.append(f"    {name}: {lhs!r} != {rhs!r}")
        return "\n".join(parts)

    def to_report(self) -> Dict:
        """Serialize into a failure-report payload (plain JSON types)."""
        return {
            "schema": DIFFCHECK_REPORT_SCHEMA,
            "error": "DifferentialMismatch",
            "kind": "differential",
            "oracle": self.oracle,
            "message": self.detail,
            "seed": self.seed,
            "kernel": self.kernel,
            "config": self.config,
            "fields": {
                name: {"lhs": lhs, "rhs": rhs}
                for name, (lhs, rhs) in sorted(self.fields.items())
            },
        }


def compare_stats(
    lhs: SimStats, rhs: SimStats, allowed: Iterable[str] = ()
) -> Dict[str, Tuple[object, object]]:
    """Field-by-field diff of two stats over their lossless serialization."""
    skip = set(allowed)
    lhs_doc, rhs_doc = lhs.to_dict(), rhs.to_dict()
    return {
        name: (lhs_doc[name], rhs_doc[name])
        for name in lhs_doc
        if name not in skip and lhs_doc[name] != rhs_doc[name]
    }


# ----------------------------------------------------------------------
# Oracle registry
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Oracle:
    """A named equivalence check applied to every (kernel, config) pair."""

    name: str
    description: str
    check: Callable[[KernelSpec, GpuConfig, DiffRunner], List[DifferentialMismatch]]


def _pair_check(
    name: str,
    detail: str,
    kernel: KernelSpec,
    cfg: GpuConfig,
    runner: DiffRunner,
    lhs: Variant,
    rhs: Variant,
    allowed: Iterable[str] = (),
) -> List[DifferentialMismatch]:
    """Run two variants and diff them; crashes become mismatches too."""

    def attempt(variant: Variant) -> Union[SimStats, DifferentialMismatch]:
        try:
            return runner.run(kernel, cfg, variant)
        except SimulationError as exc:
            return DifferentialMismatch(
                oracle=name,
                detail=f"{detail}: variant {variant.key!r} failed to "
                f"simulate: {type(exc).__name__}: {exc}",
                kernel=kernel_to_dict(kernel),
                config=config_to_dict(cfg),
            )

    sides = [attempt(lhs), attempt(rhs)]
    crashes = [s for s in sides if isinstance(s, DifferentialMismatch)]
    if crashes:
        return crashes
    diff = compare_stats(sides[0], sides[1], allowed)
    if not diff:
        return []
    return [
        DifferentialMismatch(
            oracle=name,
            detail=f"{detail}: {lhs.key!r} vs {rhs.key!r} diverge on "
            f"{len(diff)} field(s)",
            kernel=kernel_to_dict(kernel),
            config=config_to_dict(cfg),
            fields=diff,
        )
    ]


def _check_null_family(
    kernel: KernelSpec, cfg: GpuConfig, runner: DiffRunner
) -> List[DifferentialMismatch]:
    """none ≡ explicit NullPrefetcher ≡ all-tables-off MT-HWP ≡ any
    scheme behind a throttle pinned at max degree."""
    base = Variant(key="none")
    mismatches = _pair_check(
        "null-family", "explicit NullPrefetcher must equal no prefetcher",
        kernel, cfg, runner, base,
        Variant(key="null-explicit", builder=lambda d, g: NullPrefetcher()),
    )
    mismatches += _pair_check(
        "null-family", "MT-HWP with all tables disabled must equal no prefetcher",
        kernel, cfg, runner, base,
        Variant(
            key="mt-hwp-disabled",
            builder=lambda d, g: MtHwpPrefetcher(
                distance=d, degree=g,
                enable_pws=False, enable_gs=False, enable_ip=False,
            ),
        ),
    )
    for scheme in ("stride_pc_wid", "mt-hwp", "ghb_feedback"):
        mismatches += _pair_check(
            "null-family",
            f"{scheme} behind a max-pinned throttle must equal no prefetcher",
            kernel, cfg, runner, base,
            Variant(key=f"{scheme}@max-throttle", builder=scheme,
                    pin_throttle_max=True),
            allowed=NULL_FAMILY_ALLOWED,
        )
    return mismatches


def _check_pws_is_stride_pc(
    kernel: KernelSpec, cfg: GpuConfig, runner: DiffRunner
) -> List[DifferentialMismatch]:
    """MT-HWP reduced to its PWS table ≡ warp-aware StridePC with the
    same table geometry (the PWS path is exactly per-warp stride)."""
    entries = 32
    return _pair_check(
        "pws-equals-stride-pc",
        "PWS-only MT-HWP must equal warp-aware StridePC of equal geometry",
        kernel, cfg, runner,
        Variant(
            key="mt-hwp-pws-only",
            builder=lambda d, g: MtHwpPrefetcher(
                pws_entries=entries, distance=d, degree=g,
                enable_pws=True, enable_gs=False, enable_ip=False,
            ),
        ),
        Variant(
            key="stride-pc-wid-32",
            builder=lambda d, g: StridePcPrefetcher(
                entries=entries, distance=d, degree=g, warp_aware=True
            ),
        ),
    )


#: (naive, warp-aware) scheme pairs that coincide on single-warp traces.
WARP_ID_PAIRS = (
    ("stride_pc", "stride_pc_wid"),
    ("stride_rpt", "stride_rpt_wid"),
    ("stream", "stream_wid"),
    ("ghb", "ghb_wid"),
)


def _check_warp_id_single_warp(
    kernel: KernelSpec, cfg: GpuConfig, runner: DiffRunner
) -> List[DifferentialMismatch]:
    """Warp-id enhancement is invisible when only one warp exists."""
    if kernel.total_warps != 1:
        return []
    mismatches: List[DifferentialMismatch] = []
    for naive, enhanced in WARP_ID_PAIRS:
        mismatches += _pair_check(
            "warp-id-single-warp",
            f"{enhanced} must equal {naive} on a single-warp workload",
            kernel, cfg, runner,
            Variant(key=naive, builder=naive),
            Variant(key=enhanced, builder=enhanced),
        )
    return mismatches


def _check_max_cycles_invariance(
    kernel: KernelSpec, cfg: GpuConfig, runner: DiffRunner
) -> List[DifferentialMismatch]:
    """Doubling ``max_cycles`` on a run that retires changes nothing."""
    mismatches: List[DifferentialMismatch] = []
    for scheme, throttle in (("none", False), ("stride_pc_wid", True)):
        mismatches += _pair_check(
            "max-cycles-invariance",
            f"{scheme}: doubling max_cycles on a retired run must change "
            "nothing",
            kernel, cfg, runner,
            Variant(key=f"{scheme}-t{throttle}", builder=scheme, throttle=throttle),
            Variant(
                key=f"{scheme}-t{throttle}-2x-cycles", builder=scheme,
                throttle=throttle, max_cycles=cfg.max_cycles * 2,
            ),
        )
    return mismatches


def _check_dram_indexed_vs_reference(
    kernel: KernelSpec, cfg: GpuConfig, runner: DiffRunner
) -> List[DifferentialMismatch]:
    """Indexed FR-FCFS DRAM scheduler ≡ the linear-scan reference.

    The indexed scheduler (per-bank, per-row buckets plus an
    arrival-order structure, ``repro.sim.dram``) exists purely for
    speed; it must reproduce the reference scan's pick sequence — and
    therefore every statistic — bit for bit, including under late
    demand-on-prefetch promotions, which the indexed side applies
    eagerly while the reference scan re-derives them lazily.
    """
    mismatches: List[DifferentialMismatch] = []
    for scheme, throttle in (
        ("none", False),
        ("stride_pc_wid", True),
        ("mt-hwp", False),
    ):
        mismatches += _pair_check(
            "dram-indexed-vs-reference",
            f"{scheme}: the indexed FR-FCFS scheduler must reproduce the "
            "reference scan's statistics exactly",
            kernel, cfg, runner,
            Variant(key=f"{scheme}-t{throttle}", builder=scheme, throttle=throttle),
            Variant(
                key=f"{scheme}-t{throttle}-dram-ref", builder=scheme,
                throttle=throttle, reference_dram=True,
            ),
        )
    return mismatches


def _check_sanity_bounds(
    kernel: KernelSpec, cfg: GpuConfig, runner: DiffRunner
) -> List[DifferentialMismatch]:
    """Raw-counter bounds every correct run satisfies, any scheme.

    Raw counters on purpose: the derived ``prefetch_accuracy`` property
    clamps at 1.0, so ``useful > issued`` — a real overcounting bug —
    would be invisible through it.  Also pins cross-scheme demand-traffic
    invariance: with every prefetch suppressed, the demand side of the
    machine must not notice which prefetcher is bolted on.
    """
    mismatches: List[DifferentialMismatch] = []
    reference: Optional[Tuple[str, SimStats]] = None
    demand_fields = ("instructions", "demand_loads", "demand_lines_to_memory")
    for scheme in sorted(HARDWARE_SCHEMES):
        for pin in (False, True):
            variant = Variant(
                key=f"{scheme}@{'pinned' if pin else 'free'}",
                builder=scheme, throttle=pin, pin_throttle_max=pin,
            )
            try:
                stats = runner.run(kernel, cfg, variant)
            except SimulationError as exc:
                mismatches.append(
                    DifferentialMismatch(
                        oracle="sanity-bounds",
                        detail=f"variant {variant.key!r} failed to simulate: "
                        f"{type(exc).__name__}: {exc}",
                        kernel=kernel_to_dict(kernel),
                        config=config_to_dict(cfg),
                    )
                )
                continue
            bounds = {
                "useful_prefetches <= prefetch_requests_issued": (
                    stats.useful_prefetches <= stats.prefetch_requests_issued
                ),
                "intra_core_merges <= total_mrq_requests": (
                    stats.intra_core_merges <= stats.total_mrq_requests
                ),
                "issued + throttled + redundant <= generated": (
                    stats.prefetch_requests_issued
                    + stats.prefetch_requests_throttled
                    + stats.prefetch_requests_redundant
                    <= stats.prefetch_requests_generated
                ),
                "not truncated": not stats.truncated,
                "retired work nonzero": stats.instructions > 0,
            }
            failed = [name for name, ok in bounds.items() if not ok]
            if failed:
                mismatches.append(
                    DifferentialMismatch(
                        oracle="sanity-bounds",
                        detail=f"variant {variant.key!r} violates: "
                        + "; ".join(failed),
                        kernel=kernel_to_dict(kernel),
                        config=config_to_dict(cfg),
                    )
                )
            if pin:
                # Demand traffic must be scheme-invariant when no
                # prefetch ever reaches the memory system.
                if reference is None:
                    reference = (variant.key, stats)
                else:
                    ref_key, ref = reference
                    diff = {
                        name: (getattr(ref, name), getattr(stats, name))
                        for name in demand_fields
                        if getattr(ref, name) != getattr(stats, name)
                    }
                    if diff:
                        mismatches.append(
                            DifferentialMismatch(
                                oracle="sanity-bounds",
                                detail=f"demand traffic differs between "
                                f"{ref_key!r} and {variant.key!r} with all "
                                "prefetches suppressed",
                                kernel=kernel_to_dict(kernel),
                                config=config_to_dict(cfg),
                                fields=diff,
                            )
                        )
    return mismatches


#: The oracle registry, in evaluation order.  ``sanity-bounds`` last: it
#: is the broadest (every scheme) and benefits from the memo the earlier
#: oracles warm.
ORACLES: Tuple[Oracle, ...] = (
    Oracle(
        "null-family",
        "no prefetcher ≡ NullPrefetcher ≡ disabled-table MT-HWP ≡ "
        "max-pinned throttle",
        _check_null_family,
    ),
    Oracle(
        "pws-equals-stride-pc",
        "PWS-only MT-HWP ≡ warp-aware StridePC (equal geometry)",
        _check_pws_is_stride_pc,
    ),
    Oracle(
        "warp-id-single-warp",
        "warp-id-enhanced ≡ naive baselines on single-warp traces",
        _check_warp_id_single_warp,
    ),
    Oracle(
        "max-cycles-invariance",
        "doubling max_cycles on a retired run changes nothing",
        _check_max_cycles_invariance,
    ),
    Oracle(
        "dram-indexed-vs-reference",
        "indexed FR-FCFS DRAM scheduler ≡ linear-scan reference",
        _check_dram_indexed_vs_reference,
    ),
    Oracle(
        "sanity-bounds",
        "raw-counter bounds + cross-scheme demand-traffic invariance",
        _check_sanity_bounds,
    ),
)


def check_kernel(
    kernel: KernelSpec,
    cfg: GpuConfig,
    runner: Optional[DiffRunner] = None,
    oracles: Iterable[Oracle] = ORACLES,
) -> List[DifferentialMismatch]:
    """Apply every oracle to one (kernel, config) pair."""
    runner = runner or DiffRunner()
    mismatches: List[DifferentialMismatch] = []
    for oracle in oracles:
        mismatches.extend(oracle.check(kernel, cfg, runner))
    return mismatches


# ----------------------------------------------------------------------
# Spec serialization (repro files and fuzzer shrinking)
# ----------------------------------------------------------------------


def kernel_to_dict(spec: KernelSpec) -> Dict:
    """Serialize a kernel spec (body ops tagged by kind) to plain JSON."""
    body = []
    for op in spec.body:
        if isinstance(op, Load):
            body.append({"kind": "load", **dataclasses.asdict(op)})
        elif isinstance(op, Store):
            body.append({"kind": "store", **dataclasses.asdict(op)})
        else:
            doc = dataclasses.asdict(op)
            doc["consumes"] = list(op.consumes)
            body.append({"kind": "compute", **doc})
    return {
        "name": spec.name,
        "suite": spec.suite,
        "btype": spec.btype,
        "threads_per_block": spec.threads_per_block,
        "num_blocks": spec.num_blocks,
        "loop_iters": spec.loop_iters,
        "stride_delinquent": list(spec.stride_delinquent),
        "ip_delinquent": list(spec.ip_delinquent),
        "body": body,
    }


def kernel_from_dict(doc: Dict) -> KernelSpec:
    """Rebuild a kernel spec from :func:`kernel_to_dict` output."""
    body = []
    for op in doc["body"]:
        op = dict(op)
        kind = op.pop("kind")
        if kind == "load":
            body.append(Load(**op))
        elif kind == "store":
            body.append(Store(**op))
        else:
            op["consumes"] = tuple(op["consumes"])
            body.append(Compute(**op))
    return KernelSpec(
        name=doc["name"],
        suite=doc["suite"],
        btype=doc["btype"],
        threads_per_block=doc["threads_per_block"],
        num_blocks=doc["num_blocks"],
        body=tuple(body),
        loop_iters=doc["loop_iters"],
        stride_delinquent=tuple(doc["stride_delinquent"]),
        ip_delinquent=tuple(doc["ip_delinquent"]),
    )


def config_to_dict(cfg: GpuConfig) -> Dict:
    """Serialize the config dimensions the fuzzer explores."""
    return {
        "num_cores": cfg.num_cores,
        "mrq_size": cfg.core.mrq_size,
        "prefetch_cache_bytes": cfg.prefetch_cache.size_bytes,
        "interconnect_latency": cfg.interconnect.latency,
        "throttle_period": cfg.throttle.period,
        "max_cycles": cfg.max_cycles,
        "dram_channels": cfg.dram.num_channels,
        "dram_banks": cfg.dram.banks_per_channel,
        "dram_demand_priority": cfg.dram.demand_priority,
    }


def config_from_dict(doc: Dict) -> GpuConfig:
    """Rebuild a fuzzer config from :func:`config_to_dict` output."""
    base = baseline_config()
    return base.replace(
        num_cores=doc["num_cores"],
        core=dataclasses.replace(base.core, mrq_size=doc["mrq_size"]),
        prefetch_cache=dataclasses.replace(
            base.prefetch_cache, size_bytes=doc["prefetch_cache_bytes"]
        ),
        interconnect=dataclasses.replace(
            base.interconnect, latency=doc["interconnect_latency"]
        ),
        throttle=dataclasses.replace(base.throttle, period=doc["throttle_period"]),
        max_cycles=doc["max_cycles"],
        # .get: minimal-repro docs written before the DRAM dimensions
        # were fuzzed replay against the baseline geometry.
        dram=dataclasses.replace(
            base.dram,
            num_channels=doc.get("dram_channels", base.dram.num_channels),
            banks_per_channel=doc.get("dram_banks", base.dram.banks_per_channel),
            demand_priority=doc.get(
                "dram_demand_priority", base.dram.demand_priority
            ),
        ),
    )


# ----------------------------------------------------------------------
# Fuzzer
# ----------------------------------------------------------------------

_LANE_STRIDES = (4, 8, 64, 128)
_ITER_STRIDES = (0, 4, 64, 256)


def fuzz_kernel(rng, seed: int) -> KernelSpec:
    """One seeded random small kernel (always at least one load)."""
    loads: List[str] = []
    body: List[object] = []
    for i in range(rng.randint(1, 4)):
        roll = rng.random()
        if roll < 0.55 or not loads and roll < 0.8:
            name = f"x{len(loads)}"
            body.append(
                Load(
                    name=name,
                    array=rng.choice(("A", "B")),
                    lane_stride=rng.choice(_LANE_STRIDES),
                    iter_stride=rng.choice(_ITER_STRIDES),
                )
            )
            loads.append(name)
        elif roll < 0.8:
            body.append(
                Store(
                    array=rng.choice(("A", "B", "C")),
                    lane_stride=rng.choice(_LANE_STRIDES),
                    iter_stride=rng.choice(_ITER_STRIDES),
                )
            )
        else:
            consumes = tuple(
                name for name in loads if rng.random() < 0.5
            )
            body.append(Compute(count=rng.randint(1, 3), consumes=consumes))
    if not loads:
        name = "x0"
        body.append(Load(name=name, array="A", lane_stride=4, iter_stride=64))
        loads.append(name)
    # A consumer warp-instruction forces the scoreboard wait path.
    body.append(Compute(count=1, consumes=(loads[-1],)))
    return KernelSpec(
        name=f"fuzz{seed}",
        suite="fuzz",
        btype="stride",
        threads_per_block=32 * rng.randint(1, 2),
        num_blocks=rng.randint(1, 3),
        body=tuple(body),
        loop_iters=rng.randint(0, 4),
        stride_delinquent=tuple(loads),
    )


def fuzz_config(rng) -> GpuConfig:
    """One seeded random small machine config.

    The smallest MRQ the config admits (32 entries, one uncoalesced
    warp-instruction's lines) is deliberately over-represented: the
    full-queue stall, prefetch-drop and store-backlog paths only execute
    under queue pressure, and the baseline 512-entry MRQ rarely fills on
    small fuzz kernels.  Tiny DRAM geometries (one channel, one bank) are
    over-represented for the same reason: they concentrate all traffic
    in one request buffer, maximizing the scheduling interleavings —
    row-hit promotions past older misses, late demand promotions,
    ready-cycle ties — that the indexed-vs-reference oracle must agree
    on.
    """
    return config_from_dict(
        {
            "num_cores": rng.choice((1, 2, 4)),
            "mrq_size": rng.choice((32, 32, 48, 64)),
            "prefetch_cache_bytes": rng.choice((512, 2048, 16 * 1024)),
            "interconnect_latency": rng.choice((1, 20)),
            "throttle_period": rng.choice((200, 1000)),
            "max_cycles": 2_000_000,
            "dram_channels": rng.choice((1, 1, 2, 8)),
            "dram_banks": rng.choice((1, 2, 8)),
            "dram_demand_priority": rng.choice((True, True, False)),
        }
    )


# ----------------------------------------------------------------------
# Shrinker
# ----------------------------------------------------------------------


def _kernel_candidates(spec: KernelSpec) -> List[KernelSpec]:
    """Single-step reductions of a kernel, in aggressiveness order."""
    candidates: List[KernelSpec] = []

    def rebuild(**changes) -> Optional[KernelSpec]:
        try:
            return dataclasses.replace(spec, **changes)
        except ValueError:
            return None

    if spec.num_blocks > 1:
        candidates.append(rebuild(num_blocks=1))
        candidates.append(rebuild(num_blocks=spec.num_blocks - 1))
    if spec.loop_iters > 0:
        candidates.append(rebuild(loop_iters=0))
        candidates.append(rebuild(loop_iters=spec.loop_iters // 2))
    if spec.threads_per_block > 32:
        candidates.append(rebuild(threads_per_block=32))
    if len(spec.body) > 1:
        for drop in range(len(spec.body)):
            dropped = spec.body[drop]
            body = spec.body[:drop] + spec.body[drop + 1:]
            if isinstance(dropped, Load):
                # Keep the spec valid: references to the dropped load
                # must go with it.
                body = tuple(
                    dataclasses.replace(
                        op,
                        consumes=tuple(
                            n for n in op.consumes if n != dropped.name
                        ),
                    )
                    if isinstance(op, Compute)
                    else op
                    for op in body
                )
                candidates.append(
                    rebuild(
                        body=body,
                        stride_delinquent=tuple(
                            n for n in spec.stride_delinquent
                            if n != dropped.name
                        ),
                        ip_delinquent=tuple(
                            n for n in spec.ip_delinquent if n != dropped.name
                        ),
                    )
                )
            else:
                candidates.append(rebuild(body=tuple(body)))
    return [c for c in candidates if c is not None]


def shrink_kernel(
    kernel: KernelSpec,
    failing: Callable[[KernelSpec], bool],
    max_steps: int = 200,
) -> KernelSpec:
    """Greedy shrink: take the first single-step reduction that still
    fails, repeat until none does (or the step budget runs out)."""
    steps = 0
    while steps < max_steps:
        for candidate in _kernel_candidates(kernel):
            steps += 1
            try:
                still_fails = failing(candidate)
            except Exception:
                # A reduction that crashes differently is still a repro
                # only if the predicate says so; a predicate crash means
                # "don't take this step".
                still_fails = False
            if still_fails:
                kernel = candidate
                break
        else:
            break
    return kernel


# ----------------------------------------------------------------------
# Top-level drive
# ----------------------------------------------------------------------


@dataclass
class DiffCheckResult:
    """Outcome of one :func:`run_diffcheck` sweep."""

    mismatches: List[DifferentialMismatch]
    seeds_checked: int
    runs: int
    elapsed: float
    report_paths: List[Path] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when the sweep found no differential mismatch."""
        return not self.mismatches


def _seed_failure_predicate(cfg: GpuConfig, oracle_names: Iterable[str]):
    """Build the shrinker predicate: does this kernel still trip any of
    the oracles that originally failed (fresh runner each call)?"""
    names = set(oracle_names)

    def failing(candidate: KernelSpec) -> bool:
        found = check_kernel(candidate, cfg, DiffRunner())
        return any(m.oracle in names for m in found)

    return failing


def run_diffcheck(
    seeds: int = 10,
    budget: Optional[float] = None,
    report_dir: Union[str, Path, None] = None,
    base_seed: int = 0,
    shrink: bool = True,
    log: Optional[Callable[[str], None]] = None,
) -> DiffCheckResult:
    """Run the full differential sweep: seeded fuzz specs × all oracles.

    Args:
        seeds: Number of fuzz seeds to check (``base_seed`` ..).
        budget: Optional wall-clock budget in seconds; checked between
            seeds so a partial sweep still reports what it covered.
        report_dir: Directory for mismatch/minimal-repro JSON reports
            (created on demand); ``None`` writes no files.
        base_seed: First seed — the sweep is deterministic in
            (base_seed, seeds).
        shrink: Shrink failing fuzz kernels to minimal repros.
        log: Optional progress sink (one line per seed).
    """
    import random

    start = time.monotonic()
    all_mismatches: List[DifferentialMismatch] = []
    report_paths: List[Path] = []
    total_runs = 0
    checked = 0
    for seed in range(base_seed, base_seed + seeds):
        if budget is not None and time.monotonic() - start > budget:
            if log:
                log(f"budget exhausted after {checked} seed(s)")
            break
        rng = random.Random(seed)
        kernel = fuzz_kernel(rng, seed)
        cfg = fuzz_config(rng)
        runner = DiffRunner()
        mismatches = check_kernel(kernel, cfg, runner)
        total_runs += runner.runs
        checked += 1
        if mismatches and shrink:
            failing = _seed_failure_predicate(
                cfg, (m.oracle for m in mismatches)
            )
            minimal = shrink_kernel(kernel, failing)
            if minimal is not kernel:
                mismatches = check_kernel(minimal, cfg, DiffRunner()) or mismatches
        for mismatch in mismatches:
            mismatch.seed = seed
        all_mismatches.extend(mismatches)
        if log:
            status = f"{len(mismatches)} mismatch(es)" if mismatches else "ok"
            log(f"seed {seed}: kernel {kernel.name} "
                f"({len(kernel.body)} ops, {kernel.total_warps} warps) {status}")
        if mismatches and report_dir is not None:
            for i, mismatch in enumerate(mismatches):
                path = Path(report_dir) / f"diffcheck-seed{seed}-{i}.json"
                report_paths.append(write_failure_report(path, mismatch.to_report()))
    return DiffCheckResult(
        mismatches=all_mismatches,
        seeds_checked=checked,
        runs=total_runs,
        elapsed=time.monotonic() - start,
        report_paths=report_paths,
    )
