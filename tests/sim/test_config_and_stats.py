"""Tests for configuration handling and the statistics object."""

import ast
from pathlib import Path

import pytest

from repro.sim.coalescer import WARP_SIZE
from repro.sim.config import (
    CoreConfig,
    DramConfig,
    GpuConfig,
    PrefetchCacheConfig,
    ThrottleConfig,
    baseline_config,
)
from repro.sim.stats import SimStats

SRC = Path(__file__).resolve().parents[2] / "src"


class TestConfig:
    def test_baseline_matches_table2(self):
        cfg = baseline_config()
        assert cfg.num_cores == 14
        assert cfg.core.issue_cycles_default == 4
        assert cfg.core.issue_cycles_imul == 16
        assert cfg.core.issue_cycles_fdiv == 32
        assert cfg.prefetch_cache.size_bytes == 16 * 1024
        assert cfg.prefetch_cache.associativity == 8
        assert cfg.interconnect.latency == 20
        assert cfg.dram.num_channels == 8
        assert cfg.dram.banks_per_channel == 16
        assert cfg.dram.row_bytes == 2048

    def test_memory_clock_conversion(self):
        dram = DramConfig.from_memory_clock()
        # tCL=11 @ 1.2GHz -> 11 * 0.75 = 8.25 -> 8 core cycles, etc.
        assert dram.t_cl == 8
        assert dram.t_rcd == 8
        assert dram.t_rp == 10

    def test_memory_clock_overrides(self):
        dram = DramConfig.from_memory_clock(pipeline_latency=7)
        assert dram.pipeline_latency == 7

    def test_replace_is_immutable_copy(self):
        cfg = baseline_config()
        other = cfg.replace(num_cores=8)
        assert cfg.num_cores == 14
        assert other.num_cores == 8
        with pytest.raises(Exception):
            cfg.num_cores = 9  # frozen dataclass

    def test_prefetch_cache_sets(self):
        assert PrefetchCacheConfig().num_sets == 32
        assert PrefetchCacheConfig(size_bytes=1024, associativity=8).num_sets == 2

    def test_configs_hashable_for_cache_keys(self):
        {baseline_config(): 1, baseline_config(num_cores=8): 2}

    def test_throttle_config_defaults(self):
        t = ThrottleConfig()
        assert not t.enabled
        assert t.max_degree == 5
        assert t.early_eviction_high > t.early_eviction_low


class TestConfigValidation:
    """Nonsensical machine descriptions fail loudly at construction."""

    @pytest.mark.parametrize(
        "kwargs, needle",
        [
            ({"num_cores": 0}, "num_cores"),
            ({"num_cores": -3}, "num_cores"),
            ({"max_cycles": 0}, "max_cycles"),
        ],
    )
    def test_top_level_rejections(self, kwargs, needle):
        with pytest.raises(ValueError, match=needle):
            baseline_config(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, needle",
        [
            ({"registers_per_core": 0}, "registers_per_core"),
            ({"shared_memory_bytes": -1}, "shared_memory_bytes"),
            ({"mrq_size": 0}, "mrq_size"),
            ({"max_blocks_limit": 0}, "max_blocks_limit"),
            ({"max_threads_per_core": 8}, "max_threads_per_core"),
            ({"issue_cycles_fdiv": 0}, "issue_cycles_fdiv"),
            ({"issue_cycles_default": 0}, "issue_cycles_default"),
        ],
    )
    def test_core_rejections(self, kwargs, needle):
        with pytest.raises(ValueError, match=needle):
            CoreConfig(**kwargs)

    def test_mrq_must_hold_one_warp_instruction(self):
        """A warp access touches at most one line per thread, so an MRQ of
        WARP_SIZE entries takes any instruction whole once it drains; a
        smaller one could wedge a core on a single uncoalesced access."""
        with pytest.raises(ValueError, match=f"warp size, {WARP_SIZE}"):
            CoreConfig(mrq_size=WARP_SIZE - 1)
        assert CoreConfig(mrq_size=WARP_SIZE).mrq_size == 32

    @pytest.mark.parametrize(
        "kwargs, needle",
        [
            ({"size_bytes": 0}, "size_bytes"),
            ({"associativity": 0}, "associativity"),
            ({"size_bytes": -1024}, "size_bytes"),
        ],
    )
    def test_prefetch_cache_rejections(self, kwargs, needle):
        with pytest.raises(ValueError, match=needle):
            PrefetchCacheConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, needle",
        [
            ({"num_channels": 0}, "num_channels"),
            ({"banks_per_channel": 0}, "banks_per_channel"),
            ({"row_bytes": 32}, "row_bytes"),
            ({"burst_cycles": 0}, "burst_cycles"),
            ({"pipeline_latency": -1}, "pipeline_latency"),
            ({"t_cl": -1}, "t_cl"),
            ({"t_rcd": -1}, "t_rcd"),
            ({"t_rp": -1}, "t_rp"),
        ],
    )
    def test_dram_rejections(self, kwargs, needle):
        with pytest.raises(ValueError, match=needle):
            DramConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, needle",
        [
            ({"period": 0}, "period"),
            ({"initial_degree": 7}, "initial_degree"),
            ({"initial_degree": -1}, "initial_degree"),
            ({"early_eviction_low": 0.5, "early_eviction_high": 0.1}, "low <= high"),
        ],
    )
    def test_throttle_rejections(self, kwargs, needle):
        with pytest.raises(ValueError, match=needle):
            ThrottleConfig(**kwargs)

    def test_replace_revalidates(self):
        cfg = baseline_config()
        with pytest.raises(ValueError, match="num_cores"):
            cfg.replace(num_cores=0)

    def test_messages_are_actionable(self):
        with pytest.raises(ValueError) as excinfo:
            baseline_config(num_cores=0)
        message = str(excinfo.value)
        assert "invalid simulator configuration" in message
        assert "got 0" in message

    def test_valid_edge_values_accepted(self):
        baseline_config(num_cores=1, max_cycles=1)
        CoreConfig(max_threads_per_core=32)
        ThrottleConfig(initial_degree=0)
        ThrottleConfig(initial_degree=5)


MACHINE_CONFIGS = ("CoreConfig", "PrefetchCacheConfig", "InterconnectConfig",
                   "DramConfig", "ThrottleConfig", "GpuConfig")


def _config_fields_never_read():
    """``Class.field`` for every machine-config field that no code under
    ``src/repro`` loads as an attribute outside the config classes' own
    bodies (their validation does not count as a use)."""
    fields, loaded = {}, set()
    for path in sorted((SRC / "repro").rglob("*.py")):
        stack = [ast.parse(path.read_text(encoding="utf-8"))]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.ClassDef) and node.name in MACHINE_CONFIGS:
                fields.update(
                    (f"{node.name}.{stmt.target.id}", stmt.target.id)
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                )
                continue
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
            stack.extend(ast.iter_child_nodes(node))
    assert {name.split(".")[0] for name in fields} == set(MACHINE_CONFIGS)
    return sorted(key for key, attr in fields.items() if attr not in loaded)


def test_every_machine_config_field_is_read():
    """A Table II knob the simulator never reads misstates the model:
    changing it changes only the spec fingerprint."""
    assert _config_fields_never_read() == []


class TestSimStats:
    def test_cpi(self):
        stats = SimStats(cycles=1000, num_cores=14, instructions=3500)
        assert stats.cpi == 4.0
        assert SimStats().cpi == 0.0

    def test_accuracy_and_coverage(self):
        stats = SimStats(
            prefetch_requests_issued=100,
            useful_prefetches=80,
            demand_lines_to_memory=300,
            prefetch_cache_hits=100,
        )
        assert stats.prefetch_accuracy == 0.8
        assert stats.prefetch_coverage == pytest.approx(80 / 400)

    def test_accuracy_capped_at_one(self):
        stats = SimStats(prefetch_requests_issued=10, useful_prefetches=15)
        assert stats.prefetch_accuracy == 1.0

    def test_latency_and_ratios(self):
        stats = SimStats(
            demand_latency_sum=5000,
            demand_latency_count=10,
            prefetch_requests_issued=50,
            late_prefetches=25,
            early_evictions=5,
            intra_core_merges=30,
            total_mrq_requests=120,
        )
        assert stats.avg_demand_latency == 500.0
        assert stats.late_prefetch_fraction == 0.5
        assert stats.early_prefetch_ratio == 0.1
        assert stats.merge_ratio == 0.25

    def test_early_eviction_rate_edge_cases(self):
        assert SimStats(early_evictions=3, useful_prefetches=0).early_eviction_rate == 3
        stats = SimStats(early_evictions=2, useful_prefetches=100)
        assert stats.early_eviction_rate == 0.02

    def test_as_dict_round_trip(self):
        stats = SimStats(cycles=100, num_cores=2, instructions=50)
        d = stats.as_dict()
        assert d["cycles"] == 100
        assert d["cpi"] == stats.cpi
        assert "prefetch_accuracy" in d

    def test_row_hit_rate(self):
        stats = SimStats(dram_row_hits=90, dram_row_misses=10)
        assert stats.row_hit_rate == 0.9
        assert SimStats().row_hit_rate == 0.0

    def test_truncated_flag_serializes(self):
        stats = SimStats(cycles=10, truncated=True)
        assert stats.as_dict()["truncated"] is True
        assert SimStats.from_dict(stats.to_dict()).truncated is True
        assert SimStats().truncated is False
