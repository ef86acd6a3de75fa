"""Unit tests for configuration dataclasses (paper Table I defaults)."""

import pytest

from repro.config import (
    CacheConfig,
    DRAMConfig,
    GPUConfig,
    IOMMUConfig,
    PWCConfig,
    SystemConfig,
    TLBConfig,
    baseline_config,
)
from repro.config_io import config_from_dict


class TestTableIDefaults:
    """The default SystemConfig must match the paper's Table I."""

    def test_gpu_clock_and_cus(self):
        gpu = SystemConfig().gpu
        assert gpu.clock_ghz == 2.0
        assert gpu.num_cus == 8
        assert gpu.simd_units_per_cu == 4
        assert gpu.simd_width == 16
        assert gpu.wavefront_size == 64

    def test_l1_data_cache(self):
        l1 = SystemConfig().l1_cache
        assert l1.size_bytes == 32 * 1024
        assert l1.associativity == 16
        assert l1.line_size == 64

    def test_l2_data_cache(self):
        l2 = SystemConfig().l2_cache
        assert l2.size_bytes == 4 * 1024 * 1024
        assert l2.associativity == 16

    def test_gpu_l1_tlb_fully_associative(self):
        tlb = SystemConfig().gpu_l1_tlb
        assert tlb.entries == 32
        assert tlb.associativity is None
        assert tlb.num_sets == 1

    def test_gpu_l2_tlb(self):
        tlb = SystemConfig().gpu_l2_tlb
        assert tlb.entries == 512
        assert tlb.associativity == 16
        assert tlb.num_sets == 32

    def test_iommu(self):
        iommu = SystemConfig().iommu
        assert iommu.buffer_entries == 256
        assert iommu.num_walkers == 8
        assert iommu.l1_tlb.entries == 32
        assert iommu.l2_tlb.entries == 256
        assert iommu.scheduler == "fcfs"

    def test_dram(self):
        dram = SystemConfig().dram
        assert dram.channels == 2
        assert dram.ranks_per_channel == 2
        assert dram.banks_per_rank == 16
        assert dram.total_banks == 64


class TestValidation:
    def test_cache_rejects_zero_size(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=0, associativity=4)

    def test_cache_rejects_non_line_multiple(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=100, associativity=4)

    @pytest.mark.parametrize("line_size", [32, 128])
    def test_cache_rejects_a_line_size_other_than_64(self, line_size):
        # The coalescer, caches and DRAM all index 64-byte lines, so any
        # other line size only shrank or grew the set count.
        with pytest.raises(ValueError, match="line_size"):
            CacheConfig(size_bytes=32 * 1024, associativity=16,
                        line_size=line_size)
        with pytest.raises(ValueError, match="line_size"):
            config_from_dict({"l1_cache": {
                "size_bytes": 32 * 1024, "associativity": 16,
                "line_size": line_size,
            }})

    @pytest.mark.parametrize("field, value", [
        ("channels", 0),
        ("ranks_per_channel", 0),
        ("banks_per_rank", 0),
        ("row_size_bytes", 0),
        ("sms_batch_cap", 0),
        ("t_cas", -5),
        ("t_rcd", -1),
        ("t_rp", -1),
        ("t_burst", -1),
        ("controller", "bogus"),
    ])
    def test_dram_rejects_a_value_outside_its_domain(self, field, value):
        # Each of these used to fail late (a ZeroDivisionError in the
        # address map, an event scheduled in the past, an unknown policy
        # inside build_system) or run silently (a batch cap of 0 as 1).
        with pytest.raises(ValueError, match=field):
            config_from_dict({"dram": {field: value}})

    def test_cache_rejects_zero_ways(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1024, associativity=0)

    def test_tlb_rejects_zero_entries(self):
        with pytest.raises(ValueError):
            TLBConfig(entries=0)

    def test_tlb_rejects_uneven_sets(self):
        with pytest.raises(ValueError):
            TLBConfig(entries=30, associativity=4)

    def test_pwc_rejects_uneven_sets(self):
        with pytest.raises(ValueError):
            PWCConfig(entries_per_level=10, associativity=4)


class TestDerivedProperties:
    def test_cache_num_sets(self):
        cache = CacheConfig(size_bytes=32 * 1024, associativity=16)
        assert cache.num_lines == 512
        assert cache.num_sets == 32

    def test_total_wavefront_slots(self):
        gpu = GPUConfig(num_cus=8, wavefront_slots_per_cu=4)
        assert gpu.total_wavefront_slots == 32

    def test_fully_associative_tlb_single_set(self):
        assert TLBConfig(entries=32).num_sets == 1


class TestConfigHelpers:
    def test_with_scheduler_replaces_policy(self):
        config = baseline_config().with_scheduler("simt")
        assert config.iommu.scheduler == "simt"
        # Original default untouched (dataclass replace semantics).
        assert baseline_config().iommu.scheduler == "fcfs"

    def test_with_scheduler_sets_seed(self):
        config = baseline_config().with_scheduler("random", seed=7)
        assert config.iommu.scheduler_seed == 7

    def test_with_l2_tlb_entries(self):
        config = baseline_config().with_l2_tlb_entries(1024)
        assert config.gpu_l2_tlb.entries == 1024
        assert config.gpu_l2_tlb.associativity == 16

    def test_with_walkers(self):
        assert baseline_config().with_walkers(16).iommu.num_walkers == 16

    def test_with_iommu_buffer(self):
        assert baseline_config().with_iommu_buffer(512).iommu.buffer_entries == 512

    def test_helpers_compose(self):
        config = (
            baseline_config()
            .with_l2_tlb_entries(1024)
            .with_walkers(16)
            .with_scheduler("simt")
        )
        assert config.gpu_l2_tlb.entries == 1024
        assert config.iommu.num_walkers == 16
        assert config.iommu.scheduler == "simt"

    def test_baseline_config_scheduler_argument(self):
        assert baseline_config("simt").iommu.scheduler == "simt"
