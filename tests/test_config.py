"""Unit tests for configuration dataclasses (paper Table I defaults)."""

from dataclasses import fields, is_dataclass, replace

import pytest

from repro import run_simulation
from repro.config import (
    POSITIVE,
    CacheConfig,
    DRAMConfig,
    GPUConfig,
    IOMMUConfig,
    PWCConfig,
    SystemConfig,
    TLBConfig,
    baseline_config,
    table1_rows,
)
from repro.config_io import config_from_dict
from repro.experiments import runner


def overrides(path, value):
    """The partial ``config_from_dict`` tree setting dotted ``path``."""
    *sections, name = path.split(".")
    tree = {name: value}
    for key in reversed(sections):
        tree = {key: tree}
    return tree


#: Each configuration section: where one sits in a configuration tree,
#: and values for the fields it requires.
SECTIONS = {
    GPUConfig: ("gpu", {}),
    CacheConfig: ("l1_cache", {"size_bytes": 1024, "associativity": 4}),
    TLBConfig: ("iommu.l1_tlb", {"entries": 16}),
    PWCConfig: ("iommu.pwc", {}),
    IOMMUConfig: ("iommu", {}),
    DRAMConfig: ("dram", {}),
    SystemConfig: ("", {}),
}

#: Fields whose values no domain bounds: any seed works, the registry
#: decides the scheduler, and a fault plan checks itself.
UNBOUNDED = {"faults", "scheduler_seed", "scheduler"}


def first_outside(domain):
    """The first value outside ``domain``."""
    if isinstance(domain, tuple):
        return "bogus"
    return 0 if domain == POSITIVE else -1


class TestTableIDefaults:
    """The default SystemConfig must match the paper's Table I."""

    def test_gpu_clock_and_cus(self):
        gpu = SystemConfig().gpu
        assert gpu.num_cus == 8
        assert gpu.wavefront_size == 64
        # No model reads the clock or the SIMD organisation; Table I
        # states the paper's.
        assert table1_rows()[0]["configuration"] == (
            "2GHz, 8 CUs, 4 SIMD per CU, 16 SIMD width, "
            "64 threads per wavefront"
        )

    def test_l1_data_cache(self):
        l1 = SystemConfig().l1_cache
        assert l1.size_bytes == 32 * 1024
        assert l1.associativity == 16
        assert l1.num_lines == 512

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

    @pytest.mark.parametrize("section, item", [
        pytest.param(section, item, id=f"{section.__name__}.{item.name}")
        for section in SECTIONS
        for item in fields(section)
        if "domain" in item.metadata
    ])
    def test_a_value_outside_its_domain_is_rejected(self, section, item):
        path, required = SECTIONS[section]
        values = {**required, item.name: first_outside(item.metadata["domain"])}
        with pytest.raises(ValueError, match=rf"\b{item.name}\b"):
            section(**values)
        with pytest.raises(ValueError, match=rf"\b{item.name}\b"):
            config_from_dict(overrides(path, values) if path else values)

    @pytest.mark.parametrize("section", SECTIONS, ids=lambda s: s.__name__)
    def test_every_field_declares_a_domain(self, section):
        instance = section(**SECTIONS[section][1])
        undeclared = [
            item.name
            for item in fields(section)
            if "domain" not in item.metadata
            and item.name not in UNBOUNDED
            and not isinstance(getattr(instance, item.name), bool)
            and not is_dataclass(getattr(instance, item.name))
        ]
        assert undeclared == []

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


#: Invalid values that used to reach the simulation.  On XSB (scale
#: 0.05, 4 wavefronts) the first six ran to the end, the next five
#: drained the event queue with work outstanding, two divided by zero,
#: five scheduled an event in the past mid-run and three failed only
#: inside build_system.
PROBES = [
    ("iommu.coalesce_walks", "bogus"),
    ("iommu.scan_latency_cycles", -1),
    ("iommu.aging_threshold", 0),
    ("iommu.pwc.counter_bits", 0),
    ("l1_cache.hit_latency", -1),
    ("iommu.l1_tlb.hit_latency", -1),
    ("gpu.num_cus", 0),
    ("gpu.wavefront_slots_per_cu", 0),
    ("gpu.max_outstanding_memops", 0),
    ("gpu.wavefront_size", 0),
    ("iommu.num_walkers", 0),
    ("gpu.l2_tlb_lookups_per_cycle", 0),
    ("gpu.coalescer_pages_per_cycle", 0),
    ("gpu.issue_gap_cycles", -1),
    ("gpu.dispatch_stagger_cycles", -1),
    ("iommu.request_latency", -1),
    ("iommu.response_latency", -1),
    ("gpu_l1_tlb.hit_latency", -1),
    ("iommu.buffer_entries", 0),
    ("iommu.scheduler", "nope"),
    ("page_size", "1G"),
]


def with_value(config, path, value):
    """``config`` with the field at dotted ``path`` set to ``value``."""
    name, _, rest = path.partition(".")
    if rest:
        value = with_value(getattr(config, name), rest, value)
    return replace(config, **{name: value})


@pytest.mark.parametrize("path, value", PROBES)
def test_run_simulation_never_builds_an_invalid_machine(path, value, monkeypatch):
    def build_system(*args, **kwargs):
        raise AssertionError(f"built a machine with {path}={value!r}")

    monkeypatch.setattr(runner, "build_system", build_system)
    with pytest.raises(ValueError, match=rf"\b{path.split('.')[-1]}\b"):
        run_simulation(
            "XSB", config=with_value(baseline_config(), path, value),
            scale=0.05, num_wavefronts=4,
        )


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
