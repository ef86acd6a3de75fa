"""Tests for configuration (de)serialisation."""

from operator import attrgetter

import pytest

from repro.config import CacheConfig, SystemConfig, TLBConfig, baseline_config
from repro.config_io import (
    config_from_dict,
    config_to_dict,
    load_config,
    save_config,
)


def test_round_trip_identity():
    config = baseline_config("simt").with_l2_tlb_entries(1024)
    rebuilt = config_from_dict(config_to_dict(config))
    assert rebuilt == config


@pytest.mark.parametrize("data, expected", [
    ({"iommu": {"scheduler": "simt"}},
     {"iommu.scheduler": "simt", "iommu.buffer_entries": 256, "gpu.num_cus": 8}),
    # A partial section keeps the machine's values, not its class's.
    ({"gpu_l2_tlb": {"entries": 1024}},
     {"gpu_l2_tlb": TLBConfig(entries=1024, associativity=16, hit_latency=10)}),
    ({"iommu": {"l1_tlb": {"entries": 16}}},
     {"iommu.l1_tlb": TLBConfig(entries=16, associativity=None, hit_latency=20),
      "iommu.scheduler": "fcfs"}),
    ({"l1_cache": {"hit_latency": 8}},
     {"l1_cache": CacheConfig(size_bytes=32 * 1024, associativity=16, hit_latency=8)}),
], ids=["iommu-scheduler", "gpu_l2_tlb-entries", "iommu-l1_tlb-entries",
        "l1_cache-hit_latency"])
def test_partial_dict_keeps_defaults(data, expected):
    config = config_from_dict(data)
    for path, value in expected.items():
        assert attrgetter(path)(config) == value


def test_nested_overrides():
    config = config_from_dict(
        {"iommu": {"pwc": {"entries_per_level": 32, "associativity": 8}}}
    )
    assert config.iommu.pwc.entries_per_level == 32
    assert config.iommu.l2_tlb.entries == 256


def test_unknown_key_rejected():
    with pytest.raises(ValueError, match="unknown SystemConfig keys"):
        config_from_dict({"walkers": 16})


def test_unknown_nested_key_rejected():
    with pytest.raises(ValueError, match="unknown IOMMUConfig keys"):
        config_from_dict({"iommu": {"sheduler": "simt"}})


def test_invalid_values_still_validated():
    with pytest.raises(ValueError):
        config_from_dict({"gpu_l2_tlb": {"entries": 0}})


def test_file_round_trip(tmp_path):
    path = tmp_path / "config.json"
    config = baseline_config().with_walkers(16)
    save_config(config, path)
    assert load_config(path) == config


def test_loaded_config_runs():
    from repro.experiments.runner import run_simulation
    from repro.workloads.synthetic import ParametricWorkload

    config = config_from_dict(
        {
            "gpu": {"num_cus": 2, "wavefront_slots_per_cu": 2},
            "iommu": {"scheduler": "simt", "num_walkers": 2},
        }
    )
    workload = ParametricWorkload(
        pages_per_instruction=4, instructions_per_wavefront=4, footprint_mb=8.0
    )
    result = run_simulation(workload, config=config, num_wavefronts=2)
    assert result.scheduler == "simt"
    assert result.total_cycles > 0


def test_to_dict_requires_dataclass():
    with pytest.raises(TypeError):
        config_to_dict({"not": "a dataclass"})
