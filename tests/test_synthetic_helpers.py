"""Tests for the access-pattern building blocks in workloads.synthetic."""

import random

import pytest

from repro.config import PAGE_SIZE
from repro.mmu.geometry import BASE_4K
from repro.workloads.base import VirtualAddressSpace
from repro.workloads.synthetic import coalesced, random_lanes, row_strided


@pytest.fixture
def region():
    space = VirtualAddressSpace()
    return space.allocate("data", 8 * 1024 * 1024)


def test_coalesced_addresses_are_consecutive(region):
    addresses = coalesced(region, start_element=10, lanes=8, element_size=8)
    assert addresses == [region.base + (10 + lane) * 8 for lane in range(8)]


def test_coalesced_stays_on_few_pages(region):
    addresses = coalesced(region, 0, 64, 8)
    pages = {BASE_4K.vpn(a) for a in addresses}
    assert len(pages) <= 2  # 512 bytes never spans more than 2 pages


def test_row_strided_hits_distinct_pages_for_big_rows(region):
    row_elements = PAGE_SIZE  # 4096 × 8 B = 8 pages per row
    addresses = row_strided(region, 0, row_elements, column=5, lanes=16)
    pages = {BASE_4K.vpn(a) for a in addresses}
    assert len(pages) == 16


def test_row_strided_column_offsets(region):
    addresses = row_strided(region, 2, 1024, column=3, lanes=4)
    assert addresses[0] == region.element(2 * 1024 + 3)
    assert addresses[1] == region.element(3 * 1024 + 3)


def test_row_strided_bounds_checked(region):
    with pytest.raises(IndexError):
        row_strided(region, 10_000_000, 1024, 0, 4)


def test_random_lanes_within_region(region):
    rng = random.Random(0)
    addresses = random_lanes(region, rng, 64)
    assert all(region.base <= a < region.end for a in addresses)


def test_random_lanes_deterministic_per_seed(region):
    assert random_lanes(region, random.Random(7), 16) == random_lanes(
        region, random.Random(7), 16
    )


def test_random_lanes_spread_across_pages(region):
    rng = random.Random(1)
    addresses = random_lanes(region, rng, 64)
    pages = {BASE_4K.vpn(a) for a in addresses}
    assert len(pages) > 32  # 2048-page region: collisions are rare


# ----------------------------------------------------------------------
# Bounds of the range-built progressions, checked at both ends
# ----------------------------------------------------------------------


@pytest.fixture
def one_page():
    return VirtualAddressSpace().allocate("page", PAGE_SIZE)


def test_coalesced_last_lane_out_of_range_raises(one_page):
    last = PAGE_SIZE // 8 - 1
    assert coalesced(one_page, last - 3, 4)[-1] == one_page.element(last)
    with pytest.raises(IndexError):
        coalesced(one_page, last - 2, 4)


def test_row_strided_last_lane_out_of_range_raises(one_page):
    # 512 elements: rows of 256 put lanes at 0 and 256, then 512 (out).
    assert row_strided(one_page, 0, 256, 0, 2) == [
        one_page.element(0), one_page.element(256)
    ]
    with pytest.raises(IndexError):
        row_strided(one_page, 0, 256, 0, 3)


def test_zero_lanes_return_nothing(one_page):
    assert coalesced(one_page, 0, 0) == []
    assert row_strided(one_page, 0, 256, 0, 0) == []


def test_zero_row_stride_repeats_one_address(one_page):
    assert row_strided(one_page, 3, 0, 5, 4) == [one_page.element(5)] * 4


@pytest.mark.parametrize("seed", range(4))
def test_progressions_match_the_per_lane_formula(region, seed):
    rng = random.Random(seed)
    for _ in range(100):
        lanes = rng.randrange(65)
        size = rng.choice((1, 2, 4, 8))
        start = rng.randrange(region.size // size - 64)
        assert coalesced(region, start, lanes, size) == [
            region.element(start + lane, size) for lane in range(lanes)
        ]
        row_elements = rng.randrange(2048)
        first_row = rng.randrange(8)
        column = rng.randrange(64)
        assert row_strided(region, first_row, row_elements, column, lanes, 1) == [
            region.element((first_row + lane) * row_elements + column, 1)
            for lane in range(lanes)
        ]


def test_checked_gather_rejects_a_lane_outside_the_region(one_page):
    inside = [one_page.base, one_page.end - 1]
    assert one_page.checked(inside) is inside
    assert one_page.checked([]) == []
    for outside in (one_page.base - 1, one_page.end):
        with pytest.raises(IndexError):
            one_page.checked(inside + [outside])
