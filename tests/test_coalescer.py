"""Unit tests for the hardware coalescer model."""

import random

import pytest

from repro.config import LINE_SIZE, PAGE_SIZE
from repro.gpu.coalescer import coalesce
from repro.mmu.geometry import BASE_4K
from repro.workloads.registry import get_workload, workload_names


def test_empty_instruction():
    access = coalesce([])
    assert access.num_pages == 0
    assert access.num_lines == 0
    assert access.num_lanes == 0


def test_single_address():
    access = coalesce([0x1000])
    assert access.num_pages == 1
    assert access.num_lines == 1


def test_same_line_lanes_merge():
    access = coalesce([0x1000, 0x1004, 0x1008, 0x103F])
    assert access.num_lines == 1
    assert access.num_lanes == 4


def test_same_page_different_lines():
    access = coalesce([0x1000, 0x1000 + LINE_SIZE, 0x1000 + 2 * LINE_SIZE])
    assert access.num_pages == 1
    assert access.num_lines == 3


def test_fully_divergent_lanes():
    addresses = [lane * PAGE_SIZE for lane in range(64)]
    access = coalesce(addresses)
    assert access.num_pages == 64
    assert access.num_lines == 64


def test_lines_grouped_under_their_page():
    addresses = [0x0, 0x40, PAGE_SIZE, PAGE_SIZE + 0x40]
    access = coalesce(addresses)
    assert set(access.lines_by_page) == {0, 1}
    assert len(access.lines_by_page[0]) == 2
    assert len(access.lines_by_page[1]) == 2


def test_line_addresses_are_line_aligned():
    access = coalesce([0x1234, 0x1278])
    for lines in access.lines_by_page.values():
        for line in lines:
            assert line % LINE_SIZE == 0


def test_first_touch_order_preserved():
    addresses = [3 * PAGE_SIZE, 1 * PAGE_SIZE, 2 * PAGE_SIZE]
    access = coalesce(addresses)
    assert list(access.lines_by_page) == [3, 1, 2]


def test_duplicate_addresses_count_once():
    access = coalesce([0x2000] * 64)
    assert access.num_lines == 1
    assert access.num_lanes == 64


def test_regular_unit_stride_instruction():
    # 64 lanes × 8-byte elements: 512 contiguous bytes = 8 lines, 1 page.
    addresses = [0x10000 + lane * 8 for lane in range(64)]
    access = coalesce(addresses)
    assert access.num_pages == 1
    assert access.num_lines == 8


# ----------------------------------------------------------------------
# Reference: the per-lane loop the coalescer replaced, kept as its spec
# ----------------------------------------------------------------------


def naive_coalesce(lane_addresses):
    """One lane at a time: ``(lines_by_page, num_lanes)``."""
    lines_by_page = {}
    seen_lines = {}
    num_lanes = 0
    for address in lane_addresses:
        num_lanes += 1
        line_address = (address // LINE_SIZE) * LINE_SIZE
        if line_address in seen_lines:
            continue
        seen_lines[line_address] = None
        lines_by_page.setdefault(BASE_4K.vpn(address), []).append(line_address)
    return lines_by_page, num_lanes


def assert_matches_naive(lane_addresses):
    access = coalesce(lane_addresses)
    lines_by_page, num_lanes = naive_coalesce(lane_addresses)
    # Same pages and lines, in the same first-touch order.
    assert list(access.lines_by_page.items()) == list(lines_by_page.items())
    assert access.num_lanes == num_lanes
    assert access.num_pages == len(lines_by_page)
    assert access.num_lines == sum(map(len, lines_by_page.values()))


def _random_lanes(rng):
    """Lanes in a three-page window (duplicates, line and page
    crossings) or spread over many pages, sometimes repeating a lane."""
    lanes = rng.choice((0, 1, 2, 7, 32, 64))
    base = rng.randrange(1 << 20) * PAGE_SIZE
    window = rng.choice((LINE_SIZE, 3 * PAGE_SIZE, 4096 * PAGE_SIZE))
    addresses = []
    for _ in range(lanes):
        if addresses and rng.random() < 0.2:
            addresses.append(rng.choice(addresses))
        else:
            addresses.append(base + rng.randrange(window))
    return addresses


@pytest.mark.parametrize("seed", range(8))
def test_matches_naive_loop_on_random_lanes(seed):
    rng = random.Random(seed)
    for _ in range(200):
        assert_matches_naive(_random_lanes(rng))


def test_matches_naive_loop_on_an_empty_instruction():
    assert_matches_naive([])


@pytest.mark.parametrize(
    "lanes", [[-1], [0x1000, -64], [0x1000, 0x1000, -4096 * 3]]
)
def test_negative_address_raises_like_the_naive_loop(lanes):
    with pytest.raises(ValueError):
        naive_coalesce(lanes)
    with pytest.raises(ValueError):
        coalesce(lanes)


@pytest.mark.parametrize("name", workload_names())
def test_matches_naive_loop_on_every_table2_instruction(name):
    trace = get_workload(name, scale=0.05, seed=2).build_trace(num_wavefronts=4)
    for stream in trace:
        for lane_addresses in stream:
            assert_matches_naive(lane_addresses)
