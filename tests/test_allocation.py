"""Tests for the block-group and extent allocators."""

import pytest

from repro.fs.allocation import (
    BlockGroupAllocator,
    ExtentAllocator,
    FreeExtentMap,
    MultiBlockAllocator,
)
from repro.fs.base import NoSpaceError


class TestFreeExtentMap:
    def test_initially_one_run(self):
        free_map = FreeExtentMap(100, first_block=10)
        assert free_map.runs() == [(10, 100)]
        assert free_map.free_blocks == 100

    def test_take_from_front_of_run(self):
        free_map = FreeExtentMap(100)
        start, count = free_map.take_from_run(0, 10)
        assert (start, count) == (0, 10)
        assert free_map.runs() == [(10, 90)]

    def test_take_whole_run_removes_it(self):
        free_map = FreeExtentMap(10)
        free_map.take_from_run(0, 10)
        assert len(free_map) == 0
        assert free_map.free_blocks == 0

    def test_release_coalesces_with_neighbours(self):
        free_map = FreeExtentMap(100)
        free_map.take_from_run(0, 50)
        free_map.release(0, 25)
        free_map.release(25, 25)
        assert free_map.runs() == [(0, 100)]

    def test_double_free_detected(self):
        free_map = FreeExtentMap(100)
        free_map.take_from_run(0, 10)
        free_map.release(0, 10)
        with pytest.raises(ValueError):
            free_map.release(0, 10)

    def test_find_first_fit_honours_goal(self):
        free_map = FreeExtentMap(1000)
        free_map.take_from_run(0, 500)  # free space now starts at 500
        index = free_map.find_first_fit(10, goal_block=600)
        assert index is not None

    def test_largest_run(self):
        free_map = FreeExtentMap(100)
        free_map.take_from_run(0, 40)
        assert free_map.largest_run() == 60


class TestBlockGroupAllocator:
    def test_allocate_and_free_round_trip(self):
        allocator = BlockGroupAllocator(total_blocks=100_000, blocks_per_group=10_000)
        before = allocator.free_blocks
        runs = allocator.allocate(500)
        assert sum(count for _, count in runs) == 500
        assert allocator.free_blocks == before - 500
        for start, count in runs:
            allocator.free(start, count)
        assert allocator.free_blocks == before

    def test_small_allocation_is_contiguous(self):
        allocator = BlockGroupAllocator(total_blocks=100_000, blocks_per_group=10_000)
        runs = allocator.allocate(100)
        assert len(runs) == 1

    def test_allocation_larger_than_group_splits(self):
        allocator = BlockGroupAllocator(total_blocks=100_000, blocks_per_group=10_000)
        runs = allocator.allocate(25_000)
        assert len(runs) >= 3
        assert sum(count for _, count in runs) == 25_000
        assert allocator.stats.split_allocations == 1

    def test_goal_block_groups_related_allocations(self):
        allocator = BlockGroupAllocator(total_blocks=100_000, blocks_per_group=10_000)
        first = allocator.allocate(10, goal_block=55_000)
        second = allocator.allocate(10, goal_block=first[0][0] + first[0][1])
        assert allocator.group_of_block(second[0][0]) == allocator.group_of_block(first[0][0])

    def test_out_of_space(self):
        allocator = BlockGroupAllocator(total_blocks=2_000, blocks_per_group=1_000, reserved_blocks=100)
        with pytest.raises(NoSpaceError):
            allocator.allocate(5_000)

    def test_failed_allocation_rolls_back(self):
        allocator = BlockGroupAllocator(total_blocks=2_000, blocks_per_group=1_000, reserved_blocks=100)
        free_before = allocator.free_blocks
        with pytest.raises(NoSpaceError):
            allocator.allocate(free_before + 1)
        assert allocator.free_blocks == free_before

    def test_allocations_never_overlap(self):
        allocator = BlockGroupAllocator(total_blocks=50_000, blocks_per_group=5_000)
        seen = set()
        for _ in range(50):
            for start, count in allocator.allocate(137):
                for block in range(start, start + count):
                    assert block not in seen
                    seen.add(block)

    def test_reserved_blocks_never_handed_out(self):
        allocator = BlockGroupAllocator(total_blocks=10_000, blocks_per_group=1_000, reserved_blocks=256)
        runs = allocator.allocate(5_000)
        assert min(start for start, _ in runs) >= 256

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            BlockGroupAllocator(total_blocks=100, blocks_per_group=0)
        with pytest.raises(ValueError):
            BlockGroupAllocator(total_blocks=10, reserved_blocks=20)
        allocator = BlockGroupAllocator(total_blocks=10_000)
        with pytest.raises(ValueError):
            allocator.allocate(0)
        with pytest.raises(ValueError):
            allocator.free(0, 0)

    def test_goal_in_a_trailing_stub_group_allocates(self):
        # 5 trailing blocks cannot hold a group's 8 metadata blocks, so there
        # are three groups; a goal in the stub starts from the last of them.
        allocator = BlockGroupAllocator(
            total_blocks=256 + 3 * 64 + 5, blocks_per_group=64, group_metadata_blocks=8
        )
        assert allocator.group_count == 3
        assert allocator.allocate(4, goal_block=256 + 3 * 64 + 2) == [(256 + 2 * 64 + 8, 4)]


class TestExtentAllocator:
    def test_large_allocation_stays_contiguous(self):
        allocator = ExtentAllocator(total_blocks=1_000_000, allocation_groups=4)
        runs = allocator.allocate(200_000)
        assert len(runs) == 1

    def test_contiguity_better_than_block_groups(self):
        """The XFS-style allocator should fragment a large file less."""
        extent_allocator = ExtentAllocator(total_blocks=500_000, allocation_groups=4)
        group_allocator = BlockGroupAllocator(total_blocks=500_000, blocks_per_group=32_768)
        extent_runs = extent_allocator.allocate(150_000)
        group_runs = group_allocator.allocate(150_000)
        assert len(extent_runs) <= len(group_runs)

    def test_allocate_and_free_round_trip(self):
        allocator = ExtentAllocator(total_blocks=100_000)
        before = allocator.free_blocks
        runs = allocator.allocate(5_000)
        for start, count in runs:
            allocator.free(start, count)
        assert allocator.free_blocks == before

    def test_max_extent_cap_respected(self):
        allocator = ExtentAllocator(total_blocks=1_000_000, max_extent_blocks=10_000)
        runs = allocator.allocate(35_000)
        assert all(count <= 10_000 for _, count in runs)
        assert sum(count for _, count in runs) == 35_000

    def test_out_of_space(self):
        allocator = ExtentAllocator(total_blocks=10_000)
        with pytest.raises(NoSpaceError):
            allocator.allocate(20_000)

    def test_allocations_never_overlap(self):
        allocator = ExtentAllocator(total_blocks=100_000, allocation_groups=4)
        seen = set()
        for _ in range(40):
            for start, count in allocator.allocate(953):
                for block in range(start, start + count):
                    assert block not in seen
                    seen.add(block)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ExtentAllocator(total_blocks=100, allocation_groups=0)
        with pytest.raises(ValueError):
            ExtentAllocator(total_blocks=100, reserved_blocks=200)


class TestAllocateCostIsIndependentOfGroupCount:
    """A request the goal group can hold touches only the goal group.

    Every attribute read on a :class:`FreeExtentMap` (method lookups and the
    ``free_blocks`` field alike) is counted while the allocator serves the
    same requests on a 16-group and a 4096-group device of identical group
    geometry.  Equal counts are a machine-independent guard that no
    O(groups) scan of the free maps (such as re-summing every group's free
    blocks) sits on the allocation path.
    """

    GOAL_GROUP = 5
    SIZES = (1, 3, 8, 2, 5)

    @staticmethod
    def _block_group(kind, groups):
        return kind(total_blocks=256 + groups * 64, blocks_per_group=64, group_metadata_blocks=8)

    @staticmethod
    def _extent(groups):
        return ExtentAllocator(total_blocks=256 + groups * 64, allocation_groups=groups)

    def _free_map_reads(self, monkeypatch, allocator, goal_block):
        reads = 0
        original = FreeExtentMap.__getattribute__

        def counting(free_map, name):
            nonlocal reads
            reads += 1
            return original(free_map, name)

        with monkeypatch.context() as patch:
            patch.setattr(FreeExtentMap, "__getattribute__", counting)
            runs = [allocator.allocate(size, goal_block=goal_block) for size in self.SIZES]
        assert all(len(run) == 1 for run in runs)
        return reads

    @pytest.mark.parametrize("kind", [BlockGroupAllocator, MultiBlockAllocator])
    def test_block_group_allocators(self, monkeypatch, kind):
        goal = 256 + self.GOAL_GROUP * 64 + 8
        small = self._free_map_reads(monkeypatch, self._block_group(kind, 16), goal)
        large = self._free_map_reads(monkeypatch, self._block_group(kind, 4096), goal)
        assert small > 0
        assert small == large

    def test_extent_allocator(self, monkeypatch):
        goal = 256 + self.GOAL_GROUP * 64
        small = self._free_map_reads(monkeypatch, self._extent(16), goal)
        large = self._free_map_reads(monkeypatch, self._extent(4096), goal)
        assert small > 0
        assert small == large
