"""Tests for the Ext4 model: the journal x delalloc interaction, the
multi-block allocator, snapshot round-trips, and the fourth survey cell.

The acceptance contract:

* ext4 is registered and buildable like the three case-study file systems;
* delayed allocations resolve before every journal commit (the code path
  that exists in neither the ext3 nor the xfs model);
* :class:`MultiBlockAllocator` places requests contiguously where the
  block-group allocator would split;
* ext4 states snapshot and restore bit-identically (same fingerprint), and
  restored re-runs are bit-identical;
* aged ext4 is measurably slower than fresh ext4;
* the survey grid has a fourth, distinguishable cell, serial and parallel
  runs agree bit-for-bit, and ext4 cache keys never collide with ext3/xfs.
"""

import inspect
import json
import tempfile

import pytest

from repro.aging import (
    AgingConfig,
    ChurnAger,
    load_snapshot,
    measure_fragmentation,
    restore_stack,
    run_aged_vs_fresh,
    save_snapshot,
    snapshot_stack,
)
from repro.core.benchmark import NanoBenchmark
from repro.core.dimensions import Dimension, DimensionVector
from repro.core.parallel import cache_key
from repro.core.persistence import run_result_to_dict
from repro.core.runner import BenchmarkConfig, WarmupMode, run_single_repetition
from repro.core.suite import NanoBenchmarkSuite
from repro.fs.allocation import BlockGroupAllocator, MultiBlockAllocator
from repro.fs.ext3 import JournalMode
from repro.fs.ext4 import Ext4FileSystem
from repro.fs.journal import Journal
from repro.fs.stack import DEFAULT_FS_TYPES, FS_REGISTRY, build_stack
from repro.fs.xfs import XfsFileSystem
from repro.storage.config import scaled_testbed
from repro.workloads.micro import create_delete_workload, sequential_read_workload

GiB = 1024 ** 3
MiB = 1024 ** 2

TESTBED = scaled_testbed(0.0625)


def tiny_aging_config(seed: int = 777) -> AgingConfig:
    """The same unit-test aging profile tests/test_aging.py uses."""
    return AgingConfig(
        free_space_target_bytes=64 * MiB,
        hole_bytes=256 * 1024,
        fill_file_bytes=2048 * MiB,
        churn_ops=50,
        seed=seed,
    )


# --------------------------------------------------------------------------
class TestExt4Model:
    def test_registered_and_buildable(self):
        assert "ext4" in FS_REGISTRY
        assert "ext4" in DEFAULT_FS_TYPES
        stack = build_stack("ext4", testbed=TESTBED, seed=7)
        assert stack.fs_name == "ext4"
        assert isinstance(stack.fs, Ext4FileSystem)

    def test_personality_is_the_missing_hybrid(self):
        fs = Ext4FileSystem(capacity_bytes=4 * GiB)
        # From the ext3 family: a journal with mount modes.
        assert isinstance(fs.journal, Journal)
        assert fs.journal_mode is JournalMode.ORDERED
        # From the xfs family: delalloc, extents, B-tree-ish directories.
        assert fs.delayed_allocation
        assert isinstance(fs.allocator, MultiBlockAllocator)
        assert not fs.directory_scan_is_linear
        assert fs.cluster_pages == 8

    def test_delalloc_resolves_before_journal_commit(self):
        """The defining ext4 quirk: a commit materialises reservations."""
        fs = Ext4FileSystem(capacity_bytes=4 * GiB)
        inode, _ = fs.create("/f", 0.0)
        fs.allocate_range(inode, 0, 8 * MiB, 1.0)
        assert inode.blocks_allocated() == 0  # reservation only
        assert fs.delalloc_reserved_bytes() == 8 * MiB

        # Any metadata operation commits the journal, which must resolve
        # the outstanding reservation first.
        fs.create("/other", 2.0)
        assert inode.blocks_allocated() == (8 * MiB) // fs.block_size
        assert fs.delalloc_reserved_bytes() == 0

    def test_writeback_mode_does_not_force_resolution(self):
        fs = Ext4FileSystem(capacity_bytes=4 * GiB, journal_mode=JournalMode.WRITEBACK)
        inode, _ = fs.create("/f", 0.0)
        fs.allocate_range(inode, 0, 4 * MiB, 1.0)
        fs.create("/other", 2.0)
        # data=writeback does not order data against the commit record.
        assert inode.blocks_allocated() == 0
        assert fs.delalloc_reserved_bytes() == 4 * MiB

    def test_fsync_flushes_delalloc_and_commits(self):
        fs = Ext4FileSystem(capacity_bytes=4 * GiB)
        inode, _ = fs.create("/f", 0.0)
        commits_before = fs.stats.journal_commits
        fs.allocate_range(inode, 0, 2 * MiB, 1.0)
        cost = fs.fsync_cost(inode, dirty_data_pages=4, now_ns=2.0)
        assert inode.blocks_allocated() == (2 * MiB) // fs.block_size
        assert fs.stats.journal_commits == commits_before + 1
        assert cost.flushes >= 2  # commit barrier + ordered-data flush
        journal_start = fs.journal.start_block * fs.block_size
        journal_end = (fs.journal.start_block + fs.journal.size_blocks) * fs.block_size
        assert any(
            journal_start <= r.offset_bytes < journal_end for r in cost.device_requests
        )

    def test_unlink_cancels_reservations(self):
        fs = Ext4FileSystem(capacity_bytes=4 * GiB)
        inode, _ = fs.create("/f", 0.0)
        fs.allocate_range(inode, 0, 1 * MiB, 1.0)
        fs.unlink("/f", 2.0)
        assert fs.delalloc_reserved_bytes() == 0
        # A later commit must not trip over the dead inode.
        fs.create("/other", 3.0)

    def test_commit_harvesting_fragments_more_than_undisturbed_delalloc(self):
        """Interleaved metadata commits shred ext4 files; xfs stays whole."""
        ext4 = Ext4FileSystem(capacity_bytes=4 * GiB)
        xfs = XfsFileSystem(capacity_bytes=4 * GiB)
        e4_inode, _ = ext4.create("/f", 0.0)
        x_inode, _ = xfs.create("/f", 0.0)
        for chunk in range(8):
            ext4.allocate_range(e4_inode, chunk * 256 * 1024, 256 * 1024, float(chunk))
            xfs.allocate_range(x_inode, chunk * 256 * 1024, 256 * 1024, float(chunk))
            # A metadata burst between appends: commits ext4's journal (and
            # with it the reservation); xfs logs without touching delalloc.
            ext4.create(f"/meta{chunk}", float(chunk))
            xfs.create(f"/meta{chunk}", float(chunk))
        xfs.flush_delalloc(x_inode, 99.0)
        assert e4_inode.blocks_allocated() == x_inode.blocks_allocated()
        assert len(e4_inode.extents) >= len(x_inode.extents)

        # Without interleaved commits the same appends stay one extent.
        quiet = Ext4FileSystem(capacity_bytes=4 * GiB)
        q_inode, _ = quiet.create("/f", 0.0)
        for chunk in range(8):
            quiet.allocate_range(q_inode, chunk * 256 * 1024, 256 * 1024, float(chunk))
        quiet.flush_delalloc(q_inode, 99.0)
        assert len(q_inode.extents) == 1


# --------------------------------------------------------------------------
class TestMultiBlockAllocator:
    def test_prefers_one_contiguous_run_where_block_groups_split(self):
        mballoc = MultiBlockAllocator(total_blocks=100_000, blocks_per_group=8192)
        bitmap = BlockGroupAllocator(total_blocks=100_000, blocks_per_group=8192)
        # Shred the whole goal group of both allocators identically: fill it
        # with 64-block files, then checkerboard-delete, leaving only
        # 64-block holes (no run can satisfy 1024 contiguously).
        chunks = (8192 - 64) // 64  # data blocks in a group / chunk size
        for allocator in (mballoc, bitmap):
            held = []
            for _ in range(chunks):
                held.append(allocator.allocate(64, goal_block=0)[0])
            for index, (start, count) in enumerate(held):
                if index % 2 == 0:
                    allocator.free(start, count)
        # A request larger than any hole in the goal group: mballoc walks to
        # a group with a contiguous run, the bitmap allocator splits in place.
        mb_runs = mballoc.allocate(1024, goal_block=0)
        bg_runs = bitmap.allocate(1024, goal_block=0)
        assert len(mb_runs) == 1
        assert len(bg_runs) > 1

    def test_requests_beyond_a_group_still_split(self):
        allocator = MultiBlockAllocator(total_blocks=100_000, blocks_per_group=8192)
        runs = allocator.allocate(3 * 8192)
        assert len(runs) > 1
        assert sum(count for _, count in runs) == 3 * 8192

    def test_shares_free_space_inspection_and_snapshot_surface(self):
        allocator = MultiBlockAllocator(total_blocks=100_000)
        keep = allocator.allocate(500)
        allocator.allocate(300)
        for start, count in keep:
            allocator.free(start, count)
        stats = allocator.free_space_stats()
        assert stats.free_blocks == allocator.free_blocks
        assert stats.extent_count == len(allocator.free_runs())
        twin = MultiBlockAllocator(total_blocks=100_000)
        twin.restore_free_state(json.loads(json.dumps(allocator.export_free_state())))
        assert twin.free_runs() == allocator.free_runs()


# --------------------------------------------------------------------------
class TestExt4Snapshots:
    def _busy_ext4_stack(self):
        stack = build_stack("ext4", testbed=TESTBED, seed=11)
        vfs = stack.vfs
        vfs.mkdir("/d")
        vfs.create("/d/a")
        fd = vfs.open("/d/a")
        vfs.write(fd, 256 * 1024, offset=0)
        vfs.read(fd, 64 * 1024, offset=0)
        vfs.fsync(fd)
        # Leave an *outstanding* reservation so the delalloc section of the
        # snapshot is exercised, not just the happy flushed path.
        vfs.create("/d/b")
        fdb = vfs.open("/d/b")
        vfs.write(fdb, 128 * 1024, offset=0)
        assert stack.fs.delalloc_reserved_bytes() > 0
        return stack

    def test_snapshot_roundtrip_is_bit_identical(self, tmp_path):
        stack = self._busy_ext4_stack()
        snapshot = snapshot_stack(stack)
        path = str(tmp_path / "ext4.snapshot.json")
        save_snapshot(snapshot, path)
        restored = restore_stack(load_snapshot(path), restore_rng=True)
        again = snapshot_stack(restored)
        assert again.fingerprint == snapshot.fingerprint
        assert restored.fs.delalloc_reserved_bytes() == stack.fs.delalloc_reserved_bytes()
        assert restored.fs.journal._head == stack.fs.journal._head

    def test_aged_ext4_restored_reruns_are_bit_identical(self, tmp_path):
        stack = build_stack("ext4", testbed=TESTBED, seed=21)
        ChurnAger(tiny_aging_config()).age(stack)
        path = str(tmp_path / "aged-ext4.json")
        save_snapshot(snapshot_stack(stack), path)
        spec = sequential_read_workload(24 * MiB)
        config = BenchmarkConfig(duration_s=1.0, repetitions=1, warmup_mode=WarmupMode.NONE)
        results = [
            run_single_repetition("ext4", spec, 0, TESTBED, config, snapshot_path=path)
            for _ in range(2)
        ]
        serialized = [
            json.dumps(run_result_to_dict(run), sort_keys=True) for run in results
        ]
        assert serialized[0] == serialized[1]

    def test_aged_ext4_fragmentation_is_measured(self):
        stack = build_stack("ext4", testbed=TESTBED, seed=5)
        ChurnAger(tiny_aging_config()).age(stack)
        report = measure_fragmentation(stack.fs)
        assert report.fs_name == "ext4"
        assert report.free_space is not None
        assert report.free_space.fragmentation_score > 0.5

    @pytest.mark.slow
    def test_aged_vs_fresh_slowdown_on_ext4(self):
        result = run_aged_vs_fresh(
            fs_types=("ext4",),
            testbed=TESTBED,
            quick=True,
            snapshot_dir=tempfile.mkdtemp(prefix="fsbench-ext4-"),
        )
        cell = result.cells["ext4"]
        assert cell.slowdown_factor > 1.05, (
            f"ext4: aged state did not slow the benchmark "
            f"(factor {cell.slowdown_factor:.3f})"
        )
        assert cell.warnings, "ext4: expected an aging fragility warning"
        assert "ext4" in result.render()


# --------------------------------------------------------------------------
class TestExt4SurveyCell:
    def test_default_grids_include_ext4(self):
        assert DEFAULT_FS_TYPES == ("ext2", "ext3", "ext4", "xfs")
        # The suite and survey commands both measure this one suite grid.
        default = inspect.signature(NanoBenchmarkSuite.as_experiment).parameters["fs_types"].default
        assert "ext4" in default

    def test_cli_accepts_ext4_everywhere(self):
        from repro.cli import _build_parser

        parser = _build_parser()
        for argv in (
            ["suite", "--fs", "ext4"],
            ["survey", "--fs", "ext4"],
            ["age", "--fs", "ext4"],
            ["figure1", "--fs", "ext4"],
            ["figure2", "--fs", "ext4"],
        ):
            args = parser.parse_args(argv)
            fs = args.fs if isinstance(args.fs, str) else args.fs[0]
            assert fs == "ext4"

    def test_fourth_cell_is_distinguishable(self):
        """The metadata dimension separates all four file systems."""
        spec = create_delete_workload(file_count=100, directories=5)
        config = BenchmarkConfig(duration_s=1.0, repetitions=1, warmup_mode=WarmupMode.NONE)
        throughputs = {
            fs: run_single_repetition(fs, spec, 0, TESTBED, config).throughput_ops_s
            for fs in DEFAULT_FS_TYPES
        }
        assert len(set(throughputs.values())) == 4, throughputs

    def test_suite_on_ext4_is_bit_identical_serial_vs_parallel(self):
        benchmarks = [
            NanoBenchmark(
                name="tiny-meta",
                description="",
                workload_factory=lambda: create_delete_workload(file_count=40, directories=4),
                dimensions=DimensionVector.of(isolates=[Dimension.METADATA]),
                config=BenchmarkConfig(
                    duration_s=0.5, repetitions=2, warmup_mode=WarmupMode.NONE
                ),
            )
        ]
        serial = NanoBenchmarkSuite(benchmarks, testbed=TESTBED, n_workers=1).as_experiment(
            ("ext4",)
        ).run()
        parallel = NanoBenchmarkSuite(benchmarks, testbed=TESTBED, n_workers=2).as_experiment(
            ("ext4",)
        ).run()
        for name in serial.axis_values("workload"):
            before = [run_result_to_dict(r) for r in serial.result_for(workload=name, fs="ext4").runs]
            after = [run_result_to_dict(r) for r in parallel.result_for(workload=name, fs="ext4").runs]
            assert json.dumps(before, sort_keys=True) == json.dumps(after, sort_keys=True)

    def test_cache_keys_separate_ext4_from_every_other_fs(self, tmp_path):
        spec = sequential_read_workload(8 * MiB)
        config = BenchmarkConfig(duration_s=1.0, repetitions=1)
        keys = {fs: cache_key(fs, spec, config, 42, TESTBED) for fs in DEFAULT_FS_TYPES}
        assert len(set(keys.values())) == 4
        # And the aged-state axis separates further: an ext4 snapshot
        # fingerprint joins the key without colliding with fresh ext4.
        stack = build_stack("ext4", testbed=TESTBED, seed=11)
        ChurnAger(tiny_aging_config()).age(stack)
        fingerprint = snapshot_stack(stack).fingerprint
        aged_key = cache_key(
            "ext4", spec, config, 42, TESTBED, snapshot_fingerprint=fingerprint
        )
        assert aged_key not in keys.values()
