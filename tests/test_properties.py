"""Property-based tests (hypothesis) for core data structures and invariants."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.histogram import from_latencies
from repro.core.stats import confidence_interval, fragility_index, summarize
from repro.core.steady_state import detect_steady_state
from repro.core.timeline import IntervalSeries
from repro.fs.allocation import BlockGroupAllocator, ExtentAllocator, MultiBlockAllocator
from repro.fs.base import Extent, Inode, InodeType, NoSpaceError
from repro.fs.stack import build_stack
from repro.storage.cache import CachePolicy, PageCache
from repro.storage.config import scaled_testbed
from repro.storage.readahead import DEFAULT_READAHEAD, ReadaheadState

# ---------------------------------------------------------------------------
# Page cache invariants
# ---------------------------------------------------------------------------

cache_ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "lookup", "dirty_insert", "invalidate"]),
        st.integers(min_value=0, max_value=3),   # inode
        st.integers(min_value=0, max_value=200),  # page
    ),
    max_size=300,
)


@given(ops=cache_ops, capacity=st.integers(min_value=1, max_value=32),
       policy=st.sampled_from(list(CachePolicy)))
@settings(max_examples=60, deadline=None)
def test_cache_never_exceeds_capacity_and_dirty_subset_of_resident(ops, capacity, policy):
    cache = PageCache(capacity_pages=capacity, policy=policy)
    for op, inode, page in ops:
        key = (inode, page)
        if op == "insert":
            cache.insert(key)
        elif op == "dirty_insert":
            cache.insert(key, dirty=True)
        elif op == "lookup":
            cache.lookup(key)
        else:
            cache.invalidate(key)
        cache.check_invariants()
        assert len(cache) <= capacity
        assert cache.dirty_pages <= len(cache)
        for dirty_key in cache.dirty_keys():
            assert cache.peek(dirty_key)


@given(ops=cache_ops, capacity=st.integers(min_value=1, max_value=32),
       policy=st.sampled_from(list(CachePolicy)))
@settings(max_examples=40, deadline=None)
def test_cache_insert_makes_key_resident(ops, capacity, policy):
    cache = PageCache(capacity_pages=capacity, policy=policy)
    for op, inode, page in ops:
        key = (inode, page)
        if op in ("insert", "dirty_insert"):
            cache.insert(key, dirty=(op == "dirty_insert"))
            assert cache.peek(key)
        elif op == "lookup":
            cache.lookup(key)
        else:
            cache.invalidate(key)
            assert not cache.peek(key)
        cache.check_invariants()


@given(accesses=st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=400),
       capacity=st.integers(min_value=1, max_value=64))
@settings(max_examples=40, deadline=None)
def test_cache_stats_consistent(accesses, capacity):
    cache = PageCache(capacity_pages=capacity)
    for page in accesses:
        if not cache.lookup((0, page)):
            cache.insert((0, page))
        cache.check_invariants()
    assert cache.stats.accesses == len(accesses)
    assert cache.stats.hits + cache.stats.misses == len(accesses)
    assert cache.stats.insertions <= cache.stats.misses
    assert 0.0 <= cache.stats.hit_ratio <= 1.0


batched_cache_ops = st.lists(
    st.tuples(
        st.sampled_from(["lookup", "absent", "insert", "dirty_insert", "invalidate"]),
        st.integers(min_value=0, max_value=2),   # inode
        st.integers(min_value=0, max_value=40),  # first page
        st.integers(min_value=0, max_value=12),  # page count
        st.integers(min_value=1, max_value=3),   # stride between pages
    ),
    max_size=60,
)


@given(ops=batched_cache_ops, capacity=st.integers(min_value=0, max_value=32),
       policy=st.sampled_from(list(CachePolicy)))
@settings(max_examples=150, deadline=None)
def test_batched_cache_calls_match_per_page_calls(ops, capacity, policy):
    """``lookup_pages``/``absent_pages``/``insert_pages`` and a ranged
    ``invalidate_inode`` leave the cache exactly as the single-key calls do.

    Runs partly hit, partly miss and overflow the capacity; the dirty
    victims must be the dirty subset of the per-page evictions, in order.
    """
    batched = PageCache(capacity_pages=capacity, policy=policy)
    twin = PageCache(capacity_pages=capacity, policy=policy)
    for op, inode, first, count, stride in ops:
        pages = range(first, first + count * stride, stride)
        if op == "lookup":
            expected = [page for page in pages if not twin.lookup((inode, page))]
            assert batched.lookup_pages(inode, pages) == expected
        elif op == "absent":
            expected = [page for page in pages if not twin.peek((inode, page))]
            assert batched.absent_pages(inode, pages) == expected
        elif op in ("insert", "dirty_insert"):
            dirty = op == "dirty_insert"
            expected = [
                victim
                for page in pages
                for victim, was_dirty in twin.insert((inode, page), dirty=dirty)
                if was_dirty
            ]
            assert batched.insert_pages(inode, pages, dirty=dirty) == expected
        else:
            dropped = sum(twin.invalidate((inode, page)) for page in range(first, first + count))
            assert batched.invalidate_inode(inode, first + count, first_page=first) == dropped
        assert batched.stats == twin.stats
        assert batched.export_state() == twin.export_state()
        assert batched.dirty_keys() == twin.dirty_keys()
        # Ghost lists, reference bits and ARC's target size as well.
        assert vars(batched._policy) == vars(twin._policy)
        batched.check_invariants()
        twin.check_invariants()


# ---------------------------------------------------------------------------
# Allocator invariants
# ---------------------------------------------------------------------------

allocation_sizes = st.lists(st.integers(min_value=1, max_value=5000), min_size=1, max_size=30)


@given(sizes=allocation_sizes)
@settings(max_examples=40, deadline=None)
def test_block_group_allocator_conserves_blocks_and_never_overlaps(sizes):
    allocator = BlockGroupAllocator(total_blocks=200_000, blocks_per_group=16_384)
    initial_free = allocator.free_blocks
    allocated = []
    owned = set()
    for size in sizes:
        runs = allocator.allocate(size)
        assert sum(count for _, count in runs) == size
        for start, count in runs:
            for block in range(start, start + count):
                assert block not in owned
                owned.add(block)
        allocated.extend(runs)
    assert allocator.free_blocks == initial_free - len(owned)
    for start, count in allocated:
        allocator.free(start, count)
    assert allocator.free_blocks == initial_free


@given(sizes=allocation_sizes)
@settings(max_examples=40, deadline=None)
def test_extent_allocator_conserves_blocks(sizes):
    allocator = ExtentAllocator(total_blocks=200_000, allocation_groups=4)
    initial_free = allocator.free_blocks
    allocated = []
    for size in sizes:
        runs = allocator.allocate(size)
        assert sum(count for _, count in runs) == size
        allocated.extend(runs)
    for start, count in allocated:
        allocator.free(start, count)
    assert allocator.free_blocks == initial_free


allocator_ops = st.lists(
    st.tuples(
        st.sampled_from(["allocate", "allocate", "free", "oversize", "snapshot", "restore"]),
        st.integers(min_value=1, max_value=400),          # request size
        st.one_of(st.none(), st.integers(min_value=0)),   # goal block (reduced mod device)
        st.integers(min_value=0, max_value=10**6),        # which run / how much to free
    ),
    max_size=60,
)


def _make_allocator(kind, groups, group_blocks, tail, max_extent):
    total = 256 + groups * group_blocks + tail
    if kind is ExtentAllocator:
        return ExtentAllocator(
            total_blocks=total, allocation_groups=groups, max_extent_blocks=max_extent
        )
    return kind(total_blocks=total, blocks_per_group=group_blocks, group_metadata_blocks=8)


def _assert_free_total_matches_maps(allocator):
    by_groups = sum(group.free_blocks for group in allocator._groups)
    by_runs = sum(count for _, count in allocator.free_runs())
    assert allocator.free_blocks == by_groups == by_runs


@given(
    kind=st.sampled_from([BlockGroupAllocator, MultiBlockAllocator, ExtentAllocator]),
    groups=st.integers(min_value=1, max_value=6),
    group_blocks=st.integers(min_value=16, max_value=256),
    tail=st.integers(min_value=0, max_value=24),
    max_extent=st.integers(min_value=8, max_value=512),
    ops=allocator_ops,
)
@settings(max_examples=80, deadline=None)
def test_allocator_free_total_tracks_the_free_maps(
    kind, groups, group_blocks, tail, max_extent, ops
):
    """The running free-block total equals both recounts after every step."""
    allocator = _make_allocator(kind, groups, group_blocks, tail, max_extent)
    initial = allocator.free_blocks
    owned = []
    saved = None
    _assert_free_total_matches_maps(allocator)
    for op, size, goal, pick in ops:
        goal_block = None if goal is None else goal % allocator.total_blocks
        if op == "allocate" and size <= allocator.free_blocks:
            runs = allocator.allocate(size, goal_block=goal_block)
            assert sum(count for _, count in runs) == size
            owned.extend(runs)
        elif op in ("allocate", "oversize"):
            request = size if op == "allocate" else allocator.free_blocks + size
            before = allocator.export_free_state()
            with pytest.raises(NoSpaceError):
                allocator.allocate(request, goal_block=goal_block)
            assert allocator.export_free_state() == before
        elif op == "free" and owned:
            start, count = owned.pop(pick % len(owned))
            piece = 1 + pick % count
            allocator.free(start, piece)
            if piece < count:
                owned.append((start + piece, count - piece))
        elif op == "snapshot":
            state = allocator.export_free_state()
            allocator.restore_free_state(state)
            assert allocator.export_free_state() == state
            saved = (state, list(owned))
        elif op == "restore" and saved is not None:
            allocator.restore_free_state(saved[0])
            owned = list(saved[1])
        _assert_free_total_matches_maps(allocator)
        assert allocator.free_blocks + sum(count for _, count in owned) == initial


# ---------------------------------------------------------------------------
# Page-cache / VFS page-range invariants
# ---------------------------------------------------------------------------

PAGE = 4096

stack_ops = st.lists(
    st.tuples(
        st.sampled_from(["write", "write", "read", "seqread", "truncate", "unlink", "fsync"]),
        st.integers(min_value=0, max_value=1),           # which file
        st.integers(min_value=0, max_value=64 * PAGE),   # offset, or size for truncate
        st.integers(min_value=1, max_value=16 * PAGE),   # byte count
    ),
    max_size=40,
)


@given(fs_type=st.sampled_from(["ext2", "ext4", "xfs"]), ops=stack_ops)
@settings(max_examples=60, deadline=None)
def test_no_cached_page_at_or_past_a_files_page_count(fs_type, ops):
    """Unlink and fsync probe only a file's pages; nothing is cached beyond them.

    A ~200-page cache under files of up to ~80 pages makes eviction,
    readahead (``seqread``), read-modify-write and truncation all interleave.
    An op on a file that does not exist creates it first.
    """
    stack = build_stack(fs_type, testbed=scaled_testbed(1 / 512), seed=7)
    vfs, cache = stack.vfs, stack.cache
    live = {}  # path -> inode of every existing regular file
    for op, index, offset, nbytes in ops:
        path = f"/f{index}"
        if path not in live:
            vfs.create(path)
            live[path] = stack.fs.resolve(path)
        inode = live[path]
        if op == "unlink":
            vfs.unlink(path)
            del live[path]
            assert cache.resident_pages_of(inode.number) == 0
        elif op == "truncate":
            vfs.truncate(path, offset)
        else:
            fd = vfs.open(path)
            if op == "write":
                vfs.write(fd, nbytes, offset)
            elif op == "read":
                vfs.read(fd, nbytes, offset)
            elif op == "seqread":
                for _ in range(8):
                    vfs.read(fd, 4 * PAGE)
            else:
                dirty = [key for key in cache.dirty_keys() if key[0] == inode.number]
                assert cache.dirty_keys_of(inode.number, vfs.file_pages(inode)) == dirty
                vfs.fsync(fd)
                assert not any(key[0] == inode.number for key in cache.dirty_keys())
            vfs.close(fd)
        cache.check_invariants()
        page_limit = {inode.number: vfs.file_pages(inode) for inode in live.values()}
        resident, _ = cache.export_state()
        for ino, page in resident:
            if ino in page_limit:
                assert page < page_limit[ino]


# ---------------------------------------------------------------------------
# Inode extent-map invariants
# ---------------------------------------------------------------------------

@given(run_lengths=st.lists(st.integers(min_value=1, max_value=64), min_size=1, max_size=40),
       gap=st.integers(min_value=0, max_value=8))
@settings(max_examples=60, deadline=None)
def test_inode_mapping_covers_every_mapped_block(run_lengths, gap):
    inode = Inode(number=1, inode_type=InodeType.REGULAR)
    file_block = 0
    device_block = 1000
    for length in run_lengths:
        inode.add_extent(Extent(file_block, device_block, length))
        file_block += length
        device_block += length + gap  # physical gap forces separate extents when gap > 0
    total_blocks = sum(run_lengths)
    covered = sum(count for _, count in inode.iter_device_runs(0, total_blocks))
    assert covered == total_blocks
    assert inode.blocks_allocated() == total_blocks
    # Every individual block maps to exactly the device block it was given.
    probe = random.Random(0)
    for _ in range(20):
        block = probe.randrange(total_blocks)
        extent = inode.lookup_extent(block)
        assert extent is not None
        assert extent.file_block <= block < extent.file_end


# ---------------------------------------------------------------------------
# Histogram invariants
# ---------------------------------------------------------------------------

latency_lists = st.lists(
    st.floats(min_value=1.0, max_value=1e10, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=300,
)


@given(latencies=latency_lists)
@settings(max_examples=60, deadline=None)
def test_histogram_totals_and_percentages(latencies):
    histogram = from_latencies(latencies)
    assert histogram.total == len(latencies)
    assert sum(histogram.counts) == len(latencies)
    assert abs(sum(histogram.percentages()) - 100.0) < 1e-6
    assert histogram.min_ns == min(latencies)
    assert histogram.max_ns == max(latencies)


@given(latencies=latency_lists, p1=st.floats(min_value=0, max_value=100),
       p2=st.floats(min_value=0, max_value=100))
@settings(max_examples=60, deadline=None)
def test_histogram_percentile_monotonic_and_bounded(latencies, p1, p2):
    histogram = from_latencies(latencies)
    low, high = sorted((p1, p2))
    assert histogram.percentile(low) <= histogram.percentile(high)
    # A percentile can never exceed twice the maximum (bucket upper bound).
    assert histogram.percentile(100) <= max(latencies) * 2 + 1


@given(a=latency_lists, b=latency_lists)
@settings(max_examples=40, deadline=None)
def test_histogram_merge_is_additive(a, b):
    merged = from_latencies(a).merge(from_latencies(b))
    assert merged.total == len(a) + len(b)
    assert merged.mean_ns() * merged.total == sum(a) + sum(b) or abs(
        merged.mean_ns() * merged.total - (sum(a) + sum(b))
    ) < 1e-3 * (sum(a) + sum(b))


# ---------------------------------------------------------------------------
# Statistics invariants
# ---------------------------------------------------------------------------

samples = st.lists(
    st.floats(min_value=0.1, max_value=1e7, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=60,
)


@given(values=samples)
@settings(max_examples=80, deadline=None)
def test_summarize_bounds(values):
    summary = summarize(values)
    slack = 1e-9 * max(1.0, abs(summary.mean))  # fmean rounds within 1 ULP
    assert summary.minimum - slack <= summary.mean <= summary.maximum + slack
    assert summary.minimum <= summary.median <= summary.maximum
    assert summary.stddev >= 0
    assert summary.ci95_low - slack <= summary.mean <= summary.ci95_high + slack


@given(values=st.lists(
    st.floats(min_value=0.1, max_value=1e7, allow_nan=False, allow_infinity=False),
    min_size=2, max_size=60,
))
@settings(max_examples=60, deadline=None)
def test_confidence_interval_contains_sample_mean(values):
    low, high = confidence_interval(values)
    mean = sum(values) / len(values)
    assert low <= mean + 1e-9
    assert high >= mean - 1e-9


@given(points=st.lists(
    st.tuples(st.integers(min_value=0, max_value=1000),
              st.floats(min_value=0.0, max_value=1e6, allow_nan=False)),
    max_size=40,
))
@settings(max_examples=60, deadline=None)
def test_fragility_index_bounded(points):
    index = fragility_index(points)
    assert 0.0 <= index <= 1.0


# ---------------------------------------------------------------------------
# Readahead invariants
# ---------------------------------------------------------------------------

@given(reads=st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=200),
       file_pages=st.integers(min_value=1, max_value=1000))
@settings(max_examples=60, deadline=None)
def test_readahead_never_exceeds_file(reads, file_pages):
    state = ReadaheadState(DEFAULT_READAHEAD)
    for raw_page in reads:
        page = raw_page % file_pages
        start, count = state.advise(page, 1, file_pages)
        assert count >= 0
        assert start + count <= file_pages


# ---------------------------------------------------------------------------
# Timeline and steady-state invariants
# ---------------------------------------------------------------------------

@given(events=st.lists(
    st.tuples(st.floats(min_value=0, max_value=100e9, allow_nan=False),
              st.floats(min_value=1, max_value=1e8, allow_nan=False)),
    min_size=1, max_size=200,
))
@settings(max_examples=40, deadline=None)
def test_interval_series_conserves_operations(events):
    series = IntervalSeries(interval_s=1.0)
    for end_time, latency in events:
        series.record(end_time, latency)
    assert series.total_operations() == len(events)
    assert all(t >= 0 for t in series.throughputs())


@given(plateau=st.floats(min_value=1.0, max_value=1e6, allow_nan=False),
       noise=st.floats(min_value=0.0, max_value=0.01),
       length=st.integers(min_value=6, max_value=40))
@settings(max_examples=40, deadline=None)
def test_steady_state_detected_on_noisy_plateau(plateau, noise, length):
    rng = random.Random(7)
    series = [plateau * (1.0 + rng.uniform(-noise, noise)) for _ in range(length)]
    assert detect_steady_state(series, window=5) is not None
