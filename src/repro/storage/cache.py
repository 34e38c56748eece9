"""Page cache with pluggable eviction policies.

The page cache is the component responsible for the headline result of the
paper's case study: whether a working set fits in it determines whether a
"file system benchmark" is measuring memory or the disk.  The cache is
page-granular; keys are ``(inode_number, page_index)`` tuples supplied by the
VFS layer.

Five eviction policies are provided:

* :class:`LRUPolicy` -- strict least-recently-used (a good stand-in for the
  paper-era Linux page cache behaviour under random reads).
* :class:`FIFOPolicy` -- insertion order; LRU without promotion on a hit.
* :class:`ClockPolicy` -- second-chance / CLOCK, closer to what Linux actually
  implements.
* :class:`ARCPolicy` -- Adaptive Replacement Cache, scan-resistant.
* :class:`TwoQPolicy` -- the 2Q algorithm (A1in/A1out/Am queues).

The VFS data path works on runs of one file's pages through
:meth:`PageCache.lookup_pages`, :meth:`PageCache.absent_pages` and
:meth:`PageCache.insert_pages`, which leave the cache exactly as the
single-key calls page by page would.

The ablation benchmark ``benchmarks/test_bench_ablation_cache.py`` sweeps the
Figure-1 experiment across these policies to show how much of the published
"file system performance" is actually an artifact of the cache policy.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from typing import Dict, Hashable, Iterable, List, Sequence, Set, Tuple

from repro.obs.metrics import MetricSource

PageKey = Tuple[int, int]


class CachePolicy(str, Enum):
    """Names of the available eviction policies."""

    LRU = "lru"
    CLOCK = "clock"
    ARC = "arc"
    TWO_Q = "2q"
    FIFO = "fifo"


@dataclass
class CacheStats(MetricSource):
    """Hit/miss and eviction counters for a cache instance."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    invalidations: int = 0

    #: Included in :meth:`MetricSource.snapshot` alongside the raw counters.
    derived_metrics = ("accesses", "hit_ratio")

    @property
    def accesses(self) -> int:
        """Total lookups performed."""
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """Fraction of lookups that hit; 0.0 when no lookups happened."""
        total = self.accesses
        return self.hits / total if total else 0.0


class EvictionPolicy(ABC):
    """Bookkeeping interface used by :class:`PageCache`.

    A policy tracks *which* resident page should be evicted next; the cache
    itself tracks residency and dirtiness.  The batched :meth:`lookup_many`
    and :meth:`insert_many` are handed the cache's sets and run its per-page
    steps over a run of one file's pages, so that a policy can replace the
    generic loop with one specialised to its own structure.
    """

    @abstractmethod
    def on_hit(self, key: Hashable) -> None:
        """Record an access to a resident page."""

    @abstractmethod
    def on_insert(self, key: Hashable) -> None:
        """Record the insertion of a new resident page."""

    @abstractmethod
    def select_victim(self) -> Hashable:
        """Evict and return the next victim.

        The victim is removed from the policy's *resident* tracking; policies
        with ghost lists (ARC, 2Q) may keep remembering the key there.
        """

    @abstractmethod
    def discard(self, key: Hashable) -> None:
        """Forget a page that was removed without eviction (invalidation)."""

    @abstractmethod
    def clear(self) -> None:
        """Forget everything."""

    def lookup_many(
        self, inode_number: int, pages: Iterable[int], resident: Set[PageKey]
    ) -> List[int]:
        """Run the policy side of :meth:`PageCache.lookup` over one file's pages.

        ``resident`` is the cache's resident set.  Each resident page gets
        :meth:`on_hit`, in page order; the pages that are not resident are
        returned, in order.
        """
        on_hit = self.on_hit
        missing: List[int] = []
        for page in pages:
            key = (inode_number, page)
            if key in resident:
                on_hit(key)
            else:
                missing.append(page)
        return missing

    def insert_many(
        self,
        inode_number: int,
        pages: Sequence[int],
        resident: Set[PageKey],
        dirty: Set[PageKey],
        mark_dirty: bool,
        capacity: int,
    ) -> Tuple[int, List[PageKey]]:
        """Run :meth:`PageCache.insert` for each of one file's pages, in order.

        ``resident`` and ``dirty`` are the cache's own sets and are updated in
        place; ``capacity`` is positive.  A resident page is promoted (and
        marked dirty if ``mark_dirty``); any other page evicts victims until
        it fits, then becomes resident.  Returns the number of pages newly
        made resident and the victims that were dirty, in eviction order;
        clean victims are not collected.
        """
        on_hit, on_insert = self.on_hit, self.on_insert
        select_victim = self.select_victim
        add, remove = resident.add, resident.remove
        dirty_victims: List[PageKey] = []
        hits = 0
        for page in pages:
            key = (inode_number, page)
            if key in resident:
                on_hit(key)
                if mark_dirty:
                    dirty.add(key)
                hits += 1
                continue
            while len(resident) >= capacity:
                victim = select_victim()
                remove(victim)
                if victim in dirty:
                    dirty.remove(victim)
                    dirty_victims.append(victim)
            add(key)
            if mark_dirty:
                dirty.add(key)
            on_insert(key)
        return len(pages) - hits, dirty_victims

    @abstractmethod
    def resident_order(self) -> List[Hashable]:
        """Resident keys ordered so that re-inserting them into a fresh policy
        best reproduces this policy's state (next victim first).

        State snapshots (:mod:`repro.aging.snapshot`) persist this order and
        rebuild the policy by replaying inserts; every policy must implement
        it so snapshotting can never silently fall back to an arbitrary
        order.  Ghost lists and reference bits are not captured -- the
        reconstruction is an approximation, but a deterministic one.
        """


class OrderedPolicy(EvictionPolicy):
    """Victims leave in the order of one ``OrderedDict``, oldest first.

    The base of :class:`LRUPolicy` and :class:`FIFOPolicy`, which differ only
    in whether a hit moves the page to the back of the order.  Its
    :meth:`lookup_many` and :meth:`insert_many` run on the dict's C methods.
    """

    #: Whether a hit (or a re-insert of a resident page) promotes the page.
    promotes = True

    def __init__(self) -> None:
        self._order: "OrderedDict[Hashable, None]" = OrderedDict()

    def on_hit(self, key: Hashable) -> None:
        self._order.move_to_end(key)

    def lookup_many(
        self, inode_number: int, pages: Iterable[int], resident: Set[PageKey]
    ) -> List[int]:
        if not self.promotes:
            return [page for page in pages if (inode_number, page) not in resident]
        move_to_end = self._order.move_to_end
        missing: List[int] = []
        for page in pages:
            key = (inode_number, page)
            if key in resident:
                move_to_end(key)
            else:
                missing.append(page)
        return missing

    def on_insert(self, key: Hashable) -> None:
        self._order[key] = None

    def select_victim(self) -> Hashable:
        key, _ = self._order.popitem(last=False)
        return key

    def insert_many(
        self,
        inode_number: int,
        pages: Sequence[int],
        resident: Set[PageKey],
        dirty: Set[PageKey],
        mark_dirty: bool,
        capacity: int,
    ) -> Tuple[int, List[PageKey]]:
        # The generic loop with on_hit, select_victim and on_insert inlined
        # as the dict's C methods, and the resident count kept in a local.
        order = self._order
        popitem = order.popitem
        add, remove = resident.add, resident.remove
        dirty_victims: List[PageKey] = []
        hits = 0
        size = len(resident)
        for page in pages:
            key = (inode_number, page)
            if key in resident:
                if self.promotes:
                    order.move_to_end(key)
                if mark_dirty:
                    dirty.add(key)
                hits += 1
                continue
            while size >= capacity:
                victim = popitem(False)[0]
                remove(victim)
                size -= 1
                if victim in dirty:
                    dirty.remove(victim)
                    dirty_victims.append(victim)
            add(key)
            order[key] = None
            size += 1
            if mark_dirty:
                dirty.add(key)
        return len(pages) - hits, dirty_victims

    def discard(self, key: Hashable) -> None:
        self._order.pop(key, None)

    def clear(self) -> None:
        self._order.clear()

    def resident_order(self) -> List[Hashable]:
        return list(self._order)


class LRUPolicy(OrderedPolicy):
    """Strict least-recently-used ordering."""


class FIFOPolicy(OrderedPolicy):
    """First-in first-out: insertion order, accesses do not promote."""

    promotes = False

    def on_hit(self, key: Hashable) -> None:
        return


class ClockPolicy(EvictionPolicy):
    """Second-chance (CLOCK) approximation of LRU.

    Pages are kept on a circular list with a reference bit; the clock hand
    skips (and clears) referenced pages and evicts the first unreferenced one.
    """

    def __init__(self) -> None:
        self._ref: Dict[Hashable, bool] = {}
        self._ring: "OrderedDict[Hashable, None]" = OrderedDict()

    def on_hit(self, key: Hashable) -> None:
        if key in self._ref:
            self._ref[key] = True

    def on_insert(self, key: Hashable) -> None:
        self._ref[key] = False
        self._ring[key] = None

    def select_victim(self) -> Hashable:
        # Sweep the hand: give referenced pages a second chance by moving them
        # to the back with the bit cleared.
        while True:
            key = next(iter(self._ring))
            if self._ref.get(key, False):
                self._ref[key] = False
                self._ring.move_to_end(key)
            else:
                del self._ring[key]
                self._ref.pop(key, None)
                return key

    def discard(self, key: Hashable) -> None:
        self._ref.pop(key, None)
        self._ring.pop(key, None)

    def clear(self) -> None:
        self._ref.clear()
        self._ring.clear()

    def resident_order(self) -> List[Hashable]:
        return list(self._ring)


class ARCPolicy(EvictionPolicy):
    """Adaptive Replacement Cache (Megiddo & Modha).

    Maintains two resident lists (T1: recently seen once, T2: seen at least
    twice) and two ghost lists (B1, B2) of recently evicted keys.  The target
    size of T1 (``p``) adapts based on which ghost list gets hit.
    """

    def __init__(self, capacity_hint: int = 1024) -> None:
        if capacity_hint <= 0:
            raise ValueError("capacity_hint must be positive")
        self.capacity = capacity_hint
        self.p = 0.0
        self.t1: "OrderedDict[Hashable, None]" = OrderedDict()
        self.t2: "OrderedDict[Hashable, None]" = OrderedDict()
        self.b1: "OrderedDict[Hashable, None]" = OrderedDict()
        self.b2: "OrderedDict[Hashable, None]" = OrderedDict()

    # -- helpers -------------------------------------------------------------
    def _trim_ghosts(self) -> None:
        while len(self.b1) > self.capacity:
            self.b1.popitem(last=False)
        while len(self.b2) > self.capacity:
            self.b2.popitem(last=False)

    def on_hit(self, key: Hashable) -> None:
        if key in self.t1:
            del self.t1[key]
            self.t2[key] = None
        elif key in self.t2:
            self.t2.move_to_end(key)

    def on_insert(self, key: Hashable) -> None:
        if key in self.b1:
            # A miss that hits the "recency" ghost list: grow T1's target.
            delta = 1.0 if len(self.b1) >= len(self.b2) else len(self.b2) / max(1, len(self.b1))
            self.p = min(float(self.capacity), self.p + delta)
            del self.b1[key]
            self.t2[key] = None
        elif key in self.b2:
            # A miss that hits the "frequency" ghost list: shrink T1's target.
            delta = 1.0 if len(self.b2) >= len(self.b1) else len(self.b1) / max(1, len(self.b2))
            self.p = max(0.0, self.p - delta)
            del self.b2[key]
            self.t2[key] = None
        else:
            self.t1[key] = None
        self._trim_ghosts()

    def select_victim(self) -> Hashable:
        prefer_t1 = len(self.t1) > 0 and (len(self.t1) > self.p or len(self.t2) == 0)
        if prefer_t1:
            key = next(iter(self.t1))
            del self.t1[key]
            self.b1[key] = None
        else:
            key = next(iter(self.t2))
            del self.t2[key]
            self.b2[key] = None
        self._trim_ghosts()
        return key

    def discard(self, key: Hashable) -> None:
        self.t1.pop(key, None)
        self.t2.pop(key, None)
        self.b1.pop(key, None)
        self.b2.pop(key, None)

    def clear(self) -> None:
        self.p = 0.0
        self.t1.clear()
        self.t2.clear()
        self.b1.clear()
        self.b2.clear()

    def resident_order(self) -> List[Hashable]:
        return list(self.t1) + list(self.t2)


class TwoQPolicy(EvictionPolicy):
    """The 2Q algorithm: a FIFO probation queue, a ghost queue and an LRU main queue."""

    def __init__(self, capacity_hint: int = 1024, kin_fraction: float = 0.25, kout_fraction: float = 0.5) -> None:
        if capacity_hint <= 0:
            raise ValueError("capacity_hint must be positive")
        if not (0.0 < kin_fraction < 1.0):
            raise ValueError("kin_fraction must be in (0, 1)")
        self.capacity = capacity_hint
        self.kin = max(1, int(capacity_hint * kin_fraction))
        self.kout = max(1, int(capacity_hint * kout_fraction))
        self.a1in: "OrderedDict[Hashable, None]" = OrderedDict()
        self.a1out: "OrderedDict[Hashable, None]" = OrderedDict()
        self.am: "OrderedDict[Hashable, None]" = OrderedDict()

    def on_hit(self, key: Hashable) -> None:
        if key in self.am:
            self.am.move_to_end(key)
        # A hit in A1in does not promote: 2Q only promotes on re-reference
        # after leaving A1in (tracked via the ghost queue at insert time).

    def on_insert(self, key: Hashable) -> None:
        if key in self.a1out:
            del self.a1out[key]
            self.am[key] = None
        else:
            self.a1in[key] = None

    def select_victim(self) -> Hashable:
        if len(self.a1in) > self.kin or not self.am:
            key = next(iter(self.a1in))
            del self.a1in[key]
            self.a1out[key] = None
            while len(self.a1out) > self.kout:
                self.a1out.popitem(last=False)
        else:
            key = next(iter(self.am))
            del self.am[key]
        return key

    def discard(self, key: Hashable) -> None:
        self.a1in.pop(key, None)
        self.a1out.pop(key, None)
        self.am.pop(key, None)

    def clear(self) -> None:
        self.a1in.clear()
        self.a1out.clear()
        self.am.clear()

    def resident_order(self) -> List[Hashable]:
        return list(self.a1in) + list(self.am)


def _make_policy(policy: CachePolicy, capacity_pages: int) -> EvictionPolicy:
    if policy == CachePolicy.LRU:
        return LRUPolicy()
    if policy == CachePolicy.CLOCK:
        return ClockPolicy()
    if policy == CachePolicy.ARC:
        return ARCPolicy(capacity_hint=capacity_pages)
    if policy == CachePolicy.TWO_Q:
        return TwoQPolicy(capacity_hint=capacity_pages)
    if policy == CachePolicy.FIFO:
        return FIFOPolicy()
    raise ValueError(f"unknown cache policy: {policy!r}")


def _keys_in(keys: Set[PageKey], inode_number: int, first_page: int, end_page: int) -> List[PageKey]:
    """The keys ``(inode_number, p)`` in ``keys`` with ``first_page <= p < end_page``, ascending.

    Costs O(min(end_page - first_page, len(keys))): probes the pages when
    there are no more of them than ``keys`` has members, scans ``keys``
    otherwise (a large file with a small dirty set, as an fsync after each
    append has).
    """
    if end_page - first_page <= len(keys):
        probes = zip(repeat(inode_number), range(first_page, end_page))
        return [key for key in probes if key in keys]
    return sorted(
        key for key in keys if key[0] == inode_number and first_page <= key[1] < end_page
    )


class PageCache:
    """A page-granular cache of file data with dirty-page tracking.

    Parameters
    ----------
    capacity_pages:
        Number of pages the cache can hold.  ``0`` disables caching entirely
        (every lookup misses), which is occasionally useful for isolating the
        on-disk dimension.
    policy:
        Eviction policy name or :class:`CachePolicy` value.
    page_size:
        Page size in bytes (informational; the cache itself is page-indexed).
    """

    def __init__(
        self,
        capacity_pages: int,
        policy: CachePolicy = CachePolicy.LRU,
        page_size: int = 4096,
    ) -> None:
        if capacity_pages < 0:
            raise ValueError("capacity_pages must be non-negative")
        if page_size <= 0:
            raise ValueError("page_size must be positive")
        # lint: ephemeral -- geometry, rebuilt from the testbed on restore
        self.capacity_pages = int(capacity_pages)
        self.page_size = int(page_size)
        self.policy_name = CachePolicy(policy)
        self._policy = _make_policy(self.policy_name, max(1, capacity_pages))
        self._resident: Set[PageKey] = set()
        self._dirty: Set[PageKey] = set()
        self.stats = CacheStats()

    # ------------------------------------------------------------ inspection
    def __len__(self) -> int:
        return len(self._resident)

    def __contains__(self, key: PageKey) -> bool:
        return key in self._resident

    @property
    def dirty_pages(self) -> int:
        """Number of dirty (modified, not yet written back) pages."""
        return len(self._dirty)

    @property
    def capacity_bytes(self) -> int:
        """Cache capacity expressed in bytes."""
        return self.capacity_pages * self.page_size

    def resident_pages_of(self, inode_number: int) -> int:
        """Count resident pages belonging to ``inode_number`` (O(n); diagnostic use)."""
        return sum(1 for ino, _ in self._resident if ino == inode_number)

    def dirty_keys_of(self, inode_number: int, page_count: int) -> List[PageKey]:
        """Dirty keys among one file's pages ``0..page_count-1``, in page order.

        The callers pass the file's page count, and no page at or past it is
        ever cached (see :meth:`invalidate_inode`), so this is every dirty
        page of the file.
        """
        return _keys_in(self._dirty, inode_number, 0, page_count)

    # --------------------------------------------------------------- actions
    def lookup(self, key: PageKey) -> bool:
        """Return True on a cache hit and record the access."""
        if key in self._resident:
            self.stats.hits += 1
            self._policy.on_hit(key)
            return True
        self.stats.misses += 1
        return False

    def peek(self, key: PageKey) -> bool:
        """Return residency without recording an access (no stats, no promotion)."""
        return key in self._resident

    def insert(self, key: PageKey, dirty: bool = False) -> List[Tuple[PageKey, bool]]:
        """Insert a page, evicting as needed.

        Returns the list of ``(key, was_dirty)`` pairs evicted to make room.
        Dirty evictions must be written back by the caller (the VFS charges
        device time for them).
        """
        if self.capacity_pages == 0:
            return []
        evicted: List[Tuple[PageKey, bool]] = []
        if key in self._resident:
            self._policy.on_hit(key)
            if dirty:
                self._dirty.add(key)
            return evicted

        while len(self._resident) >= self.capacity_pages:
            victim = self._policy.select_victim()
            # The policy must only return resident pages; a desync here is a bug.
            self._resident.remove(victim)
            was_dirty = victim in self._dirty
            if was_dirty:
                self._dirty.remove(victim)
                self.stats.dirty_evictions += 1
            self.stats.evictions += 1
            evicted.append((victim, was_dirty))

        self._resident.add(key)
        if dirty:
            self._dirty.add(key)
        self._policy.on_insert(key)
        self.stats.insertions += 1
        return evicted

    def lookup_pages(self, inode_number: int, pages: Sequence[int]) -> List[int]:
        """:meth:`lookup` each of one file's ``pages`` in order; returns the misses.

        Hits and misses are counted and the hits promoted in page order, so
        the cache ends exactly as the per-page calls would leave it.
        """
        missing = self._policy.lookup_many(inode_number, pages, self._resident)
        stats = self.stats
        misses = len(missing)
        stats.hits += len(pages) - misses
        stats.misses += misses
        return missing

    def absent_pages(self, inode_number: int, pages: Iterable[int]) -> List[int]:
        """The ``pages`` of one file that are not resident, in order (a batched :meth:`peek`)."""
        resident = self._resident
        return [page for page in pages if (inode_number, page) not in resident]

    def insert_pages(
        self, inode_number: int, pages: Sequence[int], dirty: bool = False
    ) -> List[PageKey]:
        """:meth:`insert` each of one file's ``pages`` in order; returns the dirty victims.

        Evictions, statistics and policy state end exactly as the per-page
        calls leave them.  Only the victims that were dirty are returned, in
        eviction order: they are the ones the caller must write back.  The
        clean ones are counted in :attr:`stats` but never collected.
        """
        if self.capacity_pages == 0:
            return []
        resident = self._resident
        before = len(resident)
        inserted, dirty_victims = self._policy.insert_many(
            inode_number, pages, resident, self._dirty, dirty, self.capacity_pages
        )
        stats = self.stats
        stats.insertions += inserted
        # Each new page adds one resident page and each eviction removes one.
        stats.evictions += inserted - (len(resident) - before)
        stats.dirty_evictions += len(dirty_victims)
        return dirty_victims

    def mark_dirty(self, key: PageKey) -> None:
        """Mark a resident page dirty (no-op if the page is not resident)."""
        if key in self._resident:
            self._dirty.add(key)

    def clean(self, key: PageKey) -> None:
        """Mark a page clean after it has been written back."""
        self._dirty.discard(key)

    def dirty_keys(self) -> List[PageKey]:
        """Snapshot of the currently dirty page keys, in (inode, page) order.

        Sorted, not set order: callers write these pages back, so the order
        reaches the device request stream and must not depend on hash-table
        layout.
        """
        return sorted(self._dirty)

    def invalidate(self, key: PageKey) -> bool:
        """Drop a single page; returns True if it was resident."""
        if key not in self._resident:
            return False
        self._resident.remove(key)
        self._dirty.discard(key)
        self._policy.discard(key)
        self.stats.invalidations += 1
        return True

    def invalidate_inode(self, inode_number: int, page_count: int, first_page: int = 0) -> int:
        """Drop pages ``first_page..page_count-1`` of one file, in page order.

        Returns the number of pages dropped.  Callers pass the file's page
        count, which makes this every cached page of the file from
        ``first_page`` on: the VFS never caches a page at or past it (reads
        clamp to EOF, faults and readahead clamp to the file's pages, writes
        grow the size before inserting, and truncate drops the pages it cuts
        off with ``first_page`` set to the new page count).
        """
        victims = _keys_in(self._resident, inode_number, first_page, page_count)
        for key in victims:
            self._resident.remove(key)
            self._dirty.discard(key)
            self._policy.discard(key)
        self.stats.invalidations += len(victims)
        return len(victims)

    def drop_caches(self) -> int:
        """Drop all clean *and* dirty pages (like ``echo 3 > drop_caches`` plus sync loss).

        Returns the number of pages dropped.  Benchmark runners call this
        between repetitions to restore a cold cache.
        """
        dropped = len(self._resident)
        self._resident.clear()
        self._dirty.clear()
        self._policy.clear()
        return dropped

    # ------------------------------------------------------- snapshot support
    def export_state(self) -> Tuple[List[PageKey], List[PageKey]]:
        """``(resident, dirty)`` where ``resident`` is in restore order.

        Replaying ``insert`` over the resident list (dirty bits applied)
        deterministically reconstructs the cache, including the eviction
        policy's bookkeeping (see :meth:`EvictionPolicy.resident_order`).
        """
        order = self._policy.resident_order()
        resident = [key for key in order if key in self._resident]
        # Residency is the cache's source of truth; anything a policy failed
        # to report is appended in sorted (still deterministic) order.
        resident += sorted(self._resident.difference(resident))
        return resident, sorted(self._dirty)

    def restore_state(self, resident: List[PageKey], dirty: List[PageKey]) -> None:
        """Rebuild cache contents exported by :meth:`export_state`.

        Existing contents are dropped; statistics are reset afterwards so
        the replayed inserts leave no trace in the counters.  A smaller
        capacity than at export time simply evicts during the replay.
        """
        self.drop_caches()
        dirty_set = set(dirty)
        for key in resident:
            self.insert(key, dirty=key in dirty_set)
        self.stats.reset()

    def resize(self, capacity_pages: int) -> List[Tuple[PageKey, bool]]:
        """Change the capacity; shrinking evicts pages and returns them."""
        if capacity_pages < 0:
            raise ValueError("capacity_pages must be non-negative")
        self.capacity_pages = int(capacity_pages)
        evicted: List[Tuple[PageKey, bool]] = []
        while len(self._resident) > self.capacity_pages:
            victim = self._policy.select_victim()
            self._resident.remove(victim)
            was_dirty = victim in self._dirty
            self._dirty.discard(victim)
            self.stats.evictions += 1
            if was_dirty:
                self.stats.dirty_evictions += 1
            evicted.append((victim, was_dirty))
        return evicted

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` if the cache's bookkeeping is inconsistent.

        Checks that the dirty pages are resident, that no more pages are
        resident than the capacity allows, and that the policy's
        :meth:`~EvictionPolicy.resident_order` is a permutation of the
        resident set.
        """
        if not self._dirty <= self._resident:
            stray = sorted(self._dirty - self._resident)[:5]
            raise AssertionError(f"dirty pages not resident: {stray}")
        if len(self._resident) > self.capacity_pages:
            raise AssertionError(
                f"{len(self._resident)} resident pages exceed capacity {self.capacity_pages}"
            )
        order = self._policy.resident_order()
        if len(order) != len(self._resident) or set(order) != self._resident:
            raise AssertionError(
                f"policy order ({len(order)} keys) is not a permutation of "
                f"the {len(self._resident)} resident pages"
            )

    def __repr__(self) -> str:
        mb = self.capacity_bytes / (1024 * 1024)
        return (
            f"PageCache({self.policy_name.value}, {mb:.0f}MiB, "
            f"{len(self._resident)}/{self.capacity_pages} pages)"
        )
