"""Aging engines: churn a freshly-formatted stack into a realistic aged state.

Every benchmark in this repository used to start from a freshly-formatted
file system -- precisely the hidden-state assumption the paper warns about
(and that Traeger et al.'s nine-year survey found almost universally
undisclosed).  The engines here manufacture aged states deliberately and
reproducibly:

* :class:`ChurnAger` -- the Smith/Seltzer-style synthetic ager: fill the
  device with large files, pack the remaining space with hole-sized files,
  checkerboard-delete them, then run randomized create/append/delete churn.
  The result is free space shredded into hole-sized extents, so every file a
  subsequent benchmark creates is fragmented.
* :class:`TraceAger` -- replays a recorded trace (any
  :class:`~repro.workloads.trace.TraceRecord` stream) through
  :class:`~repro.workloads.trace.TraceReplayer`, so real workload history can
  be used as the aging medium.

Aging happens *outside* measured time: the engines drive the file system
through the uncharged VFS entry points, so the virtual clock (and therefore
any later measurement) is untouched by setup.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.aging.metrics import FragmentationReport, measure_fragmentation
from repro.fs.base import NoSpaceError
from repro.fs.stack import StorageStack
from repro.workloads.trace import TraceRecord, TraceReplayer

MiB = 1024 * 1024
GiB = 1024 * MiB


@dataclass(frozen=True)
class AgingConfig:
    """Parameters of the synthetic churn ager.

    Attributes
    ----------
    free_space_target_bytes:
        Free space left when aging finishes.  The ager fills the device down
        to roughly *twice* this amount with large files, packs the remainder
        with ``hole_bytes``-sized files and deletes every other one -- so the
        final free space consists of hole-sized extents scattered across the
        device.
    hole_bytes:
        Size of the packing files, and therefore of the free-space holes.
        Smaller holes mean more fragments per subsequently-created file.
    fill_file_bytes:
        Size of the large files used for the bulk fill (cheap: one file
        covers a lot of capacity).
    churn_ops:
        Randomized create/append/delete operations run after the
        checkerboard phase, for realism beyond the deterministic pattern.
    directories:
        Leaf directories the churn files are spread across.
    seed:
        Seed of the ager's private random source; aging is a pure function
        of ``(stack state, config)``.
    root:
        Top-level directory name the ager works under (so aged state never
        collides with benchmark filesets).
    """

    free_space_target_bytes: int = 2 * GiB
    hole_bytes: int = 1 * MiB
    fill_file_bytes: int = 1 * GiB
    churn_ops: int = 500
    directories: int = 10
    seed: int = 777
    root: str = "aged"

    def validate(self) -> None:
        """Raise ``ValueError`` on nonsensical parameters."""
        if self.free_space_target_bytes <= 0:
            raise ValueError("free_space_target_bytes must be positive")
        if self.hole_bytes <= 0 or self.fill_file_bytes <= 0:
            raise ValueError("hole_bytes and fill_file_bytes must be positive")
        if self.hole_bytes > self.free_space_target_bytes:
            raise ValueError("hole_bytes must not exceed free_space_target_bytes")
        if self.churn_ops < 0:
            raise ValueError("churn_ops must be non-negative")
        if self.directories <= 0:
            raise ValueError("directories must be positive")
        if not self.root or "/" in self.root:
            raise ValueError("root must be a single path component")


def quick_aging_config(seed: int = 777) -> AgingConfig:
    """A small, fast aging profile for tests, CI and ``--quick`` runs.

    The holes are deliberately small (256 KiB): the quick profile must
    fragment even the extent allocator's best-fit placement hard enough that
    a short benchmark shows the aged-vs-fresh delta clearly.
    """
    return AgingConfig(
        free_space_target_bytes=256 * MiB,
        hole_bytes=256 * 1024,
        fill_file_bytes=1 * GiB,
        churn_ops=100,
        seed=seed,
    )


@dataclass
class AgingResult:
    """What an aging engine did to a stack, plus the resulting fragmentation."""

    engine: str
    files_created: int = 0
    files_deleted: int = 0
    bytes_allocated: int = 0
    final_utilization: float = 0.0
    fragmentation: Optional[FragmentationReport] = None

    def render(self) -> str:
        """One-paragraph human-readable summary."""
        lines = [
            f"Aged with {self.engine}: created {self.files_created} files "
            f"({self.bytes_allocated // MiB} MiB), deleted {self.files_deleted}; "
            f"device now {100 * self.final_utilization:.1f}% full"
        ]
        if self.fragmentation is not None:
            lines.append(self.fragmentation.render())
        return "\n".join(lines)


class ChurnAger:
    """Synthetic fill + checkerboard + churn aging (see module docstring)."""

    def __init__(self, config: Optional[AgingConfig] = None) -> None:
        self.config = config if config is not None else AgingConfig()
        self.config.validate()

    # ---------------------------------------------------------------- helpers
    def _create_file(self, stack: StorageStack, path: str, size: int) -> None:
        """Create and fully allocate a file without charging virtual time.

        Atomic with respect to ENOSPC: when the allocation fails, the
        just-created inode is removed again before the error propagates, so
        callers may retry the same path later.
        """
        vfs = stack.vfs
        vfs.fs.create(path, stack.clock.now_ns)
        if size > 0:
            fd = vfs.open_uncharged(path)
            try:
                vfs.fallocate(fd, size, charge_time=False)
            except NoSpaceError:
                vfs.unlink_uncharged(path)
                raise
            finally:
                vfs.close_uncharged(fd)

    def _free_bytes(self, stack: StorageStack) -> int:
        return stack.fs.free_blocks() * stack.fs.block_size

    # ------------------------------------------------------------------- age
    def age(self, stack: StorageStack) -> AgingResult:
        """Age the mounted stack in place; returns what was done."""
        config = self.config
        rng = random.Random(config.seed)
        result = AgingResult(engine="churn")
        block = stack.fs.block_size
        # The hole size cannot be finer than the allocation unit.
        hole_bytes = max(config.hole_bytes, block)

        stack.vfs.mkdirs_uncharged(f"/{config.root}/fill")
        for index in range(config.directories):
            stack.vfs.mkdirs_uncharged(f"/{config.root}/churn/d{index}")

        # Phase 1: bulk fill with large files until only the churn region
        # (twice the final free-space target) remains.
        churn_region = 2 * config.free_space_target_bytes
        serial = 0
        while True:
            excess = self._free_bytes(stack) - churn_region
            if excess < hole_bytes:
                break
            size = min(config.fill_file_bytes, excess)
            size -= size % block
            if size <= 0:
                break
            try:
                self._create_file(stack, f"/{config.root}/fill/f{serial:05d}", size)
            except NoSpaceError:
                break
            serial += 1
            result.files_created += 1
            result.bytes_allocated += size

        # Phase 2: pack the remaining space with hole-sized files.
        churn_paths: List[str] = []
        serial = 0
        while self._free_bytes(stack) >= hole_bytes:
            path = f"/{config.root}/churn/d{serial % config.directories}/c{serial:06d}"
            try:
                self._create_file(stack, path, hole_bytes)
            except NoSpaceError:
                break
            churn_paths.append(path)
            serial += 1
            result.files_created += 1
            result.bytes_allocated += hole_bytes

        # Phase 3: checkerboard -- delete every other packing file, leaving
        # hole-sized free extents scattered across the device.
        survivors: List[str] = []
        for index, path in enumerate(churn_paths):
            if index % 2 == 0:
                stack.vfs.unlink_uncharged(path)
                result.files_deleted += 1
            else:
                survivors.append(path)

        # Phase 4: randomized churn on top of the deterministic pattern.
        for _ in range(config.churn_ops):
            roll = rng.random()
            if roll < 0.4 and survivors:
                victim = rng.randrange(len(survivors))
                stack.vfs.unlink_uncharged(survivors[victim])
                survivors[victim] = survivors[-1]
                survivors.pop()
                result.files_deleted += 1
            elif roll < 0.8:
                path = f"/{config.root}/churn/d{serial % config.directories}/c{serial:06d}"
                size = rng.randrange(block, hole_bytes + 1)
                size -= size % block
                try:
                    self._create_file(stack, path, max(block, size))
                except NoSpaceError:
                    continue
                survivors.append(path)
                serial += 1
                result.files_created += 1
                result.bytes_allocated += max(block, size)
            elif survivors:
                path = survivors[rng.randrange(len(survivors))]
                vfs = stack.vfs
                fd = vfs.open_uncharged(path)
                try:
                    grow = vfs.open_file(fd).inode.size_bytes + max(block, hole_bytes // 4)
                    vfs.fallocate(fd, grow, charge_time=False)
                    result.bytes_allocated += max(block, hole_bytes // 4)
                except NoSpaceError:
                    pass
                finally:
                    vfs.close_uncharged(fd)

        result.final_utilization = stack.fs.utilization()
        result.fragmentation = measure_fragmentation(stack.fs)
        return result


class TraceAger:
    """Age a stack by replaying a recorded operation trace.

    The trace drives the file system through the same replay machinery used
    for evaluation (:class:`~repro.workloads.trace.TraceReplayer`), repeated
    ``passes`` times; each pass deletes nothing by itself, so traces with
    create/delete churn age the allocator exactly as the original workload
    did.  Unlike :class:`ChurnAger`, trace replay charges virtual time (it
    *is* a workload); snapshot the stack afterwards to reuse the aged state
    without re-paying that time.
    """

    def __init__(self, records: Iterable[TraceRecord], passes: int = 1) -> None:
        self.records = list(records)
        if passes <= 0:
            raise ValueError("passes must be positive")
        self.passes = passes

    def age(self, stack: StorageStack) -> AgingResult:
        """Replay the trace ``passes`` times against the stack."""
        result = AgingResult(engine="trace")
        creates_before = stack.fs.stats.creates
        unlinks_before = stack.fs.stats.unlinks
        replayer = TraceReplayer(stack, honour_timing=False, create_missing=True)
        for _ in range(self.passes):
            replayer.replay(self.records)
        result.files_created = stack.fs.stats.creates - creates_before
        result.files_deleted = stack.fs.stats.unlinks - unlinks_before
        result.final_utilization = stack.fs.utilization()
        result.fragmentation = measure_fragmentation(stack.fs)
        return result
