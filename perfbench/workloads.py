"""The benchmark's workloads: four serial campaigns over the public CLI.

Every workload is a batch campaign run as a closed loop by one client:
``--workers 1`` (in-process, each work unit starts only after the previous
one finished) on ``--scaled-testbed 0.0625``.  The workload seed ``S``
becomes the campaign's ``seed=S..S+n-1`` axis, so the same seed always
gives the same grid.  Cells are op-bounded (``duration_s=0``,
``max_ops=N``) so every file system simulates the same number of
operations and a slow model cannot drown the others.

``PINNED`` holds the canonical frame SHA-256 (see ``run.frame_digest``) of
every workload at full size for the default seed and one held-out seed.
A deliberate change to the simulated results must update them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

FILE_SYSTEMS = ("ext2", "ext4", "xfs")
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    """One campaign grid.

    ``replay`` workloads execute their grid once before the timed window
    (the live campaign, packed into a ``.frpack``) and then time campaigns
    that replay it from the pack with zero executions.
    """

    name: str
    workloads: Tuple[str, ...]
    device: str
    seeds: int
    max_ops: int
    replay: bool = False

    def units(self) -> int:
        """Work units per campaign: one per (fs, workload, seed)."""
        return len(FILE_SYSTEMS) * len(self.workloads) * self.seeds

    def run_argv(self, seed: int) -> list:
        """The ``fsbench-rocket run`` arguments of this campaign."""
        return [
            "--axis", "fs=" + ",".join(FILE_SYSTEMS),
            "--axis", "workload=" + ",".join(self.workloads),
            "--axis", f"device={self.device}",
            "--axis", f"seed={seed}..{seed + self.seeds - 1}",
            "--axis", "duration_s=0",
            "--axis", f"max_ops={self.max_ops}",
            "--workers", "1",
            "--scaled-testbed", "0.0625",
            "--name", f"perfbench-{self.name}",
        ]


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="postmark-hdd",
            workloads=("postmark",),
            device="hdd",
            seeds=2,
            max_ops=4000,
        ),
        Workload(
            name="postmark-ssd",
            workloads=("postmark",),
            device="ssd-ftl-steady",
            seeds=2,
            max_ops=4000,
        ),
        Workload(
            name="read-mix",
            workloads=("random-read-cached", "random-read-ondisk", "sequential-read"),
            device="hdd",
            seeds=2,
            max_ops=3000,
        ),
        Workload(
            name="replay",
            workloads=("random-read-cached", "append-fsync"),
            device="hdd",
            seeds=60,
            max_ops=20,
            replay=True,
        ),
    )
}

#: Reduced sizes for the self-test smoke run (``run.py --size smoke``).
SMOKE_SIZES: Dict[str, Tuple[int, int]] = {
    "postmark-hdd": (1, 100),
    "postmark-ssd": (1, 100),
    "read-mix": (1, 50),
    "replay": (2, 10),
}

#: Canonical frame SHA-256 per (workload, seed) at full size, for the
#: default seed and the held-out seed 1000.
PINNED: Dict[Tuple[str, int], str] = {
    ("postmark-hdd", 0): "cd82838310dabd75885eff12304b559c546114975212ec59fc57cf8e0a0ffb34",
    ("postmark-hdd", 1000): "8654b34fa86066f8d2fa9abd86088f51681e5b0191f50da26fac9d88f001ace1",
    ("postmark-ssd", 0): "adfdb7864c14d29426a7e111c5778dcf86bbfc7a5820e9825e1d7f8e28900bb9",
    ("postmark-ssd", 1000): "430c6c639713de7adbcb08183f892df30eff95b3a22c5a98363eca4a6bd09c4a",
    ("read-mix", 0): "b50d723508884bef58d8aac104f9df1bc0329fc36f4853fa63623fa9c21d74d0",
    ("read-mix", 1000): "62175fdd3526c38078cdd36241f1901f56d27f03e370e35bb0a7e7414fef5b3f",
    ("replay", 0): "b8248673414d0b2aac437473bcf8deb1ccfcb3e8fc426a8866fe8f660f94b5ba",
    ("replay", 1000): "2c5cba93e77b52433b4dac99927a8ccd98f63932d1948d9eba757694f2e5de6d",
}
