"""The host's speed, sampled on the CPU the campaigns run on.

On a shared host the CPU's speed flips between a fast state and one up to
about 1.7 times slower, for anything from a fraction of a second to tens of
seconds.  A campaign's wall time then mostly says how long the host stayed
slow: ten runs of one workload spread by 0.15-0.3 of their median, and
more campaigns per run do not average a slow phase away.

:class:`SpeedProbe` runs a small sampler process pinned to the same CPU as
the benchmark and its campaigns.  Every ``INTERVAL_S`` it wakes, times a
fixed pure-Python loop (dict, object, heap and string work, like the
simulator's) and appends ``monotonic_time duration`` to a file.  The loop
shares the CPU with the campaign, so it sees the same slow-downs at the
same moments.  :meth:`SpeedProbe.factor` turns the samples taken while a
campaign ran into the share of the reference speed the host gave it:
``mean(REFERENCE_S / duration)``.  Multiplying a campaign's host seconds
by that factor gives seconds on the reference host.  Over 23 back-to-back
postmark-hdd campaigns this took the quartile spread of campaign time from
0.24 to 0.03; the factor's correlation with campaign time was 0.97.

The sampler takes about 2% of the CPU it shares, the same share whatever
the program does.  Run ``python3 perfbench/speed.py`` to print the loop's
quartiles on this host next to ``REFERENCE_S``.
"""

from __future__ import annotations

import heapq
import os
import statistics
import subprocess
import sys
import time
from typing import List, Optional, Tuple

#: Seconds between samples.
INTERVAL_S = 0.02
#: :func:`probe_loop`'s duration on the reference host (a 2-vCPU virtual
#: machine, Python 3.11.7) in its fast state, sampled beside a campaign.
REFERENCE_S = 0.0003


class _Node:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value

    def weight(self) -> int:
        return self.key * 3 + self.value


def probe_loop() -> int:
    """A fixed piece of pure-Python work: about a millisecond."""
    counts: dict = {}
    for i in range(600):
        counts[i & 127] = counts.get(i & 127, 0) + i
    heap: List[Tuple[int, int]] = []
    total = 0
    for i in range(150):
        node = _Node(i, (i * 7919) % 1009)
        heapq.heappush(heap, (node.value, i))
        total += node.weight()
    while heap:
        heapq.heappop(heap)
    labels = sorted("%d-%d" % (i, i * 31 % 97) for i in range(120))
    return total + len(labels)


def sample(path: str, parent: int) -> None:
    """The sampler's body; ends when its parent is gone."""
    with open(path, "w") as out:
        while os.getppid() == parent:
            time.sleep(INTERVAL_S)
            start = time.monotonic()
            probe_loop()
            end = time.monotonic()
            out.write(f"{end!r} {end - start!r}\n")
            out.flush()


class SpeedProbe:
    """A running sampler; use as a context manager.

    For the probe's lifetime the calling process is pinned to the highest
    CPU it may use, so the campaigns it spawns inherit the pin and share
    that CPU with the sampler.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.samples: List[Tuple[float, float]] = []
        self._offset = 0
        self._process: Optional[subprocess.Popen] = None
        self._affinity = os.sched_getaffinity(0)

    def __enter__(self) -> "SpeedProbe":
        os.sched_setaffinity(0, {max(self._affinity)})
        self._process = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--sample", self.path, str(os.getpid())]
        )
        return self

    def __exit__(self, *exc) -> None:
        if self._process is not None:
            self._process.terminate()
            self._process.wait()
        os.sched_setaffinity(0, self._affinity)

    def _read(self) -> None:
        with open(self.path) as handle:
            handle.seek(self._offset)
            for line in handle:
                if not line.endswith("\n"):
                    break
                self._offset += len(line)
                end, duration = line.split()
                self.samples.append((float(end), float(duration)))

    def factor(self, start: float, end: float) -> float:
        """Share of the reference speed the host gave between two
        ``time.monotonic()`` readings, from the samples taken in between."""
        self._read()
        rates = [REFERENCE_S / duration for at, duration in self.samples if start <= at <= end]
        if not rates:
            raise RuntimeError(
                f"the speed sampler took no sample in {end - start:.3f} s"
                + ("; it has stopped" if self._process.poll() is not None else "")
            )
        return statistics.fmean(rates)


def main(argv: List[str]) -> int:
    if argv[:1] == ["--sample"]:
        sample(argv[1], int(argv[2]))
        return 0
    durations = []
    for _ in range(500):
        time.sleep(INTERVAL_S)
        start = time.monotonic()
        probe_loop()
        durations.append(time.monotonic() - start)
    quartiles = statistics.quantiles(durations, n=4)
    print("probe loop quartiles (s): " + " ".join(f"{q:.6f}" for q in quartiles)
          + f"; REFERENCE_S = {REFERENCE_S}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
