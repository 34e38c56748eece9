"""Campaign telemetry: the executor's wall-clock event log and live progress.

The virtual-time tracer (:mod:`repro.obs.trace`) explains one measured
window from the inside; this module watches the *campaign* from the outside.
:class:`repro.core.parallel.ParallelExecutor` emits one lifecycle event per
:class:`~repro.core.parallel.WorkUnit` -- ``queued``, ``cache-hit``,
``pack-hit``, ``exec-start``, ``exec-done``, ``failed`` -- into a bounded
:class:`TelemetrySink` that mirrors the stream to a JSONL file, and
``fsbench-rocket report`` renders campaign health (stage breakdown, cache
efficiency, slowest cells, worker utilization) from that file after the
fact.

Non-perturbation is the same argument as the tracer's, transposed to wall
time: nothing in the simulation ever reads the sink or the clockings.  The
executor observes wall time around ``execute_unit`` (via
:func:`timed_execute`) and the runner's phase brackets observe it inside
(:mod:`repro.obs.profile`); virtual-time metrics, cache keys and serialized
run payloads are byte-identical with telemetry on or off, which
``tests/test_telemetry.py`` pins against the golden hashes.  Telemetry
fields live in :class:`TelemetryEvent`, a type
:func:`repro.core.persistence.canonical_run_payload` never serializes, so
they *cannot* leak into result payloads or cache keys.

This module (together with :mod:`repro.obs.profile`) is deliberately the
only place in ``src/repro`` allowed to read the host clock; the DET001
lint exemption lives in ``lint.toml`` with this rationale.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import IO, Any, Callable, Deque, Dict, List, Optional, Tuple

__all__ = [
    "EVENT_KINDS",
    "TelemetryEvent",
    "TelemetrySink",
    "UnitTiming",
    "timed_execute",
    "ProgressReporter",
    "load_events",
    "render_report",
]

#: Lifecycle of one work unit, in emission order.  Every unit gets exactly
#: one ``queued`` and exactly one terminal event (``cache-hit``,
#: ``pack-hit``, ``exec-done`` or ``failed``); fresh executions additionally
#: get an ``exec-start`` carrying the worker's true start timestamp.
EVENT_KINDS = ("queued", "cache-hit", "pack-hit", "exec-start", "exec-done", "failed")

#: Default event-ring capacity of a sink.  Mirrors the tracer's bounded-ring
#: discipline: the in-memory view is capped, the JSONL mirror is complete.
RING_CAPACITY = 4096


@dataclass
class TelemetryEvent:
    """One executor lifecycle event.

    ``t_s`` is wall-clock seconds since the sink was opened; ``wall_s`` is
    the unit's execution duration (terminal events of fresh executions
    only); ``worker`` is the executing process id; ``phases`` carries the
    per-phase self-time seconds measured by the worker's
    :class:`~repro.obs.profile.PhaseProfiler`.
    """

    kind: str
    group: str = ""
    fs: str = ""
    workload: str = ""
    repetition: int = 0
    seed: int = 0
    key: str = ""
    t_s: float = 0.0
    wall_s: float = 0.0
    worker: int = 0
    error: str = ""
    phases: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form; empty optional fields are omitted to keep the
        JSONL mirror lean (``load_events`` restores them via defaults)."""
        out = asdict(self)
        for name in ("key", "error"):
            if not out[name]:
                del out[name]
        if not out["phases"]:
            del out["phases"]
        if out["wall_s"] == 0.0:
            del out["wall_s"]
        if out["worker"] == 0:
            del out["worker"]
        return out


class TelemetrySink:
    """Bounded in-memory event ring with an optional complete JSONL mirror.

    The ring keeps the last ``capacity`` events for in-process consumers
    (live progress, tests); every event is additionally appended to ``path``
    when given, so post-hoc reporting never depends on the ring bound.
    ``counts`` tallies every event kind ever emitted, ring or not.
    """

    def __init__(self, path: Optional[str] = None, capacity: int = RING_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError("telemetry ring capacity must be positive")
        self.path = path
        self.capacity = capacity
        self.events: Deque[TelemetryEvent] = deque(maxlen=capacity)
        self.counts: Dict[str, int] = {}
        self.total_events = 0
        #: Cumulative wall seconds of fresh executions (``exec-done`` events).
        self.exec_wall_s = 0.0
        self._epoch0 = time.time()
        self._handle: Optional[IO[str]] = None
        if path is not None:
            directory = os.path.dirname(os.path.abspath(path))
            os.makedirs(directory, exist_ok=True)
            self._handle = open(path, "w")

    def now_s(self) -> float:
        """Wall-clock seconds since the sink was opened."""
        return time.time() - self._epoch0

    def to_sink_time(self, epoch_s: float) -> float:
        """Convert an absolute ``time.time()`` stamp (e.g. from a pool
        worker) into sink-relative seconds."""
        return epoch_s - self._epoch0

    def emit(self, event: TelemetryEvent, t_s: Optional[float] = None) -> None:
        """Record one event, stamping ``t_s`` (sink-relative) unless the
        caller supplies a worker-measured stamp."""
        event.t_s = self.now_s() if t_s is None else t_s
        self.events.append(event)
        self.counts[event.kind] = self.counts.get(event.kind, 0) + 1
        self.total_events += 1
        if event.kind == "exec-done":
            self.exec_wall_s += event.wall_s
        if self._handle is not None:
            self._handle.write(json.dumps(event.to_dict(), sort_keys=True))
            self._handle.write("\n")
            self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "TelemetrySink":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


# -------------------------------------------------------- timed execution
@dataclass
class UnitTiming:
    """Wall-clock facts of one fresh execution, measured where it ran.

    ``started_epoch_s``/``ended_epoch_s`` are absolute ``time.time()``
    stamps (comparable across processes); ``wall_s`` is the precise
    ``perf_counter`` duration; ``phases``/``calls`` are the phase
    profiler's self-time totals and bracket counts.
    """

    started_epoch_s: float
    ended_epoch_s: float
    wall_s: float
    pid: int
    phases: Dict[str, float] = field(default_factory=dict)
    calls: Dict[str, int] = field(default_factory=dict)


def timed_execute(unit: Any) -> Tuple[Any, UnitTiming]:
    """Run one work unit under a fresh phase profiler; return (run, timing).

    Pure and picklable, like :func:`repro.core.parallel.execute_unit` which
    it wraps: this is how the executor runs every fresh unit, in-process or
    in a pool worker.  The profiler is installed for exactly the
    duration of the unit (and the previous profiler, if any, restored), so
    profiling composes with callers that keep their own.
    """
    from repro.core.parallel import execute_unit
    from repro.obs import profile

    previous = profile.active()
    profiler = profile.enable()
    started_epoch_s = time.time()
    start = time.perf_counter()
    try:
        run = execute_unit(unit)
    finally:
        if previous is not None:
            profile.enable(previous)
        else:
            profile.disable()
    wall_s = time.perf_counter() - start
    timing = UnitTiming(
        started_epoch_s=started_epoch_s,
        ended_epoch_s=started_epoch_s + wall_s,
        wall_s=wall_s,
        pid=os.getpid(),
        phases=profiler.totals(),
        calls=profiler.calls(),
    )
    return run, timing


# ------------------------------------------------------------ live progress
class ProgressReporter:
    """Streaming campaign progress: cells done, hit rate, utilization, ETA.

    Composes with the Experiment streaming callbacks: wire ``unit_done``
    into ``on_unit`` and ``cell_done`` into ``on_cell`` (the CLI does both).
    Lines go through ``emit`` -- by default straight to stderr, the CLI
    passes its logger -- so stdout stays machine-consumable.
    """

    def __init__(
        self,
        total_units: int,
        total_cells: int,
        n_workers: int = 1,
        sink: Optional[TelemetrySink] = None,
        emit: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.total_units = total_units
        self.total_cells = total_cells
        self.n_workers = max(1, n_workers)
        self.sink = sink
        self._emit = emit if emit is not None else self._stderr
        self._start = time.perf_counter()
        self.units_done = 0
        self.cache_hits = 0
        self.cells_done = 0
        self.fresh_done = 0
        self.busy_s = 0.0

    @staticmethod
    def _stderr(line: str) -> None:
        print(line, file=sys.stderr, flush=True)

    def unit_done(self, unit: Any, run: Any, cached: bool) -> None:
        """Per-repetition hook (the ``on_unit`` shape)."""
        self.units_done += 1
        if cached:
            self.cache_hits += 1

    def record_wall(self, wall_s: float) -> None:
        """Account one fresh execution's wall time (only needed when no sink
        is attached -- with one, ``status`` reads the sink's aggregates)."""
        self.fresh_done += 1
        self.busy_s += wall_s

    def _busy(self) -> "Tuple[int, float]":
        """(fresh executions, cumulative wall seconds), sink-first."""
        if self.sink is not None:
            return self.sink.counts.get("exec-done", 0), self.sink.exec_wall_s
        return self.fresh_done, self.busy_s

    def status(self) -> str:
        """The tail of a progress line: units, hit rate, utilization, ETA."""
        parts = [f"units {self.units_done}/{self.total_units}"]
        if self.units_done:
            rate = self.cache_hits / self.units_done
            parts.append(f"hits {self.cache_hits} ({rate:.0%})")
        elapsed = time.perf_counter() - self._start
        fresh_done, busy_s = self._busy()
        if fresh_done and elapsed > 0:
            utilization = busy_s / (elapsed * self.n_workers)
            parts.append(f"util {min(utilization, 1.0):.0%}")
            remaining = self.total_units - self.units_done
            eta_s = remaining * (busy_s / fresh_done) / self.n_workers
            parts.append(f"eta ~{eta_s:.0f}s")
        return ", ".join(parts)

    def cell_done(self, cell: Any, repetitions: Any) -> None:
        """Per-cell hook (the ``on_cell`` shape): emit one progress line."""
        self.cells_done += 1
        label = getattr(cell, "label", str(cell))
        try:
            summary = repetitions.throughput_summary()
            result = (
                f"{summary.mean:.0f} ops/s +/-{summary.relative_stddev_percent:.0f}% "
                f"({len(repetitions)} reps)"
            )
        except (AttributeError, ValueError):
            result = f"{len(repetitions)} reps"
        self._emit(
            f"[{self.cells_done}/{self.total_cells}] {label}: {result} | {self.status()}"
        )


# ---------------------------------------------------------------- reporting
def load_events(path: str) -> List[Dict[str, Any]]:
    """Parse a telemetry JSONL file back into event dictionaries."""
    events: List[Dict[str, Any]] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


def events_to_dicts(sink: TelemetrySink) -> List[Dict[str, Any]]:
    """The sink's in-memory ring as report-ready dictionaries."""
    return [event.to_dict() for event in sink.events]


def render_report(events: List[Dict[str, Any]], top: int = 5) -> str:
    """Render campaign health from an event stream.

    Sections: the campaign summary (units by outcome, wall span), cache
    efficiency, the wall-clock stage breakdown aggregated from the phase
    profiler's per-unit totals, the slowest cells, and per-worker
    utilization.  Works on :func:`load_events` output or on
    :func:`events_to_dicts` of a live sink.
    """
    from repro.obs.profile import hotspot_report

    kinds: Dict[str, int] = {}
    for event in events:
        kinds[event.get("kind", "?")] = kinds.get(event.get("kind", "?"), 0) + 1
    queued = kinds.get("queued", 0)
    loose_hits = kinds.get("cache-hit", 0)
    pack_hits = kinds.get("pack-hit", 0)
    done = kinds.get("exec-done", 0)
    failed = kinds.get("failed", 0)
    hits = loose_hits + pack_hits

    terminal = [e for e in events if e.get("kind") in ("exec-done", "failed")]
    span_s = 0.0
    if events:
        stamps = [e.get("t_s", 0.0) for e in events]
        span_s = max(stamps) - min(stamps)

    lines = [
        "campaign telemetry report",
        f"  units: {queued} queued, {done} executed, {hits} cache hits, {failed} failed",
        f"  wall span: {span_s:.1f}s across {len({e.get('worker', 0) for e in terminal})} worker(s)",
    ]

    settled = hits + done + failed
    if settled:
        lines.append(
            f"  cache efficiency: {hits}/{settled} ({hits / settled:.0%}) -- "
            f"{loose_hits} loose, {pack_hits} pack"
        )

    phases: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for event in events:
        for name, seconds in event.get("phases", {}).items():
            phases[name] = phases.get(name, 0.0) + seconds
            calls[name] = calls.get(name, 0) + 1
    if phases:
        lines.append("")
        lines.append(hotspot_report(phases, calls, title="stage breakdown (wall-clock self time)"))

    cell_wall: Dict[str, float] = {}
    cell_units: Dict[str, int] = {}
    for event in events:
        if event.get("kind") == "exec-done":
            group = event.get("group", "?")
            cell_wall[group] = cell_wall.get(group, 0.0) + event.get("wall_s", 0.0)
            cell_units[group] = cell_units.get(group, 0) + 1
    if cell_wall:
        total_wall = sum(cell_wall.values())
        lines.append("")
        lines.append(f"slowest cells (top {min(top, len(cell_wall))} of {len(cell_wall)})")
        lines.append(f"  {'cell':<40} {'units':>5} {'wall_s':>8} {'share':>7}")
        ranked = sorted(cell_wall.items(), key=lambda item: (-item[1], item[0]))[:top]
        for group, wall in ranked:
            share = wall / total_wall if total_wall > 0 else 0.0
            lines.append(f"  {group:<40} {cell_units[group]:>5} {wall:>8.2f} {share:>6.1%}")

    worker_busy: Dict[int, float] = {}
    for event in events:
        if event.get("kind") == "exec-done":
            worker = event.get("worker", 0)
            worker_busy[worker] = worker_busy.get(worker, 0.0) + event.get("wall_s", 0.0)
    if worker_busy and span_s > 0:
        lines.append("")
        lines.append("worker utilization")
        for worker in sorted(worker_busy):
            busy = worker_busy[worker]
            lines.append(
                f"  worker {worker}: busy {busy:.2f}s of {span_s:.1f}s "
                f"({min(busy / span_s, 1.0):.0%})"
            )

    if failed:
        lines.append("")
        lines.append("failures")
        for event in events:
            if event.get("kind") == "failed":
                lines.append(
                    f"  {event.get('group', '?')} rep {event.get('repetition', 0)}: "
                    f"{event.get('error', 'unknown error')}"
                )
    return "\n".join(lines)
