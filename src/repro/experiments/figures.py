"""The paper's Figures 1-4 as registered experiment definitions.

Each :class:`Figure` is data: ``build`` declares the figure's grid,
measurement protocol and testbed as one
:class:`~repro.core.experiment.Experiment`, and ``frame``/``checks``/
``render`` are pure functions of the
:class:`~repro.core.experiment.ExperimentResult` that experiment produced.
:func:`run_figure` regenerates any of them; :data:`FIGURES` is the table
``fsbench-rocket figureN`` and ``fsbench-rocket list`` read.

The module-level helpers (:func:`figure1_sweep`, :func:`mid_run_spread`,
:func:`peak_fraction`, ...) are what the checks are made of; tests and
benchmarks call them directly to report the measured values behind each
verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.fragility import assess_sweep
from repro.analysis.transition import find_transition
from repro.core.experiment import Experiment, ExperimentCell, ExperimentResult, ParameterGrid
from repro.core.frame import ResultFrame
from repro.core.histogram import LatencyHistogram, bucket_label
from repro.core.report import checks_line, sweep_table
from repro.core.results import RepetitionSet, RunResult, SweepResult
from repro.core.runner import BenchmarkConfig, EnvironmentNoise, WarmupMode
from repro.core.steady_state import detect_steady_state
from repro.core.timeline import HistogramTimeline
from repro.experiments.config import ExperimentScale, MiB, default_scale
from repro.storage.config import TestbedConfig, paper_testbed, scaled_testbed
from repro.workloads.micro import random_read_workload

#: Mean throughput values printed above the bars of the paper's Figure 1.
PAPER_FIGURE1_OPS_S: Dict[int, float] = {
    64: 9682, 128: 9653, 192: 9679, 256: 9700, 320: 9543, 384: 9715,
    448: 1019, 512: 465, 576: 288, 640: 252, 704: 222, 768: 205,
    832: 183, 896: 182, 960: 166, 1024: 162,
}

#: Bucket index (log2 ns) of a ~4 us cache-hit peak.
MEMORY_PEAK_BUCKET_RANGE = (10, 15)
#: Bucket index (log2 ns) of a ~4-30 ms disk peak.
DISK_PEAK_BUCKET_RANGE = (21, 26)


@dataclass(frozen=True)
class Figure:
    """One paper figure: how to measure it and how to read the measurement.

    ``build(scale, fs_types, testbed, seed)`` returns the experiment (a
    ``None`` testbed means the figure's own default machine); ``frame``,
    ``checks`` and ``render`` take the experiment's result, ``render``
    also the scale it ran at.  ``frame`` is ``None`` for a figure without a
    tidy frame.  ``default_fs`` are the file systems measured when the
    caller names none; a figure whose default holds several compares them.
    """

    name: str
    description: str
    build: Callable[[ExperimentScale, Sequence[str], Optional[TestbedConfig], int], Experiment]
    checks: Callable[[ExperimentResult], Dict[str, bool]]
    render: Callable[[ExperimentResult, ExperimentScale], str]
    frame: Optional[Callable[[ExperimentResult], ResultFrame]] = None
    default_fs: Tuple[str, ...] = ("ext2",)

    @property
    def compares_fs(self) -> bool:
        """Whether the figure puts several file systems side by side."""
        return len(self.default_fs) > 1


def run_figure(
    name: str,
    scale: Optional[ExperimentScale] = None,
    fs_types: Optional[Sequence[str]] = None,
    testbed: Optional[TestbedConfig] = None,
    seed: int = 42,
) -> ExperimentResult:
    """Build the named figure's experiment, run it and return the outcome."""
    figure = FIGURES[name]
    scale = scale if scale is not None else default_scale()
    scale.validate()
    fs_types = tuple(fs_types) if fs_types else figure.default_fs
    return figure.build(scale, fs_types, testbed, seed).run()


# ------------------------------------------------------------------ helpers
def file_size_bytes(cell: ExperimentCell) -> int:
    """Size of the single file a figure cell's random-read workload reads."""
    return int(cell.spec.fileset.total_bytes_expected())


def _single_fs(fs_types: Sequence[str]) -> str:
    if len(fs_types) != 1:
        raise ValueError(f"this figure measures one file system, got {list(fs_types)}")
    return fs_types[0]


def _first_runs(outcome: ExperimentResult) -> List[Tuple[ExperimentCell, RunResult]]:
    """Each cell with its first (for these figures: only) repetition."""
    return [(cell, outcome.sets[cell.label].first()) for cell in outcome.cells]


# ----------------------------------------------------------------- figure 1
def _build_figure1(
    scale: ExperimentScale,
    fs_types: Sequence[str],
    testbed: Optional[TestbedConfig],
    seed: int,
) -> Experiment:
    """Figure 1: Ext2 random-read throughput and relative std-dev vs file size.

    Protocol (Section 3.1): one thread randomly reading 8 KiB blocks from a
    single file; file size swept from 64 MB to 1024 MB in 64 MB steps; 512 MB
    of RAM; each size run repeatedly; only steady-state throughput reported.
    The paper's observations the checks look for:

    * a memory-bound plateau (~10^4 ops/s) for sizes that fit in the page
      cache;
    * a sudden, order-of-magnitude drop between 384 MB and 448 MB;
    * I/O-bound throughput in the low hundreds of ops/s at 1024 MB;
    * relative standard deviation several times higher in the I/O-bound
      range than in the memory-bound range, spiking in the transition region.
    """
    config = BenchmarkConfig(
        duration_s=scale.figure1_duration_s,
        repetitions=scale.figure1_repetitions,
        warmup_mode=WarmupMode.PREWARM,
        interval_s=max(1.0, scale.figure1_duration_s / 5.0),
        seed=seed,
    )
    # Sizes may be fractional MiB (the transition zoom bisects in bytes);
    # scaling by a power of two keeps the byte count exact.
    specs = [
        random_read_workload(int(size_mb * MiB))
        for size_mb in dict.fromkeys(scale.figure1_sizes_mb)
    ]
    return Experiment(
        grid=ParameterGrid.of(workload=specs, fs=[_single_fs(fs_types)]),
        name="figure1",
        config=config,
        testbed=testbed if testbed is not None else paper_testbed(),
    )


def figure1_sweep(outcome: ExperimentResult) -> SweepResult:
    """The Figure 1 cells as a file-size sweep (parameter in bytes)."""
    sweep = SweepResult(parameter_name="file_size", unit="bytes")
    for cell in outcome.cells:
        size_mb = file_size_bytes(cell) // MiB
        sweep.add(
            size_mb * MiB,
            RepetitionSet(label=f"{size_mb}MB", runs=list(outcome.sets[cell.label].runs)),
        )
    return sweep


def figure1_rows(sweep: SweepResult) -> List[Tuple[int, float, float]]:
    """(file size MiB, mean ops/s, relative stddev %) rows in sweep order."""
    rsd = dict(sweep.relative_stddevs())
    return [(int(size // MiB), mean, rsd[size]) for size, mean in sweep.mean_throughputs()]


def bound_means(rows: Sequence[Tuple[int, float, float]]) -> Tuple[float, float]:
    """Mean throughput of the memory-bound (<= 384 MiB) and I/O-bound
    (>= 768 MiB) sizes; ``0.0`` for a range the sweep does not cover."""

    def mean(values: List[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    return (
        mean([ops for size, ops, _ in rows if size <= 384]),
        mean([ops for size, ops, _ in rows if size >= 768]),
    )


def drop_factor(rows: Sequence[Tuple[int, float, float]]) -> float:
    """Ratio between the memory-bound plateau and the I/O-bound floor."""
    memory_bound, io_bound = bound_means(rows)
    return memory_bound / io_bound if io_bound > 0 else float("inf")


def _figure1_frame(outcome: ExperimentResult) -> ResultFrame:
    """One row per size x repetition x metric."""
    return ResultFrame.from_cells(
        (
            {
                "experiment": "figure1",
                "fs": cell.fs_type,
                "file_size_mb": file_size_bytes(cell) // MiB,
            },
            outcome.sets[cell.label].runs,
        )
        for cell in outcome.cells
    )


def _figure1_checks(outcome: ExperimentResult) -> Dict[str, bool]:
    sweep = figure1_sweep(outcome)
    rows = figure1_rows(sweep)
    memory_bound, io_bound = bound_means(rows)
    memory_rsd = max((rsd for size, _, rsd in rows if size <= 384), default=0.0)
    io_rsd = max((rsd for size, _, rsd in rows if size >= 768), default=0.0)
    transition = find_transition(sweep)
    in_transition = (
        transition is not None
        and 320 * MiB <= transition.parameter_low
        and transition.parameter_high <= 512 * MiB
    )
    return {
        "memory_bound_plateau_near_10k_ops": 5000 <= memory_bound <= 20000,
        "order_of_magnitude_drop": drop_factor(rows) >= 10.0,
        "cliff_between_384_and_512_mb": in_transition,
        "io_bound_rsd_exceeds_memory_bound_rsd": io_rsd > memory_rsd,
        "io_bound_in_low_hundreds_ops": 50 <= io_bound <= 1000,
    }


def _figure1_render(outcome: ExperimentResult, scale: ExperimentScale) -> str:
    """The sweep table, the transition and the fragility warnings."""
    sweep = figure1_sweep(outcome)
    transition = find_transition(sweep)
    lines = [
        f"Figure 1 reproduction -- {outcome.cells[0].fs_type} random read, {scale.name} scale",
        "",
        sweep_table(sweep, parameter_format="{:.0f}"),
        "",
    ]
    if transition is not None:
        lines.append("Transition: " + transition.describe("bytes"))
    lines.append("")
    lines.append("Fragility assessment:")
    lines.append(assess_sweep(sweep).format())
    lines.append("")
    lines.append("Paper reference points (ops/s): " + ", ".join(
        f"{size}MB={value}" for size, value in sorted(PAPER_FIGURE1_OPS_S.items())
    ))
    lines.append("")
    lines.append(checks_line(_figure1_checks(outcome)))
    return "\n".join(lines)


# ----------------------------------------------------------------- figure 2
def _build_figure2(
    scale: ExperimentScale,
    fs_types: Sequence[str],
    testbed: Optional[TestbedConfig],
    seed: int,
) -> Experiment:
    """Figure 2: Ext2, Ext3 and XFS throughput over time (cache warm-up).

    Protocol (Section 3.1): a 410 MB file -- "the largest file that fits in
    the page cache" of the 512 MB machine -- read randomly by one thread,
    throughput recorded every 10 seconds from a cold cache.  The paper's
    observations:

    * at the start all three file systems are limited to disk throughput;
    * at the end all three run at memory speed;
    * in between ("between 4 and 13 minutes") they differ, by up to nearly
      an order of magnitude, because they warm the cache at different rates;
    * only the whole curve characterises the systems fairly.

    The file is the testbed's page cache size.  With no explicit testbed the
    scale's ``figure2_testbed_scale`` shrinks the machine (RAM and file
    together), which keeps the curve's shape while keeping the default
    regeneration fast; ``paper_scale()`` uses the full 512 MB machine.
    """
    if testbed is None:
        testbed = (
            paper_testbed()
            if scale.figure2_testbed_scale >= 1.0
            else scaled_testbed(scale.figure2_testbed_scale)
        )
    config = BenchmarkConfig(
        duration_s=scale.figure2_duration_s,
        repetitions=1,
        warmup_mode=WarmupMode.NONE,
        interval_s=scale.interval_s,
        histogram_interval_s=None,
        cold_cache=True,
        seed=seed,
        # A single timeline per file system, exactly like the paper's figure:
        # no cross-repetition environment noise (the file must keep fitting
        # in the cache for the warm endpoint to be reached).
        noise=EnvironmentNoise(enabled=False),
    )
    return Experiment(
        grid=ParameterGrid.of(
            fs=list(dict.fromkeys(fs_types)),
            workload=[random_read_workload(testbed.page_cache_bytes)],
        ),
        name="figure2",
        config=config,
        testbed=testbed,
    )


def figure2_runs(outcome: ExperimentResult) -> Dict[str, RunResult]:
    """The warm-up run of each file system, in grid order."""
    return {cell.fs_type: run for cell, run in _first_runs(outcome)}


def mid_run_spread(runs: Mapping[str, RunResult]) -> float:
    """Largest cross-file-system throughput ratio over any interval.

    This is the paper's "differences ranging anywhere from a few percentage
    points to nearly an order of magnitude" claim in a single number: how
    far apart the systems get while the cache warms.
    """
    matrices = [run.timeline.throughputs() for run in runs.values()]
    length = min(len(m) for m in matrices)
    if length == 0:
        return 1.0
    worst = 1.0
    for index in range(length):
        column = [m[index] for m in matrices if m[index] > 0]
        if len(column) >= 2:
            worst = max(worst, max(column) / min(column))
    return worst


def endpoint_agreement(runs: Mapping[str, RunResult]) -> Tuple[float, float]:
    """Cross-FS max/min throughput ratio at the first and at the last interval."""
    first = []
    last = []
    for run in runs.values():
        throughputs = run.timeline.throughputs()
        if throughputs:
            first.append(throughputs[0])
            last.append(throughputs[-1])

    def ratio(values: List[float]) -> float:
        positive = [v for v in values if v > 0]
        return (max(positive) / min(positive)) if len(positive) >= 2 else 1.0

    return ratio(first), ratio(last)


def warmup_interval_index(run: RunResult) -> Optional[int]:
    """Interval at which a run's throughput became steady (warm)."""
    return detect_steady_state(run.timeline.throughputs(), window=4, cov_threshold=0.15)


def _figure2_frame(outcome: ExperimentResult) -> ResultFrame:
    """One row per fs x interval."""
    frame = ResultFrame()
    for fs, run in figure2_runs(outcome).items():
        timeline = run.timeline
        for index, throughput in enumerate(timeline.throughputs()):
            frame.append(
                {
                    "experiment": "figure2",
                    "fs": fs,
                    "time_s": (index + 1) * timeline.interval_s,
                    "metric": "interval_throughput_ops_s",
                    "value": throughput,
                }
            )
    return frame


def _figure2_checks(outcome: ExperimentResult) -> Dict[str, bool]:
    runs = figure2_runs(outcome)
    start_ratio, end_ratio = endpoint_agreement(runs)
    known = [w for w in map(warmup_interval_index, runs.values()) if w is not None]
    return {
        "similar_at_cold_start": start_ratio <= 2.0,
        "similar_when_warm": end_ratio <= 1.5,
        "large_mid_run_differences": mid_run_spread(runs) >= 3.0,
        "filesystems_warm_at_different_times": len(known) > 1 and len(set(known)) > 1,
    }


def _figure2_render(outcome: ExperimentResult, scale: ExperimentScale) -> str:
    """One throughput column per file system: a pivot of the frame."""
    runs = figure2_runs(outcome)
    table = _figure2_frame(outcome).pivot(index="time_s", columns="fs").render(
        index_headers=["time (s)"],
        column_header=lambda fs: f"{fs} ops/s",
        value_format="{:.0f}",
        index_format="{:.0f}",
    )
    start_ratio, end_ratio = endpoint_agreement(runs)
    summary = (
        f"\nCold-start cross-FS ratio {start_ratio:.2f}x, warm ratio {end_ratio:.2f}x, "
        f"worst mid-run ratio {mid_run_spread(runs):.1f}x\n"
        + checks_line(_figure2_checks(outcome))
    )
    return (
        f"Figure 2 reproduction -- {file_size_bytes(outcome.cells[0]) // MiB} MB file, "
        "random read from cold cache\n\n"
        + table
        + summary
    )


# ----------------------------------------------------------------- figure 3
def _build_figure3(
    scale: ExperimentScale,
    fs_types: Sequence[str],
    testbed: Optional[TestbedConfig],
    seed: int,
) -> Experiment:
    """Figure 3: read-latency histograms for 64 MB, 1024 MB and 25 GB files.

    Protocol (Section 3.2): the same single-threaded random-read workload
    with latency histograms (log2 ns buckets) collected per operation, for
    three file sizes spanning the working-set spectrum.  The paper's
    observations:

    * 64 MB (fits in memory): a single peak around 4 microseconds;
    * 1024 MB (twice RAM): two peaks of roughly equal height -- cache hits
      on the left, disk reads on the right;
    * 25 GB (far larger than RAM): the memory peak becomes invisible,
      essentially all operations are disk reads;
    * overall, working-set size moves reported latency across more than
      three orders of magnitude.
    """
    config = BenchmarkConfig(
        duration_s=0.0,
        max_ops=scale.figure3_ops,
        repetitions=1,
        warmup_mode=WarmupMode.PREWARM,
        interval_s=10.0,
        cold_cache=True,
        seed=seed,
    )
    specs = [
        random_read_workload(size_mb * MiB) for size_mb in dict.fromkeys(scale.figure3_sizes_mb)
    ]
    return Experiment(
        grid=ParameterGrid.of(workload=specs, fs=[_single_fs(fs_types)]),
        name="figure3",
        config=config,
        testbed=testbed if testbed is not None else paper_testbed(),
    )


def figure3_histograms(outcome: ExperimentResult) -> Dict[int, LatencyHistogram]:
    """Latency histogram per file size (MiB), ascending."""
    histograms = {
        file_size_bytes(cell) // MiB: run.histogram for cell, run in _first_runs(outcome)
    }
    return {size: histograms[size] for size in sorted(histograms)}


def peak_fraction(histogram: LatencyHistogram, bucket_range: Tuple[int, int]) -> float:
    """Fraction of operations in the inclusive ``(low, high)`` bucket range."""
    low, high = bucket_range
    return sum(histogram.fractions()[low : high + 1])


def has_peak_in(histogram: LatencyHistogram, bucket_range: Tuple[int, int]) -> bool:
    """Whether any of the histogram's modes falls in the bucket range."""
    low, high = bucket_range
    return any(low <= mode <= high for mode in histogram.modes())


def latency_span_orders(histograms: Mapping[int, LatencyHistogram]) -> float:
    """Orders of magnitude spanned across all histograms together."""
    merged = LatencyHistogram()
    for histogram in histograms.values():
        merged = merged.merge(histogram)
    return merged.span_orders_of_magnitude()


def _figure3_checks(outcome: ExperimentResult) -> Dict[str, bool]:
    histograms = figure3_histograms(outcome)
    sizes = list(histograms)
    small = histograms[sizes[0]]
    medium = histograms[sizes[len(sizes) // 2]]
    large = histograms[sizes[-1]]
    return {
        "small_file_single_memory_peak": (
            has_peak_in(small, MEMORY_PEAK_BUCKET_RANGE)
            and not has_peak_in(small, DISK_PEAK_BUCKET_RANGE)
        ),
        "medium_file_bimodal": medium.is_bimodal()
        and has_peak_in(medium, MEMORY_PEAK_BUCKET_RANGE)
        and has_peak_in(medium, DISK_PEAK_BUCKET_RANGE),
        # For the huge file the memory peak should be negligible.
        "large_file_disk_peak_dominates": has_peak_in(large, DISK_PEAK_BUCKET_RANGE)
        and peak_fraction(large, MEMORY_PEAK_BUCKET_RANGE) < 0.15,
        "latencies_span_three_orders_of_magnitude": latency_span_orders(histograms) >= 3.0,
    }


def _figure3_render(outcome: ExperimentResult, scale: ExperimentScale) -> str:
    """One histogram per file size."""
    lines = ["Figure 3 reproduction -- read latency histograms (log2 ns buckets)", ""]
    for size_mb, histogram in figure3_histograms(outcome).items():
        modes = ", ".join(f"{m} ({bucket_label(m)})" for m in histogram.modes())
        lines.append(f"--- {size_mb} MB file: n={histogram.total}, peaks at buckets [{modes}]")
        lines.append(histogram.to_ascii())
        lines.append("")
    lines.append(checks_line(_figure3_checks(outcome)))
    return "\n".join(lines)


# ----------------------------------------------------------------- figure 4
def _build_figure4(
    scale: ExperimentScale,
    fs_types: Sequence[str],
    testbed: Optional[TestbedConfig],
    seed: int,
) -> Experiment:
    """Figure 4: latency histograms sampled over time (Ext2, 256 MB file).

    Protocol (Section 3.2): the random-read workload on a 256 MB file (which
    fits in the cache), started cold, with a latency histogram collected for
    every 10-second interval.  The paper's observations:

    * early intervals are dominated by a disk-latency peak (around 2^23 ns);
    * as the cache warms the disk peak fades and a memory peak (around
      2^11 ns) grows;
    * the distribution is bi-modal during most of the run, so measuring
      "the" latency at any single point in time is arbitrary.
    """
    config = BenchmarkConfig(
        duration_s=scale.figure4_duration_s,
        repetitions=1,
        warmup_mode=WarmupMode.NONE,
        interval_s=scale.interval_s,
        histogram_interval_s=scale.interval_s,
        cold_cache=True,
        seed=seed,
        noise=EnvironmentNoise(enabled=False),
    )
    return Experiment(
        grid=ParameterGrid.of(
            workload=[random_read_workload(scale.figure4_file_mb * MiB)],
            fs=[_single_fs(fs_types)],
        ),
        name="figure4",
        config=config,
        testbed=testbed if testbed is not None else paper_testbed(),
    )


def figure4_timeline(outcome: ExperimentResult) -> HistogramTimeline:
    """The per-interval latency histograms of the warm-up run."""
    timeline = outcome.sets[outcome.cells[0].label].first().histogram_timeline
    if timeline is None:
        raise ValueError("figure 4 requires histogram_interval_s to be enabled")
    return timeline


def peak_migration(timeline: HistogramTimeline) -> List[Tuple[float, float, float]]:
    """(time s, disk-peak fraction, memory-peak fraction) per interval."""
    times = timeline.interval_times_s()
    return [
        (
            times[index],
            peak_fraction(timeline.histogram_at(index), DISK_PEAK_BUCKET_RANGE),
            peak_fraction(timeline.histogram_at(index), MEMORY_PEAK_BUCKET_RANGE),
        )
        for index in range(len(timeline))
    ]


def _figure4_frame(outcome: ExperimentResult) -> ResultFrame:
    """Disk/memory peak percentages and modality, rows per interval."""
    timeline = figure4_timeline(outcome)
    frame = ResultFrame()
    for time_s, disk, memory in peak_migration(timeline):
        histogram_index = int(time_s / timeline.interval_s) - 1
        bimodal = timeline.histogram_at(histogram_index).is_bimodal()
        base = {"experiment": "figure4", "fs": outcome.cells[0].fs_type, "time_s": time_s}
        frame.append({**base, "metric": "disk-peak %", "value": round(100 * disk, 1)})
        frame.append({**base, "metric": "memory-peak %", "value": round(100 * memory, 1)})
        frame.append({**base, "metric": "bimodal", "value": "yes" if bimodal else "no"})
    return frame


def _figure4_checks(outcome: ExperimentResult) -> Dict[str, bool]:
    timeline = figure4_timeline(outcome)
    migration = peak_migration(timeline)
    if len(migration) < 3:
        return {"enough_intervals": False}
    _, first_disk, first_memory = migration[0]
    _, last_disk, last_memory = migration[-1]
    return {
        "enough_intervals": True,
        "disk_peak_dominates_early": first_disk > first_memory,
        "memory_peak_dominates_late": last_memory > last_disk,
        "disk_peak_fades": last_disk < first_disk * 0.5 or last_disk < 0.1,
        "bimodal_for_much_of_run": timeline.bimodal_fraction() >= 0.3,
    }


def _figure4_render(outcome: ExperimentResult, scale: ExperimentScale) -> str:
    """Per-interval peak fractions and modality: a pivot of the frame."""
    table = _figure4_frame(outcome).pivot(
        index="time_s", columns="metric", aggregate="first"
    ).render(index_headers=["time (s)"], index_format="{:.0f}")
    lines = [
        f"Figure 4 reproduction -- {outcome.cells[0].fs_type}, "
        f"{file_size_bytes(outcome.cells[0]) // MiB} MB file, histograms per 10 s interval",
        "",
        table,
        "",
        f"Bi-modal intervals: {100 * figure4_timeline(outcome).bimodal_fraction():.0f}% of the run",
        checks_line(_figure4_checks(outcome)),
    ]
    return "\n".join(lines)


#: Every paper figure by its stable name (the CLI verb).
FIGURES: Dict[str, Figure] = {
    figure.name: figure
    for figure in (
        Figure(
            name="figure1",
            description="throughput + relative stddev vs file size (the cache cliff)",
            build=_build_figure1,
            checks=_figure1_checks,
            render=_figure1_render,
            frame=_figure1_frame,
        ),
        Figure(
            name="figure2",
            description="cache warm-up timelines across file systems",
            build=_build_figure2,
            checks=_figure2_checks,
            render=_figure2_render,
            frame=_figure2_frame,
            default_fs=("ext2", "ext3", "xfs"),
        ),
        Figure(
            name="figure3",
            description="read-latency histograms across working-set sizes",
            build=_build_figure3,
            checks=_figure3_checks,
            render=_figure3_render,
        ),
        Figure(
            name="figure4",
            description="latency histograms sampled per interval over a warm-up run",
            build=_build_figure4,
            checks=_figure4_checks,
            render=_figure4_render,
            frame=_figure4_frame,
        ),
    )
}
