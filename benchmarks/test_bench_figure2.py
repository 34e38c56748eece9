"""Benchmark: regenerate Figure 2 (Ext2/Ext3/XFS throughput over time).

Paper reference: with a 410 MB file (the largest fitting in the page cache)
read randomly from a cold cache, all three file systems start at disk speed
and end at memory speed, but differ by up to nearly an order of magnitude
while the cache warms (between roughly 4 and 13 minutes into the run).

The default scale runs the same experiment on a proportionally shrunken
machine (see ``ExperimentScale.figure2_testbed_scale``), which preserves the
curve's shape; pass ``--paper-scale`` through the CLI for the full machine.
"""

from benchmarks.conftest import run_once
from repro.experiments import FIGURES, run_figure
from repro.experiments.config import default_scale
from repro.experiments.figures import (
    endpoint_agreement,
    figure2_runs,
    mid_run_spread,
    warmup_interval_index,
)


def test_bench_figure2_warmup_timelines(benchmark, record_checks):
    outcome = run_once(
        benchmark, run_figure, "figure2", fs_types=("ext2", "ext3", "xfs"), scale=default_scale()
    )
    runs = figure2_runs(outcome)
    start_ratio, end_ratio = endpoint_agreement(runs)
    checks = record_checks(
        FIGURES["figure2"].checks(outcome),
        cold_start_cross_fs_ratio=round(start_ratio, 2),
        warm_cross_fs_ratio=round(end_ratio, 2),
        worst_mid_run_ratio=round(mid_run_spread(runs), 1),
        warmup_intervals={fs: warmup_interval_index(run) for fs, run in runs.items()},
    )
    assert checks["similar_when_warm"]
    assert checks["large_mid_run_differences"]
    assert checks["filesystems_warm_at_different_times"]
