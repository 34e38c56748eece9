"""Benchmark: regenerate Figure 4 (latency histograms over time, Ext2, 256 MB).

Paper reference: the disk-latency peak (around 2^23 ns) fades over the run and
is replaced by a page-cache peak (around 2^11 ns); the distribution is
bi-modal during most of the benchmark's execution.
"""

from benchmarks.conftest import run_once
from repro.experiments import FIGURES, run_figure
from repro.experiments.config import default_scale
from repro.experiments.figures import figure4_timeline, peak_migration


def test_bench_figure4_histogram_timeline(benchmark, record_checks):
    outcome = run_once(benchmark, run_figure, "figure4", fs_types=("ext2",), scale=default_scale())
    timeline = figure4_timeline(outcome)
    migration = peak_migration(timeline)
    checks = record_checks(
        FIGURES["figure4"].checks(outcome),
        bimodal_fraction=round(timeline.bimodal_fraction(), 2),
        first_interval_disk_fraction=round(migration[0][1], 2),
        last_interval_disk_fraction=round(migration[-1][1], 2),
    )
    assert checks["disk_peak_dominates_early"]
    assert checks["memory_peak_dominates_late"]
    assert checks["disk_peak_fades"]
    assert checks["bimodal_for_much_of_run"]
