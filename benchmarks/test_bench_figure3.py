"""Benchmark: regenerate Figure 3 (latency histograms for 64 MB / 1 GB / 25 GB).

Paper reference: a single ~4 us peak for the 64 MB file, two roughly equal
peaks for the 1024 MB file (cache hits vs disk reads), a single disk peak for
the 25 GB file, and reported latencies spanning more than three orders of
magnitude across the three working-set sizes.
"""

from benchmarks.conftest import run_once
from repro.experiments import FIGURES, run_figure
from repro.experiments.config import default_scale
from repro.experiments.figures import figure3_histograms, latency_span_orders


def test_bench_figure3_latency_histograms(benchmark, record_checks):
    outcome = run_once(benchmark, run_figure, "figure3", fs_types=("ext2",), scale=default_scale())
    histograms = figure3_histograms(outcome)
    checks = record_checks(
        FIGURES["figure3"].checks(outcome),
        modes_by_size={size: histogram.modes() for size, histogram in histograms.items()},
        latency_span_orders=round(latency_span_orders(histograms), 1),
    )
    assert checks["small_file_single_memory_peak"]
    assert checks["medium_file_bimodal"]
    assert checks["large_file_disk_peak_dominates"]
    assert checks["latencies_span_three_orders_of_magnitude"]
