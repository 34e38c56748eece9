"""Benchmark: regenerate Figure 1 (throughput and rel. std-dev vs file size).

Paper reference (Ext2, random read, 512 MB RAM): ~9,700 ops/s for files that
fit in the page cache, a cliff between 384 MB and 448 MB, and 162-465 ops/s
for files of 512 MB and beyond, with relative standard deviation several
times higher in the I/O-bound range.
"""

from benchmarks.conftest import run_once
from repro.experiments import FIGURES, run_figure
from repro.experiments.config import default_scale
from repro.experiments.figures import bound_means, drop_factor, figure1_rows, figure1_sweep


def test_bench_figure1_ext2(benchmark, record_checks):
    outcome = run_once(benchmark, run_figure, "figure1", fs_types=("ext2",), scale=default_scale())
    sweep_rows = figure1_rows(figure1_sweep(outcome))
    memory_bound, io_bound = bound_means(sweep_rows)
    rows = {size: (round(mean), round(rsd, 1)) for size, mean, rsd in sweep_rows}
    checks = record_checks(
        FIGURES["figure1"].checks(outcome),
        memory_bound_mean_ops=round(memory_bound),
        io_bound_mean_ops=round(io_bound),
        drop_factor=round(drop_factor(sweep_rows), 1),
        rows=str(rows),
    )
    assert checks["memory_bound_plateau_near_10k_ops"]
    assert checks["order_of_magnitude_drop"]
    assert checks["cliff_between_384_and_512_mb"]
    assert checks["io_bound_rsd_exceeds_memory_bound_rsd"]
