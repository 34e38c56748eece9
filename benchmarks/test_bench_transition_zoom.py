"""Benchmark: the Section 3.1 zoom into the Figure 1 transition region.

Paper reference: zooming into the 384-448 MB region shows the performance
drop happens within less than 6 MB, and the relative standard deviation
"skyrockets by up to 35%" inside the transition region.
"""

from benchmarks.conftest import run_once
from repro.experiments import run_transition_zoom
from repro.experiments.config import default_scale


def test_bench_transition_zoom(benchmark, record_checks):
    result = run_once(
        benchmark,
        run_transition_zoom,
        fs_type="ext2",
        scale=default_scale(),
        fine_step_mb=4,
        target_width_mb=8.0,
    )
    checks = record_checks(
        result.checks(),
        refined_width_mb=result.refined_width_mb(),
        peak_rsd_percent=round(result.peak_rsd_percent(), 1),
        extra_measurements=result.extra_measurements,
    )
    assert checks["transition_found"]
    assert checks["transition_narrower_than_coarse_step"]
    assert checks["rsd_spikes_in_transition"]
