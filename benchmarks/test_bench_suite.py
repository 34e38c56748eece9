"""Benchmark: the multi-dimensional nano-benchmark suite (Section 4).

Runs the paper's proposed minimum suite -- in-memory, disk-layout, cache
warm-up/eviction, meta-data and scaling components -- across the three
simulated file systems on a quarter-scale testbed, and records the
per-dimension winners (or the honest absence of one).
"""

from benchmarks.conftest import run_once
from repro.analysis.comparison import compare_repetition_sets
from repro.core.suite import NanoBenchmarkSuite
from repro.storage.config import scaled_testbed


def run_suite():
    suite = NanoBenchmarkSuite(testbed=scaled_testbed(0.25), quick=True)
    return suite.as_experiment(fs_types=("ext2", "ext3", "xfs")).run()


def test_bench_nano_suite(benchmark):
    outcome = run_once(benchmark, run_suite)
    names = outcome.axis_values("workload")
    verdicts = {}
    for name in names:
        ext2 = outcome.result_for(workload=name, fs="ext2")
        xfs = outcome.result_for(workload=name, fs="xfs")
        verdict = compare_repetition_sets("ext2", ext2, "xfs", xfs)
        verdicts[name] = verdict.winner if verdict.significant else "no difference"
    benchmark.extra_info["ext2_vs_xfs_winners"] = str(verdicts)
    benchmark.extra_info["benchmarks"] = len(names)
    assert len(names) >= 6
    assert set(outcome.axis_values("fs")) == {"ext2", "ext3", "xfs"}
