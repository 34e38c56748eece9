"""Benchmark: multi-client contention across fresh, aged and steady-SSD stacks.

The survey found published evaluations measure one benchmark process on an
idle machine; this harness sweeps concurrent clients over the three stack
states and records whether contention shows up the way the storage models
say it must: sublinear aggregate scaling, degrading per-client tails, a
seek-bound fresh disk, a fragmentation-slowed aged baseline and FTL
garbage collection that grows with the writer count.
"""

from benchmarks.conftest import run_once
from repro.experiments import run_scalability
from repro.storage.config import scaled_testbed


def test_bench_scalability(benchmark, record_checks, tmp_path):
    result = run_once(
        benchmark,
        run_scalability,
        quick=True,
        testbed=scaled_testbed(0.0625),
        snapshot_dir=str(tmp_path),
    )
    fresh = result.series["fresh/hdd"]
    aged = result.series["aged/hdd"]
    ssd = result.series["steady/ssd-ftl"]
    top = result.max_clients
    checks = record_checks(
        result.checks(),
        clients=list(result.clients),
        fresh_hdd_speedup=round(fresh.speedup(top), 2),
        fresh_hdd_p95_degradation=round(fresh.p95_degradation(top), 2),
        aged_hdd_speedup=round(aged.speedup(top), 2),
        aged_hdd_p95_degradation=round(aged.p95_degradation(top), 2),
        ssd_speedup=round(ssd.speedup(top), 2),
        ssd_gc_growth=round(
            ssd.gc_time_ns[top] / ssd.gc_time_ns[ssd.baseline], 2
        )
        if ssd.gc_time_ns[ssd.baseline] > 0
        else None,
    )
    assert checks["aggregate_throughput_sublinear"]
    assert checks["per_client_p95_degrades"]
    assert checks["fresh_hdd_seek_bound_under_load"]
    assert checks["aged_baseline_slower_than_fresh"]
    assert checks["ssd_ftl_gc_grows_with_clients"]
