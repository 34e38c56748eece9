"""Tests for NanoBenchmark, the suite, and self-scaling sweeps."""

import hashlib

import pytest

from repro.core.benchmark import NanoBenchmark
from repro.core.dimensions import Dimension, DimensionVector
from repro.core.report import suite_report
from repro.core.runner import BenchmarkConfig, EnvironmentNoise, WarmupMode
from repro.core.selfscaling import SelfScalingBenchmark
from repro.core.suite import NanoBenchmarkSuite, default_suite
from repro.core.survey import load_paper_survey, survey_report
from repro.storage.config import scaled_testbed
from repro.workloads.micro import random_read_workload

MiB = 1024 * 1024


def quick_protocol(**overrides):
    values = dict(
        duration_s=0.5,
        repetitions=2,
        warmup_mode=WarmupMode.PREWARM,
        interval_s=0.25,
        noise=EnvironmentNoise(enabled=False),
    )
    values.update(overrides)
    return BenchmarkConfig(**values)


class TestNanoBenchmark:
    def make_benchmark(self):
        return NanoBenchmark(
            name="inmemory",
            description="random reads of a cached file",
            workload_factory=lambda: random_read_workload(2 * MiB),
            dimensions=DimensionVector.of(isolates=[Dimension.CACHING]),
            config=quick_protocol(),
        )

    def test_build_workload_returns_fresh_specs(self):
        benchmark = self.make_benchmark()
        assert benchmark.build_workload() is not benchmark.build_workload()

    def test_primary_dimension(self):
        assert self.make_benchmark().primary_dimension() is Dimension.CACHING
        empty = NanoBenchmark("x", "d", lambda: random_read_workload(MiB))
        assert empty.primary_dimension() is None

    def test_run_returns_repetitions(self):
        benchmark = self.make_benchmark()
        result = benchmark.run("ext2", testbed=scaled_testbed(1.0 / 16.0))
        assert len(result) == 2
        assert result.throughput_summary().mean > 0

    def test_describe_mentions_dimensions(self):
        assert "caching" in self.make_benchmark().describe()


class TestDefaultSuite:
    def test_covers_the_papers_minimum_components(self):
        suite = default_suite()
        names = " ".join(b.name for b in suite)
        assert "inmemory" in names
        assert "ondisk" in names
        assert "cache-warmup" in names
        assert "metadata" in names
        covered = set()
        for benchmark in suite:
            covered.update(benchmark.dimensions.covered_dimensions())
        assert covered == set(Dimension)

    def test_each_component_isolates_something(self):
        for benchmark in default_suite():
            assert any(benchmark.dimensions.isolates(d) for d in Dimension), benchmark.name

    def test_working_sets_derived_from_testbed(self):
        big = default_suite(scaled_testbed(1.0))
        small = default_suite(scaled_testbed(0.125))
        big_size = big[0].build_workload().fileset.size_distribution.mean()
        small_size = small[0].build_workload().fileset.size_distribution.mean()
        assert big_size > small_size


def mini_suite(**protocol):
    """Two benchmarks isolating two dimensions on the 1/16-scale machine."""
    return NanoBenchmarkSuite(
        benchmarks=[
            NanoBenchmark(
                name="inmemory-mini",
                description="cached random reads",
                workload_factory=lambda: random_read_workload(2 * MiB),
                dimensions=DimensionVector.of(isolates=[Dimension.CACHING]),
                config=quick_protocol(**protocol),
            ),
            NanoBenchmark(
                name="ondisk-mini",
                description="cold random reads",
                workload_factory=lambda: random_read_workload(16 * MiB),
                dimensions=DimensionVector.of(isolates=[Dimension.ONDISK]),
                config=quick_protocol(warmup_mode=WarmupMode.NONE, **protocol),
            ),
        ],
        testbed=scaled_testbed(1.0 / 16.0),
    )


class TestSuiteRun:
    def test_suite_runs_across_filesystems(self):
        suite = mini_suite()
        outcome = suite.as_experiment(fs_types=("ext2", "xfs")).run()
        assert outcome.axis_values("workload") == ["inmemory-mini", "ondisk-mini"]
        assert outcome.axis_values("fs") == ["ext2", "xfs"]
        for benchmark_name in outcome.axis_values("workload"):
            for fs_name in outcome.axis_values("fs"):
                assert len(outcome.result_for(workload=benchmark_name, fs=fs_name)) == 2
        primaries = {benchmark.primary_dimension() for benchmark in suite.benchmarks}
        assert Dimension.CACHING in primaries
        assert Dimension.ONDISK in primaries

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            NanoBenchmarkSuite(benchmarks=[])
        suite = NanoBenchmarkSuite(testbed=scaled_testbed(1.0 / 16.0), quick=True)
        with pytest.raises(ValueError):
            suite.as_experiment(fs_types=())


class TestSuiteAndSurveyRenderPins:
    """Byte-for-byte pins of both suite renderers on a noisy two-benchmark run.

    The digests were recorded before the suite and survey reports were
    rewritten to read the ExperimentResult directly; a renderer change that
    moves one byte of either report fails here.
    """

    SUITE_REPORT_SHA256 = "cba0fe9f6532830b558efe96d155ea27c40cf1737885778f22b968b65709c67a"
    SURVEY_REPORT_SHA256 = "5f287d1306e96056d0e92e12b1e41b5f4679daa294019cda4301915033dd8b55"

    @pytest.fixture(scope="class")
    def measured(self):
        suite = mini_suite(noise=EnvironmentNoise())
        return suite, suite.as_experiment(("ext2", "xfs")).run()

    def test_suite_report_is_pinned(self, measured):
        suite, outcome = measured
        text = suite_report(suite.benchmarks, outcome)
        assert hashlib.sha256(text.encode()).hexdigest() == self.SUITE_REPORT_SHA256

    def test_survey_report_is_pinned(self, measured):
        suite, outcome = measured
        text = survey_report(load_paper_survey(), suite.benchmarks, outcome)
        assert hashlib.sha256(text.encode()).hexdigest() == self.SURVEY_REPORT_SHA256


class TestSelfScaling:
    def test_locates_the_cache_cliff(self):
        testbed = scaled_testbed(1.0 / 16.0)
        cache_bytes = testbed.page_cache_bytes
        benchmark = SelfScalingBenchmark(
            workload_for_parameter=lambda size: random_read_workload(int(size)),
            fs_type="ext2",
            testbed=testbed,
            config=quick_protocol(),
            parameter_name="file_size",
            unit="bytes",
        )
        result = benchmark.run(
            low=cache_bytes * 0.5,
            high=cache_bytes * 2.0,
            coarse_points=5,
            resolution=cache_bytes * 0.05,
        )
        assert result.transition_low is not None
        # The located transition must straddle (or closely bracket) the cache size.
        assert result.transition_low <= cache_bytes * 1.25
        assert result.transition_high >= cache_bytes * 0.75
        assert result.evaluations >= 5
        assert result.sweep.dynamic_range() > 5
        assert "Transition" in result.describe("bytes")

    def test_no_transition_on_flat_region(self):
        testbed = scaled_testbed(1.0 / 16.0)
        benchmark = SelfScalingBenchmark(
            workload_for_parameter=lambda size: random_read_workload(int(size)),
            fs_type="ext2",
            testbed=testbed,
            config=quick_protocol(),
        )
        cache_bytes = testbed.page_cache_bytes
        result = benchmark.run(
            low=cache_bytes * 0.1, high=cache_bytes * 0.4, coarse_points=4
        )
        assert result.transition_low is None
        assert "No sharp transition" in result.describe()

    def test_invalid_arguments(self):
        benchmark = SelfScalingBenchmark(
            workload_for_parameter=lambda size: random_read_workload(int(size)),
            config=quick_protocol(),
        )
        with pytest.raises(ValueError):
            benchmark.run(low=10, high=5)
        with pytest.raises(ValueError):
            benchmark.run(low=1, high=10, coarse_points=2)
        with pytest.raises(ValueError):
            SelfScalingBenchmark(lambda s: None, drop_threshold=1.5)
