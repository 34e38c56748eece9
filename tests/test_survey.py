"""Tests for the Table 1 survey database."""

import pytest

from repro.core.dimensions import Coverage, Dimension, DimensionVector
from repro.core.survey import (
    BenchmarkEntry,
    PAPERS_SURVEYED_2009_2010,
    SurveyDatabase,
    load_paper_survey,
)


@pytest.fixture
def survey():
    return load_paper_survey()


class TestPaperSurveyContent:
    def test_nineteen_rows_as_in_table1(self, survey):
        assert len(survey) == 19

    def test_headline_usage_counts_match_the_paper(self, survey):
        expected = {
            "IOmeter": (2, 3),
            "Filebench": (3, 5),
            "IOzone": (0, 4),
            "Bonnie/Bonnie64/Bonnie++": (2, 0),
            "Postmark": (30, 17),
            "Linux compile": (6, 3),
            "Compile (Apache, openssh, etc.)": (38, 14),
            "DBench": (1, 1),
            "SPECsfs": (7, 1),
            "Sort": (0, 5),
            "IOR: I/O Performance Benchmark": (0, 1),
            "Production workloads": (2, 2),
            "Ad-hoc": (237, 67),
            "Trace-based custom": (7, 18),
            "Trace-based standard": (14, 17),
            "BLAST": (0, 2),
            "Flexible FS Benchmark (FFSB)": (0, 1),
            "Flexible I/O tester (fio)": (0, 1),
            "Andrew": (15, 1),
        }
        for name, (old, new) in expected.items():
            entry = survey.get(name)
            assert entry.uses_1999_2007 == old, name
            assert entry.uses_2009_2010 == new, name

    def test_adhoc_is_by_far_the_most_common(self, survey):
        entries = survey.entries()
        assert entries[0].name == "Ad-hoc"
        second = entries[1]
        assert survey.get("Ad-hoc").total_uses > 3 * second.total_uses

    def test_iometer_isolates_only_io(self, survey):
        coverage = survey.get("IOmeter").coverage
        assert coverage.isolates(Dimension.IO)
        assert coverage.covered_dimensions() == [Dimension.IO]

    def test_trace_entries_marked_trace_dependent(self, survey):
        for name in ("Ad-hoc", "Trace-based custom", "Trace-based standard", "Production workloads"):
            coverage = survey.get(name).coverage
            assert any(coverage[d] is Coverage.TRACE_DEPENDENT for d in Dimension)

    def test_no_single_benchmark_isolates_everything(self, survey):
        for entry in survey.entries():
            assert not all(entry.coverage.isolates(d) for d in Dimension)

    def test_isolation_coverage_gaps(self, survey):
        """Some dimensions have isolating benchmarks, but on-disk layout has none --
        no surveyed benchmark isolates the on-disk dimension, which is part of the
        paper's complaint."""
        for dimension in (Dimension.IO, Dimension.CACHING, Dimension.METADATA, Dimension.SCALING):
            assert survey.isolating_benchmarks(dimension), dimension
        assert survey.isolating_benchmarks(Dimension.ONDISK) == []


class TestAggregation:
    def test_total_uses_by_period(self, survey):
        assert survey.total_uses("1999_2007") == sum(
            e.uses_1999_2007 for e in survey.entries()
        )
        assert survey.total_uses() == survey.total_uses("1999_2007") + survey.total_uses("2009_2010")

    def test_adhoc_fraction(self, survey):
        fraction = survey.adhoc_fraction("2009_2010")
        assert 0.3 < fraction < 0.5  # 67 of 167 uses

    def test_dimension_use_counts(self, survey):
        counts = survey.dimension_use_counts("2009_2010")
        assert set(counts) == set(Dimension)
        assert all(count >= 0 for count in counts.values())

    def test_unknown_period_raises_instead_of_reading_another(self, survey):
        # "2009-2010" (hyphen) once read both periods' totals, and
        # dimension_use_counts read it as 1999_2007.
        for read in (
            survey.total_uses,
            survey.adhoc_fraction,
            survey.dimension_use_counts,
            survey.most_used,
        ):
            with pytest.raises(ValueError, match="unknown survey period"):
                read("2009-2010")

    def test_most_used_per_period(self, survey):
        assert survey.most_used("1999_2007") == survey.most_used("2009_2010") == "Ad-hoc"

    def test_coverage_matrix_shape(self, survey):
        matrix = survey.coverage_matrix()
        assert len(matrix) == 19
        assert all(set(row) == set(Dimension.ordered()) for row in matrix.values())


class TestExtendingTheSurvey:
    def test_record_use_of_known_benchmark(self, survey):
        before = survey.get("Filebench").uses_2009_2010
        survey.record_use("Filebench")
        assert survey.get("Filebench").uses_2009_2010 == before + 1

    def test_record_use_of_new_benchmark(self, survey):
        survey.record_use("fio-ng", count=3)
        assert survey.get("fio-ng").uses_2009_2010 == 3

    def test_record_use_validation(self, survey):
        with pytest.raises(ValueError):
            survey.record_use("Filebench", count=0)
        with pytest.raises(ValueError):
            survey.record_use("Filebench", period="2042")
        # A rejected period adds no empty row for an unknown benchmark.
        with pytest.raises(ValueError):
            survey.record_use("fio-ng", period="2042")
        assert "fio-ng" not in survey

    def test_add_replaces_entry(self):
        database = SurveyDatabase()
        database.add(BenchmarkEntry(name="X", coverage=DimensionVector(), uses_2009_2010=1))
        database.add(BenchmarkEntry(name="X", coverage=DimensionVector(), uses_2009_2010=5))
        assert len(database) == 1
        assert database.get("X").uses_2009_2010 == 5

    def test_contains(self, survey):
        assert "Postmark" in survey
        assert "NotABenchmark" not in survey


class TestRendering:
    def test_render_table1_contains_all_rows_and_legend(self, survey):
        text = survey.render_table1()
        for entry in survey.entries():
            assert entry.name in text
        assert "Legend" in text
        assert "1999-2007" in text and "2009-2010" in text
        assert "ad-hoc" in text.lower()

    def test_survey_scope_constant(self):
        assert PAPERS_SURVEYED_2009_2010 == 100
