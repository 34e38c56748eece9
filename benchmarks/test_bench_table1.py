"""Benchmark: regenerate Table 1 (benchmark usage survey).

Paper reference: 19 benchmark rows; ad-hoc benchmarks are by far the most
common choice (237 uses in 1999-2007, 67 in 2009-2010); Postmark is the most
used standard benchmark (30/17); no benchmark isolates every dimension.
"""

from benchmarks.conftest import run_once
from repro.experiments import run_table1


def test_bench_table1_survey(benchmark, record_checks):
    result = run_once(benchmark, run_table1)
    checks = record_checks(
        result.checks(),
        rows=result.row_count(),
        most_used_2009_2010=result.most_used("2009_2010"),
        adhoc_fraction=round(result.database.adhoc_fraction("2009_2010"), 2),
    )
    assert all(checks.values())


def test_bench_table1_render_speed(benchmark):
    """Rendering the survey table is the one part worth micro-benchmarking."""
    from repro.core.survey import load_paper_survey

    database = load_paper_survey()
    text = benchmark(database.render_table1)
    assert "Ad-hoc" in text
