"""Benchmark: regenerate Table 1 (benchmark usage survey).

Paper reference: 19 benchmark rows; ad-hoc benchmarks are by far the most
common choice (237 uses in 1999-2007, 67 in 2009-2010); Postmark is the most
used standard benchmark (30/17); no benchmark isolates every dimension.
"""

from benchmarks.conftest import run_once
from repro.core.survey import load_paper_survey
from repro.experiments import table1_checks


def test_bench_table1_survey(benchmark, record_checks):
    database = run_once(benchmark, load_paper_survey)
    checks = record_checks(
        table1_checks(database),
        rows=len(database),
        most_used_2009_2010=database.most_used("2009_2010"),
        adhoc_fraction=round(database.adhoc_fraction("2009_2010"), 2),
    )
    assert all(checks.values())


def test_bench_table1_render_speed(benchmark):
    """Rendering the survey table is the one part worth micro-benchmarking."""
    database = load_paper_survey()
    text = benchmark(database.render_table1)
    assert "Ad-hoc" in text
