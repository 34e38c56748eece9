"""Table 1: the benchmark-usage survey.

Unlike the figures, Table 1 is data the authors collected by reading 100
papers, not a grid of measurements; reproducing it means regenerating the
table (and its headline statistics) from the structured survey dataset
shipped with the library, and verifying the totals the paper quotes in the
text.  Both are plain functions over a
:class:`~repro.core.survey.SurveyDatabase`.

The table's *measured* counterpart -- actual per-dimension measurements
across file systems -- is the ``survey`` command
(:func:`~repro.core.survey.survey_report`).
"""

from __future__ import annotations

from typing import Dict

from repro.core.dimensions import Dimension
from repro.core.report import checks_line
from repro.core.survey import (
    PAPERS_SURVEYED_2009_2010,
    PAPERS_WITH_EVALUATION_2009_2010,
    SurveyDatabase,
)


def table1_checks(database: SurveyDatabase) -> Dict[str, bool]:
    """The paper's claims about the survey, evaluated against the dataset."""
    postmark = database.get("Postmark")
    filebench = database.get("Filebench")
    adhoc = database.get("Ad-hoc")
    return {
        "nineteen_benchmark_rows": len(database) == 19,
        "adhoc_is_most_common": database.most_used("2009_2010") == "Ad-hoc"
        and database.most_used("1999_2007") == "Ad-hoc",
        "adhoc_counts_match_paper": adhoc.uses_1999_2007 == 237
        and adhoc.uses_2009_2010 == 67,
        "postmark_counts_match_paper": postmark.uses_1999_2007 == 30
        and postmark.uses_2009_2010 == 17,
        "filebench_used_in_8_papers_total": filebench.total_uses == 8,
        "no_benchmark_isolates_every_dimension": all(
            not all(entry.coverage.isolates(d) for d in Dimension.ordered())
            for entry in database.entries()
        ),
    }


def table1_report(database: SurveyDatabase) -> str:
    """The regenerated Table 1, survey-level statistics and the checks line."""
    return "\n".join(
        [
            "Table 1 reproduction -- benchmarks, dimension coverage and usage counts",
            "",
            database.render_table1(),
            "",
            f"Survey scope: {PAPERS_SURVEYED_2009_2010} papers reviewed for 2009-2010, "
            f"{PAPERS_WITH_EVALUATION_2009_2010} with a relevant evaluation.",
            checks_line(table1_checks(database)),
        ]
    )
