"""The benchmark-usage survey behind Table 1, and its measured counterpart.

The paper surveyed 100 file system papers from FAST, OSDI, ATC, HotStorage,
SOSP and MSST (2009--2010), recorded which benchmarks each used, and combined
the counts with the earlier nine-year study by Traeger et al. (1999--2007).
Table 1 lists each benchmark, which dimensions it can evaluate (and whether it
isolates them), and how often it was used in each period.

This module ships that survey as structured data plus the aggregation engine
that regenerates the table and its headline statistics (the dominance of
ad-hoc benchmarks, the lack of overlap between papers), and lets users extend
the database with new survey years.

It also ships :func:`survey_report`, the *executable* complement of the
literature survey: for every dimension the paper says an evaluation must
cover, it renders the measured ranges of the nano-benchmark suite's isolating
components (a :class:`~repro.core.suite.NanoBenchmarkSuite` run as an
:class:`~repro.core.experiment.Experiment`) next to the usage statistics.

Reconstruction note: the usage counts and row set are taken verbatim from the
paper.  The per-dimension symbols were reconstructed from the paper's text
table, whose column alignment is ambiguous for a few rows; those cells are the
most defensible reading of the original and are marked ``reconstructed=True``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.dimensions import Coverage, Dimension, DimensionVector
from repro.core.frame import ResultFrame


@dataclass
class BenchmarkEntry:
    """One row of the survey: a benchmark, its coverage and its usage counts."""

    name: str
    coverage: DimensionVector
    uses_1999_2007: int = 0
    uses_2009_2010: int = 0
    category: str = "standard"  # standard | compile | trace | adhoc | production
    reconstructed: bool = False
    notes: str = ""

    @property
    def total_uses(self) -> int:
        """Total recorded uses across both survey periods."""
        return self.uses_1999_2007 + self.uses_2009_2010


def _vector(isolates: Sequence[str] = (), exercises: Sequence[str] = (), trace: Sequence[str] = ()) -> DimensionVector:
    return DimensionVector.of(
        isolates=[Dimension(d) for d in isolates],
        exercises=[Dimension(d) for d in exercises],
        trace=[Dimension(d) for d in trace],
    )


def load_paper_survey() -> "SurveyDatabase":
    """The survey data of Table 1, as published."""
    entries = [
        BenchmarkEntry(
            name="IOmeter",
            coverage=_vector(isolates=["io"]),
            uses_1999_2007=2,
            uses_2009_2010=3,
        ),
        BenchmarkEntry(
            name="Filebench",
            coverage=_vector(isolates=["io", "scaling"], exercises=["ondisk", "caching", "metadata"]),
            uses_1999_2007=3,
            uses_2009_2010=5,
            reconstructed=True,
        ),
        BenchmarkEntry(
            name="IOzone",
            coverage=_vector(isolates=["caching"], exercises=["io", "ondisk"]),
            uses_1999_2007=0,
            uses_2009_2010=4,
            reconstructed=True,
        ),
        BenchmarkEntry(
            name="Bonnie/Bonnie64/Bonnie++",
            coverage=_vector(exercises=["io", "ondisk"]),
            uses_1999_2007=2,
            uses_2009_2010=0,
            notes="Can measure either I/O or on-disk performance depending on configuration.",
        ),
        BenchmarkEntry(
            name="Postmark",
            coverage=_vector(isolates=["metadata"], exercises=["io", "ondisk", "caching"]),
            uses_1999_2007=30,
            uses_2009_2010=17,
            reconstructed=True,
            notes="Designed around meta-data operations but does not isolate them (Section 2).",
        ),
        BenchmarkEntry(
            name="Linux compile",
            coverage=_vector(exercises=["caching", "metadata", "scaling"]),
            uses_1999_2007=6,
            uses_2009_2010=3,
            category="compile",
            reconstructed=True,
            notes="CPU bound on modern systems; reveals little about the file system.",
        ),
        BenchmarkEntry(
            name="Compile (Apache, openssh, etc.)",
            coverage=_vector(exercises=["caching", "metadata", "scaling"]),
            uses_1999_2007=38,
            uses_2009_2010=14,
            category="compile",
            reconstructed=True,
        ),
        BenchmarkEntry(
            name="DBench",
            coverage=_vector(exercises=["caching", "metadata", "scaling"]),
            uses_1999_2007=1,
            uses_2009_2010=1,
            reconstructed=True,
        ),
        BenchmarkEntry(
            name="SPECsfs",
            coverage=_vector(isolates=["scaling"], exercises=["ondisk", "caching", "metadata"]),
            uses_1999_2007=7,
            uses_2009_2010=1,
            reconstructed=True,
        ),
        BenchmarkEntry(
            name="Sort",
            coverage=_vector(isolates=["scaling"], exercises=["ondisk", "caching"]),
            uses_1999_2007=0,
            uses_2009_2010=5,
            reconstructed=True,
        ),
        BenchmarkEntry(
            name="IOR: I/O Performance Benchmark",
            coverage=_vector(isolates=["scaling"], exercises=["io", "ondisk"]),
            uses_1999_2007=0,
            uses_2009_2010=1,
            reconstructed=True,
        ),
        BenchmarkEntry(
            name="Production workloads",
            coverage=_vector(trace=["ondisk", "caching", "metadata", "scaling"]),
            uses_1999_2007=2,
            uses_2009_2010=2,
            category="production",
        ),
        BenchmarkEntry(
            name="Ad-hoc",
            coverage=_vector(trace=["io", "ondisk", "caching", "metadata", "scaling"]),
            uses_1999_2007=237,
            uses_2009_2010=67,
            category="adhoc",
            notes="Custom benchmarks written for a single paper; by far the most common choice.",
        ),
        BenchmarkEntry(
            name="Trace-based custom",
            coverage=_vector(trace=["ondisk", "caching", "metadata", "scaling"]),
            uses_1999_2007=7,
            uses_2009_2010=18,
            category="trace",
        ),
        BenchmarkEntry(
            name="Trace-based standard",
            coverage=_vector(trace=["ondisk", "caching", "metadata", "scaling"]),
            uses_1999_2007=14,
            uses_2009_2010=17,
            category="trace",
            notes="Only 2 of the 14 'standard' traces are widely available (Harvard, NetApp CIFS).",
        ),
        BenchmarkEntry(
            name="BLAST",
            coverage=_vector(exercises=["ondisk", "caching"]),
            uses_1999_2007=0,
            uses_2009_2010=2,
            reconstructed=True,
        ),
        BenchmarkEntry(
            name="Flexible FS Benchmark (FFSB)",
            coverage=_vector(isolates=["scaling"], exercises=["ondisk", "caching", "metadata"]),
            uses_1999_2007=0,
            uses_2009_2010=1,
            reconstructed=True,
        ),
        BenchmarkEntry(
            name="Flexible I/O tester (fio)",
            coverage=_vector(isolates=["io"], exercises=["ondisk", "caching", "scaling"]),
            uses_1999_2007=0,
            uses_2009_2010=1,
            reconstructed=True,
        ),
        BenchmarkEntry(
            name="Andrew",
            coverage=_vector(exercises=["caching", "metadata", "scaling"]),
            uses_1999_2007=15,
            uses_2009_2010=1,
            notes="Originally designed to study scaling; now cited as a general FS benchmark.",
        ),
    ]
    database = SurveyDatabase()
    for entry in entries:
        database.add(entry)
    return database


#: Papers surveyed by the authors for the 2009-2010 columns.
PAPERS_SURVEYED_2009_2010 = 100
PAPERS_WITH_EVALUATION_2009_2010 = 87
PAPERS_FROM_2010 = 68
PAPERS_FROM_2009 = 32


def _period_field(period: str) -> str:
    """The :class:`BenchmarkEntry` count field of one survey period.

    Every per-period read and write goes through here, so an unknown period
    (``"2009-2010"`` for ``"2009_2010"``) raises instead of quietly reading
    the other period's or both periods' counts.
    """
    if period not in ("1999_2007", "2009_2010"):
        raise ValueError(f"unknown survey period: {period!r}")
    return f"uses_{period}"


class SurveyDatabase:
    """A collection of survey rows with Table-1 style aggregation."""

    def __init__(self) -> None:
        self._entries: Dict[str, BenchmarkEntry] = {}

    # --------------------------------------------------------------- content
    def add(self, entry: BenchmarkEntry) -> None:
        """Add (or replace) a benchmark row."""
        self._entries[entry.name] = entry

    def record_use(self, name: str, period: str = "2009_2010", count: int = 1) -> None:
        """Record additional observed uses of a benchmark (extending the survey).

        Unknown benchmarks are added with empty coverage so that new survey
        passes can start from the usage data and fill in coverage later.
        """
        if count <= 0:
            raise ValueError("count must be positive")
        field = _period_field(period)
        entry = self._entries.get(name)
        if entry is None:
            entry = BenchmarkEntry(name=name, coverage=DimensionVector())
            self._entries[name] = entry
        setattr(entry, field, getattr(entry, field) + count)

    def get(self, name: str) -> BenchmarkEntry:
        """Return one row; raises ``KeyError`` for unknown benchmarks."""
        return self._entries[name]

    def entries(self) -> List[BenchmarkEntry]:
        """All rows, most-used first (total uses, then name)."""
        return sorted(self._entries.values(), key=lambda e: (-e.total_uses, e.name))

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    # ------------------------------------------------------------ aggregates
    def total_uses(self, period: Optional[str] = None) -> int:
        """Total benchmark uses in one period (or both when ``period`` is None)."""
        if period is None:
            return sum(e.total_uses for e in self._entries.values())
        field = _period_field(period)
        return sum(getattr(e, field) for e in self._entries.values())

    def adhoc_fraction(self, period: str = "2009_2010") -> float:
        """Fraction of uses that are ad-hoc benchmarks (the paper's headline complaint)."""
        total = self.total_uses(period)
        if total == 0:
            return 0.0
        field = _period_field(period)
        adhoc = sum(getattr(e, field) for e in self._entries.values() if e.category == "adhoc")
        return adhoc / total

    def most_used(self, period: str = "2009_2010") -> str:
        """The most-used benchmark in one period (Ad-hoc, per the paper)."""
        field = _period_field(period)
        return max(self.entries(), key=lambda e: getattr(e, field)).name

    def isolating_benchmarks(self, dimension: Dimension) -> List[str]:
        """Benchmarks that isolate a given dimension."""
        return [e.name for e in self.entries() if e.coverage.isolates(dimension)]

    def coverage_matrix(self) -> Dict[str, Dict[Dimension, Coverage]]:
        """benchmark -> dimension -> coverage mapping (for programmatic use)."""
        return {e.name: {d: e.coverage[d] for d in Dimension.ordered()} for e in self.entries()}

    def dimension_use_counts(self, period: str = "2009_2010") -> Dict[Dimension, int]:
        """How many benchmark uses touched each dimension (at any coverage level)."""
        field = _period_field(period)
        counts = {dimension: 0 for dimension in Dimension.ordered()}
        for entry in self._entries.values():
            uses = getattr(entry, field)
            for dimension in Dimension.ordered():
                if entry.coverage.covers(dimension):
                    counts[dimension] += uses
        return counts

    # -------------------------------------------------------------- rendering
    def to_frame(self) -> ResultFrame:
        """The survey as a tidy frame: one row per benchmark per column.

        Coverage symbols and usage counts share the ``metric``/``value``
        shape, so the whole of Table 1 is one
        :meth:`~repro.core.frame.ResultFrame.pivot` away.
        """
        frame = ResultFrame()
        for entry in self.entries():
            symbols = entry.coverage.row_symbols()
            for dimension, symbol in zip(Dimension.ordered(), symbols):
                frame.append(
                    {"benchmark": entry.name, "metric": dimension.title, "value": symbol}
                )
            frame.append(
                {"benchmark": entry.name, "metric": "1999-2007", "value": entry.uses_1999_2007}
            )
            frame.append(
                {"benchmark": entry.name, "metric": "2009-2010", "value": entry.uses_2009_2010}
            )
        return frame

    def render_table1(self) -> str:
        """Regenerate Table 1 as plain text (legend matches the paper)."""
        table = self.to_frame().pivot(
            index="benchmark", columns="metric", aggregate="first"
        ).render(index_headers=["Benchmark"])
        legend = (
            "\nLegend: '*' = evaluates and isolates the dimension; "
            "'o' = exercises it without isolating it; "
            "'#' = coverage depends on the trace / production workload."
        )
        summary = (
            f"\nTotal uses: {self.total_uses('1999_2007')} (1999-2007), "
            f"{self.total_uses('2009_2010')} (2009-2010); "
            f"ad-hoc benchmarks account for {100 * self.adhoc_fraction('2009_2010'):.0f}% "
            "of 2009-2010 uses."
        )
        return table + legend + summary


# ------------------------------------------------------------ measured survey
def survey_report(database: SurveyDatabase, benchmarks, outcome) -> str:
    """The measured survey: per-dimension survey context plus measured ranges.

    The executable complement of the literature survey: where ``database``
    records which dimensions published papers *claimed* to evaluate, the
    nano-benchmark suite (whose components isolate one dimension apiece)
    actually measures each of them.  ``benchmarks`` are the suite's
    :class:`~repro.core.benchmark.NanoBenchmark` objects, grouped by their
    primary dimension; ``outcome`` is the
    :class:`~repro.core.experiment.ExperimentResult` of
    ``suite.as_experiment(fs_types).run()``.  Each dimension's table is a
    pivot of ``mean +/- relative stddev`` cells (ranges, never single
    numbers, per the paper) through the shared frame renderer.
    """
    grouped: Dict[Dimension, List[str]] = {}
    for benchmark in benchmarks:
        primary = benchmark.primary_dimension()
        if primary is not None:
            grouped.setdefault(primary, []).append(benchmark.name)
    dimensions = [dimension for dimension in Dimension.ordered() if dimension in grouped]
    fs_names = outcome.axis_values("fs")

    frame = ResultFrame()
    for dimension in dimensions:
        for name in grouped[dimension]:
            for fs_name in fs_names:
                summary = outcome.result_for(workload=name, fs=fs_name).throughput_summary()
                frame.append(
                    {
                        "dimension": dimension.title,
                        "benchmark": name,
                        "fs": fs_name,
                        "value": (
                            f"{summary.mean:.0f} "
                            f"+/-{summary.relative_stddev_percent:.0f}%"
                        ),
                    }
                )

    lines: List[str] = ["Measured dimension survey", "========================="]
    use_counts = database.dimension_use_counts()
    for dimension in dimensions:
        isolating = database.isolating_benchmarks(dimension)
        lines.append("")
        lines.append(f"[{dimension.title}]")
        lines.append(
            f"  2009-2010 benchmark uses touching this dimension: {use_counts[dimension]}"
        )
        lines.append(
            "  published benchmarks isolating it: "
            + (", ".join(isolating) if isolating else "(none)")
        )
        lines.append(
            frame.filter(dimension=dimension.title)
            .pivot(index="benchmark", columns="fs", aggregate="first")
            .render(
                index_headers=["Nano-benchmark"],
                column_header=lambda fs: f"{fs} (ops/s)",
            )
        )
    return "\n".join(lines)
