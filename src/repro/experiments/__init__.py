"""The paper's figures and tables, and the experiments built around them.

Figures 1-4 are :class:`~repro.experiments.figures.Figure` definitions in
:data:`FIGURES`: each declares the exact workload and measurement protocol
of its experiment in Section 3 of the paper as one
:class:`~repro.core.experiment.Experiment`, plus pure functions that turn
the result into a frame, the paper's qualitative checks and a text
rendering; :func:`run_figure` runs any of them.  The other entries --
Table 1, the transition zoom, aged-vs-fresh, fresh-vs-steady SSD,
scalability -- are engines with their own result objects, because they are
not one static grid (the zoom bisects adaptively, aged-vs-fresh ages a file
system first).  The ``benchmarks/`` directory regenerates each of them under
pytest-benchmark.

Every experiment takes an :class:`ExperimentScale`: :func:`default_scale`
shortens the protocol so the full set regenerates in minutes and
:func:`paper_scale` runs the original durations and repetition counts.
``EXPERIMENT_REGISTRY`` maps the stable names ``fsbench-rocket list`` prints
to a runner and a one-line description.
"""

from functools import partial

from repro.experiments.config import ExperimentScale, default_scale, paper_scale
from repro.experiments.figures import FIGURES, Figure, run_figure
from repro.experiments.scalability import (
    ScalabilityResult,
    run_scalability,
    scale_mix_workload,
)
from repro.experiments.ssd_steady import FreshVsSteadyResult, run_fresh_vs_steady
from repro.experiments.zoom import TransitionZoomResult, run_transition_zoom
from repro.experiments.table1 import Table1Result, run_table1


def _registry():
    """Name -> (runner, description) for every named experiment harness."""
    from repro.aging.experiment import run_aged_vs_fresh
    from repro.core.suite import NanoBenchmarkSuite
    from repro.core.survey import MeasuredSurvey

    return {
        **{name: (partial(run_figure, name), figure.description) for name, figure in FIGURES.items()},
        "table1": (run_table1, "the benchmark-usage survey (add --measured to execute it)"),
        "zoom": (run_transition_zoom, "bisect the memory-to-disk transition region"),
        "aged-vs-fresh": (run_aged_vs_fresh, "same benchmark on fresh vs realistically aged state"),
        "ssd-steady": (run_fresh_vs_steady, "same benchmark on fresh vs preconditioned (steady-state) SSD"),
        "scalability": (run_scalability, "throughput and tail latency vs concurrent clients on fresh/aged/steady-ssd stacks"),
        "suite": (NanoBenchmarkSuite, "the multi-dimensional nano-benchmark suite"),
        "survey": (MeasuredSurvey, "measured counterpart of Table 1 across dimensions"),
    }


#: Cache behind the lazy ``EXPERIMENT_REGISTRY`` module attribute.
_experiment_registry = None


def __getattr__(name):
    # EXPERIMENT_REGISTRY is the named-experiment catalogue ``fsbench-rocket
    # list`` enumerates: stable name -> (runner callable or class, one-line
    # description), all executing through repro.core.experiment.Experiment.
    # Built on first access so importing this package does not eagerly pull
    # the aging/suite/survey subsystems (_registry imports them lazily).
    if name == "EXPERIMENT_REGISTRY":
        global _experiment_registry
        if _experiment_registry is None:
            _experiment_registry = _registry()
        return _experiment_registry
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "EXPERIMENT_REGISTRY",
    "ExperimentScale",
    "default_scale",
    "paper_scale",
    "FIGURES",
    "Figure",
    "run_figure",
    "TransitionZoomResult",
    "run_transition_zoom",
    "Table1Result",
    "run_table1",
    "FreshVsSteadyResult",
    "run_fresh_vs_steady",
    "ScalabilityResult",
    "run_scalability",
    "scale_mix_workload",
]
