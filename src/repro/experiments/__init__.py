"""The paper's figures and tables, and the experiments built around them.

Figures 1-4 are :class:`~repro.experiments.figures.Figure` definitions in
:data:`FIGURES`: each declares the exact workload and measurement protocol
of its experiment in Section 3 of the paper as one
:class:`~repro.core.experiment.Experiment`, plus pure functions that turn
the result into a frame, the paper's qualitative checks and a text
rendering; :func:`run_figure` runs any of them.  Table 1 is survey data,
not a grid: :func:`table1_report` renders it and :func:`table1_checks`
verifies the paper's claims about it.  The other entries -- the transition
zoom, aged-vs-fresh, fresh-vs-steady SSD, scalability -- are engines with
their own result objects, because they are not one static grid (the zoom
bisects adaptively, aged-vs-fresh ages a file system first).  The
``benchmarks/`` directory regenerates each of them under pytest-benchmark.

Every experiment takes an :class:`ExperimentScale`: :func:`default_scale`
shortens the protocol so the full set regenerates in minutes and
:func:`paper_scale` runs the original durations and repetition counts.
``EXPERIMENT_REGISTRY`` maps the stable names ``fsbench-rocket list`` prints
to a one-line description.
"""

from repro.experiments.config import ExperimentScale, default_scale, paper_scale
from repro.experiments.figures import FIGURES, Figure, run_figure
from repro.experiments.scalability import (
    ScalabilityResult,
    run_scalability,
    scale_mix_workload,
)
from repro.experiments.ssd_steady import FreshVsSteadyResult, run_fresh_vs_steady
from repro.experiments.zoom import TransitionZoomResult, run_transition_zoom
from repro.experiments.table1 import table1_checks, table1_report

#: The named-experiment catalogue ``fsbench-rocket list`` prints: stable
#: subcommand name -> one-line description.
EXPERIMENT_REGISTRY = {
    **{name: figure.description for name, figure in FIGURES.items()},
    "table1": "the benchmark-usage survey",
    "zoom": "bisect the memory-to-disk transition region",
    "aged-vs-fresh": "same benchmark on fresh vs realistically aged state",
    "ssd-steady": "same benchmark on fresh vs preconditioned (steady-state) SSD",
    "scalability": "throughput and tail latency vs concurrent clients on fresh/aged/steady-ssd stacks",
    "suite": "the multi-dimensional nano-benchmark suite",
    "survey": "measured counterpart of Table 1 across dimensions",
}


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
    "table1_checks",
    "table1_report",
    "FreshVsSteadyResult",
    "run_fresh_vs_steady",
    "ScalabilityResult",
    "run_scalability",
    "scale_mix_workload",
]
