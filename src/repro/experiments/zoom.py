"""The transition zoom (Section 3.1 text).

"It was surprising, at first, that such a sudden performance drop happens
within a narrow range of only 64MB.  We zoomed into the region between 384MB
and 448MB and observed that performance drops within an even narrower
region -- less than 6MB in size. ... we observed that in the transition
region ... the relative standard deviation skyrockets by up to 35%."

This harness reproduces the zoom: a coarse Figure-1 style sweep locates the
cliff, bisection narrows it, and a fine sweep across the narrowed region
measures how the relative standard deviation spikes inside it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional

from repro.analysis.transition import TransitionRegion, find_transition, refine_transition
from repro.core.report import checks_line, sweep_table
from repro.core.results import RepetitionSet, SweepResult
from repro.experiments.config import ExperimentScale, MiB, default_scale
from repro.experiments.figures import FIGURES
from repro.storage.config import TestbedConfig, paper_testbed


@dataclass
class TransitionZoomResult:
    """Outcome of zooming into the memory-to-disk transition."""

    fs_type: str
    coarse_sweep: SweepResult
    fine_sweep: SweepResult
    coarse_region: Optional[TransitionRegion]
    refined_region: Optional[TransitionRegion]
    extra_measurements: int
    scale_name: str = "default"

    def refined_width_mb(self) -> Optional[float]:
        """Width of the refined transition region in MiB."""
        if self.refined_region is None:
            return None
        return self.refined_region.width / MiB

    def peak_rsd_percent(self) -> float:
        """Largest relative standard deviation seen across the fine sweep."""
        return max((rsd for _, rsd in self.fine_sweep.relative_stddevs()), default=0.0)

    def checks(self) -> Dict[str, bool]:
        """The paper's qualitative claims, evaluated against the measured data."""
        width = self.refined_width_mb()
        memory_rsds = [rsd for _, rsd in self.coarse_sweep.relative_stddevs()]
        baseline_rsd = min(memory_rsds) if memory_rsds else 0.0
        return {
            "transition_found": self.refined_region is not None,
            "transition_narrower_than_coarse_step": width is not None and width <= 32.0,
            "rsd_spikes_in_transition": self.peak_rsd_percent() >= max(10.0, 3 * baseline_rsd),
        }

    def render(self) -> str:
        """Readable report of the zoom."""
        lines = [f"Transition zoom -- {self.fs_type} random read ({self.scale_name} scale)", ""]
        if self.coarse_region is not None:
            lines.append("Coarse transition: " + self.coarse_region.describe("bytes"))
        if self.refined_region is not None:
            lines.append(
                "Refined transition: "
                + self.refined_region.describe("bytes")
                + f" (~{self.refined_width_mb():.1f} MiB wide, {self.extra_measurements} extra measurements)"
            )
        lines.append("")
        lines.append("Fine sweep across the transition region:")
        lines.append(sweep_table(self.fine_sweep))
        lines.append("")
        lines.append(f"Peak relative standard deviation in the region: {self.peak_rsd_percent():.0f}%")
        lines.append(checks_line(self.checks()))
        return "\n".join(lines)


def run_transition_zoom(
    fs_type: str = "ext2",
    testbed: Optional[TestbedConfig] = None,
    scale: Optional[ExperimentScale] = None,
    seed: int = 42,
    fine_step_mb: int = 8,
    target_width_mb: float = 8.0,
) -> TransitionZoomResult:
    """Locate the Figure-1 cliff, bisect it, and sweep finely across it.

    The zoom is adaptive, so it cannot be one static grid: every measurement
    is Figure 1's experiment (:data:`~repro.experiments.figures.FIGURES`)
    built for a single file size and run on its own.
    """
    scale = scale if scale is not None else default_scale()
    scale.validate()
    testbed = testbed if testbed is not None else paper_testbed()
    # The run-to-run spread inside the transition region is the result;
    # a handful of repetitions is the minimum needed to estimate it.
    zoom_scale = replace(scale, figure1_repetitions=max(5, scale.figure1_repetitions))
    build_figure1 = FIGURES["figure1"].build

    def measure(size_bytes: float) -> RepetitionSet:
        experiment = build_figure1(
            replace(zoom_scale, figure1_sizes_mb=(size_bytes / MiB,)), (fs_type,), testbed, seed
        )
        (repetitions,) = experiment.run().sets.values()
        return RepetitionSet(
            label=f"zoom-{int(size_bytes) // MiB}MB", runs=list(repetitions.runs)
        )

    # Coarse sweep bracketing the expected cliff (cache capacity +/- 64 MB).
    cache_bytes = testbed.page_cache_bytes
    coarse_sizes = [cache_bytes - 64 * MiB, cache_bytes - 32 * MiB, cache_bytes,
                    cache_bytes + 32 * MiB, cache_bytes + 64 * MiB]
    coarse = SweepResult(parameter_name="file_size", unit="bytes")
    for size in coarse_sizes:
        coarse.add(size, measure(size))

    coarse_region = find_transition(coarse)
    refined_region = None
    extra = 0
    if coarse_region is not None:
        refined_region, extra = refine_transition(
            coarse_region, measure, target_width=target_width_mb * MiB
        )

    # Fine sweep across (a neighbourhood of) the refined region.
    center = (
        (refined_region.parameter_low + refined_region.parameter_high) / 2
        if refined_region is not None
        else cache_bytes
    )
    fine = SweepResult(parameter_name="file_size", unit="bytes")
    for offset_mb in range(-2 * fine_step_mb, 2 * fine_step_mb + 1, fine_step_mb):
        size = int(center + offset_mb * MiB)
        if size > 0:
            fine.add(size, measure(size))

    return TransitionZoomResult(
        fs_type=fs_type,
        coarse_sweep=coarse,
        fine_sweep=fine,
        coarse_region=coarse_region,
        refined_region=refined_region,
        extra_measurements=extra,
        scale_name=scale.name,
    )
