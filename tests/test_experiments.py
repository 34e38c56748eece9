"""Tests for the figure definitions and experiment harnesses (shrunken
configurations).

These tests run each figure on aggressively scaled-down testbeds so that the
*mechanism* of every experiment is exercised end-to-end without the cost of
the full default or paper-scale protocols (the benchmarks do those).
"""

import functools
import hashlib
import io

import pytest

from repro.analysis.transition import find_transition
from repro.core.survey import load_paper_survey
from repro.experiments import FIGURES, run_figure, run_transition_zoom, table1_checks, table1_report
from repro.experiments.config import ExperimentScale, default_scale, paper_scale, quick_scale
from repro.experiments.figures import (
    figure1_rows,
    figure1_sweep,
    figure2_runs,
    figure3_histograms,
    figure4_timeline,
    file_size_bytes,
    latency_span_orders,
    mid_run_spread,
    peak_migration,
    warmup_interval_index,
)
from repro.storage.config import scaled_testbed

MiB = 1024 * 1024


def tiny_scale(**overrides) -> ExperimentScale:
    """A unit-test scale: tiny machine, short runs."""
    values = dict(
        name="unit-test",
        figure1_duration_s=1.0,
        figure1_repetitions=2,
        figure1_sizes_mb=(8, 16, 24, 32, 48),
        figure2_duration_s=60.0,
        figure2_file_mb=26,
        figure2_testbed_scale=1.0 / 16.0,
        figure3_ops=600,
        figure3_sizes_mb=(8, 64, 256),
        figure4_duration_s=60.0,
        figure4_file_mb=20,
        interval_s=5.0,
    )
    values.update(overrides)
    return ExperimentScale(**values)


#: The arguments every figure below is measured with, besides tiny_scale()
#: and seed 3 (figure 2 picks its own testbed from the scale).
FIGURE_ARGS = {
    "figure1": {"testbed": scaled_testbed(1.0 / 16.0)},
    "figure2": {"fs_types": ("ext2", "xfs")},
    "figure3": {"testbed": scaled_testbed(1.0 / 16.0)},
    "figure4": {"testbed": scaled_testbed(1.0 / 16.0)},
}


@functools.lru_cache(maxsize=None)
def figure_outcome(name):
    """One shared run per figure: the tests only read the outcome."""
    return run_figure(name, scale=tiny_scale(), seed=3, **FIGURE_ARGS[name])


def render(name):
    return FIGURES[name].render(figure_outcome(name), tiny_scale())


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestScales:
    def test_predefined_scales_validate(self):
        default_scale().validate()
        paper_scale().validate()
        quick_scale().validate()

    def test_paper_scale_matches_protocol(self):
        scale = paper_scale()
        assert scale.figure1_repetitions == 10
        assert len(scale.figure1_sizes_mb) == 16
        assert scale.figure2_duration_s == 1200.0
        assert scale.figure2_testbed_scale == 1.0
        assert scale.interval_s == 10.0

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            tiny_scale(figure1_duration_s=0).validate()
        with pytest.raises(ValueError):
            tiny_scale(figure2_testbed_scale=2.0).validate()


class TestFigure1Harness:
    def test_cliff_appears_at_the_cache_boundary(self):
        # ~25.6 MiB page cache.
        sweep = figure1_sweep(figure_outcome("figure1"))
        rows = figure1_rows(sweep)
        assert len(rows) == 5
        means = {size: mean for size, mean, _ in rows}
        # Sizes below the cache run at memory speed; sizes above crawl.
        assert means[8] > 5 * means[48]
        assert find_transition(sweep) is not None
        assert sweep.fragility() > 0.5
        assert "Figure 1" in render("figure1")

    def test_figure1_io_bound_variance_exceeds_memory_bound(self):
        rows = figure1_rows(figure1_sweep(figure_outcome("figure1")))
        memory_rsd = rows[0][2]
        io_rsd = max(rsd for size, _, rsd in rows if size >= 32)
        assert io_rsd >= memory_rsd


class TestFigure2Harness:
    @pytest.mark.slow
    def test_warmup_curves_diverge_then_converge(self):
        runs = figure2_runs(figure_outcome("figure2"))
        assert set(runs) == {"ext2", "xfs"}
        # Cache warm-up means every file system speeds up over the run.
        for run in runs.values():
            series = run.timeline.throughputs()
            assert series[-1] > series[0] * 2
        # Mid-run the two differ substantially (different cluster sizes).
        assert mid_run_spread(runs) >= 2.0
        # XFS (larger cluster reads) warms no later than ext2.
        xfs_warm = warmup_interval_index(runs["xfs"])
        ext2_warm = warmup_interval_index(runs["ext2"])
        if xfs_warm is not None and ext2_warm is not None:
            assert xfs_warm <= ext2_warm
        assert "Figure 2" in render("figure2")

    @pytest.mark.slow
    def test_explicit_testbed_is_respected(self):
        testbed = scaled_testbed(1.0 / 16.0)
        outcome = run_figure(
            "figure2", fs_types=("ext2",), testbed=testbed, scale=tiny_scale(), seed=3
        )
        assert file_size_bytes(outcome.cells[0]) == testbed.page_cache_bytes


class TestFigure3Harness:
    def test_histogram_modality_follows_working_set_size(self):
        outcome = figure_outcome("figure3")
        assert list(figure3_histograms(outcome)) == [8, 64, 256]
        checks = FIGURES["figure3"].checks(outcome)
        assert checks["small_file_single_memory_peak"]
        assert checks["medium_file_bimodal"]
        assert checks["large_file_disk_peak_dominates"]
        assert checks["latencies_span_three_orders_of_magnitude"]
        assert latency_span_orders(figure3_histograms(outcome)) >= 3.0
        assert "Figure 3" in render("figure3")

    def test_histogram_counts_match_requested_ops(self):
        outcome = run_figure(
            "figure3",
            testbed=scaled_testbed(1.0 / 16.0),
            scale=tiny_scale(figure3_ops=300, figure3_sizes_mb=(8, 64)),
            seed=3,
        )
        histograms = figure3_histograms(outcome)
        assert list(histograms) == [8, 64]
        for histogram in histograms.values():
            assert histogram.total == 300


class TestFigure4Harness:
    @pytest.mark.slow
    def test_disk_peak_fades_as_cache_warms(self):
        outcome = figure_outcome("figure4")
        checks = FIGURES["figure4"].checks(outcome)
        assert checks["enough_intervals"]
        assert checks["disk_peak_dominates_early"]
        assert checks["memory_peak_dominates_late"]
        timeline = figure4_timeline(outcome)
        assert timeline.bimodal_fraction() > 0.0
        migration = peak_migration(timeline)
        assert migration[0][1] > migration[-1][1]  # disk fraction shrinks
        assert "Figure 4" in render("figure4")


class TestFigurePins:
    """Each figure's frame JSONL, rendered text and checks at tiny_scale(),
    seed 3, pinned to the values of the per-figure harnesses these
    definitions replaced: byte-identical output, not just the same shape."""

    @staticmethod
    def frame_sha256(name):
        buffer = io.StringIO()
        FIGURES[name].frame(figure_outcome(name)).to_jsonl(buffer)
        return sha256(buffer.getvalue())

    def test_figure1_pinned(self):
        assert self.frame_sha256("figure1") == (
            "c9951f574fe59818133f256d4e25eb7a30ca52788236febbeeb306ceeb9543df"
        )
        assert sha256(render("figure1")) == (
            "30f4a0523214b528c3e14d1a9b93376f7b5bd65fa9c1eac9eb514ab581afb525"
        )
        assert FIGURES["figure1"].checks(figure_outcome("figure1")) == {
            "memory_bound_plateau_near_10k_ops": False,
            "order_of_magnitude_drop": True,
            "cliff_between_384_and_512_mb": False,
            "io_bound_rsd_exceeds_memory_bound_rsd": False,
            "io_bound_in_low_hundreds_ops": False,
        }

    @pytest.mark.slow
    def test_figure2_pinned(self):
        assert self.frame_sha256("figure2") == (
            "0c069cd4f379483332f3c9a4890100876ca1276e8864c52bce1fa93e1afcab44"
        )
        assert sha256(render("figure2")) == (
            "d93faa8f4993f78600548c8f420125e1652ade6b62808a3b39f1b30d38a4caa7"
        )
        assert FIGURES["figure2"].checks(figure_outcome("figure2")) == {
            "similar_at_cold_start": False,
            "similar_when_warm": True,
            "large_mid_run_differences": True,
            "filesystems_warm_at_different_times": True,
        }

    def test_figure3_pinned(self):
        assert FIGURES["figure3"].frame is None
        assert sha256(render("figure3")) == (
            "90b3809f96e6c2b4557cf621de52ce33b6d914dfec7ae9ac3f8c01dab3069d0e"
        )
        assert FIGURES["figure3"].checks(figure_outcome("figure3")) == {
            "small_file_single_memory_peak": True,
            "medium_file_bimodal": True,
            "large_file_disk_peak_dominates": True,
            "latencies_span_three_orders_of_magnitude": True,
        }

    def test_figure4_pinned(self):
        assert self.frame_sha256("figure4") == (
            "7ff90731cac9e4543f2a136f445c43abfab4dfcbfbe1468e969720d14f4f4a3e"
        )
        assert sha256(render("figure4")) == (
            "9c69fdf0e80d68572cac15c82f525e51a0c852757660520892aade3d00ed0751"
        )
        assert FIGURES["figure4"].checks(figure_outcome("figure4")) == {
            "enough_intervals": True,
            "disk_peak_dominates_early": True,
            "memory_peak_dominates_late": True,
            "disk_peak_fades": True,
            "bimodal_for_much_of_run": False,
        }

    def test_transition_zoom_pinned(self):
        # The zoom brackets the cache +/- 64 MiB, so it needs a machine
        # whose page cache is larger than that.
        result = run_transition_zoom(
            fs_type="ext2", testbed=scaled_testbed(0.25), scale=tiny_scale(), seed=3
        )
        assert sha256(result.render()) == (
            "c759dca6edd66ad7a9eb9aeb2c5990bd3da6f67fe154daa58f1ac49a25651e9f"
        )
        assert result.checks() == {
            "transition_found": True,
            "transition_narrower_than_coarse_step": True,
            "rsd_spikes_in_transition": True,
        }

    def test_single_fs_figures_reject_several_file_systems(self):
        for name in ("figure1", "figure3", "figure4"):
            with pytest.raises(ValueError, match="one file system"):
                FIGURES[name].build(tiny_scale(), ("ext2", "xfs"), None, 3)


class TestTable1Harness:
    def test_all_checks_pass(self):
        database = load_paper_survey()
        assert all(table1_checks(database).values())
        assert len(database) == 19
        assert database.most_used() == "Ad-hoc"
        rendered = table1_report(database)
        assert "Postmark" in rendered and "Ad-hoc" in rendered
