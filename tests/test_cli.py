"""Tests for the command-line interface."""

import hashlib
from types import SimpleNamespace

import pytest

import repro.cli as cli


class TestParser:
    def test_requires_a_command(self, capsys):
        with pytest.raises(SystemExit):
            cli.main([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["figure99"])

    def test_unknown_fs_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["figure1", "--fs", "zfs"])


class TestTable1Command:
    #: SHA-256 of ``fsbench-rocket table1`` stdout, recorded before Table 1
    #: became plain functions over the survey database.
    STDOUT_SHA256 = "16eee2e5c432661353d4f0cd9d5de5f2d4045c9aa17715b12dd80a1ffc5fd06e"

    def test_prints_the_table(self, capsys):
        assert cli.main(["table1"]) == 0
        output = capsys.readouterr().out
        assert "Postmark" in output
        assert "Ad-hoc" in output
        assert "Legend" in output

    def test_stdout_is_pinned(self, capsys):
        assert cli.main(["table1"]) == 0
        output = capsys.readouterr().out
        assert hashlib.sha256(output.encode()).hexdigest() == self.STDOUT_SHA256

    def test_takes_no_options(self):
        with pytest.raises(SystemExit):
            cli.main(["table1", "--quick"])


class TestFigureCommands:
    """Figure commands are dispatched with a stubbed engine (the real figures
    are exercised by tests/test_experiments.py and by the benchmarks)."""

    class _StubResult:
        def render(self):
            return "stub-render"

    @pytest.fixture
    def figure_calls(self, monkeypatch):
        """Stub ``run_figure`` and every figure's render; record the calls."""
        from dataclasses import replace

        calls = []

        def fake_run_figure(name, scale, fs_types):
            calls.append({"name": name, "scale": scale, "fs": fs_types})
            return "stub-outcome"

        def fake_render(outcome, scale):
            assert outcome == "stub-outcome"
            return "stub-render"

        monkeypatch.setattr(cli, "run_figure", fake_run_figure)
        for name, figure in list(cli.FIGURES.items()):
            monkeypatch.setitem(cli.FIGURES, name, replace(figure, render=fake_render))
        return calls

    def test_figure1_dispatch(self, figure_calls, capsys):
        assert cli.main(["figure1", "--fs", "xfs"]) == 0
        assert figure_calls[0]["name"] == "figure1"
        assert figure_calls[0]["fs"] == ("xfs",)
        assert figure_calls[0]["scale"].name == "default"
        assert "stub-render" in capsys.readouterr().out

    def test_paper_scale_flag(self, figure_calls):
        cli.main(["--paper-scale", "figure3"])
        assert figure_calls[0]["scale"].name == "paper"

    def test_figure2_default_filesystems(self, figure_calls):
        cli.main(["figure2"])
        assert figure_calls[0]["fs"] == ("ext2", "ext3", "xfs")

    def test_figure2_explicit_filesystems(self, figure_calls):
        cli.main(["figure2", "--fs", "ext2", "--fs", "xfs"])
        assert figure_calls[0]["fs"] == ("ext2", "xfs")

    def test_figure4_and_zoom_dispatch(self, figure_calls, monkeypatch):
        monkeypatch.setattr(
            cli,
            "run_transition_zoom",
            lambda fs_type, scale: figure_calls.append({"name": "zoom"}) or self._StubResult(),
        )
        cli.main(["figure4"])
        cli.main(["zoom"])
        assert [call["name"] for call in figure_calls] == ["figure4", "zoom"]

    def test_suite_command(self, monkeypatch, capsys):
        class _FakeSuite:
            def __init__(self, testbed=None, quick=False, n_workers=1, cache_dir=None, snapshot_path=None):
                self.quick = quick

            benchmarks = []

            def as_experiment(self, fs_types):
                return SimpleNamespace(run=lambda: {"fs": fs_types})

        monkeypatch.setattr(cli, "NanoBenchmarkSuite", _FakeSuite)
        monkeypatch.setattr(
            cli, "suite_report", lambda benchmarks, outcome: f"suite over {outcome['fs']}"
        )
        assert cli.main(["suite", "--quick", "--fs", "ext2", "--scaled-testbed", "0.125"]) == 0
        assert "ext2" in capsys.readouterr().out


class TestParallelFlags:
    """--workers / --cache-dir / --no-cache reach the execution layer."""

    class _FakeSuite:
        captured = {}

        def __init__(self, testbed=None, quick=False, n_workers=1, cache_dir=None, snapshot_path=None):
            type(self).captured = {"n_workers": n_workers, "cache_dir": cache_dir}

        benchmarks = []

        def as_experiment(self, fs_types):
            return SimpleNamespace(run=lambda: {"fs": fs_types})

    def test_suite_workers_and_cache_dir(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "NanoBenchmarkSuite", self._FakeSuite)
        monkeypatch.setattr(cli, "suite_report", lambda benchmarks, outcome: "ok")
        assert cli.main(["suite", "--workers", "4", "--cache-dir", "/tmp/c"]) == 0
        assert self._FakeSuite.captured == {"n_workers": 4, "cache_dir": "/tmp/c"}

    def test_no_cache_overrides_cache_dir(self, monkeypatch):
        monkeypatch.setattr(cli, "NanoBenchmarkSuite", self._FakeSuite)
        monkeypatch.setattr(cli, "suite_report", lambda benchmarks, outcome: "ok")
        cli.main(["suite", "--cache-dir", "/tmp/c", "--no-cache"])
        assert self._FakeSuite.captured["cache_dir"] is None

    def test_survey_dispatch(self, monkeypatch, capsys):
        captured = {}

        class _FakeSuite:
            benchmarks = []

            def __init__(self, testbed=None, quick=False, n_workers=1, cache_dir=None, snapshot_path=None):
                captured.update(n_workers=n_workers, cache_dir=cache_dir, quick=quick)

            def as_experiment(self, fs_types):
                captured["fs"] = fs_types
                return SimpleNamespace(run=lambda: "outcome")

        def fake_survey_report(database, benchmarks, outcome):
            assert outcome == "outcome" and "Ad-hoc" in database
            return "survey-render"

        monkeypatch.setattr(cli, "NanoBenchmarkSuite", _FakeSuite)
        monkeypatch.setattr(cli, "survey_report", fake_survey_report)
        assert cli.main(["survey", "--quick", "--fs", "xfs", "--workers", "0"]) == 0
        assert captured["n_workers"] == 0
        assert captured["quick"] is True
        assert captured["fs"] == ("xfs",)
        assert "survey-render" in capsys.readouterr().out


class TestDeviceAndSchedulerFlags:
    """--device/--scheduler choices come from the registries, never a hardcoded list."""

    class _FakeSuite:
        captured = {}

        def __init__(self, testbed=None, quick=False, n_workers=1, cache_dir=None, snapshot_path=None):
            type(self).captured = {"testbed": testbed}

        benchmarks = []

        def as_experiment(self, fs_types):
            return SimpleNamespace(run=lambda: {"fs": fs_types})

    def test_choices_track_the_registries(self):
        from repro.storage.config import DEVICE_REGISTRY
        from repro.storage.device import SCHEDULER_REGISTRY

        assert cli.DEVICE_CHOICES == tuple(DEVICE_REGISTRY)
        assert cli.SCHEDULER_CHOICES == tuple(SCHEDULER_REGISTRY)
        assert "ssd-ftl-steady" in cli.DEVICE_CHOICES

    def test_suite_device_and_scheduler_reach_the_testbed(self, monkeypatch):
        monkeypatch.setattr(cli, "NanoBenchmarkSuite", self._FakeSuite)
        monkeypatch.setattr(cli, "suite_report", lambda benchmarks, outcome: "ok")
        assert (
            cli.main(
                ["suite", "--quick", "--device", "ssd-ftl", "--scheduler", "deadline"]
            )
            == 0
        )
        testbed = self._FakeSuite.captured["testbed"]
        assert testbed.device_kind == "ssd-ftl"
        assert testbed.io_scheduler == "deadline"

    def test_unregistered_device_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["suite", "--device", "floppy"])


class TestSsdSteadyCommand:
    def test_dispatch_and_render(self, monkeypatch, capsys):
        captured = {}

        class _StubResult:
            def render(self):
                return "ssd-steady-render"

        def fake_run(fs_type, workload, testbed, quick, n_workers, cache_dir):
            captured.update(
                fs_type=fs_type, workload=workload, quick=quick, n_workers=n_workers
            )
            return _StubResult()

        monkeypatch.setattr(cli, "run_fresh_vs_steady", fake_run)
        assert cli.main(["ssd-steady", "--quick", "--fs", "ext2", "--workers", "2"]) == 0
        assert captured == {
            "fs_type": "ext2",
            "workload": "postmark",
            "quick": True,
            "n_workers": 2,
        }
        assert "ssd-steady-render" in capsys.readouterr().out

    def test_unknown_workload_is_a_usage_error(self, capsys):
        assert cli.main(["ssd-steady", "--quick", "--workload", "no-such-workload"]) == 2
        assert "error" in capsys.readouterr().err
