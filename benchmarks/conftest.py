"""Shared helpers for the benchmark harness.

Every figure/table of the paper has one benchmark module here.  The
experiment harnesses run in *simulated* time, so what pytest-benchmark
records is the wall-clock cost of regenerating each figure; the interesting
scientific output (the reproduced curves and their qualitative checks) is
attached to each benchmark's ``extra_info`` and therefore lands in the
pytest-benchmark JSON/summary output.
"""

from __future__ import annotations

import os

import pytest

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def pytest_collection_modifyitems(items):
    """Every benchmark is a full experiment simulation: mark them all slow.

    The default local loop (`pytest -q`) skips slow tests via the `-m "not
    slow"` addopts; CI and explicit `-m ""` runs still execute them.
    """
    for item in items:
        if str(item.fspath).startswith(_BENCH_DIR):
            item.add_marker(pytest.mark.slow)


def pytest_benchmark_update_json(config, benchmarks, output_json):
    """Embed the normalized ``{name -> stats}`` shape into the bench JSON.

    The raw pytest-benchmark layout stays untouched (existing consumers keep
    working); the ``normalized`` section is the stable contract
    ``repro.obs.benchjson`` prefers, so every ``BENCH_*.json`` written from
    now on survives pytest-benchmark version churn and feeds
    ``fsbench-rocket bench-diff`` directly.
    """
    from repro.obs.benchjson import SCHEMA, normalize

    stats = normalize(output_json)
    output_json["normalized"] = {
        "schema": SCHEMA,
        "benchmarks": {name: s.to_dict() for name, s in sorted(stats.items())},
    }


def run_once(benchmark, func, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark.

    The experiments are full simulations (tens of seconds of wall clock), so
    repeating them for statistical timing would be wasteful; a single round
    is recorded and the scientific results are attached as extra_info.
    """
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1, warmup_rounds=0)


@pytest.fixture
def record_checks(benchmark):
    """Attach an experiment's qualitative checks to the benchmark record."""

    def _record(checks, **extra):
        benchmark.extra_info.update({f"check:{name}": bool(value) for name, value in checks.items()})
        for key, value in extra.items():
            benchmark.extra_info[key] = value
        return checks

    return _record
