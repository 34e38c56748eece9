"""One campaign in a fresh interpreter: the process the benchmark times.

``run.py`` starts this script once per campaign with the path of a JSON
job file.  The script imports the program, optionally installs the layer
tracer (:mod:`layers`), runs ``fsbench-rocket run`` through
``repro.cli.main`` -- the same code path as the console script -- and then
audits a pack of the campaign's results with ``fsbench-rocket results
verify`` and times ``verify_pack`` on it.  Simulation campaigns pack their
own loose cache first; replay campaigns audit the pack they replayed.  Timestamps are
``time.monotonic()`` readings, which share one clock with the parent
process, so the parent can measure from the moment it spawned this one.

Usage: ``campaign.py JOB.json T0`` where ``T0`` is the parent's clock
reading taken just before the spawn.  The job file holds ``run_argv``
(arguments after ``run``), ``cache_dir`` or ``pack`` (exactly one),
``pack_out`` (simulation only), ``trace`` and ``report`` (output path).
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import statistics
import sys
import time

VERIFY_REPEATS = 5


def _cli(main, argv) -> int:
    """Run one CLI command with its stdout (rendered tables) discarded."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        return main(argv)


def campaign(job: dict) -> dict:
    import repro.cli

    if job["trace"]:
        import importlib

        from layers import EAGER_MODULES, LayerTracer

        for name in EAGER_MODULES:
            importlib.import_module(name)
    imported = time.monotonic()
    report = {"imported": imported}

    tracer = None
    captured = {}
    if job["trace"]:
        from repro.core.experiment import Experiment

        # The program's own cache counters, taken from the result the CLI
        # builds and then discards.
        run_experiment = Experiment.run

        def run_and_capture(self, *args, **kwargs):
            result = run_experiment(self, *args, **kwargs)
            captured["cache"] = result.cache_stats
            return result

        Experiment.run = run_and_capture
        tracer = LayerTracer()
        tracer.charge("imports", imported - job["t0"])
        tracer.install()

    argv = ["--log-level", "warning", "run", *job["run_argv"]]
    if job.get("pack"):
        from repro.store.reader import PackReader

        start = time.monotonic()
        PackReader(job["pack"]).close()
        report["pack_open_s"] = time.monotonic() - start
        argv += ["--pack", job["pack"]]
    else:
        argv += ["--cache-dir", job["cache_dir"]]
    try:
        report["run_rc"] = _cli(repro.cli.main, argv)
    finally:
        report["frame_written"] = time.monotonic()
        if tracer is not None:
            report["patched"] = tracer.uninstall()
            Experiment.run = run_experiment
            report["calls"] = tracer.calls
            report["self_s"] = tracer.self_s
            stats = captured.get("cache")
            if stats is not None:
                report["cache"] = {
                    "hits": stats.hits,
                    "misses": stats.misses,
                    "blocks_read": stats.blocks_read,
                    "hit_ratio": stats.hit_ratio,
                }

    pack = job.get("pack")
    if not pack:
        pack = job["pack_out"]
        report["pack_rc"] = _cli(
            repro.cli.main, ["results", "pack", "--cache-dir", job["cache_dir"], "--out", pack]
        )
    report["verify_rc"] = _cli(repro.cli.main, ["results", "verify", pack])
    # The audit alone, without the CLI's argument parsing; it takes well
    # under a millisecond on a small pack, so take the median of a few.
    from repro.store.reader import verify_pack

    verify_s = []
    for _ in range(VERIFY_REPEATS):
        start = time.monotonic()
        if not verify_pack(pack).ok:
            report["verify_rc"] = 1
        verify_s.append(time.monotonic() - start)
    report["verify_s"] = statistics.median(verify_s)
    # ru_maxrss is in KiB on Linux.
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return report


def main() -> int:
    with open(sys.argv[1]) as handle:
        job = json.load(handle)
    job["t0"] = float(sys.argv[2])
    report = campaign(job)
    with open(job["report"], "w") as handle:
        json.dump(report, handle)
    ok = all(report.get(key, 0) == 0 for key in ("run_rc", "pack_rc", "verify_rc"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
