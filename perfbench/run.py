"""Benchmark entry point: time campaigns end to end, or trace them layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload postmark-hdd --seed 0 --seconds 20 --trace 0

``--trace 0`` runs the workload's campaign (``workloads.py``) back to back,
each in a fresh interpreter (``campaign.py``), until ``--seconds`` have
passed, and reports the median of every end-to-end metric, its times taken
at the reference host speed (``speed.py``).  ``--trace 1``
runs one untraced campaign and then traced ones (``layers.py``), and
reports per-layer call counts and self time.  Every campaign's result
frame is checked; the last line of stdout is one JSON object::

    {"correct": true, "attempted": 36, "failed": 0, "metrics": {...}}

Progress and the reason for any failed check go to stderr.  The program
is imported from ``src/`` of the current directory; without it the
benchmark exits with status 2 and prints no result.  Scratch files live in
``.perfbench-run/`` and are removed on exit.  See ``README.md`` for what
each metric and workload is for.
"""

from __future__ import annotations

import argparse
import compileall
import dataclasses
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layers import LAYERS, UNATTRIBUTED  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    FILE_SYSTEMS,
    PINNED,
    SMOKE_SIZES,
    WORKLOADS,
    Workload,
)

#: Fewest campaigns a run measures, whatever ``--seconds`` says.
MIN_CAMPAIGNS = 3
MIN_TRACED = 2
#: A campaign that runs longer than this is killed and counted as failed.
CAMPAIGN_TIMEOUT_S = 150
#: Slack allowed between the layer sum and the campaign clock (two clocks).
CLOCK_SLACK_S = 1e-3

SETUP_PHASES = ("stack-build", "snapshot-restore", "setup")


class CheckFailed(Exception):
    """A campaign's output failed a correctness check."""


def frame_digest(path: str) -> str:
    """SHA-256 of a JSONL frame with its rows canonicalised and sorted."""
    with open(path) as handle:
        rows = [json.loads(line) for line in handle if line.strip()]
    lines = sorted(json.dumps(row, sort_keys=True, separators=(",", ":")) for row in rows)
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


class Benchmark:
    """One benchmark run of one workload in one checkout."""

    def __init__(self, root: str, workload: Workload, seed: int, smoke: bool) -> None:
        self.root = root
        self.src = os.path.join(root, "src")
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.workdir = os.path.join(root, ".perfbench-run", f"{workload.name}-{os.getpid()}")
        self.campaigns = 0
        self.attempted = 0
        self.failed = 0
        self.reference_digest: Optional[str] = None
        self.pack: Optional[str] = None

    # -------------------------------------------------------------- campaign
    def campaign(self, trace: bool = False, replay: bool = False) -> dict:
        """Spawn one campaign, check its output and return its measurements."""
        index = self.campaigns
        self.campaigns += 1
        directory = os.path.join(self.workdir, f"c{index}")
        os.makedirs(directory)
        path = lambda name: os.path.join(directory, name)  # noqa: E731
        job = {
            "run_argv": self.workload.run_argv(self.seed)
            + ["--telemetry", path("telemetry.jsonl"), "--out", path("frame.jsonl")],
            "trace": trace,
            "report": path("report.json"),
        }
        if replay:
            job["pack"] = self.pack
        else:
            job["cache_dir"] = path("cache")
            job["pack_out"] = path("campaign.frpack")
        with open(path("job.json"), "w") as handle:
            json.dump(job, handle)

        units = self.workload.units()
        self.attempted += units
        # A fixed hash seed: numpy's import path iterates a set, and a
        # random seed changes how many imports it makes from run to run.
        env = dict(os.environ, PYTHONPATH=self.src, PYTHONHASHSEED="0")
        with open(path("stderr.log"), "w") as stderr:
            t0 = time.monotonic()
            process = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "campaign.py"), path("job.json"), repr(t0)],
                stdout=subprocess.DEVNULL,
                stderr=stderr,
                env=env,
                cwd=self.root,
            )
            try:
                returncode = process.wait(timeout=CAMPAIGN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                returncode = None
            finally:
                # Also on an interrupt: never leave a campaign running.
                if process.poll() is None:
                    process.kill()
                    process.wait()
            wall_s = time.monotonic() - t0
        try:
            return self._check(job, units, t0, wall_s, returncode, path)
        except CheckFailed:
            with open(path("stderr.log")) as handle:
                sys.stderr.write(handle.read()[-4000:])
            raise
        finally:
            # Keep the frame, report and pack; drop the loose cache.
            shutil.rmtree(path("cache"), ignore_errors=True)

    def _check(self, job, units, t0, wall_s, returncode, path) -> dict:
        events = []
        if os.path.exists(path("telemetry.jsonl")):
            with open(path("telemetry.jsonl")) as handle:
                events = [json.loads(line) for line in handle if line.strip()]
        failed_units = sum(1 for event in events if event["kind"] == "failed")
        if returncode != 0 or not os.path.exists(job["report"]):
            self.failed += max(failed_units, 1)
            raise CheckFailed(f"campaign exited with status {returncode}")
        with open(job["report"]) as handle:
            report = json.load(handle)

        queued: Dict[tuple, float] = {}
        finished: List[float] = []
        unit_s = {fs: 0.0 for fs in FILE_SYSTEMS}
        setup_s = 0.0
        executed = hits = 0
        for event in events:
            unit = (event["group"], event["repetition"])
            kind = event["kind"]
            if kind == "queued":
                queued[unit] = event["t_s"]
            elif kind == "exec-done":
                executed += 1
                finished.append(event["t_s"])
                unit_s[event["fs"]] += event["wall_s"]
                phases = event.get("phases", {})
                setup_s += sum(phases.get(name, 0.0) for name in SETUP_PHASES)
            elif kind in ("cache-hit", "pack-hit"):
                hits += 1
                finished.append(event["t_s"])
                unit_s[event["fs"]] += event["t_s"] - queued[unit]
        replay = "pack" in job
        expected = (0, units) if replay else (units, 0)
        if (executed, hits) != expected or len(queued) != units:
            self.failed += max(units - executed - hits, 1)
            raise CheckFailed(
                f"{len(queued)} units queued, {executed} executed, {hits} cache hits; "
                f"expected {units} units, (executed, hits) = {expected}"
            )

        digest, operations = self._check_frame(path("frame.jsonl"), units)
        with open(path("frame.jsonl"), "rb") as handle:
            file_digest = hashlib.sha256(handle.read()).hexdigest()
        return {
            "digest": digest,
            "file_digest": file_digest,
            "wall_s": wall_s,
            "report": report,
            "window": (t0, t0 + wall_s),
            "metrics": {
                "campaign_s": report["frame_written"] - t0,
                "setup_s": report["imported"] - t0 + setup_s + report.get("pack_open_s", 0.0),
                # From the first unit queued to the last one executed (or,
                # on replay, served from the pack).
                "sim_ops_per_s": operations / (max(finished) - min(queued.values())),
                "peak_rss_mb": report["peak_rss_mb"],
            },
            # Too short to hold a bound steady; reported by the traced run.
            "untraced_only": {
                **{f"cell_s.{fs}": seconds for fs, seconds in unit_s.items()},
                "store.verify_s": report["verify_s"],
            },
        }

    def _check_frame(self, frame_path: str, units: int):
        """Structural checks on one frame; returns (digest, total operations)."""
        workload = self.workload
        with open(frame_path) as handle:
            rows = [json.loads(line) for line in handle if line.strip()]
        ops_rows = [row for row in rows if row["metric"] == "operations"]
        cells = {(row["fs"], row["workload"], row["seed"]) for row in ops_rows}
        want = {
            (fs, name, seed)
            for fs in FILE_SYSTEMS
            for name in workload.workloads
            for seed in range(self.seed, self.seed + workload.seeds)
        }
        if cells != want or len(ops_rows) != units:
            raise CheckFailed(f"frame holds {len(ops_rows)} units, not the {units} declared")
        short = [row for row in ops_rows if row["value"] != workload.max_ops]
        if short:
            raise CheckFailed(f"{len(short)} units did not run exactly max_ops operations")
        if len(rows) % units:
            raise CheckFailed("units report different metric sets")
        return frame_digest(frame_path), sum(row["value"] for row in ops_rows)

    def expect_digest(self, digest: str) -> None:
        """Every campaign of a run must produce the same frame; pinned seeds
        and replays must also match their reference."""
        pinned = None if self.smoke else PINNED.get((self.workload.name, self.seed))
        reference = self.reference_digest or pinned
        if reference is None:
            self.reference_digest = reference = digest
        if digest != reference or (pinned is not None and digest != pinned):
            raise CheckFailed(
                f"frame sha256 {digest} differs from the reference {reference}"
                + (f" (pinned {pinned})" if pinned else "")
            )

    # -------------------------------------------------------------- phases
    def prepare(self) -> None:
        """Compile the program once; for a replay workload, run the live
        campaign and keep its pack and frame digest as the reference."""
        compileall.compile_dir(self.src, quiet=1)
        if self.workload.replay:
            live = self.campaign()
            self.expect_digest(live["digest"])
            self.pack = os.path.join(self.workdir, "live.frpack")
            os.replace(
                os.path.join(self.workdir, f"c{self.campaigns - 1}", "campaign.frpack"),
                self.pack,
            )

    def timed(self, seconds: float, trace: bool, minimum: int) -> List[dict]:
        """Campaigns back to back until ``seconds`` would be exceeded."""
        results: List[dict] = []
        start = time.monotonic()
        while len(results) < minimum or (
            time.monotonic() - start + statistics.median([r["wall_s"] for r in results]) <= seconds
        ):
            result = self.campaign(trace=trace, replay=self.workload.replay)
            self.expect_digest(result["digest"])
            results.append(result)
        return results

    def end_to_end(self, seconds: float) -> Dict[str, float]:
        """Medians over the run's campaigns, each campaign's times taken at
        the reference host speed (``speed.py``).  The imports part of
        ``setup_s`` is scaled by the speed while the imports ran: it is a
        short piece of the campaign, and the speed flips within seconds."""
        os.makedirs(self.workdir, exist_ok=True)
        scaled: Dict[str, List[float]] = {}
        with SpeedProbe(os.path.join(self.workdir, "speed.txt")) as probe:
            for result in self.timed(seconds, trace=False, minimum=MIN_CAMPAIGNS):
                t0, end = result["window"]
                imported = result["report"]["imported"]
                factor = probe.factor(t0, end)
                metrics = result["metrics"]
                imports_s = imported - t0
                for name, value in {
                    "campaign_s": metrics["campaign_s"] * factor,
                    "setup_s": imports_s * probe.factor(t0, imported)
                    + (metrics["setup_s"] - imports_s) * factor,
                    "sim_ops_per_s": metrics["sim_ops_per_s"] / factor,
                    "peak_rss_mb": metrics["peak_rss_mb"],
                }.items():
                    scaled.setdefault(name, []).append(value)
        return {name: statistics.median(values) for name, values in scaled.items()}

    def per_layer(self, seconds: float) -> Dict[str, float]:
        start = time.monotonic()
        untraced = self.timed(0, trace=False, minimum=1)[0]
        traced = self.timed(seconds - (time.monotonic() - start), trace=True, minimum=MIN_TRACED)
        for result in traced:
            if result["file_digest"] != untraced["file_digest"]:
                raise CheckFailed("the traced frame is not byte-identical to the untraced one")
            report = result["report"]
            first = traced[0]["report"]["calls"]
            differ = {k: (first[k], v) for k, v in report["calls"].items() if first[k] != v}
            if differ:
                raise CheckFailed(f"two traced runs of one seed made different call counts: {differ}")
            if not report["patched"]:
                raise CheckFailed("the traced run wrapped nothing")
            result["unattributed"] = result["metrics"]["campaign_s"] - sum(
                report["self_s"].values()
            )
            if result["unattributed"] < -CLOCK_SLACK_S:
                raise CheckFailed("layer self times exceed the traced campaign time")
        # The traced run with the median campaign time: its layers and its
        # remainder add up to its own campaign time exactly.
        traced.sort(key=lambda r: r["metrics"]["campaign_s"])
        chosen = traced[(len(traced) - 1) // 2]
        report = chosen["report"]
        metrics: Dict[str, float] = {}
        for layer in LAYERS:
            metrics[f"{layer}.calls"] = report["calls"][layer]
            metrics[f"{layer}.self_s"] = report["self_s"][layer]
        metrics[f"{UNATTRIBUTED}.self_s"] = chosen["unattributed"]
        metrics.update(untraced["untraced_only"])
        cache = report["cache"]
        lookups = cache["hits"] + cache["misses"]
        metrics["core.parallel.hit_ratio"] = cache["hit_ratio"]
        metrics["store.blocks_read_per_lookup"] = cache["blocks_read"] / lookups
        metrics["trace.campaign_s"] = chosen["metrics"]["campaign_s"]
        metrics["trace.overhead"] = (
            chosen["metrics"]["campaign_s"] / untraced["metrics"]["campaign_s"]
        )
        return metrics


def declared_units(trace: bool) -> Dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {metric["name"]: metric["unit"] for metric in spec["per_layer" if trace else "end_to_end"]}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "smoke"),
        default="full",
        help="smoke: a few operations per unit, for the self-tests",
    )
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "cli.py")):
        print("perfbench: no program under ./src/repro; run from a checkout root", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.size == "smoke":
        seeds, max_ops = SMOKE_SIZES[workload.name]
        workload = dataclasses.replace(workload, seeds=seeds, max_ops=max_ops)

    bench = Benchmark(root, workload, args.seed, smoke=args.size == "smoke")
    correct = True
    metrics: Dict[str, float] = {}
    try:
        bench.prepare()
        if args.trace:
            metrics = bench.per_layer(args.seconds)
        else:
            metrics = bench.end_to_end(args.seconds)
    except CheckFailed as error:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
        correct = False
    finally:
        shutil.rmtree(bench.workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(bench.workdir))
        except OSError:
            pass
    units = declared_units(bool(args.trace))
    if metrics and set(metrics) != set(units):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        correct = False
    for name, value in metrics.items():
        print(f"{name:<34} {value:>14.6g} {units.get(name, '?')}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            name: {"value": value, "unit": units.get(name, "?")} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
