#!/usr/bin/env python3
"""Compare Ext2, Ext3 and XFS with the multi-dimensional nano-benchmark suite.

This is the paper's Section 4 prescription in action: instead of asking
"which file system is faster?", run one nano-benchmark per dimension
(in-memory, on-disk layout, cache warm-up, meta-data, scaling), report every
cell with its spread, and only call winners where the confidence intervals
separate.  The output typically shows different winners on different
dimensions -- which is exactly why a single number cannot answer the
original question.

::

    python examples/compare_filesystems.py --quick
"""

from __future__ import annotations

import argparse

from repro.core.report import suite_report
from repro.core.suite import NanoBenchmarkSuite
from repro.fs.stack import DEFAULT_FS_TYPES
from repro.analysis.comparison import compare_repetition_sets
from repro.storage.config import paper_testbed, scaled_testbed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="run on a 1/8-scale machine")
    parser.add_argument(
        "--fs",
        action="append",
        choices=DEFAULT_FS_TYPES,
        help="file systems to compare (repeatable; default: all four)",
    )
    args = parser.parse_args(argv)

    testbed = scaled_testbed(0.125) if args.quick else paper_testbed()
    fs_types = tuple(args.fs) if args.fs else DEFAULT_FS_TYPES

    suite = NanoBenchmarkSuite(testbed=testbed, quick=args.quick)
    outcome = suite.as_experiment(fs_types=fs_types).run()
    print(suite_report(suite.benchmarks, outcome, title=f"Nano-benchmark suite on {testbed.name}"))

    if len(fs_types) >= 2:
        print("Per-dimension verdicts (first vs last file system):")
        first, last = fs_types[0], fs_types[-1]
        for benchmark in suite.benchmarks:
            verdict = compare_repetition_sets(
                first,
                outcome.result_for(workload=benchmark.name, fs=first),
                last,
                outcome.result_for(workload=benchmark.name, fs=last),
            )
            print(f"  {benchmark.name}: {verdict.format()}")
        print(
            "\nIf the winner changes from row to row, no single number can rank "
            f"{first} against {last}; that is the paper's point."
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
