"""Run one rosdos benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper-roseland --seed 0 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``. The line before
it is a JSON report: environment, per-cycle times, every output check and
``ops_failed_frac``. Output of the program itself goes to standard error.
See perfbench/README.md for the workloads and metrics.

Exits with 2 when the checkout holds no importable rosdos package, and with
1 when no cycle produced a checkable result.
"""

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ["paper-roseland", "cli-shrink-only", "experiment-grid"]


def load_harness():
    """Import the harness with the rosdos package of this checkout's src/;
    raises ImportError when there is no such package."""
    for path in (ROOT, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)
    import rosdos

    if not os.path.abspath(rosdos.__file__).startswith(SRC + os.sep):
        raise ImportError(f"rosdos was imported from {rosdos.__file__}, not {SRC}")
    from perfbench import bench

    return bench


def main(argv=None):
    parser = argparse.ArgumentParser(description="Run one rosdos benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        bench = load_harness()
    except ImportError as exc:
        print(f"perfbench: cannot import rosdos from {SRC}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0
    report, result = bench.run_workload(args.workload, args.seed, args.seconds,
                                        bool(args.trace), import_s=import_s)
    print(json.dumps(report))
    if result is None:
        print("perfbench: no cycle produced a checkable result", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
