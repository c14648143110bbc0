"""Benchmark entry point for modroute.

Run from the repository root:

    python3 perfbench/run.py --workload batch-8x8 --seed 0 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: end-to-end metrics
with ``--trace 0``, per-layer metrics with ``--trace 1``. The line before it
is a JSON detail record with the run's output digest. See README.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv: list[str] | None, workloads: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="modroute benchmark")
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="wall time of the timed passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    return args


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "modroute" / "__init__.py").is_file():
        print(f"error: modroute sources not found at {SRC / 'modroute'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench

    args = parse_args(argv, list(bench.WORKLOADS))
    report, detail = bench.run(bench.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(detail))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
