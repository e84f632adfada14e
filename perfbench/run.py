"""Benchmark entry point; run from the repository root:

    python3 perfbench/run.py --workload crowded --seed 1 --seconds 20 --trace 0

Prints a human-readable summary, a ``report`` line (environment, output
digests, checks, accounting) and, as the last line, the result as one JSON
object. Exits with 2 when the orekf sources are not next to this directory.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("campaign", "crowded", "replay"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "orekf" / "__init__.py").is_file():
        print(f"error: no orekf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.harness import run_benchmark

    result, report = run_benchmark(args.workload, args.seed, args.seconds,
                                   bool(args.trace), ROOT)
    if result is not None:
        for name, metric in result["metrics"].items():
            print(f"{args.workload:9s} {name:28s} {metric['value']:.6g} "
                  f"{metric['unit']}")
    print(f"{args.workload:9s} {'failed_frac':28s} {report['failed_frac']:.6g}"
          f" fraction (report only: it is 0 whenever every check passes)")
    for lane, acc in report.get("accounting", {}).items():
        if not acc["self_s"]:
            continue
        parts = " + ".join(f"{layer} {sec:.3f}" for layer, sec in sorted(
            acc["self_s"].items(), key=lambda item: -item[1]))
        print(f"{lane} lane: {acc['span_s']:.3f} s in operations = {parts}"
              f" (op: outside any probe)")
    print("report " + json.dumps(report))
    if result is None:
        print("error: no operation completed", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
