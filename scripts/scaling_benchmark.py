#!/usr/bin/env python3
"""Median solver runtime against instance size with a log-log slope fit."""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mbea.experiments import fit_loglog_slope, median_runtime


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+", default=[1000, 2000, 4000, 8000])
    parser.add_argument("--c", type=float, default=4.0)
    parser.add_argument("--seeds", type=int, nargs="+", default=[11, 22, 33])
    args = parser.parse_args()

    points = []
    print(f"{'N':>8} {'median (s)':>12}")
    for n in args.sizes:
        t = median_runtime(n, args.c, seeds=args.seeds)
        points.append((n, t))
        print(f"{n:>8} {t:>12.3f}")
    try:
        slope = fit_loglog_slope(points)
    except ValueError as exc:
        print(f"scaling_benchmark: {exc}", file=sys.stderr)
        return 1
    print(f"log-log slope: {slope:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
