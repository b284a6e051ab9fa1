#!/usr/bin/env python3
"""Run the desk-scale ensemble experiments and write CSV/JSON reports.

Produces three reports under --out-dir:
  backbones.csv   frozen-state fractions over a mean-degree grid
  coverage.csv    coverage ratio x = cover/n over the same grid
  error.csv       mean (cover - exact)/n against the oracle on a (c, n) grid

Defaults are desk-scale (n=2000 with 100 instances for the grids, n<=60 for
the oracle comparison). Larger ensembles are a flag away but the oracle grid
cost grows exponentially with n.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mbea.experiments import (
    ExperimentConfig,
    rows_to_csv,
    rows_to_json,
    run_backbone_fractions,
    run_error_vs_exact,
)


def write(rows, out_dir: Path, stem: str) -> None:
    (out_dir / f"{stem}.csv").write_text(rows_to_csv(rows))
    (out_dir / f"{stem}.json").write_text(rows_to_json(rows))
    print(f"wrote {out_dir / f'{stem}.csv'}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", type=Path, default=Path("reports"))
    parser.add_argument("--n", type=int, default=2000, help="grid node count")
    parser.add_argument("--instances", type=int, default=100)
    parser.add_argument("--error-instances", type=int, default=200)
    parser.add_argument("--error-n", type=int, nargs="+", default=[20, 30, 40, 50, 60])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args()

    args.out_dir.mkdir(parents=True, exist_ok=True)
    grid = tuple(float(c) for c in range(1, 11))

    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        c_grid=grid,
        n_grid=(args.n,),
        instances=args.instances,
        seed=args.seed,
        workers=args.workers,
    )
    # both reports come from one ensemble (exp-coverage runs the same call)
    rows = run_backbone_fractions(cfg)
    write(rows, args.out_dir, "backbones")
    write(rows, args.out_dir, "coverage")

    err_cfg = ExperimentConfig(
        c_grid=(2.0, 4.0, 6.0),
        n_grid=tuple(args.error_n),
        instances=args.error_instances,
        seed=args.seed,
        workers=args.workers,
    )
    write(run_error_vs_exact(err_cfg), args.out_dir, "error")
    print(f"total {time.perf_counter() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
