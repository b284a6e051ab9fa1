"""Ensemble experiment harness: backbone fractions, coverage ratio, error vs exact.

Every grid point runs `instances` seeded instances; per-instance seeds derive
from (base seed, c index, n index, instance index) through blake2b, so any
point is individually reproducible and reports are byte-identical for a fixed
config, independent of the worker count.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import asdict, astuple, dataclass
from multiprocessing import Pool

from .graphs import GenConfig, generate_er
from .leaf_removal import leaf_removal_ranks
from .oracle import exact_min_cover
from .solver import run_mbea

CSV_HEADER = (
    "c,n,instances,x_mean,x_stderr,pos_frac,neg_frac,unfrozen_frac,"
    "core_empty_frac,err_mean,err_stderr"
)


@dataclass(frozen=True)
class ExperimentConfig:
    c_grid: tuple[float, ...]
    n_grid: tuple[int, ...]
    instances: int
    seed: int
    oracle_budget: int = 150
    workers: int = 1

    def validate(self) -> None:
        if self.instances < 1:
            raise ValueError("instances must be >= 1")
        if any(c < 0 for c in self.c_grid):
            raise ValueError("mean degrees must be >= 0")
        if not self.c_grid or not self.n_grid:
            raise ValueError("empty grid")


@dataclass(frozen=True)
class ReportRow:
    c: float
    n: int
    instances: int
    x_mean: float
    x_stderr: float
    pos_frac: float
    neg_frac: float
    unfrozen_frac: float
    core_empty_frac: float
    err_mean: float | None
    err_stderr: float | None
    refusal_frac: float = 0.0


def derive_seed(base_seed: int, c_index: int, n_index: int, instance_index: int) -> int:
    payload = f"{base_seed}:{c_index}:{n_index}:{instance_index}".encode()
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "big")


def _run_instance(task) -> tuple:
    c, n, seed, with_oracle, oracle_budget = task
    g = generate_er(GenConfig(n=n, mean_degree=c, seed=seed))
    ranks = leaf_removal_ranks(g)
    res = run_mbea(g, ranks)
    unfrozen, pos, neg = res.rsg.state_counts()
    x = res.cover_size / n
    core_empty = ranks.core_empty
    err = None
    refused = False
    if with_oracle:
        if n > oracle_budget:
            refused = True
        else:
            exact = exact_min_cover(g, budget=oracle_budget)
            err = (res.cover_size - exact) / n
    return (x, pos / n, neg / n, unfrozen / n, core_empty, err, refused)


def _mean_stderr(values) -> tuple[float, float]:
    values = list(values)
    cnt = len(values)
    mean = sum(values) / cnt
    if cnt < 2:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (cnt - 1)
    return mean, math.sqrt(var / cnt)


def run_ensemble(cfg: ExperimentConfig, with_oracle: bool) -> list[ReportRow]:
    cfg.validate()
    tasks = []
    for ci, c in enumerate(cfg.c_grid):
        for ni, n in enumerate(cfg.n_grid):
            for k in range(cfg.instances):
                tasks.append(
                    (c, n, derive_seed(cfg.seed, ci, ni, k), with_oracle, cfg.oracle_budget)
                )
    if cfg.workers > 1:
        # instance cost varies tens of times across the grid, so a worker
        # takes one task at a time; map keeps the results in task order
        with Pool(cfg.workers) as pool:
            results = pool.map(_run_instance, tasks, chunksize=1)
    else:
        results = [_run_instance(t) for t in tasks]

    rows = []
    idx = 0
    for c in cfg.c_grid:
        for n in cfg.n_grid:
            chunk = results[idx : idx + cfg.instances]
            idx += cfg.instances
            x_mean, x_stderr = _mean_stderr(r[0] for r in chunk)
            pos_frac = sum(r[1] for r in chunk) / len(chunk)
            neg_frac = sum(r[2] for r in chunk) / len(chunk)
            unf_frac = sum(r[3] for r in chunk) / len(chunk)
            core_empty_frac = sum(1 for r in chunk if r[4]) / len(chunk)
            errs = [r[5] for r in chunk if r[5] is not None]
            refusals = sum(1 for r in chunk if r[6])
            if errs:
                err_mean, err_stderr = _mean_stderr(errs)
            else:
                err_mean = err_stderr = None
            rows.append(
                ReportRow(
                    c=float(c),
                    n=n,
                    instances=cfg.instances,
                    x_mean=x_mean,
                    x_stderr=x_stderr,
                    pos_frac=pos_frac,
                    neg_frac=neg_frac,
                    unfrozen_frac=unf_frac,
                    core_empty_frac=core_empty_frac,
                    err_mean=err_mean,
                    err_stderr=err_stderr,
                    refusal_frac=refusals / len(chunk),
                )
            )
    return rows


def run_backbone_fractions(cfg: ExperimentConfig) -> list[ReportRow]:
    """Mean state fractions per mean degree (no oracle)."""
    return run_ensemble(cfg, with_oracle=False)


def run_coverage(cfg: ExperimentConfig) -> list[ReportRow]:
    """Mean and standard error of the coverage ratio x = cover / n."""
    return run_ensemble(cfg, with_oracle=False)


def run_error_vs_exact(cfg: ExperimentConfig) -> list[ReportRow]:
    """Mean (cover - exact) / n against the exact oracle per (c, n) point."""
    return run_ensemble(cfg, with_oracle=True)


def rows_to_csv(rows) -> str:
    """One line per row, every field but refusal_frac, in field order."""
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join("" if v is None else repr(v) for v in astuple(r)[:-1]))
    return "\n".join(lines) + "\n"


def rows_to_json(rows) -> str:
    return json.dumps([asdict(r) for r in rows], indent=2) + "\n"


def median_runtime(n: int, c: float, seeds, repeats: int = 1) -> float:
    """Median wall time of run_mbea (including rank assignment) over seeds."""
    times = []
    for seed in seeds:
        g = generate_er(GenConfig(n=n, mean_degree=c, seed=seed))
        best = math.inf
        for _ in range(repeats):
            t0 = time.perf_counter()
            run_mbea(g)
            best = min(best, time.perf_counter() - t0)
        times.append(best)
    times.sort()
    mid = len(times) // 2
    if len(times) % 2:
        return times[mid]
    return 0.5 * (times[mid - 1] + times[mid])


def fit_loglog_slope(points) -> float:
    """Least-squares slope of log(t) against log(n) for (n, t) pairs.

    Raises ValueError unless every n and t is positive and at least two n
    differ: a slope needs two distinct sizes and logarithms need positives.
    """
    if any(n <= 0 or t <= 0 for n, t in points):
        raise ValueError(f"log-log fit needs positive sizes and times, got {points}")
    if len({n for n, _ in points}) < 2:
        raise ValueError(f"log-log fit needs at least two distinct sizes, got {points}")
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = sum((x - mx) ** 2 for x in xs)
    return num / den
