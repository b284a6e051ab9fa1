import json
import subprocess
import sys
from pathlib import Path

import pytest

from mbea.experiments import (
    CSV_HEADER,
    ExperimentConfig,
    derive_seed,
    fit_loglog_slope,
    rows_to_csv,
    rows_to_json,
    run_backbone_fractions,
    run_error_vs_exact,
)


def small_cfg(**kw):
    base = dict(c_grid=(1.0, 2.0), n_grid=(30,), instances=5, seed=7)
    base.update(kw)
    return ExperimentConfig(**base)


def test_derive_seed_is_stable_and_spread():
    assert derive_seed(1, 0, 0, 0) == derive_seed(1, 0, 0, 0)
    seen = {derive_seed(1, c, n, k) for c in range(3) for n in range(3) for k in range(10)}
    assert len(seen) == 90


def test_zero_degree_row():
    rows = run_backbone_fractions(small_cfg(c_grid=(0.0,), n_grid=(40,)))
    row = rows[0]
    assert row.pos_frac == 1.0
    assert row.neg_frac == 0.0 and row.unfrozen_frac == 0.0
    assert row.x_mean == 0.0
    assert row.core_empty_frac == 1.0


def test_single_edge_coverage_is_half():
    rows = run_backbone_fractions(small_cfg(c_grid=(1.0,), n_grid=(2,), instances=8))
    assert rows[0].x_mean == 0.5
    assert rows[0].x_stderr == 0.0


def test_fractions_sum_to_one():
    rows = run_backbone_fractions(small_cfg(c_grid=(0.5, 2.0, 4.0), instances=4))
    for row in rows:
        assert abs(row.pos_frac + row.neg_frac + row.unfrozen_frac - 1.0) < 1e-9


def test_error_rows_nonnegative_and_small_core_free():
    rows = run_error_vs_exact(small_cfg(c_grid=(2.0,), n_grid=(20, 30), instances=20))
    for row in rows:
        assert row.err_mean is not None and row.err_mean >= 0.0
        assert row.refusal_frac == 0.0


def test_error_budget_refusal_recorded():
    rows = run_error_vs_exact(small_cfg(n_grid=(30,), oracle_budget=10, instances=3))
    assert rows[0].err_mean is None
    assert rows[0].refusal_frac == 1.0


def test_csv_layout_and_determinism():
    cfg = small_cfg()
    first = rows_to_csv(run_backbone_fractions(cfg))
    second = rows_to_csv(run_backbone_fractions(cfg))
    assert first == second
    lines = first.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(cfg.c_grid) * len(cfg.n_grid)
    assert lines[1].split(",")[0] == "1.0"


def test_worker_count_does_not_change_bytes():
    # 10 tasks: a multiple of neither worker count, so the shares are uneven
    serial = rows_to_csv(run_backbone_fractions(small_cfg(workers=1)))
    for workers in (2, 3):
        assert rows_to_csv(run_backbone_fractions(small_cfg(workers=workers))) == serial


def test_json_mirror_matches_rows():
    rows = run_backbone_fractions(small_cfg())
    docs = json.loads(rows_to_json(rows))
    assert len(docs) == len(rows)
    assert docs[0]["c"] == rows[0].c
    assert docs[0]["x_mean"] == rows[0].x_mean
    assert "refusal_frac" in docs[0]


def test_empty_err_fields_serialise_blank():
    rows = run_backbone_fractions(small_cfg(c_grid=(1.0,)))
    line = rows_to_csv(rows).strip().split("\n")[1]
    assert line.endswith(",,")


def test_fit_loglog_slope_linear_data():
    pts = [(10, 2.0), (100, 20.0), (1000, 200.0)]
    assert abs(fit_loglog_slope(pts) - 1.0) < 1e-9
    quad = [(10, 1.0), (100, 100.0), (1000, 10000.0)]
    assert abs(fit_loglog_slope(quad) - 2.0) < 1e-9


@pytest.mark.parametrize(
    "points, problem",
    [
        ([(1000, 0.5)], "two distinct sizes"),
        ([(1000, 0.5), (1000, 0.7)], "two distinct sizes"),
        ([(1000, 0.5), (2000, 0.0)], "positive sizes and times"),
    ],
    ids=["one-size", "repeated-size", "zero-time"],
)
def test_fit_loglog_slope_rejects_degenerate_points(points, problem):
    with pytest.raises(ValueError, match=problem):
        fit_loglog_slope(points)


def test_scaling_benchmark_single_size_exits_one_line():
    script = Path(__file__).resolve().parents[1] / "scripts" / "scaling_benchmark.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--sizes", "10", "--seeds", "1"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr.count("\n") == 1 and "two distinct sizes" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(c_grid=(1.0,), n_grid=(10,), instances=0, seed=1).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(c_grid=(-1.0,), n_grid=(10,), instances=1, seed=1).validate()
    for bad, problem in (
        (dict(workers=0), "workers must be >= 1, got 0"),
        (dict(workers=-3), "workers must be >= 1, got -3"),
        (dict(oracle_budget=-5), "oracle_budget must be >= 0, got -5"),
    ):
        with pytest.raises(ValueError, match=f"^{problem}$"):
            small_cfg(**bad).validate()
    small_cfg(oracle_budget=0).validate()


def test_pool_starts_no_more_workers_than_tasks(monkeypatch):
    """The pool is replaced by an in-process recorder: no process starts."""
    asked = []

    class RecordingPool:
        def __init__(self, processes):
            asked.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, tasks, chunksize=1):
            return [func(t) for t in tasks]

    serial = rows_to_csv(run_backbone_fractions(small_cfg()))
    monkeypatch.setattr("mbea.experiments.Pool", RecordingPool)
    for workers in (64, 10, 3):
        assert rows_to_csv(run_backbone_fractions(small_cfg(workers=workers))) == serial
    assert run_backbone_fractions(small_cfg(workers=64, c_grid=(1.0,), instances=1))
    assert asked == [10, 10, 3]
