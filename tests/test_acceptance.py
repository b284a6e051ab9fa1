"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The heavy ensemble
criteria use two workers; results are worker-count independent.
"""

import random
import time

import pytest

from mbea.experiments import (
    ExperimentConfig,
    fit_loglog_slope,
    median_runtime,
    rows_to_csv,
    run_backbone_fractions,
    run_error_vs_exact,
)
from mbea.graphs import GenConfig, complete_graph, cycle_graph, generate_er
from mbea.leaf_removal import leaf_removal_ranks
from mbea.oracle import enumerate_min_covers, exact_min_cover
from mbea.rsg import UNFROZEN
from mbea.solver import cover_from_rsg, run_mbea
from mbea.space import diff_spaces

from conftest import assert_compatible_matches_brute_force, is_cover


def _report(number: int, name: str, started: float) -> None:
    print(f"\nACCEPTANCE {number} ({name}): PASS ({time.perf_counter() - started:.1f}s)")


def test_criterion_1_core_free_exactness():
    """On core-free instances the represented space equals the true space."""
    started = time.perf_counter()
    checked = 0
    seed = 0
    while checked < 200:
        seed += 1
        g = generate_er(GenConfig(n=24, mean_degree=2.0, seed=seed))
        ranks = leaf_removal_ranks(g)
        if not ranks.core_empty:
            continue
        checked += 1
        res = run_mbea(g, ranks)
        mine = res.rsg.enumerate_assignments()
        true = enumerate_min_covers(g, budget=24)
        report = diff_spaces(mine, true)
        assert report.equal, f"solution sets differ on seed {seed}"
        assert report.size_delta == 0
        assert report.summaries_equal, f"frozen sets or pairs differ on seed {seed}"
        assert len(mine.assignments) == len(true.assignments)
    elapsed = time.perf_counter() - started
    assert elapsed < 120, f"criterion 1 took {elapsed:.0f}s, expected under 2 minutes"
    _report(1, "core-free exactness, 200 instances", started)


# Core-free instances on which criterion 1 fails: the represented space
# lacks 2 of the 21 (seed 3731) and 2 of the 118 (seed 1237) minimum covers.
# The seeds lie beyond the 200 that criterion 1 checks.
CRITERION_1_FAULT_SEEDS = (3731, 1237)


def _core_free_spaces(seed):
    g = generate_er(GenConfig(n=24, mean_degree=2.0, seed=seed))
    ranks = leaf_removal_ranks(g)
    assert ranks.core_empty
    mine = run_mbea(g, ranks).rsg.enumerate_assignments()
    return mine, enumerate_min_covers(g, budget=24)


@pytest.mark.parametrize("seed", CRITERION_1_FAULT_SEEDS)
def test_criterion_1_fault_instances_represent_only_minimum_covers(seed):
    mine, true = _core_free_spaces(seed)
    assert diff_spaces(mine, true).subset


@pytest.mark.xfail(strict=True, reason="known criterion-1 fault: two minimum covers missing")
@pytest.mark.parametrize("seed", CRITERION_1_FAULT_SEEDS)
def test_criterion_1_fault_instances_exact(seed):
    mine, true = _core_free_spaces(seed)
    assert diff_spaces(mine, true).equal


def test_criterion_2_error_against_exact():
    """Mean (cover - exact)/n stays within tolerance per mean degree."""
    started = time.perf_counter()
    cfg = ExperimentConfig(
        c_grid=(2.0, 4.0, 6.0),
        n_grid=(20, 30, 40, 50, 60),
        instances=200,
        seed=2026,
        oracle_budget=150,
        workers=2,
    )
    rows = run_error_vs_exact(cfg)
    tolerance = {2.0: 0.01, 4.0: 0.05, 6.0: 0.05}
    for row in rows:
        assert row.refusal_frac == 0.0
        assert row.err_mean is not None and row.err_mean >= 0.0
        assert row.err_mean <= tolerance[row.c], (
            f"c={row.c} n={row.n}: mean error {row.err_mean:.4f} "
            f"exceeds {tolerance[row.c]}"
        )
    elapsed = time.perf_counter() - started
    assert elapsed < 600, f"criterion 2 took {elapsed:.0f}s, expected under 10 minutes"
    _report(2, "error vs exact on the (c, n) grid", started)


def test_criterion_3_golden_structures():
    started = time.perf_counter()
    for n in (3, 5, 8):
        res = run_mbea(complete_graph(n), validate=True)
        sols = res.rsg.enumerate_assignments()
        assert res.cover_size == n - 1, f"K{n} cover size"
        assert len(sols.assignments) == 2, f"K{n} represented solutions"
    for half in (2, 3, 5):
        m = 2 * half
        res = run_mbea(cycle_graph(m), validate=True)
        sols = res.rsg.enumerate_assignments()
        assert res.cover_size == half, f"C{m} cover size"
        assert len(sols.assignments) == 2, f"C{m} represented solutions"
        assert all(s == UNFROZEN for s in res.rsg.state), f"C{m} not all unfrozen"
        doubles = {
            (u, v) for u in range(m) for v in res.rsg.double_adj[u] if u < v
        }
        assert len(doubles) == half, f"C{m} double edge count"
        touched = [u for pair in doubles for u in pair]
        assert sorted(touched) == list(range(m)), f"C{m} doubles not alternating"
    _report(3, "complete graphs and even cycles", started)


@pytest.mark.slow
def test_criterion_4_backbone_fraction_monotonicity():
    started = time.perf_counter()
    cfg = ExperimentConfig(
        c_grid=tuple(float(c) for c in range(1, 11)),
        n_grid=(2000,),
        instances=100,
        seed=4242,
        workers=2,
    )
    rows = run_backbone_fractions(cfg)
    neg = [row.neg_frac for row in rows]
    pos = [row.pos_frac for row in rows]
    assert all(b >= a for a, b in zip(neg, neg[1:])), f"neg fractions not monotone: {neg}"
    assert all(b <= a for a, b in zip(pos, pos[1:])), f"pos fractions not monotone: {pos}"
    elapsed = time.perf_counter() - started
    assert elapsed < 600, f"criterion 4 took {elapsed:.0f}s, expected under 10 minutes"
    _report(4, "backbone fraction monotonicity at n=2000", started)


@pytest.mark.slow
def test_criterion_5_runtime_scaling():
    started = time.perf_counter()
    points = []
    for n in (1000, 2000, 4000, 8000):
        points.append((n, median_runtime(n, 4.0, seeds=(11, 22, 33))))
    slope = fit_loglog_slope(points)
    print(f"\n  scaling points: {[(n, round(t, 3)) for n, t in points]}")
    assert slope <= 2.3, f"fitted slope {slope:.2f} exceeds 2.3"
    _report(5, f"runtime scaling, slope {slope:.2f}", started)


def test_criterion_6_property_suites():
    started = time.perf_counter()

    # invariant validator over at least 10000 randomized evolution steps
    steps = 0
    seed = 0
    while steps < 10_000:
        seed += 1
        rng = random.Random(seed)
        n = rng.randint(6, 20)
        c = rng.uniform(0.5, 4.5)
        g = generate_er(GenConfig(n=n, mean_degree=min(c, n - 1), seed=seed))
        ranks = leaf_removal_ranks(g)
        res = run_mbea(g, ranks, validate=True)  # deep-validates after every step
        steps += n

        sols = res.rsg.enumerate_assignments(limit=5000)
        sizes = {a.cover_size for a in sols.assignments}
        assert sizes == {res.cover_size}, f"mixed cover sizes on seed {seed}"
        for a in sols.assignments:
            assert is_cover(g, a.covered()), f"invalid cover on seed {seed}"

        asg = cover_from_rsg(res)
        assert is_cover(g, asg.covered())
        exact = exact_min_cover(g)
        assert asg.cover_size >= exact
        if ranks.core_empty:
            assert asg.cover_size == exact, f"core-free gap on seed {seed}"

    # the simultaneity test against brute force: every target set of 1-3
    # unfrozen nodes, in every order
    sets = incompatible = 0
    for inst in range(25):
        g = generate_er(GenConfig(n=14, mean_degree=2.5, seed=9000 + inst))
        checked, failed = assert_compatible_matches_brute_force(run_mbea(g).rsg)
        sets += checked
        incompatible += failed
    assert 0 < incompatible < sets
    print(f"\n  validated {steps} evolution steps, {sets} target sets ({incompatible} incompatible)")
    _report(6, "invariant and property suites", started)


def test_criterion_7_deterministic_reports():
    started = time.perf_counter()
    cfg1 = ExperimentConfig(c_grid=(1.0, 3.0), n_grid=(60,), instances=10, seed=77, workers=1)
    cfg2 = ExperimentConfig(c_grid=(1.0, 3.0), n_grid=(60,), instances=10, seed=77, workers=2)
    first = rows_to_csv(run_backbone_fractions(cfg1))
    again = rows_to_csv(run_backbone_fractions(cfg1))
    parallel = rows_to_csv(run_backbone_fractions(cfg2))
    assert first == again, "rerun changed report bytes"
    assert first == parallel, "worker count changed report bytes"
    other_seed = rows_to_csv(
        run_backbone_fractions(
            ExperimentConfig(c_grid=(1.0, 3.0), n_grid=(60,), instances=10, seed=78)
        )
    )
    assert other_seed != first
    _report(7, "byte-identical reports across reruns and workers", started)
