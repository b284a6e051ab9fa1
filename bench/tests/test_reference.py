"""The reference computations, and that every check built on them rejects a
wrong answer."""

import itertools
import math
import random

import pytest

import reference as ref
import workloads as wl


def brute_min_cover(n, edges):
    for k in range(n + 1):
        for sub in itertools.combinations(range(n), k):
            if ref.is_cover(edges, set(sub)):
                return k
    return n


def random_graph(n, m, seed):
    pairs = list(itertools.combinations(range(n), 2))
    return sorted(random.Random(seed).sample(pairs, min(m, len(pairs))))


def path(n):
    return [(i, i + 1) for i in range(n - 1)]


def cycle(n):
    return sorted((min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n))


@pytest.mark.parametrize("seed", range(30))
def test_references_agree_with_brute_force(seed):
    n = 4 + seed % 7
    edges = random_graph(n, seed % 13 + 2, seed)
    exact = brute_min_cover(n, edges)
    assert ref.ilp_min_cover(n, edges) == exact
    assert math.ceil(ref.lp_cover_bound(n, edges) - 1e-9) <= exact
    covered, core = ref.karp_sipser(n, edges)
    if not core:
        assert covered == exact


def test_matching_agrees_with_scipy():
    import numpy as np
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    for seed in range(20):
        n = 30 + seed
        edges = random_graph(n, 2 * n, seed)
        adj = ref.adjacency(n, edges)
        rows = [u for u in range(n) for _ in adj[u]]
        cols = [v for u in range(n) for v in adj[u]]
        graph = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
        expected = int((maximum_bipartite_matching(graph, perm_type="column") >= 0).sum())
        assert ref.max_bipartite_matching(adj, n) == expected


def test_known_values():
    assert ref.karp_sipser(10, path(10)) == (5, [])
    assert ref.karp_sipser(7, cycle(7)) == (0, list(range(7)))
    assert ref.lp_cover_bound(3, cycle(3)) == 1.5
    assert ref.lambert_w(1.0) == pytest.approx(0.5671432904097838, abs=1e-15)
    assert ref.lambert_w(math.e) == pytest.approx(1.0, abs=1e-15)
    assert ref.weigt_hartmann_x(1e-6) == pytest.approx(0.5e-6, rel=1e-5)
    with pytest.raises(ValueError):
        ref.weigt_hartmann_x(3.0)
    assert ref.chain_expectation("path", 10) == (5, 6)
    assert ref.chain_expectation("path", 11) == (5, 1)
    assert ref.chain_expectation("cycle", 10) == (5, 2)
    assert ref.chain_expectation("cycle", 11) == (6, None)


class Graph:
    """Just the two fields the checks read."""

    def __init__(self, n, edges):
        self.n, self.edges, self.m = n, tuple(edges), len(edges)


def spins(n, covered):
    return tuple(-1 if i in covered else 1 for i in range(n))


def test_cover_check_rejects_wrong_covers():
    edges = path(4)
    wl.check_cover(edges, spins(4, {1, 2}), 2, "ok")
    with pytest.raises(wl.CheckFailed):
        wl.check_cover(edges, spins(4, {1, 2, 3}), 2, "one vertex too many")
    with pytest.raises(wl.CheckFailed):
        wl.check_cover(edges, spins(4, {0, 3}), 2, "edge (1,2) uncovered")


def test_bound_checks_reject_wrong_sizes():
    g = Graph(6, path(6))
    wl.check_lower_bounds(g, 3, "ok")
    with pytest.raises(wl.CheckFailed):
        wl.check_lower_bounds(g, 2, "below the LP bound")
    with pytest.raises(wl.CheckFailed):
        wl.check_lower_bounds(g, 4, "core-free but one too large")
    wl.check_lower_bounds(Graph(5, cycle(5)), 4, "with a core only the LP bound applies")


def test_weigt_hartmann_check_rejects_a_shifted_mean():
    n = 20000
    theory = ref.weigt_hartmann_x(1.0)
    rng = random.Random(0)
    good = [theory + rng.gauss(0, 0.17 / math.sqrt(n)) for _ in range(8)]
    tally = wl.Tally()
    wl.check_weigt_hartmann(tally, {1.0: good, 4.0: [0.6]}, n)
    assert tally.wrong == 0
    wl.check_weigt_hartmann(tally, {1.0: [x + 0.01 for x in good]}, n)
    assert tally.wrong == 1


def test_chain_check_rejects_a_cover_one_too_large():
    class Rep:
        assignments = ()

    tally = wl.Tally()
    g = Graph(5, cycle(5))
    with pytest.raises(wl.CheckFailed):
        wl.Chains._check(tally, "cycle", "cycle", g, 4, None, Rep())


def test_oracle_check_rejects_an_exact_above_the_solver(tmp_path):
    class Assignment:
        spin = spins(6, {1, 3, 5})

    workload = wl.OracleExact(1, str(tmp_path))
    g = Graph(6, path(6))
    workload._check_er(wl.Tally(), "ok", g, 3, Assignment(), 3)
    with pytest.raises(wl.CheckFailed):
        workload._check_er(wl.Tally(), "exact too large", g, 3, Assignment(), 4)
    with pytest.raises(wl.CheckFailed):
        workload._check_er(wl.Tally(), "exact below LP", g, 3, Assignment(), 2)


def test_space_check_keeps_the_known_fault_apart_from_wrong_output():
    from mbea import oracle, solver, space

    g = wl.graphs.generate_er(wl.CORE_FREE_FAULT)
    res = solver.run_mbea(g)
    mine = res.rsg.enumerate_assignments()
    true = oracle.enumerate_min_covers(g, budget=g.n)
    with pytest.raises(wl.KnownFault):
        wl.OracleExact._check_space(wl.Tally(), "fault", g, res.cover_size, mine, true, space.diff_spaces(mine, true))
    # a represented cover that is not a minimum cover is wrong output, not the known fault
    bigger = space.SolutionSet(
        assignments=mine.assignments + (space.Assignment.from_cover(g.n, range(g.n)),),
        min_cover_size=mine.min_cover_size, complete=True,
    )
    with pytest.raises(wl.CheckFailed):
        wl.OracleExact._check_space(wl.Tally(), "extra", g, res.cover_size, bigger, true, space.diff_spaces(bigger, true))
    tally = wl.Tally()
    tally.attempted = 1
    workload = wl.OracleExact.__new__(wl.OracleExact)
    workload._checks = [("fault", wl.OracleExact._check_space,
                         ("fault", g, res.cover_size, mine, true, space.diff_spaces(mine, true)))]
    workload.check_round(tally)
    assert tally.failed == 1 and tally.wrong == 0
