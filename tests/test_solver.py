import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

from mbea.graphs import GenConfig, Graph, complete_graph, cycle_graph, generate_er, path_graph
from mbea.leaf_removal import RankAssignment, leaf_removal_ranks
from mbea.oracle import enumerate_min_covers, exact_min_cover
from mbea.rsg import NEG_FROZEN, POS_FROZEN, UNFROZEN
from mbea.solver import cover_from_rsg, run_mbea
from mbea.space import diff_spaces

from conftest import graphs, is_cover

# the large-n theory references live with the benchmark, apart from the solver
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from reference import weigt_hartmann_tolerance, weigt_hartmann_x  # noqa: E402


def test_single_edge():
    res = run_mbea(Graph(2, [(0, 1)]), validate=True)
    assert res.cover_size == 1
    assert res.rsg.edge_kind(0, 1) == "double"
    assert res.rsg.state == [UNFROZEN, UNFROZEN]
    assert len(res.rsg.enumerate_assignments().assignments) == 2
    assert res.case_counts["A"] == 1 and res.case_counts["C"] == 1


def test_path_three():
    res = run_mbea(path_graph(3), validate=True)
    assert res.cover_size == 1
    assert res.rsg.state[0] == POS_FROZEN
    assert res.rsg.state[2] == POS_FROZEN
    assert res.rsg.state[1] == NEG_FROZEN
    assert res.case_counts["B"] == 1


def test_complete_five():
    res = run_mbea(complete_graph(5), validate=True)
    assert res.cover_size == 4
    unfrozen, pos, neg = res.rsg.state_counts()
    assert (unfrozen, pos, neg) == (2, 0, 3)
    doubles = sum(len(d) for d in res.rsg.double_adj) // 2
    assert doubles == 1
    assert len(res.rsg.enumerate_assignments().assignments) == 2
    assert res.case_counts["D"] == 3


def test_cycle_four_fires_case_e():
    res = run_mbea(cycle_graph(4), validate=True)
    assert res.cover_size == 2
    assert all(s == UNFROZEN for s in res.rsg.state)
    assert res.case_counts["E"] == 1
    doubles = {
        (u, v)
        for u in range(4)
        for v in res.rsg.double_adj[u]
        if u < v
    }
    assert doubles in ({(0, 1), (2, 3)}, {(1, 2), (0, 3)})


def test_trace_records_cases():
    res = run_mbea(path_graph(3), trace=True)
    assert [t.case for t in res.trace] == ["C", "C", "B"]
    assert res.trace[2].node == 1
    assert run_mbea(path_graph(3)).trace is None


def test_rank_mismatch_rejected():
    bad = RankAssignment(rank=(1,), in_core=(False,), max_rank=1)
    with pytest.raises(ValueError):
        run_mbea(path_graph(3), ranks=bad)


def test_cover_from_rsg_all_frozen():
    res = run_mbea(path_graph(3))
    asg = cover_from_rsg(res)
    assert asg.covered() == {1}
    assert asg.cover_size == 1


def test_cover_from_rsg_prefers_uncovered_low_ids():
    res = run_mbea(Graph(2, [(0, 1)]))
    asg = cover_from_rsg(res)
    assert asg.spin[0] == 1 and asg.spin[1] == -1


def test_cover_from_rsg_complete_graph():
    res = run_mbea(complete_graph(5))
    asg = cover_from_rsg(res)
    assert asg.cover_size == 4
    assert is_cover(complete_graph(5), asg.covered())


def test_determinism():
    g = generate_er(GenConfig(n=300, mean_degree=3.0, seed=9))
    a = run_mbea(g)
    b = run_mbea(g)
    assert a.cover_size == b.cover_size
    assert a.rsg.state == b.rsg.state
    assert a.rsg.mark == b.rsg.mark
    assert [sorted(d) for d in a.rsg.double_adj] == [sorted(d) for d in b.rsg.double_adj]


def test_degenerate_graphs():
    assert run_mbea(Graph(0, [])).cover_size == 0
    res = run_mbea(Graph(1, []), validate=True)
    assert res.cover_size == 0
    assert res.rsg.state[0] == POS_FROZEN


def test_dense_instance_smoke():
    """A leaf-removal-core-heavy instance: cover stays valid and deterministic
    even where extraction falls back to the heuristic path."""
    g = generate_er(GenConfig(n=1500, mean_degree=6.0, seed=6))
    first = run_mbea(g)
    asg = cover_from_rsg(first)
    assert is_cover(g, asg.covered())
    assert asg.cover_size == first.cover_size
    again = run_mbea(g)
    assert again.cover_size == first.cover_size
    assert again.rsg.state == first.rsg.state


@pytest.mark.parametrize("c", [0.5, 1.0, 1.5, 2.0, 2.5])
def test_cover_fraction_matches_weigt_hartmann_beyond_the_oracle(c):
    """Below c=e the mean cover fraction at n=4000, far past the exact
    oracle's reach, matches the Weigt-Hartmann x(c) of the large-n limit."""
    n = 4000
    xs = [run_mbea(generate_er(GenConfig(n, c, seed))).cover_size / n for seed in range(1, 11)]
    assert abs(sum(xs) / len(xs) - weigt_hartmann_x(c)) <= weigt_hartmann_tolerance(xs, n)


@pytest.mark.slow
def test_greedy_fallback_on_large_component_does_not_recurse():
    # leaves an unfrozen component of 4278 nodes, minimised by the
    # first-assignment fallback, whose search is deeper than the default
    # recursion limit
    g = generate_er(GenConfig(n=20000, mean_degree=2.0, seed=3))
    res = run_mbea(g)
    assert res.fallbacks == 1  # the component's cycle rank, 136, is above the cap
    asg = cover_from_rsg(res)
    assert is_cover(g, asg.covered())
    assert asg.cover_size == res.cover_size


@pytest.mark.parametrize(
    "c, seed, fallbacks",
    [
        # a 430-node component (cycle rank 45) runs the branch budget out;
        # the whole search would charge 854,772 units
        (3, 8, 1),
        # a 672-node component has cycle rank 66, above the cap
        (3, 1, 1),
        # once needed an exact search of a 381-node component (cycle rank
        # 52); no component left has cycle rank above 1
        (7, 8, 0),
    ],
)
def test_minimiser_fallback_decisions_on_er_2000(c, seed, fallbacks):
    """The components the first-assignment fallback minimises: an exact
    search that runs the branch budget out, a cycle rank above the cap, and
    no fallback where only small cycle ranks are left."""
    res = run_mbea(generate_er(GenConfig(2000, float(c), seed)))
    assert res.fallbacks == fallbacks


@settings(max_examples=80, deadline=None)
@given(graphs(max_n=12))
def test_cover_always_valid_and_never_below_oracle(g):
    res = run_mbea(g, validate=True)
    asg = cover_from_rsg(res)
    assert is_cover(g, asg.covered())
    assert asg.cover_size == res.cover_size
    assert res.cover_size >= exact_min_cover(g)


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=12))
def test_enumerated_assignments_share_size_and_cover(g):
    res = run_mbea(g)
    sols = res.rsg.enumerate_assignments(limit=4096)
    sizes = {a.cover_size for a in sols.assignments}
    assert sizes == {res.cover_size}
    for a in sols.assignments:
        assert is_cover(g, a.covered())


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=10))
def test_unfrozen_nodes_take_both_spins(g):
    """No implied backbone survives: every unfrozen node extends both ways."""
    res = run_mbea(g)
    rsg = res.rsg
    for comp in rsg.unfrozen_components():
        sols = rsg._component_assignments(comp)
        for u in comp:
            assert {s[u] for s in sols} == {1, -1}


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=11))
def test_core_free_instances_reproduce_the_full_space(g):
    ranks = leaf_removal_ranks(g)
    res = run_mbea(g, ranks, validate=True)
    if ranks.core_empty:
        mine = res.rsg.enumerate_assignments()
        true = enumerate_min_covers(g, budget=16)
        report = diff_spaces(mine, true)
        assert report.equal and report.size_delta == 0


def test_every_graph_up_to_five_nodes():
    """Exhaustive check over all 1024 labelled graphs on five nodes."""
    from itertools import combinations

    pairs = list(combinations(range(5), 2))
    for mask in range(1 << len(pairs)):
        g = Graph(5, [p for k, p in enumerate(pairs) if mask >> k & 1])
        ranks = leaf_removal_ranks(g)
        res = run_mbea(g, ranks, validate=True)
        exact = exact_min_cover(g)
        assert res.cover_size >= exact
        mine = res.rsg.enumerate_assignments()
        assert {a.cover_size for a in mine.assignments} == {res.cover_size}
        if ranks.core_empty:
            assert diff_spaces(mine, enumerate_min_covers(g)).equal


@pytest.mark.parametrize(
    "kind, n", [("path", 1000), ("path", 1001), ("cycle", 1000), ("cycle", 1001)]
)
def test_long_chains_match_closed_forms(kind, n):
    """Cover size floor(n/2) on paths and ceil(n/2) on cycles; the represented
    space holds n/2+1 covers on even paths, 1 on odd paths and 2 on even
    cycles (a nonempty subspace of the minimum covers on odd cycles), each
    one valid and of that size."""
    g = path_graph(n) if kind == "path" else cycle_graph(n)
    cover = n // 2 if kind == "path" else (n + 1) // 2
    count = {("path", 0): n // 2 + 1, ("path", 1): 1, ("cycle", 0): 2}.get((kind, n % 2))
    res = run_mbea(g)
    assert res.cover_size == cover
    assert cover_from_rsg(res).cover_size == cover
    represented = res.rsg.enumerate_assignments().assignments
    assert represented if count is None else len(represented) == count
    for a in represented:
        assert a.cover_size == cover
        assert is_cover(g, a.covered())
