import random

import pytest
from hypothesis import given, settings

from mbea.graphs import Graph, cycle_graph
from mbea.leaf_removal import leaf_removal_ranks
from mbea.rsg import (
    NEG_FROZEN,
    POS_FROZEN,
    UNFROZEN,
    ReducedSolutionGraph,
    RsgInvariantError,
    dot_from_json,
)

from conftest import trees


def all_unfrozen(graph, doubles=()):
    return ReducedSolutionGraph.from_parts(graph, doubles=doubles)


# ---------------------------------------------------------------- compatible


def test_compatible_disjoint_cones():
    g = Graph(4, [(0, 1), (2, 3)])
    rsg = all_unfrozen(g, doubles=[(0, 1), (2, 3)])
    assert rsg.compatible_minus_one([0, 2])


def test_compatible_incompatible_chain():
    # alternating doubles placed so covering one end forces the other end
    # uncovered: a=b-c=d-e=f, targets a and f
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    rsg = all_unfrozen(g, doubles=[(0, 1), (2, 3), (4, 5)])
    assert not rsg.compatible_minus_one([0, 5])


def test_compatible_compatible_chain():
    # same skeleton, phase shifted: both ends may be covered together
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    rsg = all_unfrozen(g, doubles=[(0, 1), (2, 3)])
    assert rsg.compatible_minus_one([0, 4])


def test_compatible_rejects_frozen_target():
    g = Graph(2, [(0, 1)])
    rsg = ReducedSolutionGraph.from_parts(
        g, states={0: POS_FROZEN}, marks={0: 0}
    )
    with pytest.raises(ValueError):
        rsg.compatible_minus_one([0])


def test_compatible_order_independence():
    g = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (0, 7)])
    rsg = all_unfrozen(g, doubles=[(0, 1), (2, 3), (4, 5), (6, 7)])
    baseline = rsg.compatible_minus_one([0, 4])
    for trial in range(100):
        rng = random.Random(trial)
        assert rsg.compatible_minus_one([0, 4], rng=rng) == baseline


# ------------------------------------------------------------------ freezing


def test_freezing_one_level():
    g = Graph(3, [(0, 1), (0, 2)])
    rsg = ReducedSolutionGraph.from_parts(g, states={0: POS_FROZEN}, marks={0: 0})
    rsg.freezing(0)
    assert rsg.state[1] == NEG_FROZEN and rsg.mark[1] == 0
    assert rsg.state[2] == NEG_FROZEN and rsg.mark[2] == 0


def test_freezing_chain_through_double():
    # i(+1) -plain- a =double= b -plain- c
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    rsg = ReducedSolutionGraph.from_parts(
        g, states={0: POS_FROZEN}, marks={0: 0}, doubles=[(1, 2)]
    )
    rsg.freezing(0)
    assert rsg.state[1] == NEG_FROZEN
    assert rsg.state[2] == POS_FROZEN
    assert rsg.state[3] == NEG_FROZEN
    assert rsg.mark[1] == rsg.mark[2] == rsg.mark[3] == 0


def test_freezing_covered_node_without_doubles_is_noop():
    g = Graph(3, [(0, 1), (0, 2)])
    rsg = ReducedSolutionGraph.from_parts(g, states={0: NEG_FROZEN}, marks={0: 0})
    rsg.freezing(0)
    assert rsg.state[1] == UNFROZEN and rsg.state[2] == UNFROZEN


# ----------------------------------------------------------------- releasing


def test_releasing_without_marked_neighbours():
    g = Graph(3, [(0, 1), (0, 2)])
    rsg = ReducedSolutionGraph.from_parts(g, states={0: POS_FROZEN}, marks={0: 0})
    rsg.releasing(0, 0)
    assert rsg.state[0] == UNFROZEN and rsg.mark[0] == -1
    assert rsg.state[1] == UNFROZEN and rsg.state[2] == UNFROZEN


def test_releasing_checking_technique_blocks():
    # cascade root 0 froze 1; 1 also borders a foreign uncovered node 2
    g = Graph(3, [(0, 1), (1, 2)])
    rsg = ReducedSolutionGraph.from_parts(
        g,
        states={0: POS_FROZEN, 1: NEG_FROZEN, 2: POS_FROZEN},
        marks={0: 0, 1: 0, 2: 2},
    )
    rsg.releasing(0, 0)
    assert rsg.state[0] == UNFROZEN
    assert rsg.state[1] == NEG_FROZEN  # still pinned by node 2
    assert rsg.state[2] == POS_FROZEN


def test_releasing_full_cascade():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    rsg = ReducedSolutionGraph.from_parts(
        g, states={0: POS_FROZEN}, marks={0: 0}, doubles=[(1, 2)]
    )
    rsg.freezing(0)
    rsg.releasing(0, 0)
    assert all(rsg.state[u] == UNFROZEN for u in range(4))


@settings(max_examples=60)
@given(trees(max_n=10))
def test_freeze_release_roundtrip_on_trees(g):
    """Freezing a cascade and releasing the same mark restores the state."""
    rsg = ReducedSolutionGraph(g)
    for u in range(g.n):
        rsg.activate(u)
    root = 0
    rsg.freeze_pos(root, root)
    rsg.freezing(root)
    before = (list(rsg.state), list(rsg.mark))
    rsg.releasing(root, root)
    assert all(rsg.state[u] == UNFROZEN for u in range(g.n))
    assert all(rsg.mark[u] == -1 for u in range(g.n))
    # freezing again reproduces the same cascade
    rsg.freeze_pos(root, root)
    rsg.freezing(root)
    assert (list(rsg.state), list(rsg.mark)) == before


# ---------------------------------------------------------------- rechecking


def test_rechecking_vacuous():
    g = Graph(3, [(0, 1), (1, 2)])
    rsg = all_unfrozen(g)
    before = list(rsg.state)
    rsg.rechecking()
    assert list(rsg.state) == before


def test_rechecking_two_foreign_pins_unchanged():
    g = Graph(3, [(0, 1), (1, 2)])
    rsg = ReducedSolutionGraph.from_parts(
        g,
        states={0: POS_FROZEN, 1: NEG_FROZEN, 2: POS_FROZEN},
        marks={0: 0, 1: 3, 2: 2},
        active={0, 1, 2},
    )
    rsg.rechecking()
    assert rsg.state[1] == NEG_FROZEN


def test_rechecking_releases_pair_and_cascade():
    # 0 covered by cascade 2, its only uncovered neighbour 2 shares the mark;
    # 1 is a further member of the same cascade
    g = Graph(3, [(0, 2), (1, 2)])
    rsg = ReducedSolutionGraph.from_parts(
        g,
        states={0: NEG_FROZEN, 1: NEG_FROZEN, 2: POS_FROZEN},
        marks={0: 2, 1: 2, 2: 2},
    )
    rsg.rechecking()
    assert rsg.state[0] == UNFROZEN
    assert rsg.state[2] == UNFROZEN
    assert rsg.state[1] == UNFROZEN
    assert rsg.edge_kind(0, 2) == "double"


def test_rechecking_skips_foreign_pair():
    # the only uncovered neighbour belongs to a different cascade: no release
    g = Graph(2, [(0, 1)])
    rsg = ReducedSolutionGraph.from_parts(
        g, states={0: NEG_FROZEN, 1: POS_FROZEN}, marks={0: 5, 1: 1}, active={0, 1}
    )
    rsg.rechecking()
    assert rsg.state[0] == NEG_FROZEN
    assert rsg.state[1] == POS_FROZEN


# ----------------------------------------------------------- odd cycle break


def test_break_leaves_trees_alone():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    rsg = all_unfrozen(g, doubles=[(0, 1), (2, 3)])
    rsg.break_odd_cycles(set(range(4)))
    assert all(rsg.state[u] == UNFROZEN for u in range(4))


def test_break_freezes_lowest_rank_on_odd_cycle():
    # seven-cycle with three alternating doubles: node 0 cannot be uncovered
    g = cycle_graph(7)
    rsg = all_unfrozen(g, doubles=[(1, 2), (3, 4), (5, 6)])
    rsg.break_odd_cycles(set(range(7)))
    assert rsg.state[0] == NEG_FROZEN and rsg.mark[0] == 0
    assert all(rsg.state[u] == UNFROZEN for u in range(1, 7))


def test_break_keeps_even_alternating_cycle():
    g = cycle_graph(8)
    rsg = all_unfrozen(g, doubles=[(0, 1), (2, 3), (4, 5), (6, 7)])
    rsg.break_odd_cycles(set(range(8)))
    assert all(rsg.state[u] == UNFROZEN for u in range(8))


def test_break_freezes_partner_of_stuck_double():
    # double partner is permanently covered: the node can never be covered
    g = Graph(2, [(0, 1)])
    rsg = ReducedSolutionGraph.from_parts(
        g, states={1: NEG_FROZEN}, marks={1: 1}, doubles=[(0, 1)]
    )
    rsg.break_odd_cycles({0, 1})
    assert rsg.state[0] == POS_FROZEN


def test_break_freezes_slack_node():
    # all neighbours covered, no doubles: covering node 0 is never minimal
    g = Graph(3, [(0, 1), (0, 2)])
    rsg = ReducedSolutionGraph.from_parts(
        g, states={1: NEG_FROZEN, 2: NEG_FROZEN}, marks={1: 1, 2: 2}
    )
    rsg.break_odd_cycles({0, 1, 2})
    assert rsg.state[0] == POS_FROZEN


def test_break_adds_double_for_pendant_pair():
    # node 0's only unfrozen neighbour is 1: exactly one of them is covered
    g = Graph(3, [(0, 1), (1, 2)])
    rsg = ReducedSolutionGraph.from_parts(g, states={2: NEG_FROZEN}, marks={2: 2})
    rsg.break_odd_cycles({0, 1, 2})
    assert rsg.edge_kind(0, 1) == "double"


# --------------------------------------------------------------- enumeration


def test_enumerate_all_frozen():
    g = Graph(3, [(0, 1), (1, 2)])
    rsg = ReducedSolutionGraph.from_parts(
        g,
        states={0: POS_FROZEN, 1: NEG_FROZEN, 2: POS_FROZEN},
        marks={0: 0, 1: 1, 2: 2},
    )
    sols = rsg.enumerate_assignments()
    assert len(sols.assignments) == 1
    assert sols.assignments[0].covered() == {1}
    assert sols.min_cover_size == 1


def test_enumerate_single_double_edge():
    g = Graph(2, [(0, 1)])
    rsg = all_unfrozen(g, doubles=[(0, 1)])
    sols = rsg.enumerate_assignments()
    assert sorted(sorted(a.covered()) for a in sols.assignments) == [[0], [1]]


def test_enumerate_alternating_c4():
    g = cycle_graph(4)
    rsg = all_unfrozen(g, doubles=[(0, 1), (2, 3)])
    sols = rsg.enumerate_assignments()
    assert sorted(sorted(a.covered()) for a in sols.assignments) == [[0, 2], [1, 3]]
    assert sols.min_cover_size == 2


def test_enumerate_limit_truncates():
    g = Graph(6, [(0, 1), (2, 3), (4, 5)])
    rsg = all_unfrozen(g, doubles=[(0, 1), (2, 3), (4, 5)])
    sols = rsg.enumerate_assignments(limit=3)
    assert sols.truncated and not sols.complete
    assert len(sols.assignments) == 3
    full = rsg.enumerate_assignments(limit=8)
    assert not full.truncated and len(full.assignments) == 8


def test_enumerate_many_components_does_not_recurse():
    # one component per 4-cycle: deeper than the default recursion limit
    cycles = 1500
    edges = []
    doubles = []
    for k in range(cycles):
        a, b, c, d = range(4 * k, 4 * k + 4)
        edges += [(a, b), (b, c), (c, d), (a, d)]
        doubles += [(a, b), (c, d)]
    rsg = all_unfrozen(Graph(4 * cycles, edges), doubles=doubles)
    sols = rsg.enumerate_assignments(limit=1)
    assert sols.truncated and len(sols.assignments) == 1
    assert sols.assignments[0].cover_size == 2 * cycles


# -------------------------------------------------------------------- export


def test_export_json_schema():
    g = Graph(2, [(0, 1)])
    rsg = all_unfrozen(g, doubles=[(0, 1)])
    doc = rsg.to_json_doc()
    assert doc["n"] == 2
    assert doc["edges"] == [{"u": 0, "v": 1, "kind": "double"}]
    node = doc["nodes"][0]
    assert set(node) == {"id", "active", "state", "mark", "rank"}
    assert node["state"] == "unfrozen" and node["mark"] is None


def test_export_empty():
    rsg = ReducedSolutionGraph.from_parts(Graph(0, []), active=set())
    doc = rsg.to_json_doc()
    assert doc == {"n": 0, "nodes": [], "edges": []}


def test_export_dot_styles():
    g = Graph(3, [(0, 1), (1, 2)])
    rsg = ReducedSolutionGraph.from_parts(
        g,
        states={0: POS_FROZEN, 1: NEG_FROZEN, 2: POS_FROZEN},
        marks={0: 0, 1: 1, 2: 2},
    )
    dot = rsg.export_dot()
    assert 'fillcolor="red"' in dot
    assert 'fillcolor="black"' in dot
    assert dot.count("style=dashed") == 2


def test_export_dot_double_edge():
    g = Graph(2, [(0, 1)])
    rsg = all_unfrozen(g, doubles=[(0, 1)])
    dot = rsg.export_dot()
    assert 'color="black:black"' in dot
    assert dot_from_json(rsg.to_json_doc()) == dot


# ------------------------------------------------------------------ validator


def test_validator_accepts_consistent_state():
    g = cycle_graph(4)
    rsg = all_unfrozen(g, doubles=[(0, 1), (2, 3)])
    rsg.validate(deep=True)


def test_validator_rejects_unfrozen_mark():
    g = Graph(2, [(0, 1)])
    rsg = all_unfrozen(g)
    rsg.mark[0] = 1
    with pytest.raises(RsgInvariantError):
        rsg.validate()


def test_validator_rejects_double_uncovered_edge():
    g = Graph(2, [(0, 1)])
    rsg = ReducedSolutionGraph.from_parts(
        g, states={0: POS_FROZEN, 1: POS_FROZEN}, marks={0: 0, 1: 1}
    )
    with pytest.raises(RsgInvariantError):
        rsg.validate()


def test_validator_rejects_stale_counts():
    g = Graph(2, [(0, 1)])
    rsg = ReducedSolutionGraph.from_parts(g, states={0: POS_FROZEN}, marks={0: 0})
    rsg.pos_nbr_count[1] = 5
    with pytest.raises(RsgInvariantError):
        rsg.validate()


def test_copy_is_independent():
    g = cycle_graph(4)
    rsg = all_unfrozen(g, doubles=[(0, 1), (2, 3)])
    dup = rsg.copy()
    dup.freeze_neg(0, 0)
    assert rsg.state[0] == UNFROZEN
