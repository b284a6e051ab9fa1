import json
import random

import pytest
from hypothesis import given, settings

from mbea.graphs import GenConfig, Graph, cycle_graph, generate_er, path_graph
from mbea.leaf_removal import RankAssignment, leaf_removal_ranks
from mbea.rsg import (
    NEG_FROZEN,
    POS_FROZEN,
    UNFROZEN,
    ReducedSolutionGraph,
    RsgInvariantError,
    dot_from_json,
)
from mbea.solver import _dispatch, run_mbea

from conftest import graphs, trees


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
    assert rsg.freezing(0) == [0, 1, 2]
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


def test_freezing_contradicting_cascade_raises():
    # 0 uncovered forces both ends of the double edge (1, 2) covered
    g = Graph(3, [(0, 1), (0, 2), (1, 2)])
    rsg = ReducedSolutionGraph.from_parts(
        g, states={0: POS_FROZEN}, marks={0: 0}, doubles=[(1, 2)]
    )
    with pytest.raises(RsgInvariantError):
        rsg.freezing(0)


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


def test_rechecking_releases_the_whole_cascade():
    # 0 fires against 1; 2 belongs to the same cascade but no walk through
    # cascade members reaches it; 3 is a member pinned by a foreign node 4
    g = Graph(5, [(0, 1), (3, 4)])
    rsg = ReducedSolutionGraph.from_parts(
        g,
        states={0: NEG_FROZEN, 1: POS_FROZEN, 2: POS_FROZEN, 3: NEG_FROZEN, 4: POS_FROZEN},
        marks={0: 1, 1: 1, 2: 1, 3: 1, 4: 4},
    )
    assert 2 not in rsg.release_set((0, 1), 1)
    rsg.rechecking()
    assert [rsg.state[u] for u in range(5)] == [
        UNFROZEN, UNFROZEN, UNFROZEN, NEG_FROZEN, POS_FROZEN
    ]
    assert rsg.edge_kind(0, 1) == "double"
    rsg.validate()


def test_case_e_releases_union_of_entry_walks():
    # new node 6 borders 0 and 1, both uncovered in cascade 0; the covered
    # member 2 between them is pinned by the foreign node 3, so the walk
    # from 0 frees only its tail 4 and the walk from 1 only its tail 5
    g = Graph(7, [(0, 2), (1, 2), (2, 3), (0, 4), (1, 5), (0, 6), (1, 6)])
    rsg = ReducedSolutionGraph.from_parts(
        g,
        states={0: POS_FROZEN, 1: POS_FROZEN, 2: NEG_FROZEN, 3: POS_FROZEN,
                4: NEG_FROZEN, 5: NEG_FROZEN},
        marks={0: 0, 1: 0, 2: 0, 3: 3, 4: 0, 5: 0},
        active=set(range(6)),
    )
    walks = [rsg.release_set((p,), 0) for p in (0, 1)]
    assert walks == [{0, 4}, {1, 5}]
    rsg.activate(6)
    assert _dispatch(rsg, 6) == "E"
    assert {u for u in range(6) if rsg.state[u] == UNFROZEN} == walks[0] | walks[1]
    assert rsg.state[2] == NEG_FROZEN and rsg.state[3] == POS_FROZEN
    rsg.validate()


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


def _random_graphs(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(6, 40)
        c = rng.uniform(0.5, 5.0)
        yield generate_er(GenConfig(n, c, rng.randrange(10**6)))


def _solved(res):
    return res.rsg.export_json(), res.case_counts, res.spins, res.trace


def test_probe_passes_kept_across_sweeps_match_fresh_probes(monkeypatch):
    """Passes kept across sweeps, chain heads probed first and failures
    recorded per sweep decide exactly as probing each literal afresh would."""
    graphs = list(_random_graphs(240, seed=5))
    graphs += [path_graph(n) for n in range(2, 40)]
    graphs += [cycle_graph(n) for n in range(3, 40)]
    long_chains = [path_graph(200), cycle_graph(200), cycle_graph(201)]
    kept = [_solved(run_mbea(g, trace=True, validate=True)) for g in graphs]
    kept += [_solved(run_mbea(g, trace=True)) for g in long_chains]
    sweep = ReducedSolutionGraph.break_odd_cycles

    def fresh_sweep(self, touched, additions=True):
        self._okp[:] = [False] * self.graph.n
        self._okn[:] = [False] * self.graph.n
        return sweep(self, touched, additions)

    monkeypatch.setattr(ReducedSolutionGraph, "break_odd_cycles", fresh_sweep)
    monkeypatch.setattr(ReducedSolutionGraph, "_chain_head", lambda self, x, failed: x)
    for g, expect in zip(graphs + long_chains, kept):
        assert _solved(run_mbea(g, trace=True)) == expect, g


def test_failed_chain_head_is_forgotten_when_the_sweep_ends():
    """u=0 probes its chain head h=2 first (+2 implies -1 implies +0); +2
    fails against the uncovered node 3, so h is frozen without a re-probe.
    Once 3 and h are released, the next sweep must probe +2 afresh."""
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    ranks = RankAssignment(rank=(1, 2, 3, 4), in_core=(False,) * 4, max_rank=4)
    rsg = ReducedSolutionGraph.from_parts(
        g, states={3: POS_FROZEN}, marks={3: 3}, doubles=[(0, 1)], ranks=ranks
    )
    rsg.break_odd_cycles({0, 1, 2, 3})
    assert rsg.state[:3] == [UNFROZEN, UNFROZEN, NEG_FROZEN]
    rsg.release_one(3)
    rsg.release_one(2)
    rsg.break_odd_cycles({2, 3})
    assert rsg.state == [UNFROZEN] * 4
    assert rsg.edge_kind(2, 3) == "double"


@pytest.mark.parametrize(
    "kind, n", [("path", 600), ("path", 601), ("cycle", 400), ("cycle", 401)]
)
def test_chain_sweep_probes_each_literal_once(monkeypatch, kind, n):
    """On an alternating double-edge chain the closure sweep probes the chain
    head, whose pass covers every literal below it: at most n certifying
    probes in the whole run (nested cones probed inside out took n^2/16)."""
    close = ReducedSolutionGraph._close
    probes = [0]

    def counting_close(self, seeds, rng=None, virt=(), certify=False):
        probes[0] += certify
        return close(self, seeds, rng, virt, certify)

    monkeypatch.setattr(ReducedSolutionGraph, "_close", counting_close)
    run_mbea(path_graph(n) if kind == "path" else cycle_graph(n))
    assert probes[0] <= n


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


# -------------------------------------------------------------- minimisation


def _assert_minimum_assignment(rsg, comp, sol):
    """sol satisfies every constraint of comp and covers as few nodes as the
    cheapest of all its satisfying assignments."""
    assert sol is not None and set(sol) == set(comp)

    def spin(w):
        if rsg.state[w] == UNFROZEN:
            return sol[w]
        return 1 if rsg.state[w] == POS_FROZEN else -1

    for u in comp:
        for w in rsg.graph.adjacency[u]:
            if rsg.active[w]:
                assert not (sol[u] == 1 and spin(w) == 1), f"edge ({u},{w}) uncovered"
        for w in rsg.double_adj[u]:
            if rsg.active[w]:
                assert sol[u] + spin(w) == 0, f"double edge ({u},{w}) not opposite"
    covered = sum(1 for v in sol.values() if v == -1)
    floor = min(
        sum(1 for v in a.values() if v == -1) for a in rsg._component_assignments(comp)
    )
    assert covered == floor


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=12))
def test_min_component_assignment_reaches_brute_force_minimum(g):
    rsg = run_mbea(g).rsg
    for comp in rsg.unfrozen_components():
        _assert_minimum_assignment(rsg, comp, rsg.min_component_assignment(comp))


def test_pieces_split_and_shape():
    # inside {0..5}: the triangle 0-1-2 with pendant 3, and the edge 4-5,
    # whose node 5 borders the uncovered frozen node 6
    g = Graph(7, [(0, 1), (0, 2), (1, 2), (1, 3), (4, 5), (5, 6)])
    rsg = ReducedSolutionGraph.from_parts(g, states={6: POS_FROZEN}, marks={6: 6})
    assert rsg._pieces({0, 1, 2, 3, 4, 5}) == [
        (frozenset({0, 1, 2, 3}), 4, 1, True),  # (piece, edges, branch node, clean)
        (frozenset({4, 5}), 1, 4, False),
    ]


def test_min_component_assignment_tree_beside_uncovered_node():
    # the path 1-2-3 is a tree, but its uncovered neighbour 0 forces 1
    # covered, so it is not clean and goes through the branching search
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    rsg = ReducedSolutionGraph.from_parts(g, states={0: POS_FROZEN}, marks={0: 0})
    sol = rsg.min_component_assignment([1, 2, 3])
    _assert_minimum_assignment(rsg, [1, 2, 3], sol)
    assert sol == {1: -1, 2: 1, 3: -1}


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


def _three_state_rsg():
    # node 0 uncovered, 1 covered (both marked), 2=3 a double edge, 4 inactive
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    return ReducedSolutionGraph.from_parts(
        g,
        states={0: POS_FROZEN, 1: NEG_FROZEN},
        marks={0: 0, 1: 0},
        doubles=[(2, 3)],
        active={0, 1, 2, 3},
    )


@pytest.mark.parametrize(
    "build",
    [
        lambda: ReducedSolutionGraph.from_parts(Graph(0, []), active=set()),
        _three_state_rsg,
        lambda: run_mbea(generate_er(GenConfig(2000, 4.0, 7))).rsg,
    ],
    ids=["empty", "three-states", "solved-er-2000"],
)
def test_export_json_bytes_match_json_dumps(build):
    rsg = build()
    assert rsg.export_json() == json.dumps(rsg.to_json_doc(), indent=2) + "\n"


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


@pytest.mark.parametrize("node", [0, 2], ids=["active", "inactive"])
def test_validator_rejects_stale_active_neighbour_list(node):
    g = Graph(3, [(0, 1), (0, 2)])
    rsg = ReducedSolutionGraph.from_parts(g, active={0, 1})
    rsg.validate()
    rsg.active_adj[node].append(1)
    with pytest.raises(RsgInvariantError):
        rsg.validate()


def test_activate_keeps_active_neighbour_lists_sorted():
    g = Graph(4, [(0, 3), (1, 3), (2, 3)])
    rsg = ReducedSolutionGraph(g)
    for u in (3, 2, 0, 1):
        rsg.activate(u)
        rsg.validate()
    assert rsg.active_adj[3] == [0, 1, 2]


def test_validator_rejects_stale_counts():
    g = Graph(2, [(0, 1)])
    rsg = ReducedSolutionGraph.from_parts(g, states={0: POS_FROZEN}, marks={0: 0})
    rsg.pos_nbr_count[1] = 5
    with pytest.raises(RsgInvariantError):
        rsg.validate()
