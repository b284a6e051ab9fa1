import itertools
import json
import random
import sys

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
from mbea import solver
from mbea.solver import _dispatch, run_mbea

from conftest import assert_compatible_matches_brute_force, brute_assignments, graphs, trees


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
    # every target set of 1-3 nodes of an alternating 8-cycle, in every order
    g = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (0, 7)])
    rsg = all_unfrozen(g, doubles=[(0, 1), (2, 3), (4, 5), (6, 7)])
    sets, incompatible = assert_compatible_matches_brute_force(rsg)
    assert sets == 8 + 28 + 56 and 0 < incompatible < sets


def test_conflicting_extension_leaves_the_kept_assignment():
    """_close extends the assignment a search passes in; an extension that
    sets literals of its own and then conflicts clears them again."""
    # {0, 1} holds the kept assignment; in {2, 3}, -2 forces +3 across the
    # double edge, and +3 meets the uncovered frozen node 4
    g = Graph(5, [(0, 1), (2, 3), (3, 4)])
    rsg = ReducedSolutionGraph.from_parts(
        g, states={4: POS_FROZEN}, marks={4: 4}, doubles=[(2, 3)]
    )
    seen = [0] * 5
    assert rsg._close((0,), seen=seen) == [0, ~1]
    assert seen == [1, -1, 0, 0, 0]
    assert rsg._close((~2,), seen=seen) is None
    assert seen == [1, -1, 0, 0, 0]
    assert rsg._close((2,), seen=seen) == [2, ~3]
    assert seen == [1, -1, 1, -1, 0]
    # an assigned literal is not walked again
    assert rsg._close((0,), seen=seen) == []


def test_interleaved_searches_keep_their_own_assignments():
    """Each search owns its partial assignment, so two searches may take
    turns, with other closures (the deep validator's) in between."""
    # two closed 8-cycles with two opposite double edges each
    edges = [(i, (i + 1) % 8) for i in range(8)]
    g = Graph(16, edges + [(u + 8, v + 8) for u, v in edges])
    rsg = all_unfrozen(g, doubles=[(0, 1), (4, 5), (8, 9), (12, 13)])
    rsg.validate(deep=True)
    orders = [list(range(8)), list(range(15, 7, -1))]
    searches = [rsg._assignments(order) for order in orders]
    got = [[], []]
    for pair in itertools.zip_longest(*searches):
        for k, sol in enumerate(pair):
            if sol is not None:
                got[k].append(sol)
            rsg.validate(deep=True)
    for order, sols in zip(orders, got):
        assert len(sols) > 1 and sols == brute_assignments(rsg, order)


# ------------------------------------------------------------------ freezing


def test_freezing_one_level():
    g = Graph(3, [(0, 1), (0, 2)])
    rsg = all_unfrozen(g)
    assert rsg.freezing(0, POS_FROZEN) == [0, 1, 2]
    assert rsg.state[0] == POS_FROZEN and rsg.mark[0] == 0
    assert rsg.state[1] == NEG_FROZEN and rsg.mark[1] == 0
    assert rsg.state[2] == NEG_FROZEN and rsg.mark[2] == 0


def test_freezing_chain_through_double():
    # i(+1) -plain- a =double= b -plain- c
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    rsg = all_unfrozen(g, doubles=[(1, 2)])
    rsg.freezing(0, POS_FROZEN)
    assert rsg.state[1] == NEG_FROZEN
    assert rsg.state[2] == POS_FROZEN
    assert rsg.state[3] == NEG_FROZEN
    assert rsg.mark[1] == rsg.mark[2] == rsg.mark[3] == 0


def test_freezing_covered_node_without_doubles_is_noop():
    g = Graph(3, [(0, 1), (0, 2)])
    rsg = all_unfrozen(g)
    assert rsg.freezing(0, NEG_FROZEN) == [0]
    assert rsg.state[0] == NEG_FROZEN and rsg.mark[0] == 0
    assert rsg.state[1] == UNFROZEN and rsg.state[2] == UNFROZEN


def test_freezing_contradicting_cascade_returns_none_and_freezes_nothing():
    # 0 uncovered forces both ends of the double edge (1, 2) covered
    g = Graph(3, [(0, 1), (0, 2), (1, 2)])
    rsg = all_unfrozen(g, doubles=[(1, 2)])

    def snapshot():
        return rsg.state[:], rsg.mark[:], set(rsg.step_touched)

    before = snapshot()
    assert rsg.freezing(0, POS_FROZEN) is None
    assert snapshot() == before and rsg.state == [UNFROZEN] * 3


@pytest.mark.parametrize("node", [0, 1])
def test_freezing_refuses_a_frozen_or_inactive_node(node):
    # node 0 is frozen, node 1 inactive
    g = Graph(2, [(0, 1)])
    rsg = ReducedSolutionGraph.from_parts(
        g, states={0: POS_FROZEN}, marks={0: 0}, active={0}
    )
    with pytest.raises(ValueError):
        rsg.freezing(node, NEG_FROZEN)
    assert rsg.state == [POS_FROZEN, UNFROZEN] and rsg.mark == [0, -1]


# ----------------------------------------------------------------- releasing


def release_cascade(rsg, root):
    """Release the cascade rooted at root, as cases A and E do."""
    rsg.releasing(rsg.release_set((root,), root))


def test_releasing_without_marked_neighbours():
    g = Graph(3, [(0, 1), (0, 2)])
    rsg = ReducedSolutionGraph.from_parts(g, states={0: POS_FROZEN}, marks={0: 0})
    release_cascade(rsg, 0)
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
    release_cascade(rsg, 0)
    assert rsg.state[0] == UNFROZEN
    assert rsg.state[1] == NEG_FROZEN  # still pinned by node 2
    assert rsg.state[2] == POS_FROZEN


def test_releasing_full_cascade():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    rsg = all_unfrozen(g, doubles=[(1, 2)])
    rsg.freezing(0, POS_FROZEN)
    release_cascade(rsg, 0)
    assert all(rsg.state[u] == UNFROZEN for u in range(4))


@settings(max_examples=60)
@given(trees(max_n=10))
def test_freeze_release_roundtrip_on_trees(g):
    """Freezing a cascade and releasing the same mark restores the state."""
    rsg = ReducedSolutionGraph(g)
    for u in range(g.n):
        rsg.activate(u)
    root = 0
    rsg.freezing(root, POS_FROZEN)
    before = (list(rsg.state), list(rsg.mark))
    release_cascade(rsg, root)
    assert all(rsg.state[u] == UNFROZEN for u in range(g.n))
    assert all(rsg.mark[u] == -1 for u in range(g.n))
    # freezing again reproduces the same cascade
    rsg.freezing(root, POS_FROZEN)
    assert (list(rsg.state), list(rsg.mark)) == before


# ---------------------------------------------------------------- rechecking


def test_rechecking_vacuous():
    # releasing the uncovered 0 leaves no covered neighbour to examine
    g = Graph(3, [(0, 1), (1, 2)])
    rsg = ReducedSolutionGraph.from_parts(g, states={0: POS_FROZEN}, marks={0: 0})
    rsg.rechecking(rsg.releasing([0]))
    assert list(rsg.state) == [UNFROZEN] * 3
    assert rsg.edge_kind(0, 1) == rsg.edge_kind(1, 2) == "plain"


def test_rechecking_two_foreign_pins_unchanged():
    # 1 loses its uncovered neighbour 3, its own root's, and keeps two
    # foreign ones
    g = Graph(4, [(0, 1), (1, 2), (1, 3)])
    rsg = ReducedSolutionGraph.from_parts(
        g,
        states={0: POS_FROZEN, 1: NEG_FROZEN, 2: POS_FROZEN, 3: POS_FROZEN},
        marks={0: 0, 1: 3, 2: 2, 3: 3},
    )
    rsg.rechecking(rsg.releasing([3]))
    assert rsg.state[1] == NEG_FROZEN


def test_rechecking_releases_pair_and_cascade():
    # 0 covered by cascade 2 loses the foreign uncovered neighbour 3, so its
    # only uncovered neighbour is its double partner 2; 1 is a further
    # member of the same cascade
    g = Graph(4, [(0, 2), (1, 2), (0, 3)])
    rsg = ReducedSolutionGraph.from_parts(
        g,
        states={0: NEG_FROZEN, 1: NEG_FROZEN, 2: POS_FROZEN, 3: POS_FROZEN},
        marks={0: 2, 1: 2, 2: 2, 3: 3},
        doubles=[(0, 2)],
    )
    rsg.rechecking(rsg.releasing([3]))
    assert rsg.state[0] == UNFROZEN
    assert rsg.state[2] == UNFROZEN
    assert rsg.state[1] == UNFROZEN
    assert rsg.edge_kind(0, 2) == "double"


def test_rechecking_releases_the_walk_from_the_pair():
    # 0 fires against its double partner 1 once the foreign 5 is released
    # and frees what the dispatch's walk from (0, 1) frees: 2 belongs to the
    # same cascade but no walk through cascade members reaches it; 3 is a
    # member pinned by a foreign node 4
    g = Graph(6, [(0, 1), (3, 4), (0, 5)])
    rsg = ReducedSolutionGraph.from_parts(
        g,
        states={0: NEG_FROZEN, 1: POS_FROZEN, 2: POS_FROZEN, 3: NEG_FROZEN,
                4: POS_FROZEN, 5: POS_FROZEN},
        marks={0: 1, 1: 1, 2: 1, 3: 1, 4: 4, 5: 5},
        doubles=[(0, 1)],
    )
    assert rsg.release_set((0, 1), 1) == {0, 1}
    rsg.rechecking(rsg.releasing([5]))
    assert [rsg.state[u] for u in range(6)] == [
        UNFROZEN, UNFROZEN, POS_FROZEN, NEG_FROZEN, POS_FROZEN, UNFROZEN
    ]
    assert rsg.mark[2] == rsg.mark[3] == 1
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
    # after the release of 2 the only uncovered neighbour belongs to a
    # different cascade and is no double partner: no release
    g = Graph(3, [(0, 1), (0, 2)])
    rsg = ReducedSolutionGraph.from_parts(
        g, states={0: NEG_FROZEN, 1: POS_FROZEN, 2: POS_FROZEN}, marks={0: 5, 1: 1, 2: 2}
    )
    rsg.rechecking(rsg.releasing([2]))
    assert rsg.state[0] == NEG_FROZEN
    assert rsg.state[1] == POS_FROZEN


def test_rechecking_keeps_a_same_mark_neighbour_without_double_edge():
    # 0 covered by cascade 2 loses the foreign 3; its only uncovered
    # neighbour 2 carries its mark but is no double partner, so +2 => -0
    # holds while -0 implies nothing: no release
    g = Graph(4, [(0, 2), (1, 2), (0, 3)])
    rsg = ReducedSolutionGraph.from_parts(
        g,
        states={0: NEG_FROZEN, 1: NEG_FROZEN, 2: POS_FROZEN, 3: POS_FROZEN},
        marks={0: 2, 1: 2, 2: 2, 3: 3},
    )
    rsg.rechecking(rsg.releasing([3]))
    assert [rsg.state[u] for u in range(3)] == [NEG_FROZEN, NEG_FROZEN, POS_FROZEN]
    assert rsg.edge_kind(0, 2) == "plain"


def test_rechecking_releases_a_double_pair_across_marks():
    # the pair rule reads no mark: 0, covered by cascade 4, keeps only its
    # double partner 1, a self-rooted uncovered node, once 2 is released;
    # the walk from (0, 1) runs through cascade 4 and frees 3 and 4
    g = Graph(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
    rsg = ReducedSolutionGraph.from_parts(
        g,
        states={0: NEG_FROZEN, 1: POS_FROZEN, 2: POS_FROZEN, 3: NEG_FROZEN,
                4: POS_FROZEN},
        marks={0: 4, 1: 1, 2: 2, 3: 4, 4: 4},
        doubles=[(0, 1)],
    )
    rsg.rechecking(rsg.releasing([2]))
    assert [rsg.state[u] for u in range(5)] == [UNFROZEN] * 5
    rsg.validate()


def _recheck_corpus():
    from test_golden import corpus

    graphs = [g for _, g in corpus()]
    return graphs + [generate_er(GenConfig(300, float(c), 3)) for c in range(1, 7)]


def test_rechecking_fires_only_beside_a_release_of_the_same_step(monkeypatch):
    """The rechecking rule is about a loss: a fire releases the pair (u, v)
    only for a covered u that lost an uncovered neighbour to a release
    earlier in the same step, and after each rechecking no eligible node
    (covered, whose one uncovered neighbour is its double partner) borders
    a node released uncovered in that step."""
    activate = ReducedSolutionGraph.activate
    release = ReducedSolutionGraph.releasing
    walk = ReducedSolutionGraph.release_set
    recheck = ReducedSolutionGraph.rechecking
    lost = set()  # nodes released uncovered this step
    inside, fires = [False], [0]

    def step(self, i):
        lost.clear()
        activate(self, i)

    def released(self, nodes):
        lost.update(x for x in nodes if self.state[x] == POS_FROZEN)
        return release(self, nodes)

    def walked(self, entries, root_mark):
        if inside[0]:  # a fire: u is the covered node, v its double partner
            u, v = entries
            assert v in self.double_adj[u], (self.graph, u, v)
            assert any(w in lost for w in self.active_adj[u]), (self.graph, u, v)
            fires[0] += 1
        return walk(self, entries, root_mark)

    def rechecked(self, lost_now):
        inside[0] = True
        recheck(self, lost_now)
        inside[0] = False
        state, aadj, dadj = self.state, self.active_adj, self.double_adj
        for u in range(self.graph.n):
            if state[u] != NEG_FROZEN:
                continue
            uncovered = [w for w in aadj[u] if state[w] == POS_FROZEN]
            if len(uncovered) == 1 and uncovered[0] in dadj[u]:
                assert not any(w in lost for w in aadj[u]), (self.graph, u)

    for name, wrapper in (("activate", step), ("releasing", released),
                          ("release_set", walked), ("rechecking", rechecked)):
        monkeypatch.setattr(ReducedSolutionGraph, name, wrapper)
    for g in _recheck_corpus():
        run_mbea(g)
    assert fires[0] > 0


def test_cascade_covers_a_non_root_only_beside_a_node_it_uncovers(monkeypatch):
    """Every covered non-root node a freeze writer call freezes has a
    neighbour the same call froze uncovered: a cascade covers a node only to
    cover an edge it uncovered."""
    write = ReducedSolutionGraph._freeze_literals
    checked = [0]

    def checked_write(self, lits, m):
        nodes = write(self, lits, m)
        uncovered = {x for x in lits if x >= 0}
        for lit in lits:
            x = ~lit
            if lit < 0 and x != m:
                assert any(w in uncovered for w in self.active_adj[x]), (self.graph, x, m)
                checked[0] += 1
        return nodes

    monkeypatch.setattr(ReducedSolutionGraph, "_freeze_literals", checked_write)
    for g in _recheck_corpus():
        run_mbea(g)
    assert checked[0] > 0


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


def test_break_raises_when_a_node_fails_both_ways():
    # +0 meets the uncovered node 2; -0 forces its double partner 1
    # uncovered, which meets the uncovered node 3: no represented cover
    g = Graph(4, [(0, 1), (0, 2), (1, 3)])
    rsg = ReducedSolutionGraph.from_parts(
        g, states={2: POS_FROZEN, 3: POS_FROZEN}, marks={2: 2, 3: 3}, doubles=[(0, 1)]
    )
    with pytest.raises(RsgInvariantError):
        rsg.break_odd_cycles({0, 1, 2, 3})


def _random_graphs(count, seed, max_n=40, max_c=5.0):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(6, max_n)
        c = rng.uniform(0.5, min(max_c, n - 1))
        yield generate_er(GenConfig(n, c, rng.randrange(10**6)))


def _solved(res):
    return res.rsg.export_json(), res.case_counts, res.spins, res.trace


def test_probe_passes_kept_across_sweeps_match_fresh_probes(monkeypatch):
    """Passes kept across sweeps, seeds limited to the touched nodes and
    chain heads probed first decide exactly as a sweep that clears every
    pass and probes every active node afresh, without the chain climb."""
    graphs = list(_random_graphs(240, seed=5))
    graphs += [path_graph(n) for n in range(2, 40)]
    graphs += [cycle_graph(n) for n in range(3, 40)]
    long_chains = [path_graph(200), cycle_graph(200), cycle_graph(201)]
    kept = [_solved(run_mbea(g, trace=True, validate=True)) for g in graphs]
    kept += [_solved(run_mbea(g, trace=True)) for g in long_chains]
    sweep = ReducedSolutionGraph.break_odd_cycles

    def fresh_sweep(self, touched):
        self._ok[:] = [False] * (2 * self.graph.n)
        return sweep(self, [u for u in range(self.graph.n) if self.active[u]])

    monkeypatch.setattr(ReducedSolutionGraph, "break_odd_cycles", fresh_sweep)
    monkeypatch.setattr(ReducedSolutionGraph, "_chain_head", lambda self, x: x)
    for g, expect in zip(graphs + long_chains, kept):
        assert _solved(run_mbea(g, trace=True)) == expect, g


def test_released_chain_head_is_probed_afresh():
    """u=0 probes its chain head h=2 first (+2 implies -1 implies +0); +2
    fails against the uncovered node 3, so +0 is probed itself and h is
    frozen. Once 3 and h are released, the next sweep must probe +2 afresh,
    and it passes."""
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    ranks = RankAssignment(rank=(1, 2, 3, 4), in_core=(False,) * 4, max_rank=4)
    rsg = ReducedSolutionGraph.from_parts(
        g, states={3: POS_FROZEN}, marks={3: 3}, doubles=[(0, 1)], ranks=ranks
    )
    rsg.break_odd_cycles({0, 1, 2, 3})
    assert rsg.state[:3] == [UNFROZEN, UNFROZEN, NEG_FROZEN]
    rsg.releasing([3, 2])
    rsg.break_odd_cycles({2, 3})
    assert rsg.state == [UNFROZEN] * 4
    assert rsg.edge_kind(2, 3) == "double"


def test_passes_go_stale_only_at_touched_nodes(monkeypatch):
    """The claim behind seeding only the touched nodes (break_odd_cycles,
    parts 2 and 3): when a sweep after an addition starts, no literal of an
    untouched active unfrozen node fails; and right after the slack rule
    adds a double edge (u, w), -u and -w both pass."""
    sweep = ReducedSolutionGraph.break_odd_cycles
    set_double = ReducedSolutionGraph.set_double
    in_sweep = []
    counts = {"sweeps": 0, "slack": 0}

    def checked_sweep(self, touched):
        state = self.state
        if any(state[x] == UNFROZEN for x in touched):
            failing = [
                lit
                for u in range(self.graph.n)
                if self.active[u] and state[u] == UNFROZEN and u not in touched
                for lit in (u, ~u)
                if self._close((lit,)) is None
            ]
            assert not failing, (self.graph, failing)
            counts["sweeps"] += 1
        in_sweep.append(True)
        try:
            sweep(self, touched)
        finally:
            in_sweep.pop()

    def checked_set_double(self, u, v):
        set_double(self, u, v)
        # inside a sweep only the slack rule adds double edges
        if in_sweep:
            assert self._close((~u,)) is not None, (self.graph, u, v)
            assert self._close((~v,)) is not None, (self.graph, u, v)
            counts["slack"] += 1

    monkeypatch.setattr(ReducedSolutionGraph, "break_odd_cycles", checked_sweep)
    monkeypatch.setattr(ReducedSolutionGraph, "set_double", checked_set_double)
    graphs = list(_random_graphs(300, seed=13, max_n=60, max_c=8.0))
    graphs += [generate_er(GenConfig(300, float(c), 7)) for c in range(1, 7)]
    for g in graphs:
        run_mbea(g)
    assert counts["sweeps"] > 2000 and counts["slack"] > 100, counts


def test_every_unfrozen_node_holds_its_passes_after_each_sweep(monkeypatch):
    """The sweep probes a literal only when it has no pass, and it clears
    passes only of nodes it seeds; so every sweep must leave each active
    unfrozen node u its +1 pass (_ok[u]), and its -1 pass (_ok[~u]) when it
    has a double partner. Hand-built RSGs start without passes, so this is
    no validate() check."""
    sweep = ReducedSolutionGraph.break_odd_cycles

    def checked_sweep(self, touched):
        # read before the sweep, whose freezes join step_touched
        kind = "additions" if any(self.state[x] == UNFROZEN for x in touched) else "freeze-only"
        sweep(self, touched)
        active, state, ok, dadj = self.active, self.state, self._ok, self.double_adj
        missing = [
            u
            for u in range(self.graph.n)
            if active[u] and state[u] == UNFROZEN and not (ok[u] and (ok[~u] or not dadj[u]))
        ]
        assert not missing, (self.graph, kind, missing)

    monkeypatch.setattr(ReducedSolutionGraph, "break_odd_cycles", checked_sweep)
    graphs = [path_graph(n) for n in range(2, 40)] + [cycle_graph(n) for n in range(3, 40)]
    graphs += _random_graphs(200, seed=11)
    graphs += [generate_er(GenConfig(1000, c, 1)) for c in (2.0, 4.0, 6.0)]
    for g in graphs:
        run_mbea(g)


def test_each_sweep_starts_from_unfrozen_or_from_frozen_touched_nodes(monkeypatch):
    """The fact behind the sweep's one seeding rule: a step of case A or E
    touches only nodes it activates or releases, all unfrozen when the sweep
    starts, and a step of case B, C or D only nodes its cascade froze. So
    each sweep run_mbea starts takes one half of the rule."""
    dispatch = solver._dispatch
    sweep = ReducedSolutionGraph.break_odd_cycles
    labels = []
    kinds = {"AE": 0, "BCD": 0}

    def recorded_dispatch(rsg, i):
        labels.append(dispatch(rsg, i))
        return labels[-1]

    def checked_sweep(self, touched):
        frozen = {self.state[x] != UNFROZEN for x in touched if self.active[x]}
        kind = "AE" if labels.pop() in "AE" else "BCD"
        assert frozen == {kind == "BCD"}, (self.graph, kind, sorted(touched))
        kinds[kind] += 1
        sweep(self, touched)

    monkeypatch.setattr(solver, "_dispatch", recorded_dispatch)
    monkeypatch.setattr(ReducedSolutionGraph, "break_odd_cycles", checked_sweep)
    graphs = list(_random_graphs(240, seed=5))
    graphs += [path_graph(n) for n in range(2, 40)]
    graphs += [cycle_graph(n) for n in range(3, 40)]
    graphs += [generate_er(GenConfig(300, float(c), 7)) for c in range(1, 7)]
    for g in graphs:
        run_mbea(g)
    assert min(kinds.values()) > 1000, kinds


def _dispatch_corpus():
    yield from _random_graphs(300, seed=17, max_n=60, max_c=8.0)
    yield from (path_graph(n) for n in range(2, 40))
    yield from (cycle_graph(n) for n in range(3, 40))
    yield from (generate_er(GenConfig(300, float(c), 9)) for c in range(1, 7))


def test_dispatch_decides_each_case_with_the_closure_that_applies_it(monkeypatch):
    """One closure per A, C and E step (would_refreeze, or freezing +i), at
    most two per B and D step (a failed one, then freezing -i)."""
    close = ReducedSolutionGraph._close
    dispatch = solver._dispatch
    calls = []

    def counting_close(self, *args, **kwargs):
        if calls:
            calls[-1] += 1
        return close(self, *args, **kwargs)

    def counted_dispatch(rsg, i):
        calls.append(0)
        label = dispatch(rsg, i)
        closures = calls.pop()
        assert (closures == 1 if label in "ACE" else 1 <= closures <= 2), (rsg.graph, i, label)
        seen[label] += 1
        return label

    seen = dict.fromkeys("ABCDE", 0)
    monkeypatch.setattr(ReducedSolutionGraph, "_close", counting_close)
    monkeypatch.setattr(solver, "_dispatch", counted_dispatch)
    for g in _dispatch_corpus():
        run_mbea(g)
    assert min(seen.values()) > 50, seen


def test_failed_simultaneity_check_fails_the_uncovered_closure(monkeypatch):
    """The lemma behind _dispatch, at every addition: when i's unfrozen
    neighbours cannot all be covered, +i fails, also with the release of its
    uncovered neighbours' cascades as overlay (checked for every release,
    not only those the E rule admits); with no uncovered neighbour the two
    tests agree."""
    dispatch = solver._dispatch
    seen = {"overlay fails": 0, "both fail": 0, "both hold": 0}

    def checked_dispatch(rsg, i):
        state = rsg.state
        nbrs = rsg.active_adj[i]
        pos_nbrs = [w for w in nbrs if state[w] == POS_FROZEN]
        compatible = rsg.compatible_minus_one(w for w in nbrs if state[w] == UNFROZEN)
        if pos_nbrs:
            if not compatible:
                released = rsg.release_set(pos_nbrs, rsg.mark[pos_nbrs[0]])
                assert rsg.would_refreeze(i, released), (rsg.graph, i)
                seen["overlay fails"] += 1
        else:
            holds = rsg._close((i,)) is not None
            assert holds == compatible, (rsg.graph, i)
            seen["both hold" if compatible else "both fail"] += 1
        return dispatch(rsg, i)

    monkeypatch.setattr(solver, "_dispatch", checked_dispatch)
    for g in _dispatch_corpus():
        run_mbea(g)
    assert min(seen.values()) > 50, seen


@pytest.mark.parametrize(
    "g",
    [generate_er(GenConfig(300, float(c), 3)) for c in range(1, 7)]
    + [path_graph(60), cycle_graph(61)],
    ids=[f"er-300-c{c}" for c in range(1, 7)] + ["path-60", "cycle-61"],
)
def test_from_parts_rebuilds_a_solved_rsg(g):
    rsg = run_mbea(g).rsg
    n = g.n
    frozen = [u for u in range(n) if rsg.state[u] != UNFROZEN]
    built = ReducedSolutionGraph.from_parts(
        g,
        states={u: rsg.state[u] for u in frozen},
        marks={u: rsg.mark[u] for u in frozen},
        doubles=[(u, v) for u in range(n) for v in rsg.double_adj[u] if u < v],
        active={u for u in range(n) if rsg.active[u]},
        ranks=rsg.ranks,
    )

    assert built.state == rsg.state
    assert built.mark == rsg.mark
    assert built.active_adj == rsg.active_adj
    assert [set(d) for d in built.double_adj] == [set(d) for d in rsg.double_adj]
    built.validate(deep=True)


@pytest.mark.parametrize(
    "kind, n", [("path", 600), ("path", 601), ("cycle", 400), ("cycle", 401)]
)
def test_chain_sweep_probes_each_literal_once(monkeypatch, kind, n):
    """On an alternating double-edge chain the closure sweep probes the chain
    head, whose pass covers every literal below it: at most n probes in the
    whole run (nested cones probed inside out took n^2/16)."""
    probe = ReducedSolutionGraph._probe
    probes = [0]

    def counting_probe(self, lit):
        probes[0] += 1
        return probe(self, lit)

    monkeypatch.setattr(ReducedSolutionGraph, "_probe", counting_probe)
    run_mbea(path_graph(n) if kind == "path" else cycle_graph(n))
    assert 1 <= probes[0] <= n


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
    with pytest.raises(ValueError, match="limit"):
        rsg.enumerate_assignments(limit=-1)


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


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=12))
def test_component_assignments_match_brute_force(g):
    rsg = run_mbea(g).rsg
    rank = rsg.ranks.rank
    for comp in rsg.unfrozen_components():
        order = sorted(comp, key=lambda u: (rank[u], u))
        assert rsg._component_assignments(comp) == brute_assignments(rsg, order)


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


def test_min_count_branch_closures_stay_in_their_piece(monkeypatch):
    """A branch closure of the minimiser extends the search's assignment, so
    it stops at nodes an outer branch assigned: every literal it returns lies
    in the piece being branched, whose covered count it adds up."""
    close, pieces = ReducedSolutionGraph._close, ReducedSolutionGraph._pieces
    piece_of = {}  # branch node -> the latest piece it branches
    checked = [0]

    def recording_pieces(self, nodes, nbrs, seen):
        out = pieces(self, nodes, nbrs, seen)
        for piece, _, branch in out:
            piece_of[branch] = piece
        return out

    def checked_close(self, seeds, *args, **kwargs):
        lits = close(self, seeds, *args, **kwargs)
        if lits is not None and sys._getframe(1).f_code.co_name == "min_count":
            piece = piece_of[seeds[0] if seeds[0] >= 0 else ~seeds[0]]
            assert all((lit if lit >= 0 else ~lit) in piece for lit in lits)
            checked[0] += 1
        return lits

    monkeypatch.setattr(ReducedSolutionGraph, "_pieces", recording_pieces)
    monkeypatch.setattr(ReducedSolutionGraph, "_close", checked_close)
    for c in (2, 3, 4):
        run_mbea(generate_er(GenConfig(300, float(c), 5)))
    assert checked[0] > 0


def _bfs_pieces(rsg, nodes, seen):
    """The nodes seen leaves unassigned, split by breadth-first search over
    graph edges into (piece, edge count, branch node), ordered by smallest
    node; the branch node has the most edges inside its piece, ties to the
    lowest id."""
    free = {x for x in nodes if not seen[x]}
    done = set()
    out = []
    for s in sorted(free):
        if s in done:
            continue
        piece = {s}
        queue = [s]
        for x in queue:
            for w in rsg.graph.adjacency[x]:
                if w in free and w not in piece:
                    piece.add(w)
                    queue.append(w)
        done |= piece
        deg = {x: sum(1 for w in rsg.graph.adjacency[x] if w in piece) for x in piece}
        branch = min(piece, key=lambda x: (-deg[x], x))
        out.append((frozenset(piece), sum(deg.values()) // 2, branch))
    return out


def test_pieces_match_breadth_first_split_in_the_minimiser(monkeypatch):
    """Every split the minimiser and unfrozen_components get from _pieces,
    which walks unfrozen neighbours and takes unassigned ones as members,
    equals a set-based split of the same unassigned nodes. ER n=2000, c=3,
    seed 8 runs its branch budget out, so a search cut short is checked
    too."""
    pieces = ReducedSolutionGraph._pieces
    calls = {}

    def checked_pieces(self, nodes, nbrs, seen):
        out = pieces(self, nodes, nbrs, seen)
        assert out == _bfs_pieces(self, nodes, seen)
        caller = sys._getframe(1).f_code.co_name
        calls[caller] = calls.get(caller, 0) + 1
        return out

    monkeypatch.setattr(ReducedSolutionGraph, "_pieces", checked_pieces)
    for cfg in [GenConfig(300, float(c), 5) for c in (2, 3, 4)] + [GenConfig(2000, 3.0, 8)]:
        res = run_mbea(generate_er(cfg))
        assert res.fallbacks == (cfg.n == 2000)
    assert calls.keys() == {"unfrozen_components", "min_component_assignment", "min_count"}
    assert calls["min_count"] > 100


def test_pieces_split_and_shape():
    # inside {0..5}: the triangle 0-1-2 with pendant 3, and the edge 4-5;
    # node 5's edge to the frozen node 6 leaves the set and is not counted
    g = Graph(7, [(0, 1), (0, 2), (1, 2), (1, 3), (4, 5), (5, 6)])
    rsg = ReducedSolutionGraph.from_parts(g, states={6: POS_FROZEN}, marks={6: 6})
    nodes = [5, 4, 3, 2, 1, 0]
    nbrs = rsg._unfrozen_nbrs(nodes)
    seen = [0] * 7
    assert rsg._pieces(nodes, nbrs, seen) == [
        (frozenset({0, 1, 2, 3}), 4, 1),  # (piece, edges, branch node)
        (frozenset({4, 5}), 1, 4),
    ]
    # the split's visit tags are not reused: a later closure starts afresh
    assert rsg._close((~0, ~2)) == [~0, ~2]
    # an assigned node leaves the split, and its edges with it
    seen[1] = -1
    assert rsg._pieces(frozenset(nodes), nbrs, seen) == [
        (frozenset({0, 2}), 1, 0),
        (frozenset({3}), 0, 3),
        (frozenset({4, 5}), 1, 4),
    ]


def test_min_component_assignment_tree_beside_uncovered_node():
    """The path 1-2-3 beside the uncovered node 0 is not closed: 1 cannot
    take +1, so the minimiser's tree pass does not apply. Closing it freezes
    1 covered and leaves the tree 2=3, minimised to the same cover."""
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    rsg = ReducedSolutionGraph.from_parts(g, states={0: POS_FROZEN}, marks={0: 0})
    with pytest.raises(RsgInvariantError, match="cannot take \\+1"):
        rsg.validate(deep=True)
    rsg.break_odd_cycles({0, 1, 2, 3})
    rsg.validate(deep=True)
    assert rsg.state[1] == NEG_FROZEN and rsg.unfrozen_components() == [[2, 3]]
    sol = rsg.min_component_assignment([2, 3])
    _assert_minimum_assignment(rsg, [2, 3], sol)
    assert sol == {2: 1, 3: -1}


def _bfs_components(rsg):
    """Connected components of the active unfrozen nodes by breadth-first
    search over graph edges, each sorted, ordered by smallest node."""
    free = [u for u in range(rsg.graph.n) if rsg.active[u] and rsg.state[u] == UNFROZEN]
    return [sorted(piece) for piece, _, _ in _bfs_pieces(rsg, free, [0] * rsg.graph.n)]


def test_unfrozen_components_match_breadth_first_search():
    """Hand-built RSGs with inactive nodes and frozen states, which the
    solver's final RSGs (all active) never show."""
    rng = random.Random(23)
    checked = 0
    for g in _random_graphs(300, seed=17):
        active = {u for u in range(g.n) if rng.random() < 0.7}
        frozen = [u for u in sorted(active) if rng.random() < 0.3]
        states = {u: rng.choice((POS_FROZEN, NEG_FROZEN)) for u in frozen}
        rsg = ReducedSolutionGraph.from_parts(
            g, states=states, marks={u: u for u in frozen}, active=active
        )
        expect = _bfs_components(rsg)
        assert rsg.unfrozen_components() == expect, g
        checked += len(expect) > 1
    assert checked > 100


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


@pytest.mark.parametrize(
    "states, marks",
    [({}, {0: 0}), ({0: UNFROZEN}, {0: 1}), ({0: NEG_FROZEN}, {}), ({0: POS_FROZEN}, {0: -1})],
    ids=["mark-without-state", "mark-on-unfrozen", "frozen-without-mark", "frozen-no-mark"],
)
def test_from_parts_rejects_marks_that_do_not_match_states(states, marks):
    with pytest.raises(ValueError, match="a node has a mark exactly when it is frozen"):
        ReducedSolutionGraph.from_parts(Graph(2, [(0, 1)]), states=states, marks=marks)
