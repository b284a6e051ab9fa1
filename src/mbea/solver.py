"""Main evolution loop: add nodes in leaf-removal rank order, dispatch cases A-E.

Each new node i activates with its edges into the current subgraph and is
classified by num, its count of positively frozen neighbours, and by whether
+i closes (i can be uncovered) once their cascades are released:

  A  num == 1, +i closes: i and the uncovered neighbour form a
     mutual-determination; the cascade that froze that neighbour is released.
  E  num >= 2, one shared cascade mark, +i closes: like A against the cascade
     root, releasing every uncovered neighbour's cascade.
  B  num >= 2 otherwise: i is covered (negatively frozen).
  C  num == 0, +i closes: i stays uncovered (positively frozen) and its
     freezing influence cascades.
  D  num <= 1, +i fails: i is covered.

_dispatch applies each case with releasing (A, E), followed by rechecking
of what the release uncovered, or with freezing (B, C, D); run_mbea then
breaks odd cycles after every step.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph
from .leaf_removal import RankAssignment, leaf_removal_ranks
from .rsg import (
    NEG_FROZEN,
    POS_FROZEN,
    ReducedSolutionGraph,
    RsgInvariantError,
)
from .space import Assignment

CASES = ("A", "B", "C", "D", "E")


@dataclass(frozen=True)
class TraceEntry:
    node: int
    case: str
    affected: tuple[int, ...]


@dataclass
class MbeaResult:
    rsg: ReducedSolutionGraph
    cover_size: int
    case_counts: dict[str, int]
    spins: tuple[int, ...]  # one minimum-level represented cover, -1 = covered
    trace: list[TraceEntry] | None = None
    # unfrozen components minimised by the first-assignment fallback (cycle
    # rank above the cap or branch budget exhausted), whose count is heuristic
    fallbacks: int = 0


def _dispatch(rsg: ReducedSolutionGraph, i: int) -> str:
    """Classify the addition of node i and apply it; the case label.

    Precondition: the RSG is closed (validate(deep=True) passes, as after
    every sweep); activating i adds only -i, which implies nothing.

    The closure that applies a case decides it: would_refreeze for A and E,
    freezing(i, POS_FROZEN) for C, which freezes nothing and returns None
    when +i fails. -i closes on itself (i has no double partner yet), so the
    B and D freezes cannot fail. A and E hand the nodes their release
    uncovered to rechecking.

    The paper's simultaneity check, compatible_minus_one(W) over i's
    unfrozen neighbours W, needs no closure of its own. In a closed RSG each
    unfrozen literal's closure is conflict-free, so the closure of -W fails
    only on a complementary pair. +i implies all of -W, and the release
    overlay only walks further, so +i fails too. With no uncovered
    neighbour, +i adds one clash, with -i, reached as +p => -i for a
    neighbour p of i. A closure assigns only unfrozen nodes, so p is in W,
    and -p clashes with +p in W's closure too.
    """
    state, mark, rank = rsg.state, rsg.mark, rsg.ranks.rank
    nbrs = rsg.active_adj[i]
    pos_nbrs = [w for w in nbrs if state[w] == POS_FROZEN]

    if pos_nbrs:
        single = len(pos_nbrs) == 1
        m = mark[pos_nbrs[0]]
        # Case E needs one shared cascade. A covered neighbour frozen by it
        # would flip uncovered when the cascade releases, uncovering edge
        # (i, q); unless a foreign uncovered neighbour pins it in place.
        feasible = single or (
            all(mark[p] == m for p in pos_nbrs)
            and not any(
                state[q] == NEG_FROZEN
                and mark[q] == m
                and not rsg.has_foreign_pos_neighbour(q, m)
                for q in nbrs
            )
        )
        if feasible:
            released = rsg.release_set(pos_nbrs, m)
            if not rsg.would_refreeze(i, released):
                rsg.set_double(i, max(pos_nbrs, key=lambda p: (rank[p], p)))
                rsg.rechecking(rsg.releasing(released))
                return "A" if single else "E"
        rsg.freezing(i, NEG_FROZEN)
        return "D" if single else "B"

    if rsg.freezing(i, POS_FROZEN) is not None:
        return "C"
    rsg.freezing(i, NEG_FROZEN)
    return "D"


def run_mbea(
    g: Graph,
    ranks: RankAssignment | None = None,
    trace: bool = False,
    validate: bool = False,
) -> MbeaResult:
    """Build the reduced solution graph of g, its represented cover size and
    one cover at that size (each unfrozen component minimised once).

    Nodes enter in ascending (rank, id) order. With validate=True the
    structural invariants are checked after every node addition (slow,
    for tests). Deterministic for a fixed graph.
    """
    if ranks is None:
        ranks = leaf_removal_ranks(g)
    if len(ranks.rank) != g.n or len(ranks.in_core) != g.n:
        raise ValueError("rank assignment does not match graph")
    rsg = ReducedSolutionGraph(g, ranks)
    order = sorted(range(g.n), key=lambda u: (ranks.rank[u], u))
    trace_list: list[TraceEntry] | None = [] if trace else None
    case_counts = {c: 0 for c in CASES}
    for i in order:
        rsg.activate(i)
        label = _dispatch(rsg, i)
        rsg.break_odd_cycles(rsg.step_touched)
        case_counts[label] += 1
        if trace_list is not None:
            trace_list.append(TraceEntry(i, label, tuple(sorted(rsg.step_touched))))
        if validate:
            rsg.validate(deep=True)
    spins = [-1 if state == NEG_FROZEN else 1 for state in rsg.state]
    for comp in rsg.unfrozen_components():
        sol = rsg.min_component_assignment(comp)
        if sol is None:
            raise RsgInvariantError(f"component {comp} has no valid assignment")
        for u, v in sol.items():
            spins[u] = v
    return MbeaResult(
        rsg=rsg,
        cover_size=spins.count(-1),
        case_counts=case_counts,
        spins=tuple(spins),
        trace=trace_list,
        fallbacks=rsg.fallbacks,
    )


def cover_from_rsg(res: MbeaResult) -> Assignment:
    """The minimum-level represented cover run_mbea kept, deterministic with
    +1 preferred per unfrozen component; every edge of g is checked covered."""
    spins = res.spins
    for u, v in res.rsg.graph.edges:
        if spins[u] == 1 and spins[v] == 1:
            raise RsgInvariantError(f"extracted assignment leaves edge ({u},{v}) uncovered")
    return Assignment(spin=spins, cover_size=res.cover_size)
