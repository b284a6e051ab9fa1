"""Main evolution loop: add nodes in leaf-removal rank order, dispatch cases A-E.

Each new node i activates with its edges into the current subgraph and is
classified by its frozen neighbourhood (num = count of positively frozen
neighbours, plus a simultaneity check on its unfrozen neighbours):

  num == 1, unfrozen neighbours can all be covered together ->
      case A: i and the uncovered neighbour form a mutual-determination;
      the cascade that froze that neighbour is released.
  num >= 2, all uncovered neighbours share one cascade mark, unfrozen
      neighbours compatible -> case E: like A against the cascade root,
      releasing every uncovered neighbour's cascade.
  num >= 2 otherwise -> case B: i must be covered (negatively frozen).
  num == 0, unfrozen neighbours compatible -> case C: i stays uncovered
      (positively frozen) and its freezing influence cascades.
  incompatible unfrozen neighbours -> case D: i is covered.

_dispatch classifies each addition and applies it with the two RSG verbs
(releasing for A and E, freezing for B, C and D); run_mbea ends every step with
odd-cycle breaking, preceded by the rechecking sweep after A and E.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph
from .leaf_removal import RankAssignment, leaf_removal_ranks
from .rsg import (
    NEG_FROZEN,
    POS_FROZEN,
    UNFROZEN,
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


def _dispatch(rsg: ReducedSolutionGraph, i: int) -> str:
    """Classify the addition of node i and apply it; the case label."""
    state, mark = rsg.state, rsg.mark
    rank = rsg.ranks.rank
    nbrs = rsg.active_adj[i]
    pos_nbrs = [w for w in nbrs if state[w] == POS_FROZEN]
    unfrozen_nbrs = [w for w in nbrs if state[w] == UNFROZEN]

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
        if feasible and rsg.compatible_minus_one(unfrozen_nbrs):
            released = rsg.release_set(pos_nbrs, m)
            if not rsg.would_refreeze(i, released):
                rsg.set_double(i, max(pos_nbrs, key=lambda p: (rank[p], p)))
                rsg.releasing(released)
                return "A" if single else "E"
        rsg.freezing(i, NEG_FROZEN)
        return "D" if single else "B"

    if rsg.compatible_minus_one(unfrozen_nbrs):
        rsg.freezing(i, POS_FROZEN)
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
        # A and E release a cascade and add implications: recheck, then probe
        if label in "AE":
            rsg.rechecking()
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
    )


def cover_from_rsg(res: MbeaResult) -> Assignment:
    """The minimum-level represented cover run_mbea kept, deterministic with
    +1 preferred per unfrozen component; every edge of g is checked covered."""
    spins = res.spins
    for u, v in res.rsg.graph.edges:
        if spins[u] == 1 and spins[v] == 1:
            raise RsgInvariantError(f"extracted assignment leaves edge ({u},{v}) uncovered")
    return Assignment(spin=spins, cover_size=res.cover_size)
