"""Exact ground truth: minimum cover size and exhaustive minimum-cover sets.

Branch and bound with degree-1 pendant reduction, degree-2 folding and a
greedy matching lower bound. Exponential in the worst case, so budgets are
hard limits that fail loudly; raise them explicitly for bigger instances.
"""

from __future__ import annotations

from .graphs import Graph
from .space import Assignment, SolutionSet

DEFAULT_SIZE_BUDGET = 150
DEFAULT_ENUM_BUDGET = 30


class BudgetExceededError(RuntimeError):
    """Instance larger than the configured oracle budget."""


def _adjacency_dict(g: Graph) -> dict[int, set[int]]:
    return {u: set(g.adjacency[u]) for u in range(g.n) if g.degree(u) > 0}


def _remove_node(adj: dict[int, set[int]], u: int) -> None:
    for w in adj.pop(u, ()):
        nbrs = adj[w]
        nbrs.discard(u)
        if not nbrs:
            del adj[w]


def _matching_lower_bound(adj: dict[int, set[int]]) -> int:
    matched: set[int] = set()
    size = 0
    for u in sorted(adj):
        if u in matched:
            continue
        for v in sorted(adj[u]):
            if v not in matched:
                matched.add(u)
                matched.add(v)
                size += 1
                break
    return size


def _greedy_cover_size(adj: dict[int, set[int]]) -> int:
    adj = {u: set(ws) for u, ws in adj.items()}
    size = 0
    while adj:
        u = max(adj, key=lambda x: (len(adj[x]), -x))
        _remove_node(adj, u)
        size += 1
    return size


def _mvc_size(adj: dict[int, set[int]], best: int) -> int:
    """Exact size of a minimum cover of the graph in adj, pruned above best."""
    taken = 0
    # reductions: pendants force the petiole, degree-2 nodes fold
    changed = True
    while changed:
        changed = False
        for u in sorted(adj):
            if u not in adj:
                continue
            d = len(adj[u])
            if d == 1:
                v = next(iter(adj[u]))
                _remove_node(adj, v)
                taken += 1
                changed = True
            elif d == 2:
                v, w = sorted(adj[u])
                if w in adj[v]:
                    # triangle: two of the three must be covered; taking the
                    # outward-looking pair is never worse
                    _remove_node(adj, v)
                    _remove_node(adj, w)
                    if u in adj:
                        _remove_node(adj, u)
                    taken += 2
                else:
                    # fold u,v,w into u with the merged outside neighbourhood
                    merged = (adj[v] | adj[w]) - {u, v, w}
                    _remove_node(adj, v)
                    _remove_node(adj, w)
                    if u in adj:
                        _remove_node(adj, u)
                    adj[u] = set()
                    for x in merged:
                        adj[u].add(x)
                        adj.setdefault(x, set()).add(u)
                    if not adj[u]:
                        del adj[u]
                    taken += 1
                changed = True
    if not adj:
        return taken
    if taken + _matching_lower_bound(adj) >= best:
        return best  # pruned; caller only needs anything >= best
    # branch on a maximum-degree node x: either x is covered, or all of N(x) are
    x = max(adj, key=lambda u: (len(adj[u]), -u))
    left = {u: set(ws) for u, ws in adj.items()}
    _remove_node(left, x)
    best = min(best, taken + 1 + _mvc_size(left, best - taken - 1))
    nbrs = sorted(adj[x])
    if taken + len(nbrs) < best:
        right = {u: set(ws) for u, ws in adj.items()}
        for w in nbrs:
            _remove_node(right, w)
        if x in right:
            _remove_node(right, x)
        best = min(best, taken + len(nbrs) + _mvc_size(right, best - taken - len(nbrs)))
    return best


def exact_min_cover(g: Graph, budget: int = DEFAULT_SIZE_BUDGET) -> int:
    """Exact minimum vertex cover size. Refuses graphs above the budget."""
    if g.n > budget:
        raise BudgetExceededError(
            f"n={g.n} exceeds oracle budget {budget}; raise the budget explicitly"
        )
    adj = _adjacency_dict(g)
    if not adj:
        return 0
    ub = _greedy_cover_size(adj)
    return _mvc_size(adj, ub)


def enumerate_min_covers(g: Graph, budget: int = DEFAULT_ENUM_BUDGET) -> SolutionSet:
    """All minimum vertex covers, exhaustively.

    Branches an uncovered edge endpoint in or out of the cover; the two
    branches are disjoint so every minimum cover appears exactly once.
    """
    if g.n > budget:
        raise BudgetExceededError(
            f"n={g.n} exceeds enumeration budget {budget}; raise the budget explicitly"
        )
    k = exact_min_cover(g, budget=max(budget, g.n))
    covers: set[frozenset[int]] = set()

    def recurse(adj: dict[int, set[int]], cover: set[int]) -> None:
        if len(cover) > k:
            return
        if not adj:
            if len(cover) == k:
                covers.add(frozenset(cover))
            return
        if len(cover) + _matching_lower_bound(adj) > k:
            return
        u = min(adj)
        # u covered
        left = {a: set(ws) for a, ws in adj.items()}
        _remove_node(left, u)
        recurse(left, cover | {u})
        # u uncovered: every neighbour must be covered
        nbrs = sorted(adj[u])
        if len(cover) + len(nbrs) <= k:
            right = {a: set(ws) for a, ws in adj.items()}
            for w in nbrs:
                _remove_node(right, w)
            if u in right:
                _remove_node(right, u)
            recurse(right, cover | set(nbrs))

    recurse(_adjacency_dict(g), set())
    assignments = tuple(
        Assignment.from_cover(g.n, c) for c in sorted(covers, key=sorted)
    )
    return SolutionSet(assignments=assignments, min_cover_size=k, complete=True)
