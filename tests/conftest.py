"""Shared strategies and brute-force reference implementations.

The brute-force helpers are deliberately independent of the package's own
branch-and-bound oracle so each side checks the other.
"""

import itertools
import os
from itertools import combinations
from pathlib import Path

from hypothesis import strategies as st

from mbea.graphs import Graph
from mbea.rsg import POS_FROZEN, UNFROZEN

# pytest finds the package through pythonpath in pyproject.toml; subprocesses
# a test starts (python -m mbea, scripts) find it through this
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


@st.composite
def graphs(draw, min_n=1, max_n=10):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = list(combinations(range(n), 2))
    if not pairs:
        return Graph(n, [])
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    return Graph(n, edges)


@st.composite
def trees(draw, min_n=2, max_n=10):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    edges = []
    for v in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=v - 1))
        edges.append((parent, v))
    return Graph(n, edges)


def brute_min_cover_size(g: Graph) -> int:
    for k in range(g.n + 1):
        for sub in combinations(range(g.n), k):
            s = set(sub)
            if all(u in s or v in s for u, v in g.edges):
                return k
    return g.n


def brute_min_covers(g: Graph) -> set[frozenset[int]]:
    k = brute_min_cover_size(g)
    out = set()
    for sub in combinations(range(g.n), k):
        s = set(sub)
        if all(u in s or v in s for u, v in g.edges):
            out.add(frozenset(s))
    return out


def is_cover(g: Graph, covered: frozenset[int]) -> bool:
    return all(u in covered or v in covered for u, v in g.edges)


def brute_assignments(rsg, order):
    """Every assignment in {+1, -1}^order that covers each active edge at a
    node of order and gives each double edge opposite spins, frozen
    neighbours at their frozen spins; +1 before -1, the first node of order
    varying slowest (the depth-first search's order)."""
    fixed = {u: 1 if st == POS_FROZEN else -1 for u, st in enumerate(rsg.state) if st}
    out = []
    for spins in itertools.product((1, -1), repeat=len(order)):
        spin = {**fixed, **dict(zip(order, spins))}
        if all(
            spin[u] == -1 or spin[w] == -1
            for u in order
            for w in rsg.graph.adjacency[u]
            if rsg.active[w]
        ) and all(spin[u] == -spin[w] for u in order for w in rsg.double_adj[u]):
            out.append(dict(zip(order, spins)))
    return out


def assert_compatible_matches_brute_force(rsg, max_size=3):
    """rsg.compatible_minus_one(targets) must tell whether some satisfying
    assignment of the active unfrozen nodes covers every target: checked for
    every target set of 1..max_size of those nodes, in every order. Returns
    (target sets checked, incompatible ones)."""
    free = [u for u in range(rsg.graph.n) if rsg.active[u] and rsg.state[u] == UNFROZEN]
    covers = [
        frozenset(u for u, s in a.items() if s == -1) for a in brute_assignments(rsg, free)
    ]
    sets = incompatible = 0
    for size in range(1, max_size + 1):
        for targets in combinations(free, size):
            expect = any(c.issuperset(targets) for c in covers)
            for order in itertools.permutations(targets):
                assert rsg.compatible_minus_one(order) == expect, (order, expect)
            sets += 1
            incompatible += not expect
    return sets, incompatible
