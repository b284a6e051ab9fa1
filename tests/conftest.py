"""Shared strategies and brute-force reference implementations.

The brute-force helpers are deliberately independent of the package's own
branch-and-bound oracle so each side checks the other.
"""

import os
from itertools import combinations
from pathlib import Path

from hypothesis import strategies as st

from mbea.graphs import Graph

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
