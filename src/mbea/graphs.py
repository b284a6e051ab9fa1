"""Simple undirected graphs: construction, seeded random generation, edge-list I/O.

Nodes are dense integers 0..n-1. Edges are stored canonically as (u, v) with
u < v, sorted ascending. Graphs are immutable after construction and safe to
share between workers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import isfinite, isqrt
from typing import Iterable


class ParseError(ValueError):
    """Malformed edge-list input. Carries the 1-based offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class Graph:
    """Immutable simple undirected graph with adjacency lists.

    Edge endpoints are validated (in range, no self-loops, no duplicates)
    and normalised to u < v, ascending order.
    """

    __slots__ = ("n", "edges", "adjacency")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError(f"node count must be >= 0, got {n}")
        canon = []
        seen = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            seen.add((u, v))
            canon.append((u, v))
        canon.sort()
        self.n = n
        self.edges = tuple(canon)
        adj: list[list[int]] = [[] for _ in range(n)]
        # already ascending: the sorted edges (u < v) reach each node's lower
        # neighbours first, in order, and then its higher ones
        for u, v in canon:
            adj[u].append(v)
            adj[v].append(u)
        self.adjacency = tuple(tuple(a) for a in adj)

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, u: int) -> int:
        return len(self.adjacency[u])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class GenConfig:
    """Parameters for a seeded G(N, M) draw with M = round(mean_degree * n / 2)."""

    n: int
    mean_degree: float
    seed: int

    def edge_count(self) -> int:
        return round(self.mean_degree * self.n / 2)

    def validate(self) -> None:
        if self.n < 0:
            raise ValueError(f"n must be >= 0, got {self.n}")
        if not (isfinite(self.mean_degree) and self.mean_degree >= 0):
            raise ValueError(f"mean_degree must be finite and >= 0, got {self.mean_degree}")
        max_m = self.n * (self.n - 1) // 2
        if self.edge_count() > max_m:
            raise ValueError(
                f"mean_degree {self.mean_degree} needs {self.edge_count()} edges, "
                f"but n={self.n} admits at most {max_m}"
            )


def _pair_from_index(k: int, n: int) -> tuple[int, int]:
    # Lexicographic rank -> (u, v), u < v, without materialising all pairs.
    # Pairs with first coordinate < u number f(u) = u*n - u*(u+1)/2.
    # Solve f(u) <= k < f(u+1) via the quadratic formula with integer sqrt.
    a = 2 * n - 1
    u = (a - isqrt(a * a - 8 * k)) // 2
    while u * n - u * (u + 1) // 2 > k:
        u -= 1
    while (u + 1) * n - (u + 1) * (u + 2) // 2 <= k:
        u += 1
    v = u + 1 + (k - (u * n - u * (u + 1) // 2))
    return u, v


def generate_er(config: GenConfig) -> Graph:
    """Draw a uniform simple graph with exactly round(c*n/2) distinct edges.

    Deterministic for a fixed seed (Mersenne Twister via random.Random).
    """
    config.validate()
    m = config.edge_count()
    max_m = config.n * (config.n - 1) // 2
    rng = random.Random(config.seed)
    idx = rng.sample(range(max_m), m) if m else []
    return Graph(config.n, [_pair_from_index(k, config.n) for k in idx])


def parse_edge_list(text: str) -> Graph:
    """Parse the plain edge-list format: header "N M", then M lines "u v".

    Line order is free; endpoint order within a line is normalised.
    Self-loops, duplicates, bad counts and out-of-range endpoints are
    rejected with the offending line number.
    """
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise ParseError("missing header 'N M'", 1)
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError(f"expected header 'N M', got {lines[0]!r}", 1)
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError(f"non-integer header fields in {lines[0]!r}", 1) from None
    if n < 0 or m < 0:
        raise ParseError("header counts must be >= 0", 1)

    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    lineno = 1
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        if len(edges) == m:
            raise ParseError(f"more than {m} edge lines", lineno)
        parts = raw.split()
        if len(parts) != 2:
            raise ParseError(f"expected 'u v', got {raw!r}", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer endpoint in {raw!r}", lineno) from None
        if u == v:
            raise ParseError(f"self-loop at node {u}", lineno)
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"endpoint out of range 0..{n - 1} in ({u},{v})", lineno)
        if u > v:
            u, v = v, u
        if (u, v) in seen:
            raise ParseError(f"duplicate edge ({u},{v})", lineno)
        seen.add((u, v))
        edges.append((u, v))
    if len(edges) != m:
        raise ParseError(f"header promised {m} edges, found {len(edges)}", lineno)
    return Graph(n, edges)


def write_edge_list(g: Graph) -> str:
    """Serialise canonically: "N M", then edges ascending, LF newlines.

    Round-trips with parse_edge_list.
    """
    out = [f"{g.n} {g.m}"]
    out.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(out) + "\n"


def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs >= 3 nodes")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])
