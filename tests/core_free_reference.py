"""An exact reference for the minimum vertex covers of a core-free graph.

It takes a node count and an edge list and imports nothing from mbea, so a
check built on it cannot share a fault with the solver.

Pendant removal (Karp and Sipser 1981) matches a node of degree 1 to its one
neighbour and deletes both, until no edge is left or a core remains. On a
core-free graph it builds a matching M and a cover of |M| nodes, the
matched neighbours, so tau <= |M| <= nu <= tau: M is maximum. Every minimum
cover then takes exactly one end of each matched edge and no unmatched node,
and every such set that covers all edges is a minimum cover. So the minimum
covers are the models of a 2-CNF formula, written here as implications on
spins (+1 uncovered, -1 covered):

  an unmatched node is +1;
  x = +1  =>  every neighbour of x is -1   (every edge is covered);
  x = -1  =>  the mate of x is +1          (one end of a matched edge).

Unit propagation is complete on 2-CNF (Aspvall, Plass and Tarjan 1979): a
literal is a backbone exactly when its negation fails to propagate.
Literals are x for x = +1 and ~x for x = -1.
"""

from __future__ import annotations

from dataclasses import dataclass


def pendant_matching(n: int, edges) -> tuple[list[list[int]], list[int]] | None:
    """(adjacency, mate) after pendant removal, mate[u] = -1 for an
    unmatched node; None when a core is left."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    deg = [len(a) for a in adj]
    alive = [True] * n
    mate = [-1] * n
    stack = [u for u in range(n) if deg[u] == 1]
    while stack:
        u = stack.pop()
        if not alive[u] or deg[u] != 1:
            continue
        v = next(w for w in adj[u] if alive[w])
        mate[u], mate[v] = v, u
        for x in (u, v):
            alive[x] = False
            for y in adj[x]:
                if alive[y]:
                    deg[y] -= 1
                    if deg[y] == 1:
                        stack.append(y)
    if any(alive[u] and deg[u] for u in range(n)):
        return None
    return adj, mate


@dataclass(frozen=True)
class Faults:
    """How a represented space differs from the minimum covers."""

    falsely_frozen: tuple[int, ...]  # frozen, but free or a backbone of the other spin
    missed_backbones: tuple[int, ...]  # unfrozen, but a backbone
    wrong_doubles: tuple[tuple[int, int], ...]  # unfrozen double edges not implied
    excess: int  # represented cover size minus the minimum

    @property
    def ok(self) -> bool:
        return not (self.falsely_frozen or self.missed_backbones or self.wrong_doubles
                    or self.excess)


class CoreFreeCovers:
    """The minimum covers of a core-free graph: the minimum size tau, the
    backbone spin of each node (value, 0 for a free node) and the
    implication closure. ValueError when the graph has a core."""

    def __init__(self, n: int, edges):
        got = pendant_matching(n, edges)
        if got is None:
            raise ValueError("the graph has a core")
        self.n = n
        self.adj, self.mate = got
        self.tau = sum(1 for m in self.mate if m >= 0) // 2
        value = [0] * n
        for u in range(n):
            if self.mate[u] < 0 and not value[u]:
                self._fix(u, value)
        passed: set[int] = set()  # every literal implied by a passing probe passes
        for u in range(n):
            for lit in (u, ~u):
                if value[u] or lit in passed:
                    continue
                lits = self.closure(lit, value)
                if lits is None:
                    self._fix(~lit, value)
                else:
                    passed.update(lits)
        self.value = value

    def closure(self, lit: int, value) -> list[int] | None:
        """The literals lit forces beyond the partial assignment value (+1,
        -1 or 0 per node), lit first, or None on a conflict."""
        x, s = (lit, 1) if lit >= 0 else (~lit, -1)
        if value[x]:
            return [] if value[x] == s else None
        got = {x: s}
        work = [lit]
        for lit in work:
            if lit >= 0:
                forced = [(w, -1) for w in self.adj[lit]]
            else:
                m = self.mate[~lit]
                forced = [(m, 1)] if m >= 0 else []
            for w, t in forced:
                have = value[w] or got.get(w, 0)
                if have == -t:
                    return None
                if not have:
                    got[w] = t
                    work.append(w if t == 1 else ~w)
        return work

    def _fix(self, lit: int, value) -> None:
        lits = self.closure(lit, value)
        if lits is None:
            raise AssertionError(f"literal {lit} of a satisfiable formula fails")
        for x in lits:
            if x >= 0:
                value[x] = 1
            else:
                value[~x] = -1

    def implies(self, a: int, b: int) -> bool:
        """Does literal a force literal b among the minimum covers?"""
        lits = self.closure(a, self.value)
        return lits is not None and b in lits

    def covers(self) -> set[frozenset[int]]:
        """Every minimum cover as its set of covered nodes (small graphs)."""
        out: set[frozenset[int]] = set()
        value = list(self.value)

        def branch(u: int) -> None:
            while u < self.n and value[u]:
                u += 1
            if u == self.n:
                out.add(frozenset(x for x in range(self.n) if value[x] == -1))
                return
            for lit in (u, ~u):
                lits = self.closure(lit, value)
                if lits is None:
                    continue
                for x in lits:
                    value[x if x >= 0 else ~x] = 1 if x >= 0 else -1
                branch(u + 1)
                for x in lits:
                    value[x if x >= 0 else ~x] = 0

        branch(0)
        return out

    def faults(self, frozen, doubles, cover_size: int) -> Faults:
        """Compare a represented space with the minimum covers: frozen gives
        each node's frozen spin (+1, -1, or 0 when unfrozen), doubles the
        double edges between unfrozen nodes, cover_size its cover size."""
        value = self.value
        return Faults(
            falsely_frozen=tuple(u for u in range(self.n) if frozen[u] and frozen[u] != value[u]),
            missed_backbones=tuple(u for u in range(self.n) if not frozen[u] and value[u]),
            wrong_doubles=tuple(
                (u, v) for u, v in doubles
                if not (self.implies(~u, v) and self.implies(~v, u))
            ),
            excess=cover_size - self.tau,
        )
