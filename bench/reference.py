"""Reference computations made apart from mbea's solving code.

Every function here takes a node count and an edge list and nothing from the
package under test, so a check built on them cannot share a fault with the
solver, the oracle or the ensemble harness. Only `ilp_min_cover` needs SciPy;
it is imported on first use so that the measured part of a run stays free of
it (SciPy's import alone adds about 55 MB to the process).
"""

from __future__ import annotations

import math


def adjacency(n: int, edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def is_cover(edges, covered) -> bool:
    """True when every edge has at least one endpoint in `covered`."""
    return all(u in covered or v in covered for u, v in edges)


def karp_sipser(n: int, edges) -> tuple[int, list[int]]:
    """Pendant removal: while some node has degree 1, cover its neighbour and
    delete both. Returns (nodes covered, core nodes left with degree > 0).

    The pendant rule never loses optimality, so on a graph whose core comes
    out empty the count is the minimum cover size (Karp and Sipser 1981).
    """
    adj = adjacency(n, edges)
    deg = [len(a) for a in adj]
    alive = [True] * n
    stack = [u for u in range(n) if deg[u] == 1]
    covered = 0
    while stack:
        u = stack.pop()
        if not alive[u] or deg[u] != 1:
            continue
        v = next(w for w in adj[u] if alive[w])
        covered += 1
        for x in (v, u):
            alive[x] = False
            for y in adj[x]:
                if alive[y]:
                    deg[y] -= 1
                    if deg[y] == 1:
                        stack.append(y)
    core = [u for u in range(n) if alive[u] and deg[u] > 0]
    return covered, core


def max_bipartite_matching(adj: list[list[int]], n_right: int) -> int:
    """Size of a maximum matching, left node u adjacent to right nodes adj[u].

    Hopcroft-Karp with iterative searches, so deep augmenting paths cannot
    exhaust the interpreter stack.
    """
    n_left = len(adj)
    match_l = [-1] * n_left
    match_r = [-1] * n_right
    for u in range(n_left):
        for v in adj[u]:
            if match_r[v] == -1:
                match_l[u], match_r[v] = v, u
                break
    while True:
        dist = [-1] * n_left
        queue = [u for u in range(n_left) if match_l[u] == -1]
        for u in queue:
            dist[u] = 0
        found = False
        for u in queue:  # the list grows while it is scanned: breadth-first
            for v in adj[u]:
                w = match_r[v]
                if w == -1:
                    found = True
                elif dist[w] == -1:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if not found:
            return sum(1 for v in match_l if v != -1)
        nxt = [0] * n_left
        for s in range(n_left):
            if match_l[s] != -1:
                continue
            path_u, path_v = [s], []
            while path_u:
                u = path_u[-1]
                if nxt[u] == len(adj[u]):
                    dist[u] = -2  # dead end for the rest of this phase
                    path_u.pop()
                    if path_v:
                        path_v.pop()
                    continue
                v = adj[u][nxt[u]]
                nxt[u] += 1
                w = match_r[v]
                if w == -1:
                    path_v.append(v)
                    for a, b in zip(path_u, path_v):
                        match_l[a], match_r[b] = b, a
                    break
                if dist[w] == dist[u] + 1:
                    path_u.append(w)
                    path_v.append(v)


def lp_cover_bound(n: int, edges) -> float:
    """Optimum of the vertex-cover LP relaxation.

    The LP is half-integral and equals half the maximum matching of the
    bipartite double cover (u on the left joined to v on the right for each
    edge, both ways), so ceil() of it bounds every cover from below.
    """
    return max_bipartite_matching(adjacency(n, edges), n) / 2


def ilp_min_cover(n: int, edges) -> int:
    """Minimum vertex cover size as a 0/1 integer program solved by HiGHS."""
    if not edges:
        return 0
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_matrix

    m = len(edges)
    rows = np.repeat(np.arange(m), 2)
    cols = np.asarray(edges, dtype=np.int64).ravel()
    a = coo_matrix((np.ones(2 * m), (rows, cols)), shape=(m, n))
    res = milp(
        np.ones(n),
        constraints=LinearConstraint(a, lb=1, ub=np.inf),
        integrality=np.ones(n),
        bounds=Bounds(0, 1),
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not reach an optimum: {res.message}")
    return round(res.fun)


def lambert_w(c: float) -> float:
    """Principal branch of Lambert W for c >= 0, by Newton's method."""
    w = math.log1p(c)
    for _ in range(100):
        e = math.exp(w)
        step = (w * e - c) / (e * (w + 1))
        w -= step
        if abs(step) < 1e-15:
            break
    return w


def weigt_hartmann_x(c: float) -> float:
    """Minimum cover fraction of G(n, c/n) as n grows, valid for c < e
    (Weigt and Hartmann, PRL 84, 6118, 2000)."""
    if not 0 < c < math.e:
        raise ValueError(f"the closed form holds for 0 < c < e, got {c}")
    w = lambert_w(c)
    return 1 - (2 * w + w * w) / (2 * c)


def weigt_hartmann_tolerance(xs, n: int) -> float:
    """Allowed |mean(xs) - x(c)|: four standard errors plus an O(1/n) term.

    One instance's cover fraction spreads by about 0.17/sqrt(n) for c <= 2.5
    at n = 2000 and 20000; 0.15/sqrt(n) floors the sample deviation so that
    a few instances cannot make it vanish. The finite-size bias is O(1/n),
    measured well under 5/n.
    """
    k = len(xs)
    mean = sum(xs) / k
    sd = math.sqrt(sum((x - mean) ** 2 for x in xs) / (k - 1)) if k > 1 else 0.0
    return 4 * max(sd, 0.15 / math.sqrt(n)) / math.sqrt(k) + 5 / n


def chain_expectation(kind: str, n: int) -> tuple[int, int | None]:
    """(minimum cover size, represented cover count) of a path or cycle on n
    nodes in natural labelling. The count is None where it has no closed form
    (odd cycles, whose represented space is a subspace of the n minimum covers).
    """
    if kind == "path":
        return n // 2, (n // 2 + 1 if n % 2 == 0 else 1)
    if kind == "cycle":
        return (n + 1) // 2, (2 if n % 2 == 0 else None)
    raise ValueError(f"unknown chain kind {kind!r}")
