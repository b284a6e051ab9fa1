"""The reduced solution graph: frozen states, marks, and mutual-determination edges.

A reduced solution graph (RSG) over the currently active induced subgraph
compactly represents a set of equal-size vertex covers:

  * positively frozen node:  spin +1 (uncovered) in every represented cover
  * negatively frozen node:  spin -1 (covered) in every represented cover
  * unfrozen nodes vary, subject to two local rules --
      every active edge has at least one -1 endpoint, and
      the endpoints of a double edge take opposite spins (exactly one covered).

Frozen nodes carry a mark, the root of the cascade that froze them. Two verbs
change the structure: freezing(i, state) roots a cascade at i (a backbone) and
freezes what it forces; releasing(nodes) unfreezes the nodes release_set picks
by mark, sparing covered ones a foreign uncovered neighbour pins (checking rule).
After a release, rechecking frees each covered node whose only uncovered
neighbour is its double partner, together with that partner: the pair rule
reads the double edge, not the marks.

Spin propagation implements the two rules as implications between literals,
x for x = +1 and ~x for x = -1 (the implications of a 2-CNF):
  +x  =>  -w for every active neighbour w of x
  -x  =>  +w for every double partner w of x
One kernel, _close, propagates them, both signs in one loop, for the case
dispatch, the closure sweep, the validator, freezing (which freezes what the
kernel's worklist reached), and the searches that minimise and enumerate the
unfrozen components. Its callers pass literals and act on the literals it
returns. It runs iteratively (cascades can reach the whole graph, so no
recursion) on fresh scratch tags, or on the partial assignment a search owns,
which it extends and leaves as it was on a conflict; it writes nothing else.

One search, _pieces, splits the unfrozen nodes into connected pieces, for
unfrozen_components and for the minimiser's branches and replay. It walks
each node's unfrozen neighbours and takes a node as a member when the
search's assignment leaves it unassigned. That is exact because every
unfrozen, unassigned neighbour of a piece node lies in that piece: a piece
is a component of the unassigned nodes, so sibling and ancestor pieces are
never adjacent, and a branch closure stays inside the piece it branches.

The closure sweep records a probe's passes from the literals _close returns
(_probe), in one table _ok indexed by literal, and keeps them across sweeps;
a pass goes stale only when its node is touched (see break_odd_cycles). It
probes the head of a double-edge chain before the literal it reaches (+w
implies -p implies +x, where p is x's only double partner and w is p's only
other unpassed neighbour), the failed-literal rule of SAT preprocessing: one
pass certifies the whole chain below the head, so a long alternating chain
costs n probes instead of n^2/16.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import insort
from enum import IntEnum

from .graphs import Graph
from .leaf_removal import RankAssignment, leaf_removal_ranks
from .space import Assignment, SolutionSet


class NodeState(IntEnum):
    UNFROZEN = 0
    POS_FROZEN = 1
    NEG_FROZEN = 2


# hot-loop aliases
UNFROZEN = int(NodeState.UNFROZEN)
POS_FROZEN = int(NodeState.POS_FROZEN)
NEG_FROZEN = int(NodeState.NEG_FROZEN)

NO_MARK = -1

# min_component_assignment falls back to the first satisfying assignment above these
_MAX_CYCLE_RANK = 60
_WORK_BUDGET = 200_000

_STATE_NAMES = {UNFROZEN: "unfrozen", POS_FROZEN: "pos", NEG_FROZEN: "neg"}

# one node or edge object of the exported RSG JSON, at list depth 2
_NODE_JSON = (
    '    {\n      "id": %d,\n      "active": %s,\n      "state": "%s",\n'
    '      "mark": %s,\n      "rank": %d\n    }'
)
_EDGE_JSON = '    {\n      "u": %d,\n      "v": %d,\n      "kind": "%s"\n    }'


def _json_list(items: list[str]) -> str:
    """A list of pre-formatted depth-2 objects, as json.dumps(indent=2) lays it out."""
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


class RsgInvariantError(Exception):
    """A structural invariant of the reduced solution graph was violated."""


class _BranchBudgetOut(Exception):
    """Internal: exact minimum-level search ran out of branch budget."""


class ReducedSolutionGraph:
    """Single-owner mutable RSG."""

    def __init__(self, graph: Graph, ranks: RankAssignment | None = None):
        if ranks is None:
            ranks = leaf_removal_ranks(graph)
        if len(ranks.rank) != graph.n:
            raise ValueError("rank assignment does not match graph size")
        n = graph.n
        self.graph = graph
        self.ranks = ranks
        self.active = [False] * n
        self.state = [UNFROZEN] * n
        self.mark = [NO_MARK] * n
        self.double_adj: list[list[int]] = [[] for _ in range(n)]
        # active neighbours of each active node, in adjacency (ascending) order
        self.active_adj: list[list[int]] = [[] for _ in range(n)]
        self.step_touched: set[int] = set()
        # versioned scratch, reset in O(1) by bumping the tag: _close stores
        # +tag / -tag for a node it sets to +1 / -1, _pieces +tag for a node
        # it visits
        self._ptag = [0] * n
        self._tag = 0
        # probe passes of the closure sweep, indexed by literal (~u falls in
        # the second half): the literal propagates without conflict; kept
        # across sweeps until a sweep starts with u touched
        self._ok = [False] * (2 * n)
        # unfrozen components min_component_assignment left to its fallback
        self.fallbacks = 0

    # ------------------------------------------------------------------ setup

    @classmethod
    def from_parts(
        cls,
        graph: Graph,
        states: dict[int, int] | None = None,
        marks: dict[int, int] | None = None,
        doubles=(),
        active: set[int] | None = None,
        ranks: RankAssignment | None = None,
    ) -> "ReducedSolutionGraph":
        """Build an RSG in a given state, mainly for tests, through the same
        writers the evolution uses. A frozen node needs a mark, and only
        frozen nodes may have one (ValueError otherwise)."""
        rsg = cls(graph, ranks)
        act = range(graph.n) if active is None else sorted(active)
        for u in act:
            rsg.activate(u)
        states, marks = states or {}, marks or {}
        for u in sorted(states.keys() | marks.keys()):
            st, m = int(states.get(u, UNFROZEN)), marks.get(u, NO_MARK)
            if (st == UNFROZEN) != (m == NO_MARK):
                raise ValueError(f"node {u} has state {st} and mark {m}: "
                                 "a node has a mark exactly when it is frozen")
            if m != NO_MARK:
                rsg._freeze_literals((u if st == POS_FROZEN else ~u,), m)
        for u, v in doubles:
            rsg.set_double(u, v)
        return rsg

    # ------------------------------------------------------- state transitions

    def activate(self, i: int) -> None:
        """Start a step: node i joins the active subgraph, unfrozen and unmarked."""
        if self.active[i]:
            raise ValueError(f"node {i} already active")
        active, aadj = self.active, self.active_adj
        nbrs = [w for w in self.graph.adjacency[i] if active[w]]
        for w in nbrs:
            insort(aadj[w], i)
        aadj[i] = nbrs
        active[i] = True
        self.state[i] = UNFROZEN
        self.mark[i] = NO_MARK
        self.step_touched = {i}

    def _freeze_literals(self, lits, m: int) -> list[int]:
        """Freeze the literals lits (x for +1, ~x for -1; active, unfrozen and
        unmarked nodes) with mark m, in order; the nodes frozen. The one
        freeze writer.
        """
        state, mark = self.state, self.mark
        nodes = []
        for x in lits:
            if x >= 0:
                state[x] = POS_FROZEN
            else:
                x = ~x
                state[x] = NEG_FROZEN
            mark[x] = m
            nodes.append(x)
        self.step_touched.update(nodes)
        return nodes

    def set_double(self, u: int, v: int) -> None:
        """Tag the existing edge (u, v) as a mutual-determination."""
        if v not in self.graph.adjacency[u]:
            raise ValueError(f"({u},{v}) is not an edge")
        if v not in self.double_adj[u]:
            self.double_adj[u].append(v)
            self.double_adj[v].append(u)
        self.step_touched.add(u)
        self.step_touched.add(v)

    def edge_kind(self, u: int, v: int) -> str:
        return "double" if v in self.double_adj[u] else "plain"

    def state_counts(self) -> tuple[int, int, int]:
        """(unfrozen, pos_frozen, neg_frozen) over active nodes."""
        counts = [0, 0, 0]
        for u in range(self.graph.n):
            if self.active[u]:
                counts[self.state[u]] += 1
        return counts[UNFROZEN], counts[POS_FROZEN], counts[NEG_FROZEN]

    # ------------------------------------------------------------- propagation

    def _close(self, lits, virt=(), seen=None) -> list[int] | None:
        """Close seed literals (x for +1, ~x for -1) under the two rules: the
        literals assigned, seeds first, or None on a conflict.

        Frozen nodes end the walk: an uncovered neighbour of a +1 node or a
        covered double partner of a -1 node is a conflict. Nodes in virt
        count as unfrozen whatever their state (would_refreeze's release
        overlay). The call writes nothing but its tags: fresh scratch tags
        by default, or a search's own assignment seen (+1 / -1 per node, 0
        unassigned), which it extends, walking no node already assigned. On
        a conflict it clears what it set.
        """
        if seen is None:
            self._tag += 1
            tag, seen = self._tag, self._ptag
        else:
            tag = 1
        ntag = -tag
        state, aadj, dadj = self.state, self.active_adj, self.double_adj
        work: list[int] = []
        # a conflict breaks out of the loops to the one rollback below
        for lit in lits:
            x, t = (lit, tag) if lit >= 0 else (~lit, ntag)
            if seen[x] != t:
                if seen[x] == -t:
                    break
                seen[x] = t
                work.append(lit)
        else:
            # +x implies -w for its active neighbours w, -x implies +w for its
            # double partners: per sign, the literal w ^ flip, tagged t, or a
            # clash with w tagged nt or frozen in state clash
            pos = (-1, ntag, tag, POS_FROZEN)
            neg = (0, tag, ntag, NEG_FROZEN)
            # the list grows while it is walked: a breadth-first worklist
            for lit in work:
                if lit >= 0:
                    succ = aadj[lit]
                    flip, t, nt, clash = pos
                else:
                    succ = dadj[~lit]
                    flip, t, nt, clash = neg
                for w in succ:
                    st = state[w]
                    if st != UNFROZEN and w not in virt:
                        if st == clash:
                            break
                    elif (s := seen[w]) != t:
                        if s == nt:
                            break
                        seen[w] = t
                        work.append(w ^ flip)
                else:
                    continue
                break
            else:
                return work
        for lit in work:
            seen[lit if lit >= 0 else ~lit] = 0
        return None

    def compatible_minus_one(self, targets) -> bool:
        """Can all targets be covered simultaneously in the represented space?"""
        targets = list(targets)
        for t in targets:
            if not self.active[t] or self.state[t] != UNFROZEN:
                raise ValueError(f"target {t} must be active and unfrozen")
        return self._close([~t for t in targets]) is not None

    # ------------------------------------------------------- freeze and release

    def freezing(self, i: int, state: int) -> list[int] | None:
        """Freeze the active unfrozen node i at state as the root of its own
        cascade, and cascade its influence; the nodes frozen, i first.

        An uncovered node forces all unfrozen neighbours covered; a covered
        node forces its unfrozen double partners uncovered. _close walks the
        cascade, and every node it reached is frozen with mark i. A cascade
        that contradicts itself freezes nothing and returns None.
        """
        if not self.active[i] or self.state[i] != UNFROZEN:
            raise ValueError(f"node {i} must be active and unfrozen to freeze")
        work = self._close((i if state == POS_FROZEN else ~i,))
        if work is None:
            return None
        return self._freeze_literals(work, i)

    def releasing(self, nodes) -> list[int]:
        """Unfreeze the given frozen nodes, clearing their marks; the nodes
        released uncovered, whose covered neighbours rechecking examines.

        The order does not matter: a release only inserts into sets.
        """
        state, mark = self.state, self.mark
        touched = self.step_touched
        lost = []
        for x in nodes:
            if state[x] == POS_FROZEN:
                lost.append(x)
            state[x] = UNFROZEN
            mark[x] = NO_MARK
            touched.add(x)
        return lost

    def has_foreign_pos_neighbour(self, j: int, root_mark: int) -> bool:
        state, mark = self.state, self.mark
        for k in self.active_adj[j]:
            if state[k] == POS_FROZEN and mark[k] != root_mark:
                return True
        return False

    def release_set(self, entries, root_mark: int) -> set[int]:
        """The nodes a release of the cascade carrying root_mark unfreezes.

        The entries themselves are released unconditionally. The walk goes on
        through frozen neighbours with that mark; a covered one that still has
        an uncovered neighbour from a different cascade stays frozen and
        blocks the walk there (checking rule). Releasing the cascade changes
        no node outside it, so the guard gives the same answer before and
        after the release, and the set can be computed up front.
        """
        state, mark, aadj = self.state, self.mark, self.active_adj
        out = set(entries)
        stack = list(out)
        while stack:
            for j in aadj[stack.pop()]:
                if j in out or state[j] == UNFROZEN or mark[j] != root_mark:
                    continue
                if state[j] == NEG_FROZEN and self.has_foreign_pos_neighbour(j, root_mark):
                    continue
                out.add(j)
                stack.append(j)
        return out

    def would_refreeze(self, i: int, released) -> bool:
        """Would adding node i as uncovered contradict itself even after the
        release of the nodes in released (a release_set)? Propagates i = +1
        with the released nodes counted as unfrozen. When it would, freezing
        any one node keeps the represented cover size; the new node is the
        convenient choice."""
        return self._close((i,), virt=released) is None

    def rechecking(self, lost) -> None:
        """Release covered backbones whose only uncovered neighbour is their
        double partner.

        A covered node u whose one remaining uncovered neighbour v is its
        double partner is not forced after all: +v implies -u over the edge,
        -u implies +v over the double edge, and nothing else pins u. So u
        and v are a free pair, whatever their marks. The release is the
        dispatch's: release_set((u, v), mark[u]) frees both and walks on
        through u's cascade, where a covered member still pinned by a
        foreign uncovered neighbour stays frozen and blocks the walk (the
        checking rule). Repeats until no node qualifies, scanning ascending
        (rank, id).

        Only releasing removes an uncovered neighbour (freezing adds them,
        activate adds an unfrozen node), so the candidates are the covered
        neighbours of lost, the nodes a release unfroze from uncovered, and
        then of the nodes each fire's own release unfroze from uncovered.
        """
        rank, n = self.ranks.rank, self.graph.n
        state, aadj, dadj = self.state, self.active_adj, self.double_adj
        heap: list[int] = []

        def partner(u: int) -> int:
            # u's one uncovered neighbour when it is u's double partner, else -1
            if state[u] != NEG_FROZEN:
                return -1
            v = -1
            for w in aadj[u]:
                if state[w] == POS_FROZEN:
                    if v >= 0:
                        return -1
                    v = w
            return v if v >= 0 and v in dadj[u] else -1

        def push_candidates(nodes) -> None:
            # integer keys rank*n + id pop in ascending (rank, id) order
            for w in {w for x in nodes for w in aadj[x] if state[w] == NEG_FROZEN}:
                if partner(w) >= 0:
                    heapq.heappush(heap, rank[w] * n + w)

        push_candidates(lost)
        while heap:
            u = heapq.heappop(heap) % n
            v = partner(u)
            if v >= 0:
                push_candidates(self.releasing(self.release_set((u, v), self.mark[u])))

    # --------------------------------------------------------- odd-cycle break

    def _chain_head(self, x: int) -> int:
        """The head of the double-edge chain above the literal +x.

        From +x whose only double partner is p, the climb steps to +w when w
        is the only unfrozen neighbour of p, other than x, without a +1 pass:
        +w implies -p, which implies +x. It stops at a branch or at a repeat
        (a cycle), and returns the last node reached, x itself when no step
        is possible.
        """
        state, aadj, dadj, ok = self.state, self.active_adj, self.double_adj, self._ok
        seen = {x}
        while len(dadj[x]) == 1:
            up = -1
            for w in aadj[dadj[x][0]]:
                if not ok[w] and w != x and state[w] == UNFROZEN:
                    if up >= 0:
                        return x
                    up = w
            if up < 0 or up in seen:
                return x
            seen.add(up)
            x = up
        return x

    def _probe(self, lit: int) -> bool:
        """Does the literal lit propagate without conflict? A pass marks
        every literal the closure assigned as passing in _ok."""
        work = self._close((lit,))
        ok = self._ok
        for x in work or ():
            ok[x] = True
        return work is not None

    def break_odd_cycles(self, touched) -> None:
        """Freeze implied backbones and restore the single energy level.

        Runs four local closure rules to a fixed point, starting from the
        nodes the step touched:

        * +1 propagates to a contradiction (an incompatible cycle of
          alternating double edges): the node is covered in every represented
          solution, frozen to -1 as its own root, influence cascaded.
        * -1 propagates to a contradiction (a double partner left frozen by
          the checking rule): symmetric, frozen to +1.
        * no double partners and every neighbour covered: covering the node
          is pure waste, so at the minimum energy level it is uncovered.
        * no double partners and exactly one unfrozen neighbour w: the node
          is covered exactly when w is not (covering both wastes energy), a
          mutual-determination; the edge to w becomes double.

        Every rule application freezes a node or adds a double edge, so the
        fixed point is reached in finitely many events. A conflict-free probe
        (_probe) records every literal it assigned as passing, and the passes
        alone decide which literals are probed: a passing literal is not
        probed again, in this sweep or a later one, until its node is
        touched. One rule seeds the sweep: it clears the passes of the
        touched unfrozen nodes and seeds them, and, as after each freeze of
        its own, seeds the unfrozen neighbours of the touched frozen nodes,
        whose slack conditions changed. (A case A or E step touches only
        nodes it activates or releases, a case B, C or D step only nodes its
        cascade freezes.) So every unfrozen node holds its passes when a
        sweep ends.

        Why a pass stays valid until its node is touched. Before a step the
        RSG is closed, as every sweep leaves it: every unfrozen literal
        passes, a POS-frozen node has only NEG-frozen neighbours, and a
        double edge is unfrozen-unfrozen or POS-NEG.

        1. Freezing (cases B, C and D, and the sweep's own freezes) makes no
           unfrozen literal fail. The implication digraph is skew-symmetric:
           the cascade that freezes x follows the contrapositive of any cone
           through x, so it freezes that cone's root too.
        2. A case A or E step, rechecking included, releases nodes R and adds
           only the double edge (i, p). Let S be the literals that give each
           released node its old frozen value, plus -i. S is closed under
           implication, up to the values of nodes that stay frozen: each
           neighbour of an old POS node r was NEG-frozen or is i, so +r
           implies only -x for such x; each partner of an old NEG node r was
           POS-frozen, so -r implies only +x for such x; and -i implies +p
           for its partner p, an old POS node. So closing S reaches no
           untouched unfrozen node and clashes with no node still frozen. An
           untouched unfrozen literal enters the touched region only
           through +y => -x with x old-NEG or x = i, that is only into S;
           entering through an old-POS x would have failed before the step.
           Its closure is its old conflict-free part plus a subset of S, so
           it cannot fail.
        3. The slack rule's double edge (u, w), w being u's only unfrozen
           neighbour, adds -u => +w and -w => +u. Apart from -u itself, a
           closure holding -u holds +w, the only unfrozen literal implying
           -u. A closure holding -w gains at most +u, which implies only -w;
           +u would clash only with -u, which brings +w against -w. So only
           the closures of -u and -w change: their passes are cleared and
           both nodes are queued again.

        Head first: before probing the unpassed +1 literal of a node whose
        one double partner has one other neighbour, the sweep probes the
        head of its double-edge chain (_chain_head). The head implies the
        literal, so its pass certifies the whole chain in one probe; when the
        head fails, the literal is probed itself. Rank order still decides
        every freeze, so the outputs are those of probing each literal
        alone. Climbing from nodes with several partners, or through a first
        partner of higher degree, cost random graphs more time than it
        saved; climbing for -1 literals too (-u with one partner p is +p)
        saved no probe on chains or sparse graphs.
        """
        rank = self.ranks.rank
        n = self.graph.n
        active, state = self.active, self.state
        aadj, dadj = self.active_adj, self.double_adj
        ok = self._ok
        # the seeding rule (docstring); keys rank*n + id pop in (rank, id) order
        heap, frozen = [], []
        for x in touched:
            if state[x] != UNFROZEN:
                frozen.append(x)
            elif active[x]:
                ok[x] = ok[~x] = False
                heap.append(rank[x] * n + x)
        heapq.heapify(heap)

        def seed_nbrs(nodes) -> None:
            # freezing removes implications, so passes stay valid; only the
            # slack conditions of the frozen nodes' neighbours need a look
            for w in {w for x in nodes for w in aadj[x] if state[w] == UNFROZEN}:
                heapq.heappush(heap, rank[w] * n + w)

        def freeze(u: int, new_state: int) -> None:
            nodes = self.freezing(u, new_state)
            if nodes is None:  # a failed probe's opposite cascade must close
                raise RsgInvariantError(f"{u} fails both ways: no represented cover")
            seed_nbrs(nodes)

        seed_nbrs(frozen)
        while heap:
            key = heapq.heappop(heap)
            u = key % n
            if state[u] != UNFROZEN:
                continue
            if not ok[u]:
                # climbs through a partner of higher degree mostly went
                # nowhere and cost small dense graphs time
                if len(dadj[u]) == 1 and len(aadj[dadj[u][0]]) == 2:
                    h = self._chain_head(u)
                    if h != u:
                        self._probe(h)
                if not ok[u] and not self._probe(u):
                    freeze(u, NEG_FROZEN)
                    continue
            # -1 propagates only through double partners (all active); without
            # any the cone is trivially the node itself
            if dadj[u]:
                if not ok[~u] and not self._probe(~u):
                    freeze(u, POS_FROZEN)
                continue
            # frozen neighbours here are all covered (an uncovered one
            # would have failed the +1 test)
            unfrozen_nbrs = [w for w in aadj[u] if state[w] == UNFROZEN]
            if len(unfrozen_nbrs) > 1:
                continue
            if not unfrozen_nbrs:
                freeze(u, POS_FROZEN)
            else:
                w = unfrozen_nbrs[0]
                self.set_double(u, w)
                # only -u and -w changed closure (part 3 above)
                ok[~u] = ok[~w] = False
                heapq.heappush(heap, key)
                heapq.heappush(heap, rank[w] * n + w)

    # ------------------------------------------------------------- enumeration

    def unfrozen_components(self) -> list[list[int]]:
        """Connected components of active unfrozen nodes (via active edges),
        each sorted, in ascending order of their smallest node."""
        active, state = self.active, self.state
        free = [u for u in range(self.graph.n) if active[u] and state[u] == UNFROZEN]
        pieces = self._pieces(free, self._unfrozen_nbrs(free), [0] * self.graph.n)
        return [sorted(piece) for piece, _, _ in pieces]

    def _assignments(self, order):
        """Every constraint-satisfying assignment of the nodes in order, depth
        first: branch on the first unassigned node, +1 before -1.

        The partial assignment is the search's own, extended by _close.
        Iterative, since the decision depth grows with the component.
        """
        seen = [0] * self.graph.n
        # (position i, flip, literals): order[i] ^ flip, +1 (flip 0) before -1
        decisions: list[tuple[int, int, list[int]]] = []
        i, flip = 0, 0
        while True:
            while i < len(order) and seen[order[i]]:
                i += 1
            if i == len(order):
                yield {x: seen[x] for x in order}
            elif (lits := self._close((order[i] ^ flip,), seen=seen)) is not None:
                decisions.append((i, flip, lits))
                i, flip = i + 1, 0
                continue
            elif not flip:
                flip = -1
                continue
            # backtrack to the latest decision that can still take -1
            while decisions:
                i, flip, lits = decisions.pop()
                for lit in lits:
                    seen[lit if lit >= 0 else ~lit] = 0
                if not flip:
                    flip = -1
                    break
            else:
                return

    def _component_assignments(self, comp) -> list[dict[int, int]]:
        """All constraint-satisfying assignments of one unfrozen component,
        branching in ascending (rank, id) order."""
        rank = self.ranks.rank
        return list(self._assignments(sorted(comp, key=lambda u: (rank[u], u))))

    def _unfrozen_nbrs(self, nodes) -> dict[int, list[int]]:
        """Each node's unfrozen active neighbours, the adjacency _pieces walks."""
        state, aadj = self.state, self.active_adj
        return {u: [w for w in aadj[u] if state[w] == UNFROZEN] for u in nodes}

    def _pieces(self, nodes, nbrs, seen) -> list[tuple[frozenset, int, int]]:
        """Connected pieces of the nodes that the search's assignment seen
        leaves unassigned, in ascending order of their smallest node, each as
        (piece, edge count, branch node), found in one pass: the one
        component search.

        nbrs maps every node to its unfrozen neighbours (_unfrozen_nbrs).
        The walk takes every unassigned one as a member, so every unfrozen
        unassigned neighbour of a node must lie in nodes; the minimiser
        keeps this true (see the module docstring). Visited nodes carry a
        fresh _ptag tag, so no scratch is allocated per call. The branch
        node is the highest-degree node (ties to the lowest id), so cycles
        collapse fast.
        """
        self._tag += 1
        tag, ptag = self._tag, self._ptag
        pieces = []
        for s in nodes:
            if seen[s] or ptag[s] == tag:
                continue
            ptag[s] = tag
            order = [s]
            edges = 0
            best_u = best_deg = -1
            for x in order:
                deg = 0
                for w in nbrs[x]:
                    if not seen[w]:
                        deg += 1
                        if ptag[w] != tag:
                            ptag[w] = tag
                            order.append(w)
                edges += deg
                if deg > best_deg or (deg == best_deg and x < best_u):
                    best_deg, best_u = deg, x
            pieces.append((frozenset(order), edges // 2, best_u))
        if len(pieces) > 1:
            pieces.sort(key=lambda p: min(p[0]))
        return pieces

    def _tree_solve(self, nodes: frozenset, nbrs):
        """Minimum covered count of a tree piece by dynamic programming, and
        an assignment at that count, +1 preferred on ties.

        nbrs maps each node to its unfrozen neighbours. Assumes every outside
        neighbour of the piece is covered (frozen negative or already
        assigned -1), so only inside edges constrain. O(size).
        """
        dadj = self.double_adj
        root = min(nodes)
        parent = {root: root}
        order = [root]
        for x in order:
            for w in nbrs[x]:
                if w in nodes and w not in parent:
                    parent[w] = x
                    order.append(w)
        plus = dict.fromkeys(order, 0)
        minus = dict.fromkeys(order, 1)
        # children before parents: fold each child's minima into its parent
        for i in range(len(order) - 1, 0, -1):
            c = order[i]
            p = parent[c]
            plus[p] += minus[c]  # an uncovered node forces all neighbours covered
            if c in dadj[p]:
                minus[p] += plus[c]
            else:
                minus[p] += min(plus[c], minus[c])
        spins = {root: 1 if plus[root] <= minus[root] else -1}
        for i in range(1, len(order)):
            c = order[i]
            p = parent[c]
            if spins[p] == 1:
                spins[c] = -1
            elif c in dadj[p]:
                spins[c] = 1
            else:
                spins[c] = 1 if plus[c] <= minus[c] else -1
        return min(plus[root], minus[root]), spins

    def min_component_assignment(self, comp):
        """Deterministic assignment with the minimum covered count of one
        connected unfrozen component, +1 preferred on ties.

        Precondition: the RSG is closed (validate(deep=True) passes, as after
        every sweep). Then no node of the component has an uncovered frozen
        neighbour or a frozen double partner, and propagation leaves every
        piece it splits off with covered outside neighbours only. So only
        inside edges constrain a piece, and a piece with one edge fewer than
        nodes is a tree for linear dynamic programming, the whole component
        in a single pass when it is one. Cyclic pieces split recursively:
        assigning a high-degree node and propagating strands independent
        pieces whose minima add up, memoised per piece. Components whose
        cycle rank exceeds _MAX_CYCLE_RANK, or whose cycle structure
        exhausts _WORK_BUDGET (charged len(piece) per cyclic piece branched,
        before its branches), fall back to the first satisfying assignment
        and count in self.fallbacks; minimality is then heuristic. On ER
        n=2000, c=1..10, seeds 1-8, it fired on 6 of the 80 graphs (c=2 and
        3), 5 of them by budget.
        """
        nbrs = self._unfrozen_nbrs(comp)
        degrees = sum(map(len, nbrs.values()))
        # most sparse-graph components: skip the memo and the search's O(n)
        # assignment (comp is connected)
        if degrees == 2 * (len(comp) - 1):
            return self._tree_solve(frozenset(comp), nbrs)[1]
        seen = [0] * self.graph.n  # the search's assignment, cleared after each branch
        # the whole component is the first piece: _pieces's shape without its walk
        piece, edges = frozenset(comp), degrees // 2
        branch_node = min(comp, key=lambda u: (-len(nbrs[u]), u))
        # per piece: (covered count, branch literal, None) or (count, None, tree spins)
        memo: dict[frozenset, tuple] = {}
        budget = [_WORK_BUDGET]

        def min_count(shaped) -> int:
            piece, edges, branch_node = shaped
            got = memo.get(piece)
            if got is not None:
                return got[0]
            if edges == len(piece) - 1:
                count, spins = self._tree_solve(piece, nbrs)
                memo[piece] = (count, None, spins)
                return count
            budget[0] -= len(piece)
            if budget[0] < 0:
                raise _BranchBudgetOut
            best = best_lit = None
            for lit in (branch_node, ~branch_node):
                # the closure stays in the piece: outer branches hold the rest
                lits = self._close((lit,), seen=seen)
                if lits is None:
                    continue
                rest = self._pieces(piece, nbrs, seen)
                total = sum(1 for x in lits if x < 0)
                total += sum(min_count(p) for p in rest)
                for x in lits:
                    seen[x if x >= 0 else ~x] = 0
                if best is None or total < best:
                    best, best_lit = total, lit
            if best is None:
                raise RsgInvariantError(
                    f"piece containing {branch_node} admits no assignment"
                )
            memo[piece] = (best, best_lit, None)
            return best

        try:
            # a large cycle space cannot finish within the branch budget anyway
            if edges - len(piece) + 1 > _MAX_CYCLE_RANK:
                raise _BranchBudgetOut
            min_count((piece, edges, branch_node))
        except _BranchBudgetOut:
            # the first satisfying assignment, ascending id with +1 preferred
            self.fallbacks += 1
            return next(self._assignments(sorted(comp)), None)
        # replay the memo's choices into the assignment
        stack = [piece]
        while stack:
            piece = stack.pop()
            _, lit, spins = memo[piece]
            if spins is not None:
                for x, s in spins.items():
                    seen[x] = s
                continue
            if self._close((lit,), seen=seen) is None:
                return None
            stack.extend(p[0] for p in self._pieces(piece, nbrs, seen))
        return {u: seen[u] for u in comp}

    def enumerate_assignments(self, limit: int = 0) -> SolutionSet:
        """Every represented assignment: frozen spins fixed, all active edges
        covered, double edges opposite, each component at its minimum covered
        count (the structure represents a single energy level). limit=0 means
        unlimited; a hit limit yields a truncated set."""
        if limit < 0:
            raise ValueError(f"limit must be at least 0, got {limit}")
        base = [-1 if st == NEG_FROZEN else 1 for st in self.state]
        comp_sols = []
        for comp in self.unfrozen_components():
            sols = self._component_assignments(comp)
            if not sols:
                raise RsgInvariantError(
                    f"unfrozen component {comp} admits no valid assignment"
                )
            counts = [sum(1 for v in s.values() if v == -1) for s in sols]
            floor = min(counts)
            comp_sols.append([s for s, cnt in zip(sols, counts) if cnt == floor])

        assignments: list[Assignment] = []
        complete = True
        # first component outermost, last varying fastest
        for combo in itertools.product(*comp_sols):
            if limit and len(assignments) == limit:
                complete = False
                break
            spins = list(base)
            for sol in combo:
                for u, v in sol.items():
                    spins[u] = v
            assignments.append(Assignment(spin=tuple(spins), cover_size=spins.count(-1)))
        return SolutionSet(
            assignments=tuple(assignments),
            min_cover_size=min((a.cover_size for a in assignments), default=0),
            complete=complete,
        )

    # ------------------------------------------------------------------ export

    def to_json_doc(self) -> dict:
        nodes = []
        for u in range(self.graph.n):
            nodes.append(
                {
                    "id": u,
                    "active": self.active[u],
                    "state": _STATE_NAMES[self.state[u]],
                    "mark": None if self.mark[u] == NO_MARK else self.mark[u],
                    "rank": self.ranks.rank[u],
                }
            )
        edges = [
            {"u": u, "v": v, "kind": self.edge_kind(u, v)} for u, v in self.graph.edges
        ]
        return {"n": self.graph.n, "nodes": nodes, "edges": edges}

    def export_json(self) -> str:
        """to_json_doc() laid out as json.dumps(doc, indent=2) plus a newline.

        Written directly: with indent set, the json module falls back to its
        pure-Python encoder, which took most of the export time at n=20000.
        """
        active, state, mark = self.active, self.state, self.mark
        rank, dadj = self.ranks.rank, self.double_adj
        nodes = [
            _NODE_JSON
            % (
                u,
                "true" if active[u] else "false",
                _STATE_NAMES[state[u]],
                "null" if mark[u] == NO_MARK else mark[u],
                rank[u],
            )
            for u in range(self.graph.n)
        ]
        edges = [
            _EDGE_JSON % (u, v, "double" if v in dadj[u] else "plain")
            for u, v in self.graph.edges
        ]
        return '{\n  "n": %d,\n  "nodes": %s,\n  "edges": %s\n}\n' % (
            self.graph.n,
            _json_list(nodes),
            _json_list(edges),
        )

    def export_dot(self) -> str:
        return dot_from_json(self.to_json_doc())

    # ---------------------------------------------------------------- validator

    def validate(self, deep: bool = False) -> None:
        """Raise RsgInvariantError on any broken structural invariant.

        deep additionally checks the closure property: both literals of each
        active unfrozen node propagate, and none carries energy slack.
        """
        n = self.graph.n
        active, state, mark = self.active, self.state, self.mark
        adj, aadj = self.graph.adjacency, self.active_adj
        for u in range(n):
            expect = [w for w in adj[u] if active[w]] if active[u] else []
            if aadj[u] != expect:
                raise RsgInvariantError(
                    f"active-neighbour list of {u} is {aadj[u]}, expected {expect}"
                )
            if not active[u]:
                if state[u] != UNFROZEN or mark[u] != NO_MARK:
                    raise RsgInvariantError(f"inactive node {u} carries state or mark")
                continue
            if state[u] == UNFROZEN and mark[u] != NO_MARK:
                raise RsgInvariantError(f"unfrozen node {u} carries mark {mark[u]}")
            if state[u] != UNFROZEN:
                if mark[u] == NO_MARK:
                    raise RsgInvariantError(f"frozen node {u} has no mark")
                if not (0 <= mark[u] < n) or not active[mark[u]]:
                    raise RsgInvariantError(f"node {u} marked by invalid node {mark[u]}")
        for u, v in self.graph.edges:
            if active[u] and active[v]:
                if state[u] == POS_FROZEN and state[v] == POS_FROZEN:
                    raise RsgInvariantError(f"edge ({u},{v}) has two uncovered endpoints")
        for u in range(n):
            for v in self.double_adj[u]:
                if u not in self.double_adj[v]:
                    raise RsgInvariantError(f"double edge ({u},{v}) not symmetric")
                if v not in self.graph.adjacency[u]:
                    raise RsgInvariantError(f"double edge ({u},{v}) is not a graph edge")
                if not (active[u] and active[v]):
                    raise RsgInvariantError(f"double edge ({u},{v}) touches inactive node")
                pair = {state[u], state[v]}
                if pair not in ({UNFROZEN}, {POS_FROZEN, NEG_FROZEN}):
                    raise RsgInvariantError(
                        f"double edge ({u},{v}) with states {state[u]},{state[v]}"
                    )
        if deep:
            for u in range(n):
                if not active[u] or state[u] != UNFROZEN:
                    continue
                for lit in (u, ~u):
                    if self._close((lit,)) is None:
                        raise RsgInvariantError(
                            f"unfrozen node {u} cannot take {'+1' if lit >= 0 else '-1'}"
                            " (missed implied backbone)"
                        )
                if not self.double_adj[u]:
                    free = [w for w in aadj[u] if state[w] == UNFROZEN]
                    if len(free) < 2:
                        raise RsgInvariantError(
                            f"unfrozen node {u} carries energy slack (missed closure)"
                        )


def dot_from_json(doc: dict) -> str:
    """Render an RSG JSON document as Graphviz DOT.

    Doubled lines for mutual-determination edges, dashed lines for edges with
    a frozen endpoint, node fill by state (uncovered red, covered black).
    """
    fill = {"pos": "red", "neg": "black", "unfrozen": "white"}
    states = {node["id"]: node["state"] for node in doc["nodes"]}
    lines = ["graph rsg {", "  node [shape=circle, style=filled];"]
    for node in doc["nodes"]:
        attrs = [f'fillcolor="{fill[node["state"]]}"']
        if node["state"] == "neg":
            attrs.append('fontcolor="white"')
        if not node["active"]:
            attrs.append('style="filled,dotted"')
        lines.append(f"  {node['id']} [{', '.join(attrs)}];")
    for edge in doc["edges"]:
        u, v = edge["u"], edge["v"]
        attrs = []
        if edge["kind"] == "double":
            attrs.append('color="black:black"')
        if states[u] != "unfrozen" or states[v] != "unfrozen":
            attrs.append("style=dashed")
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  {u} -- {v}{suffix};")
    lines.append("}")
    return "\n".join(lines) + "\n"
