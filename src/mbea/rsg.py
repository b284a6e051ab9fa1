"""The reduced solution graph: frozen states, marks, and mutual-determination edges.

A reduced solution graph (RSG) over the currently active induced subgraph
compactly represents a set of equal-size vertex covers:

  * positively frozen node:  spin +1 (uncovered) in every represented cover
  * negatively frozen node:  spin -1 (covered) in every represented cover
  * unfrozen nodes vary, subject to two local rules --
      every active edge has at least one -1 endpoint, and
      the endpoints of a double edge take opposite spins (exactly one covered).

Frozen nodes carry a mark: the id of the node whose addition rooted the
freezing cascade (the root marks itself). Marks make cascades reversible:
releasing walks mark-equal neighbours and unfreezes them, except covered
nodes still pinned by a foreign uncovered neighbour (the checking rule).

Spin propagation implements the two rules as implications:
  x = +1  =>  every active neighbour of x is -1
  x = -1  =>  every double partner of x is +1
One kernel, _close, propagates them for the case dispatch, the closure sweep,
the validator and freezing, which freezes what the kernel's worklist reached.
It runs iteratively on scratch arrays (cascades can reach the whole graph, so
no recursion) and never changes the represented space itself.

The closure sweep probes the head of a double-edge chain before the literal
it reaches (+w implies -p implies +x, where p is x's only double partner and
w is p's only other unpassed neighbour), the failed-literal rule of SAT
preprocessing: one pass certifies the whole chain below the head, so a long
alternating chain costs n probes instead of n^2/16. A failed head is
remembered until the sweep ends: inside a sweep, freezing and new double
edges can only make a failing literal fail sooner, and nothing is released
(see break_odd_cycles).
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
        self.pos_nbr_count = [0] * n
        self.step_touched: set[int] = set()
        self._recheck_candidates: set[int] = set()
        self._mark_members: dict[int, set[int]] = {}
        # versioned scratch, reset in O(1) by bumping the tag: _close stores
        # +tag / -tag for a node it sets to +1 / -1, _affected_unfrozen
        # tags the +x and -x literals it reaches in _ptag and _ntag
        self._ptag = [0] * n
        self._ntag = [0] * n
        self._tag = 0
        # probe passes of the closure sweep: +u / -u propagates without
        # conflict; kept across sweeps until _affected_unfrozen clears them
        self._okp = [False] * n
        self._okn = [False] * n

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
        """Build an RSG in a given state, mainly for tests."""
        rsg = cls(graph, ranks)
        act = range(graph.n) if active is None else sorted(active)
        for u in act:
            rsg.active[u] = True
        for u in act:
            rsg.active_adj[u] = [w for w in graph.adjacency[u] if rsg.active[w]]
        for u, st in (states or {}).items():
            rsg.state[u] = int(st)
        for u, m in (marks or {}).items():
            rsg.mark[u] = NO_MARK if m is None else m
            if rsg.mark[u] != NO_MARK:
                rsg._mark_members.setdefault(rsg.mark[u], set()).add(u)
        for u, v in doubles:
            rsg.double_adj[u].append(v)
            rsg.double_adj[v].append(u)
        rsg._recount_pos_neighbours()
        # hand-built states have no change history: let rechecking scan everything
        rsg._recheck_candidates.update(u for u in range(graph.n) if rsg.active[u])
        return rsg

    def _recount_pos_neighbours(self) -> None:
        state = self.state
        for u in range(self.graph.n):
            self.pos_nbr_count[u] = sum(
                1 for w in self.active_adj[u] if state[w] == POS_FROZEN
            )

    # ------------------------------------------------------- state transitions

    def begin_step(self) -> None:
        self.step_touched.clear()

    def activate(self, i: int) -> None:
        """Bring node i into the active subgraph, unfrozen and unmarked."""
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
        self.pos_nbr_count[i] = sum(1 for w in nbrs if self.state[w] == POS_FROZEN)
        self.step_touched.add(i)

    def _set_state(self, u: int, new_state: int, new_mark: int) -> None:
        old = self.state[u]
        state, mark = self.state, self.mark
        # keep neighbour counts of uncovered-frozen nodes incremental;
        # a covered cascade member whose count lands on 1 becomes a
        # rechecking candidate (eligibility can only switch on here)
        if old != new_state and POS_FROZEN in (old, new_state):
            delta = 1 if new_state == POS_FROZEN else -1
            cnt = self.pos_nbr_count
            for w in self.active_adj[u]:
                cnt[w] += delta
                if (
                    cnt[w] == 1
                    and state[w] == NEG_FROZEN
                    and mark[w] != NO_MARK
                    and mark[w] != w
                ):
                    self._recheck_candidates.add(w)
        old_mark = mark[u]
        if old_mark != NO_MARK:
            self._mark_members[old_mark].discard(u)
        if new_mark != NO_MARK:
            self._mark_members.setdefault(new_mark, set()).add(u)
        state[u] = new_state
        mark[u] = new_mark
        self.step_touched.add(u)
        if (
            new_state == NEG_FROZEN
            and new_mark != u
            and self.pos_nbr_count[u] == 1
        ):
            self._recheck_candidates.add(u)

    def freeze_pos(self, i: int, mark: int) -> None:
        self._set_state(i, POS_FROZEN, mark)

    def freeze_neg(self, i: int, mark: int) -> None:
        self._set_state(i, NEG_FROZEN, mark)

    def release_one(self, i: int) -> None:
        self._set_state(i, UNFROZEN, NO_MARK)

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

    def _close(self, seeds, rng=None, virt=(), certify=False) -> list[int] | None:
        """Close seed (node, spin) pairs under the two rules: the literals
        assigned, seeds first, or None on a conflict.

        Frozen nodes end the walk: an uncovered neighbour of a +1 node or a
        covered double partner of a -1 node is a conflict. Nodes in virt
        count as unfrozen whatever their state (would_refreeze's release
        overlay). With certify set, a conflict-free closure records every
        literal it assigned as a probe pass of the closure sweep. With rng
        set, the worklist pops in random order (propagation is confluent, so
        the answer must not depend on it). The represented space is never
        changed.
        """
        self._tag += 1
        tag = self._tag
        ntag = -tag
        seen = self._ptag
        state, aadj, dadj = self.state, self.active_adj, self.double_adj
        work: list[int] = []  # literals: x for x = +1, ~x for x = -1
        for x, val in seeds:
            t = tag if val == 1 else ntag
            if seen[x] != t:
                if seen[x] == -t:
                    return None
                seen[x] = t
                work.append(x if val == 1 else ~x)
        # the list grows while it is walked: a breadth-first worklist
        for head, lit in enumerate(work):
            if rng is not None:
                j = rng.randrange(head, len(work))
                work[j], work[head] = lit, work[j]
                lit = work[head]
            if lit >= 0:
                for w in aadj[lit]:
                    st = state[w]
                    if st != UNFROZEN and w not in virt:
                        if st == POS_FROZEN:
                            return None
                    elif (t := seen[w]) != ntag:
                        if t == tag:
                            return None
                        seen[w] = ntag
                        work.append(~w)
            else:
                for w in dadj[~lit]:
                    st = state[w]
                    if st != UNFROZEN and w not in virt:
                        if st == NEG_FROZEN:
                            return None
                    elif (t := seen[w]) != tag:
                        if t == ntag:
                            return None
                        seen[w] = tag
                        work.append(w)
        if certify:
            okp, okn = self._okp, self._okn
            for lit in work:
                if lit >= 0:
                    okp[lit] = True
                else:
                    okn[~lit] = True
        return work

    def compatible_minus_one(self, targets, rng=None) -> bool:
        """Can all targets be covered simultaneously in the represented space?"""
        targets = list(targets)
        for t in targets:
            if not self.active[t] or self.state[t] != UNFROZEN:
                raise ValueError(f"target {t} must be active and unfrozen")
        return self._close([(t, -1) for t in targets], rng=rng) is not None

    # ------------------------------------------------------- freeze and release

    def freezing(self, i: int) -> list[int]:
        """Cascade the frozen influence of i outward; the nodes frozen, i first.

        An uncovered node forces all unfrozen neighbours covered; a covered
        node forces its unfrozen double partners uncovered. _close walks the
        cascade, and every node it reached is frozen with i's mark. A cascade
        that contradicts itself raises RsgInvariantError.
        """
        st, m = self.state[i], self.mark[i]
        if st == UNFROZEN or m == NO_MARK:
            raise ValueError(f"node {i} must be frozen and marked before freezing()")
        work = self._close(((i, 1 if st == POS_FROZEN else -1),))
        if work is None:
            raise RsgInvariantError(f"freezing cascade of {i} contradicts itself")
        nodes = [i]
        set_state = self._set_state
        for lit in work[1:]:
            if lit < 0:
                lit = ~lit
                set_state(lit, NEG_FROZEN, m)
            else:
                set_state(lit, POS_FROZEN, m)
            nodes.append(lit)
        return nodes

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
        release of the nodes in released (a release_set)?

        Propagates i = +1 treating the released nodes as unfrozen, with the
        usual conflict rules against everything that stays frozen. On such an
        incompatible structure, freezing any one node keeps the represented
        cover size, and the new node is the convenient choice.
        """
        return self._close(((i, 1),), virt=released) is None

    def releasing(self, i: int, root_mark: int) -> None:
        """Undo the cascade carrying root_mark, starting from i (release_set)."""
        if not self.active[i]:
            raise ValueError(f"node {i} is not active")
        for x in self.release_set((i,), root_mark):
            if self.state[x] != UNFROZEN:
                self.release_one(x)

    def rechecking(self) -> None:
        """Release covered backbones that lost all but one uncovered neighbour.

        A cascade-frozen covered node u whose only remaining uncovered
        neighbour v belongs to the same cascade is not forced after all: the
        cascade flip carries both, so u and v form a mutual-determination.
        Both are released with a double edge, and so is every other member
        of u's old cascade, except covered ones still pinned by a foreign
        uncovered neighbour (the checking rule). A foreign uncovered
        neighbour must not be released this way: its own cascade still pins
        it, and unfreezing it collapses the energy level. Repeats until no
        node qualifies, scanning ascending (rank, id).
        """
        rank = self.ranks.rank
        state, mark = self.state, self.mark
        heap = [(rank[x], x) for x in self._recheck_candidates]
        heapq.heapify(heap)
        self._recheck_candidates.clear()
        while heap:
            _, u = heapq.heappop(heap)
            m = mark[u]
            # self-rooted backbones are not cascade members; a candidate
            # scanned without firing stays ineligible until a tracked change
            # re-adds it, so dropping it here is safe
            if state[u] != NEG_FROZEN or m == u or self.pos_nbr_count[u] != 1:
                continue
            v = next(w for w in self.active_adj[u] if state[w] == POS_FROZEN)
            if mark[v] != m:
                continue
            self.release_one(u)
            self.release_one(v)
            self.set_double(u, v)
            free = [
                w
                for w in self._mark_members.get(m, ())
                if state[w] != NEG_FROZEN or not self.has_foreign_pos_neighbour(w, m)
            ]
            for w in free:
                self.release_one(w)
            # merge candidates created by the releases into the live scan
            for x in self._recheck_candidates:
                heapq.heappush(heap, (rank[x], x))
            self._recheck_candidates.clear()

    # --------------------------------------------------------- odd-cycle break

    def _affected_unfrozen(self, touched) -> set[int]:
        """Unfrozen nodes whose propagation cone may include a change; the
        probe passes of every literal on the way are cleared.

        Reverse-closes the implication digraph from the literals whose
        outgoing implications changed: both literals of each touched node
        (its -1 literal reaches the +1 literal of each unfrozen neighbour,
        whose implication into the node changed too). Literals outside the
        closure replay their previous (consistent) propagation unchanged and
        keep their passes.

        This is the only place passes are cleared, which is sound because:

        * freezing never adds an implication, and it cannot make a
          still-unfrozen literal's closure fail. The implication digraph is
          skew-symmetric: the cascade that freezes x follows the
          contrapositive of any cone through x, so it freezes that cone's
          root too;
        * every added implication reaches this method, which clears the
          passes of every literal that reaches it. Implications are added by
          an activation, a release or a new double edge, and arrive through
          step_touched (the sweep that ends a case A or E step) or through
          the slack rule's own call in break_odd_cycles. Cases B, C and D
          activate their node frozen and add none.

        Failures need no clearing: the sweep forgets them when it ends, and
        inside a sweep a failing literal keeps failing (break_odd_cycles).
        The passes a chain head's probe records are ordinary passes, every
        one of them for a literal its walk assigned.
        """
        active, state = self.active, self.state
        aadj, dadj = self.active_adj, self.double_adj
        okp, okn = self._okp, self._okn
        self._tag += 1
        tag = self._tag
        ptag, ntag = self._ptag, self._ntag
        pos = [x for x in touched if active[x]]  # +x literals still to expand
        neg = list(pos)  # -x literals still to expand
        affected = set(pos)
        for x in pos:
            ptag[x] = ntag[x] = tag
            okp[x] = okn[x] = False
        while pos or neg:
            if neg:
                # -x is implied by +u for every neighbour u
                for w in aadj[neg.pop()]:
                    if ptag[w] != tag and state[w] == UNFROZEN:
                        ptag[w] = tag
                        okp[w] = False
                        pos.append(w)
                        affected.add(w)
            else:
                # +x is implied by -p for every double partner p
                for w in dadj[pos.pop()]:
                    if ntag[w] != tag and state[w] == UNFROZEN:
                        ntag[w] = tag
                        okn[w] = False
                        neg.append(w)
                        affected.add(w)
        return {u for u in affected if state[u] == UNFROZEN}

    def _chain_head(self, x: int, failed) -> int:
        """The head of the double-edge chain above the literal +x.

        From +x whose only double partner is p, the climb steps to +w when w
        is the only unfrozen neighbour of p, other than x, without a +1 pass:
        +w implies -p, which implies +x. It stops at a branch, at a repeat
        (a cycle) or before a literal in failed, and returns the last node
        reached, x itself when no step is possible.
        """
        state, aadj, dadj, okp = self.state, self.active_adj, self.double_adj, self._okp
        seen = {x}
        while len(dadj[x]) == 1:
            up = -1
            for w in aadj[dadj[x][0]]:
                if not okp[w] and w != x and state[w] == UNFROZEN:
                    if up >= 0:
                        return x
                    up = w
            if up < 0 or up in seen or up in failed:
                return x
            seen.add(up)
            x = up
        return x

    def break_odd_cycles(self, touched, additions: bool = True) -> None:
        """Freeze implied backbones and restore the single energy level.

        Runs four local closure rules to a fixed point over the nodes whose
        implication cones a change may have reached:

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
        fixed point is reached in finitely many events. A step that only
        froze nodes (additions=False) removed implications and cannot create
        new propagation conflicts, so the two probes are skipped until the
        sweep's own slack rule adds a double edge.

        A conflict-free probe records every literal it assigned as passing
        (_okp/_okn), and a passing literal is not probed again, in this sweep
        or a later one, until _affected_unfrozen clears its pass. That is
        sound because freezing never adds an implication nor makes a
        still-unfrozen literal's closure fail (the freezing cascade is the
        contrapositive of any cone through the frozen node, so it freezes the
        cone's root too), and every added implication reaches
        _affected_unfrozen: through `touched` at the start of a sweep after
        an addition, or through the slack rule's own call below.

        Head first: before probing the unpassed +1 literal of a node whose
        one double partner has one other neighbour, the sweep probes the
        head of its double-edge chain (_chain_head). The head implies the literal, so its pass certifies
        the whole chain in one probe. A failing head goes into a per-sweep
        set and the literal is probed itself; a node whose +1 literal is in
        the set is frozen without a re-probe. Rank order still decides every
        freeze, so the outputs are those of probing each literal alone. A
        failure stays valid until the sweep ends: freezing leaves a failing
        unfrozen literal failing or freezes it (more fixed values reach a
        conflict no later), the sweep's only additions are double edges,
        which only add implications, and no release happens inside a sweep.
        Climbing from nodes with several partners, or through a first
        partner of higher degree, cost random graphs more time than it
        saved; climbing for -1 literals too (-u with one partner p is +p)
        saved no probe on chains or sparse graphs.
        """
        rank = self.ranks.rank
        n = self.graph.n
        state, aadj, dadj = self.state, self.active_adj, self.double_adj
        okp, okn = self._okp, self._okn
        probe = additions
        if additions:
            seeds = self._affected_unfrozen(touched)
        else:
            seeds = set()
            for x in touched:
                if self.active[x] and state[x] == UNFROZEN:
                    seeds.add(x)
                for w in aadj[x]:
                    if state[w] == UNFROZEN:
                        seeds.add(w)
        # integer keys rank*n + id pop in ascending (rank, id) order
        heap = [rank[u] * n + u for u in seeds]
        heapq.heapify(heap)

        def freeze(u: int, new_state: int) -> None:
            # freezing removes implications, so passes stay valid; only the
            # slack conditions of bystanders need a second look
            self._set_state(u, new_state, u)
            for x in self.freezing(u):
                for w in aadj[x]:
                    if state[w] == UNFROZEN:
                        heapq.heappush(heap, rank[w] * n + w)

        # +h literals whose probe failed in this sweep
        failed: set[int] = set()
        last = -1
        while heap:
            key = heapq.heappop(heap)
            # a repeat of the key just handled finds nothing changed
            if key == last:
                continue
            last = key
            u = key % n
            if state[u] != UNFROZEN:
                continue
            if probe and not okp[u]:
                # climbs through a partner of higher degree mostly went
                # nowhere and cost small dense graphs time
                if len(dadj[u]) == 1 and len(aadj[dadj[u][0]]) == 2 and u not in failed:
                    h = self._chain_head(u, failed)
                    if h != u and self._close(((h, 1),), certify=True) is None:
                        failed.add(h)
                # a failed +u has no pass: none is recorded after the failure
                if not okp[u] and (u in failed or self._close(((u, 1),), certify=True) is None):
                    freeze(u, NEG_FROZEN)
                    continue
            # -1 propagates only through double partners (all active); without
            # any the cone is trivially the node itself
            if dadj[u]:
                if probe and not okn[u] and self._close(((u, -1),), certify=True) is None:
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
                self.set_double(u, unfrozen_nbrs[0])
                probe = True
                # u is among the affected nodes and must be handled again
                last = -1
                for x in self._affected_unfrozen({u, unfrozen_nbrs[0]}):
                    heapq.heappush(heap, rank[x] * n + x)

    # ------------------------------------------------------------- enumeration

    def unfrozen_components(self) -> list[list[int]]:
        """Connected components of active unfrozen nodes (via active edges)."""
        active, state, aadj = self.active, self.state, self.active_adj
        seen = [False] * self.graph.n
        comps = []
        for s in range(self.graph.n):
            if seen[s] or not active[s] or state[s] != UNFROZEN:
                continue
            comp = [s]
            seen[s] = True
            queue = [s]
            while queue:
                x = queue.pop()
                for w in aadj[x]:
                    if not seen[w] and state[w] == UNFROZEN:
                        seen[w] = True
                        comp.append(w)
                        queue.append(w)
            comps.append(sorted(comp))
        return comps

    def _assign_closure(self, val: dict[int, int]):
        """Shared propagation step for the backtracking searches.

        Returns a function assign(x, v, trail) extending val under the two
        rules, recording touched nodes on trail, False on conflict.
        """
        state, aadj, dadj = self.state, self.active_adj, self.double_adj

        def assign(x: int, v: int, trail: list[int]) -> bool:
            stack = [(x, v)]
            while stack:
                x, v = stack.pop()
                cur = val.get(x)
                if cur is not None:
                    if cur != v:
                        return False
                    continue
                val[x] = v
                trail.append(x)
                if v == 1:
                    for w in aadj[x]:
                        st = state[w]
                        if st == UNFROZEN:
                            stack.append((w, -1))
                        elif st == POS_FROZEN:
                            return False
                else:
                    for w in dadj[x]:
                        st = state[w]
                        if st == UNFROZEN:
                            stack.append((w, 1))
                        elif st == NEG_FROZEN:
                            return False
            return True

        return assign

    def _assignments(self, order):
        """Every constraint-satisfying assignment of the nodes in order, depth
        first: branch on the first unassigned node, +1 before -1.

        Iterative, since the decision depth grows with the component.
        """
        val: dict[int, int] = {}
        assign = self._assign_closure(val)
        decisions: list[tuple[int, int, list[int]]] = []  # (position, spin, trail)
        i, v = 0, 1
        while True:
            while i < len(order) and order[i] in val:
                i += 1
            if i == len(order):
                yield dict(val)
            else:
                trail: list[int] = []
                if assign(order[i], v, trail):
                    decisions.append((i, v, trail))
                    i, v = i + 1, 1
                    continue
                for x in trail:
                    del val[x]
                if v == 1:
                    v = -1
                    continue
            # backtrack to the latest decision that can still take -1
            while True:
                if not decisions:
                    return
                i, v, trail = decisions.pop()
                for x in trail:
                    del val[x]
                if v == 1:
                    v = -1
                    break

    def _component_assignments(self, comp) -> list[dict[int, int]]:
        """All constraint-satisfying assignments of one unfrozen component,
        branching in ascending (rank, id) order."""
        rank = self.ranks.rank
        return list(self._assignments(sorted(comp, key=lambda u: (rank[u], u))))

    def _pieces(self, nodes) -> list[tuple[frozenset, int, int, bool]]:
        """Connected pieces of a node set over graph edges, in ascending
        order of their smallest node, each as (piece, edge count, branch
        node, clean), found in one pass.

        The branch node is the highest-degree node (ties to the lowest id),
        so cycles collapse fast. Clean means no uncovered neighbour and no
        frozen double partner outside the piece: only inside edges constrain
        it, as _tree_solve assumes.
        """
        aadj, dadj, state = self.active_adj, self.double_adj, self.state
        left = set(nodes)
        pieces = []
        while left:
            s = min(left)
            left.discard(s)
            order = [s]
            edges = 0
            best_u = best_deg = -1
            clean = True
            for x in order:
                deg = 0
                for w in aadj[x]:
                    if w in nodes:
                        deg += 1
                        if w in left:
                            left.discard(w)
                            order.append(w)
                    elif state[w] == POS_FROZEN:
                        clean = False
                for w in dadj[x]:
                    if w not in nodes and state[w] != UNFROZEN:
                        clean = False
                edges += deg
                if deg > best_deg or (deg == best_deg and x < best_u):
                    best_deg, best_u = deg, x
            pieces.append((frozenset(order), edges // 2, best_u, clean))
        return pieces

    def _tree_solve(self, nodes: frozenset):
        """Minimum covered count of a tree piece by dynamic programming, and
        an assignment at that count, +1 preferred on ties.

        Assumes every outside neighbour of the piece is covered (frozen
        negative or already assigned -1), so only inside edges constrain.
        O(size).
        """
        adj, dadj = self.graph.adjacency, self.double_adj
        root = min(nodes)
        parent = {root: root}
        order = [root]
        for x in order:
            for w in adj[x]:
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

    def _greedy_assignment(self, comp) -> dict[int, int] | None:
        """First satisfying assignment, ascending id with +1 preferred."""
        return next(self._assignments(sorted(comp)), None)

    def min_component_assignment(self, comp, work_budget: int = 200_000):
        """Deterministic assignment with the component's minimum covered
        count, +1 preferred on ties.

        Tree pieces go through linear dynamic programming, a clean tree
        component in a single pass. Cyclic pieces split recursively:
        assigning a high-degree node and propagating strands independent
        pieces whose minima add up, memoised per piece. Components whose
        cycle structure exhausts the work budget (charged per piece node
        examined) fall back to the first satisfying assignment; minimality
        is then heuristic, which only happens on large leaf-removal cores.
        """
        comp_set = frozenset(comp)
        pieces = self._pieces(comp_set)
        # most sparse-graph components: skip the memo and search closures
        if len(pieces) == 1:
            piece, edges, _, clean = pieces[0]
            if clean and edges == len(piece) - 1:
                _, spins = self._tree_solve(piece)
                return {u: spins[u] for u in comp}
        # a large cycle space cannot finish within the branch budget anyway
        if sum(p[1] for p in pieces) - len(comp_set) + 1 > 60:
            return self._greedy_assignment(comp)
        memo: dict[frozenset, tuple] = {}
        budget = [work_budget]

        def branch(piece: frozenset, u: int, v: int):
            val: dict[int, int] = {}
            assign = self._assign_closure(val)
            trail: list[int] = []
            if not assign(u, v, trail):
                return None, None
            cnt = sum(1 for x in trail if x in piece and val[x] == -1)
            return cnt, self._pieces({x for x in piece if x not in val})

        TREE = 0  # sentinel spin marking a tree-solved piece, its spins kept

        def min_count(shaped) -> int:
            piece, edges, branch_node, clean = shaped
            got = memo.get(piece)
            if got is not None:
                return got[0]
            if clean and edges == len(piece) - 1:
                count, spins = self._tree_solve(piece)
                memo[piece] = (count, TREE, spins)
                return count
            budget[0] -= len(piece)
            if budget[0] < 0:
                raise _BranchBudgetOut
            best = best_spin = None
            for v in (1, -1):
                cnt, rest = branch(piece, branch_node, v)
                if cnt is None:
                    continue
                total = cnt + sum(min_count(p) for p in rest)
                if best is None or total < best:
                    best, best_spin = total, v
            if best is None:
                raise RsgInvariantError(
                    f"piece containing {branch_node} admits no assignment"
                )
            memo[piece] = (best, best_spin, branch_node)
            return best

        try:
            for p in pieces:
                min_count(p)
        except _BranchBudgetOut:
            return self._greedy_assignment(comp)
        gval: dict[int, int] = {}
        assign = self._assign_closure(gval)
        stack = [p[0] for p in pieces]
        while stack:
            piece = stack.pop()
            _, spin, step = memo[piece]  # step: branch node, or a tree's spins
            if spin == TREE:
                gval.update(step)
                continue
            trail: list[int] = []
            if not assign(step, spin, trail):
                return None
            rest = {x for x in piece if x not in gval}
            stack.extend(p[0] for p in self._pieces(rest))
        return {u: gval[u] for u in comp}

    def enumerate_assignments(self, limit: int = 0) -> SolutionSet:
        """Every represented assignment: frozen spins fixed, all active edges
        covered, double edges opposite, each component at its minimum covered
        count (the structure represents a single energy level). limit=0 means
        unlimited; a hit limit yields a truncated set."""
        n = self.graph.n
        base = [1] * n
        for u in range(n):
            if self.active[u] and self.state[u] == NEG_FROZEN:
                base[u] = -1
        cap = limit + 1 if limit else 0
        comp_sols = []
        for comp in self.unfrozen_components():
            sols = self._component_assignments(comp)
            if not sols:
                raise RsgInvariantError(
                    f"unfrozen component {comp} admits no valid assignment"
                )
            counts = [sum(1 for v in s.values() if v == -1) for s in sols]
            floor = min(counts)
            sols = [s for s, cnt in zip(sols, counts) if cnt == floor]
            comp_sols.append(sols)

        assignments: list[Assignment] = []
        # first component outermost, last varying fastest
        for combo in itertools.product(*comp_sols):
            spins = list(base)
            for sol in combo:
                for u, v in sol.items():
                    spins[u] = v
            cover = sum(1 for u in range(n) if self.active[u] and spins[u] == -1)
            assignments.append(Assignment(spin=tuple(spins), cover_size=cover))
            if cap and len(assignments) >= cap:
                break
        truncated = bool(limit) and len(assignments) > limit
        if truncated:
            assignments = assignments[:limit]
        sizes = {a.cover_size for a in assignments}
        min_size = min(sizes) if sizes else 0
        return SolutionSet(
            assignments=tuple(assignments),
            min_cover_size=min_size,
            complete=not truncated,
            truncated=truncated,
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

        deep additionally checks the closure property: every active unfrozen
        node can still take +1 under propagation.
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
        for u in range(n):
            if not active[u]:
                continue
            expect = sum(1 for w in aadj[u] if state[w] == POS_FROZEN)
            if self.pos_nbr_count[u] != expect:
                raise RsgInvariantError(
                    f"stale uncovered-neighbour count at {u}: "
                    f"{self.pos_nbr_count[u]} != {expect}"
                )
        if deep:
            for u in range(n):
                if not active[u] or state[u] != UNFROZEN:
                    continue
                if self._close(((u, 1),)) is None:
                    raise RsgInvariantError(
                        f"unfrozen node {u} cannot take +1 (missed implied backbone)"
                    )
                if self._close(((u, -1),)) is None:
                    raise RsgInvariantError(
                        f"unfrozen node {u} cannot take -1 (missed implied backbone)"
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
