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
Propagation runs iteratively on scratch arrays (cascades can reach the whole
graph, so no recursion) and never mutates shared state.
"""

from __future__ import annotations

import heapq
import itertools
import json
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
_STATE_FROM_NAME = {v: k for k, v in _STATE_NAMES.items()}


class RsgInvariantError(Exception):
    """A structural invariant of the reduced solution graph was violated."""


class _BranchBudgetOut(Exception):
    """Internal: exact minimum-level search ran out of branch budget."""


class ReducedSolutionGraph:
    """Single-owner mutable RSG. Use copy() for read-only snapshots."""

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
        self.pos_nbr_count = [0] * n
        self.step_touched: set[int] = set()
        self._recheck_candidates: set[int] = set()
        self._mark_members: dict[int, set[int]] = {}
        # versioned scratch for propagation; bumping the tag resets in O(1)
        self._ptag = [0] * n
        self._pval = [0] * n
        self._tag = 0
        # versioned "spin passes propagation" cache for the closure sweep
        self._okp = [0] * n
        self._okn = [0] * n
        self._ok_ver = 0

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
        """Build an RSG in a given state; mainly for tests and JSON import."""
        rsg = cls(graph, ranks)
        act = range(graph.n) if active is None else sorted(active)
        for u in act:
            rsg.active[u] = True
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

    def copy(self) -> "ReducedSolutionGraph":
        dup = ReducedSolutionGraph(self.graph, self.ranks)
        dup.active = list(self.active)
        dup.state = list(self.state)
        dup.mark = list(self.mark)
        dup.double_adj = [list(p) for p in self.double_adj]
        dup.pos_nbr_count = list(self.pos_nbr_count)
        dup.step_touched = set(self.step_touched)
        dup._recheck_candidates = set(self._recheck_candidates)
        dup._mark_members = {m: set(s) for m, s in self._mark_members.items()}
        return dup

    def _recount_pos_neighbours(self) -> None:
        for u in range(self.graph.n):
            self.pos_nbr_count[u] = sum(
                1
                for w in self.graph.adjacency[u]
                if self.active[w] and self.state[w] == POS_FROZEN
            )

    # ------------------------------------------------------- state transitions

    def begin_step(self) -> None:
        self.step_touched.clear()

    def activate(self, i: int) -> None:
        """Bring node i into the active subgraph, unfrozen and unmarked."""
        if self.active[i]:
            raise ValueError(f"node {i} already active")
        self.active[i] = True
        self.state[i] = UNFROZEN
        self.mark[i] = NO_MARK
        self.pos_nbr_count[i] = sum(
            1
            for w in self.graph.adjacency[i]
            if self.active[w] and self.state[w] == POS_FROZEN
        )
        self.step_touched.add(i)

    def _set_state(self, u: int, new_state: int, new_mark: int) -> None:
        old = self.state[u]
        state, mark = self.state, self.mark
        # keep neighbour counts of uncovered-frozen nodes incremental;
        # a covered cascade member whose count lands on 1 becomes a
        # rechecking candidate (eligibility can only switch on here)
        if old != new_state and POS_FROZEN in (old, new_state):
            delta = 1 if new_state == POS_FROZEN else -1
            active = self.active
            cnt = self.pos_nbr_count
            for w in self.graph.adjacency[u]:
                if active[w]:
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

    def _propagate(self, seeds, rng=None) -> bool:
        """Close seed spins under the two rules; True iff conflict-free.

        Scratch-only: shared state is never mutated. With rng set, the
        worklist pops in random order (propagation is confluent, so the
        answer must not depend on it).
        """
        self._tag += 1
        tag = self._tag
        ptag, pval = self._ptag, self._pval
        state, active = self.state, self.active
        adj, dadj = self.graph.adjacency, self.double_adj
        work: list[int] = []
        for x, val in seeds:
            if ptag[x] == tag:
                if pval[x] != val:
                    return False
                continue
            ptag[x] = tag
            pval[x] = val
            work.append(x)
        head = 0
        while head < len(work):
            if rng is not None and len(work) - head > 1:
                j = rng.randrange(head, len(work))
                work[j], work[head] = work[head], work[j]
            x = work[head]
            head += 1
            if pval[x] == 1:
                for w in adj[x]:
                    if not active[w]:
                        continue
                    st = state[w]
                    if st == UNFROZEN:
                        if ptag[w] == tag:
                            if pval[w] != -1:
                                return False
                        else:
                            ptag[w] = tag
                            pval[w] = -1
                            work.append(w)
                    elif st == POS_FROZEN:
                        return False
            else:
                for w in dadj[x]:
                    if not active[w]:
                        continue
                    st = state[w]
                    if st == UNFROZEN:
                        if ptag[w] == tag:
                            if pval[w] != 1:
                                return False
                        else:
                            ptag[w] = tag
                            pval[w] = 1
                            work.append(w)
                    elif st == NEG_FROZEN:
                        return False
        return True

    def compatible_minus_one(self, targets, rng=None) -> bool:
        """Can all targets be covered simultaneously in the represented space?"""
        targets = list(targets)
        for t in targets:
            if not self.active[t] or self.state[t] != UNFROZEN:
                raise ValueError(f"target {t} must be active and unfrozen")
        return self._propagate([(t, -1) for t in targets], rng=rng)

    def _test_and_certify(self, u: int, spin: int, ver: int) -> bool:
        """Propagate u=spin; on success mark every assigned literal as
        passing for cache version ver. Inlined hot path of the closure sweep."""
        self._tag += 1
        tag = self._tag
        ptag, pval = self._ptag, self._pval
        state, active = self.state, self.active
        adj, dadj = self.graph.adjacency, self.double_adj
        okp, okn = self._okp, self._okn
        work = [u]
        ptag[u] = tag
        pval[u] = spin
        head = 0
        while head < len(work):
            x = work[head]
            head += 1
            if pval[x] == 1:
                for w in adj[x]:
                    if not active[w]:
                        continue
                    st = state[w]
                    if st == UNFROZEN:
                        if ptag[w] == tag:
                            if pval[w] != -1:
                                return False
                        else:
                            ptag[w] = tag
                            pval[w] = -1
                            work.append(w)
                    elif st == POS_FROZEN:
                        return False
            else:
                for w in dadj[x]:
                    if not active[w]:
                        continue
                    st = state[w]
                    if st == UNFROZEN:
                        if ptag[w] == tag:
                            if pval[w] != 1:
                                return False
                        else:
                            ptag[w] = tag
                            pval[w] = 1
                            work.append(w)
                    elif st == NEG_FROZEN:
                        return False
        for x in work:
            if pval[x] == 1:
                okp[x] = ver
            else:
                okn[x] = ver
        return True

    # ------------------------------------------------------- freeze and release

    def freezing(self, i: int) -> None:
        """Cascade the frozen influence of i outward.

        An uncovered node forces all unfrozen neighbours covered; a covered
        node forces its unfrozen double partners uncovered. Every step freezes
        a node, so the cascade terminates.
        """
        if self.state[i] == UNFROZEN or self.mark[i] == NO_MARK:
            raise ValueError(f"node {i} must be frozen and marked before freezing()")
        state, active = self.state, self.active
        work = [i]
        while work:
            x = work.pop()
            m = self.mark[x]
            if state[x] == POS_FROZEN:
                for w in self.graph.adjacency[x]:
                    if active[w] and state[w] == UNFROZEN:
                        self._set_state(w, NEG_FROZEN, m)
                        work.append(w)
            else:
                for w in self.double_adj[x]:
                    if active[w] and state[w] == UNFROZEN:
                        self._set_state(w, POS_FROZEN, m)
                        work.append(w)

    def has_foreign_pos_neighbour(self, j: int, root_mark: int) -> bool:
        for k in self.graph.adjacency[j]:
            if (
                self.active[k]
                and self.state[k] == POS_FROZEN
                and self.mark[k] != root_mark
            ):
                return True
        return False

    def would_refreeze(self, i: int, entries, root_mark: int) -> bool:
        """Would adding node i as uncovered contradict itself even after the
        release it triggers?

        Simulates the guarded release walk without mutating, then propagates
        i = +1 treating the would-be-released nodes as unfrozen, with the
        usual conflict rules against everything that stays frozen. On such an
        incompatible structure, freezing any one node keeps the represented
        cover size, and the new node is the convenient choice.
        """
        state, active, mark = self.state, self.active, self.mark
        adj, dadj = self.graph.adjacency, self.double_adj
        virt: set[int] = set()
        stack = list(entries)
        virt.update(stack)
        while stack:
            x = stack.pop()
            for j in adj[x]:
                if (
                    j in virt
                    or not active[j]
                    or state[j] == UNFROZEN
                    or mark[j] != root_mark
                ):
                    continue
                if state[j] == NEG_FROZEN and self.has_foreign_pos_neighbour(j, root_mark):
                    continue
                virt.add(j)
                stack.append(j)
        self._tag += 1
        tag = self._tag
        ptag, pval = self._ptag, self._pval
        ptag[i] = tag
        pval[i] = 1
        work = [i]
        head = 0
        while head < len(work):
            x = work[head]
            head += 1
            if pval[x] == 1:
                for w in adj[x]:
                    if not active[w]:
                        continue
                    if state[w] != UNFROZEN and w not in virt:
                        if state[w] == POS_FROZEN:
                            return True
                        continue
                    if ptag[w] == tag:
                        if pval[w] != -1:
                            return True
                    else:
                        ptag[w] = tag
                        pval[w] = -1
                        work.append(w)
            else:
                for w in dadj[x]:
                    if not active[w]:
                        continue
                    if state[w] != UNFROZEN and w not in virt:
                        if state[w] == NEG_FROZEN:
                            return True
                        continue
                    if ptag[w] == tag:
                        if pval[w] != 1:
                            return True
                    else:
                        ptag[w] = tag
                        pval[w] = 1
                        work.append(w)
        return False

    def releasing(self, i: int, root_mark: int) -> None:
        """Undo the cascade carrying root_mark, starting from i.

        i itself is released unconditionally. A covered neighbour that still
        has an uncovered neighbour from a different cascade stays frozen and
        blocks the walk there (checking rule).
        """
        if not self.active[i]:
            raise ValueError(f"node {i} is not active")
        state, mark, active = self.state, self.mark, self.active
        if state[i] != UNFROZEN:
            self.release_one(i)
        work = [i]
        while work:
            x = work.pop()
            for j in self.graph.adjacency[x]:
                if not active[j] or state[j] == UNFROZEN or mark[j] != root_mark:
                    continue
                if state[j] == NEG_FROZEN and self.has_foreign_pos_neighbour(j, root_mark):
                    continue
                self.release_one(j)
                work.append(j)

    def rechecking(self) -> None:
        """Release covered backbones that lost all but one uncovered neighbour.

        A cascade-frozen covered node u whose only remaining uncovered
        neighbour v belongs to the same cascade is not forced after all: the
        cascade flip carries both, so u and v form a mutual-determination.
        Both are released with a double edge, and the remainder of u's old
        cascade is released too (still subject to the checking rule). A
        foreign uncovered neighbour must not be released this way: its own
        cascade still pins it, and unfreezing it collapses the energy level.
        Repeats until no node qualifies, scanning ascending (rank, id).
        """
        rank = self.ranks.rank
        heap = [(rank[x], x) for x in self._recheck_candidates]
        heapq.heapify(heap)
        self._recheck_candidates.clear()
        while heap:
            _, u = heapq.heappop(heap)
            # a candidate scanned without firing stays ineligible until a
            # tracked change re-adds it, so dropping it here is safe
            if not self.active[u] or self.state[u] != NEG_FROZEN:
                continue
            m = self.mark[u]
            if m == NO_MARK or m == u:
                continue  # self-rooted backbones are not cascade members
            if self.pos_nbr_count[u] != 1:
                continue
            v = next(
                w
                for w in self.graph.adjacency[u]
                if self.active[w] and self.state[w] == POS_FROZEN
            )
            if self.mark[v] != m:
                continue
            self.release_one(u)
            self.release_one(v)
            self.set_double(u, v)
            members = sorted((rank[x], x) for x in self._mark_members.get(m, ()))
            for _, w in members:
                if not self.active[w] or self.state[w] == UNFROZEN or self.mark[w] != m:
                    continue
                if self.state[w] == NEG_FROZEN and self.has_foreign_pos_neighbour(w, m):
                    continue
                self.releasing(w, m)
            # merge candidates created by the releases into the live scan
            for x in self._recheck_candidates:
                heapq.heappush(heap, (rank[x], x))
            self._recheck_candidates.clear()

    # --------------------------------------------------------- odd-cycle break

    def _affected_unfrozen(self, touched) -> set[int]:
        """Unfrozen nodes whose propagation cone may include a change.

        Reverse-closes the implication digraph from the literals whose
        outgoing implications changed this step. Nodes outside the closure
        replay their previous (consistent) propagation unchanged.
        """
        active, state = self.active, self.state
        adj, dadj = self.graph.adjacency, self.double_adj
        # version-tagged membership, reusing the propagation scratch arrays
        self._tag += 1
        ptag, pval = self._ptag, self._pval  # pval bits: 1 = +lit, 2 = -lit
        tag = self._tag
        work: list[int] = []  # encodes (node, sign) as 2x + (sign < 0)
        seen: list[int] = []

        def touch(w: int, bit: int) -> bool:
            if ptag[w] != tag:
                ptag[w] = tag
                pval[w] = 0
                seen.append(w)
            if pval[w] & bit:
                return False
            pval[w] |= bit
            return True

        for x in touched:
            if not active[x]:
                continue
            if touch(x, 1):
                work.append(2 * x)
            if touch(x, 2):
                work.append(2 * x + 1)
            for w in adj[x]:
                if active[w] and state[w] == UNFROZEN and touch(w, 1):
                    work.append(2 * w)
        while work:
            code = work.pop()
            x = code >> 1
            if code & 1:
                # -x is implied by +u for every neighbour u
                for w in adj[x]:
                    if active[w] and state[w] == UNFROZEN and touch(w, 1):
                        work.append(2 * w)
            else:
                # +x is implied by -p for every double partner p
                for w in dadj[x]:
                    if active[w] and state[w] == UNFROZEN and touch(w, 2):
                        work.append(2 * w + 1)
        return {u for u in seen if active[u] and state[u] == UNFROZEN}

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
        """
        rank = self.ranks.rank
        state, active = self.state, self.active
        adj = self.graph.adjacency
        self._ok_ver += 1
        okp, okn = self._okp, self._okn
        probe = additions
        if additions:
            seeds = self._affected_unfrozen(touched)
        else:
            seeds = set()
            for x in touched:
                if active[x] and state[x] == UNFROZEN:
                    seeds.add(x)
                for w in adj[x]:
                    if active[w] and state[w] == UNFROZEN:
                        seeds.add(w)
        heap = [(rank[u], u) for u in seeds]
        heapq.heapify(heap)

        def freeze(u: int, new_state: int) -> None:
            # freezing removes implications, so cached passes stay valid;
            # only the slack conditions of bystanders need a second look
            outer = self.step_touched
            delta: set[int] = set()
            self.step_touched = delta
            self._set_state(u, new_state, u)
            self.freezing(u)
            self.step_touched = outer
            outer |= delta
            for x in delta:
                for w in adj[x]:
                    if active[w] and state[w] == UNFROZEN:
                        heapq.heappush(heap, (rank[w], w))

        dadj = self.double_adj
        while heap:
            _, u = heapq.heappop(heap)
            if not active[u] or state[u] != UNFROZEN:
                continue
            ver = self._ok_ver
            # a conflict-free closure certifies every literal it assigns
            if probe and okp[u] != ver and not self._test_and_certify(u, 1, ver):
                freeze(u, NEG_FROZEN)
                continue
            # -1 propagates only through double partners; without any the
            # cone is trivially the node itself
            if dadj[u]:
                if probe and okn[u] != ver and not self._test_and_certify(u, -1, ver):
                    freeze(u, POS_FROZEN)
                    continue
                if any(active[w] for w in dadj[u]):
                    continue
            # frozen neighbours here are all covered (an uncovered one
            # would have failed the +1 test)
            unfrozen_nbrs = [w for w in adj[u] if active[w] and state[w] == UNFROZEN]
            if len(unfrozen_nbrs) > 1:
                continue
            if not unfrozen_nbrs:
                freeze(u, POS_FROZEN)
            else:
                self.set_double(u, unfrozen_nbrs[0])
                probe = True
                self._ok_ver += 1  # new implications invalidate cached passes
                for x in self._affected_unfrozen({u, unfrozen_nbrs[0]}):
                    heapq.heappush(heap, (rank[x], x))
                heapq.heappush(heap, (rank[u], u))

    # ------------------------------------------------------------- enumeration

    def unfrozen_components(self) -> list[list[int]]:
        """Connected components of active unfrozen nodes (via active edges)."""
        active, state = self.active, self.state
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
                for w in self.graph.adjacency[x]:
                    if not seen[w] and active[w] and state[w] == UNFROZEN:
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
        state, active = self.state, self.active
        adj, dadj = self.graph.adjacency, self.double_adj

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
                    for w in adj[x]:
                        if not active[w]:
                            continue
                        st = state[w]
                        if st == UNFROZEN:
                            stack.append((w, -1))
                        elif st == POS_FROZEN:
                            return False
                else:
                    for w in dadj[x]:
                        if not active[w]:
                            continue
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

    def _residual_pieces(self, nodes: frozenset) -> list[frozenset]:
        """Connected pieces of an unassigned node set over constraint edges."""
        adj = self.graph.adjacency
        left = set(nodes)
        pieces = []
        while left:
            s = min(left)
            piece = {s}
            left.discard(s)
            queue = [s]
            while queue:
                x = queue.pop()
                for w in adj[x]:
                    if w in left:
                        left.discard(w)
                        piece.add(w)
                        queue.append(w)
            pieces.append(frozenset(piece))
        return pieces

    def _tree_solve(self, nodes, want_assignment: bool):
        """Minimum covered count of a tree piece by dynamic programming,
        +1 preferred on ties; optionally reconstructs the assignment.

        Assumes every outside neighbour of the piece is covered (frozen
        negative or already assigned -1), so only inside edges constrain.
        O(size).
        """
        node_set = set(nodes)
        adj = self.graph.adjacency
        dadj = self.double_adj
        root = min(node_set)
        parent = {root: None}
        order = [root]
        for x in order:
            for w in adj[x]:
                if w in node_set and w not in parent:
                    parent[w] = x
                    order.append(w)
        children: dict[int, list[int]] = {u: [] for u in node_set}
        for u in order[1:]:
            children[parent[u]].append(u)
        dp_plus: dict[int, int] = {}
        dp_minus: dict[int, int] = {}
        for u in reversed(order):
            plus = 0
            minus = 1
            for c in children[u]:
                plus += dp_minus[c]  # an uncovered node forces all neighbours covered
                if c in dadj[u]:
                    minus += dp_plus[c]
                else:
                    minus += min(dp_plus[c], dp_minus[c])
            dp_plus[u] = plus
            dp_minus[u] = minus
        count = min(dp_plus[root], dp_minus[root])
        if not want_assignment:
            return count, None
        spins: dict[int, int] = {}
        spins[root] = 1 if dp_plus[root] <= dp_minus[root] else -1
        for u in order:
            su = spins[u]
            for c in sorted(children[u]):
                if su == 1:
                    spins[c] = -1
                elif c in dadj[u]:
                    spins[c] = 1
                else:
                    spins[c] = 1 if dp_plus[c] <= dp_minus[c] else -1
        return count, spins

    def _greedy_assignment(self, comp) -> dict[int, int] | None:
        """First satisfying assignment, ascending id with +1 preferred."""
        return next(self._assignments(sorted(comp)), None)

    def min_component_assignment(self, comp, work_budget: int = 200_000):
        """Deterministic assignment with the component's minimum covered
        count, +1 preferred on ties.

        Tree pieces go through linear dynamic programming. Cyclic pieces
        split recursively: assigning a high-degree node and propagating
        strands independent pieces whose minima add up, memoised per piece.
        Components whose cycle structure exhausts the work budget (charged
        per piece node examined) fall back to the first satisfying
        assignment; minimality is then heuristic, which only happens on
        large leaf-removal cores.
        """
        comp_set = frozenset(comp)
        adj, dadj = self.graph.adjacency, self.double_adj
        active, state = self.active, self.state
        memo: dict[frozenset, tuple[int, int, int]] = {}
        budget = [work_budget]

        def piece_shape(piece: frozenset):
            """(edge count, branch node, clean) for a piece; the branch node
            is the highest-degree node (ties to the lowest id) so cycles
            collapse fast."""
            edges = 0
            best_u = -1
            best_deg = -1
            clean = True
            for u in piece:
                deg = 0
                for w in adj[u]:
                    if w in piece:
                        deg += 1
                    elif active[w] and state[w] == POS_FROZEN:
                        clean = False
                for w in dadj[u]:
                    if active[w] and w not in piece and state[w] != UNFROZEN:
                        clean = False
                edges += deg
                if deg > best_deg or (deg == best_deg and u < best_u):
                    best_deg, best_u = deg, u
            return edges // 2, best_u, clean

        def branch(piece: frozenset, u: int, v: int):
            val: dict[int, int] = {}
            assign = self._assign_closure(val)
            trail: list[int] = []
            if not assign(u, v, trail):
                return None, None
            cnt = sum(1 for x in trail if x in piece and val[x] == -1)
            rest = [x for x in piece if x not in val]
            return cnt, self._residual_pieces(frozenset(rest))

        TREE = 0  # sentinel spin marking a tree-solved piece

        def min_count(piece: frozenset) -> int:
            if not piece:
                return 0
            got = memo.get(piece)
            if got is not None:
                return got[0]
            edges, branch_node, clean = piece_shape(piece)
            if clean and edges == len(piece) - 1:
                count, _ = self._tree_solve(piece, want_assignment=False)
                memo[piece] = (count, TREE, -1)
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

        # a large cycle space cannot finish within the branch budget anyway
        comp_edges = sum(1 for u in comp for w in adj[u] if w in comp_set) // 2
        if comp_edges - len(comp_set) + 1 > 60:
            return self._greedy_assignment(comp)
        pieces = self._residual_pieces(comp_set)
        try:
            for p in pieces:
                min_count(p)
        except _BranchBudgetOut:
            return self._greedy_assignment(comp)
        gval: dict[int, int] = {}
        assign = self._assign_closure(gval)
        stack = list(pieces)
        while stack:
            piece = stack.pop()
            if not piece:
                continue
            _, spin, branch_node = memo[piece]
            if spin == TREE:
                _, spins = self._tree_solve(piece, want_assignment=True)
                gval.update(spins)
                continue
            trail: list[int] = []
            if not assign(branch_node, spin, trail):
                return None
            rest = [x for x in piece if x not in gval]
            stack.extend(self._residual_pieces(frozenset(rest)))
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
        return json.dumps(self.to_json_doc(), indent=2) + "\n"

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
        for u in range(n):
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
            expect = sum(
                1
                for w in self.graph.adjacency[u]
                if active[w] and state[w] == POS_FROZEN
            )
            if self.pos_nbr_count[u] != expect:
                raise RsgInvariantError(
                    f"stale uncovered-neighbour count at {u}: "
                    f"{self.pos_nbr_count[u]} != {expect}"
                )
        if deep:
            for u in range(n):
                if not active[u] or state[u] != UNFROZEN:
                    continue
                if not self._propagate([(u, 1)]):
                    raise RsgInvariantError(
                        f"unfrozen node {u} cannot take +1 (missed implied backbone)"
                    )
                if not self._propagate([(u, -1)]):
                    raise RsgInvariantError(
                        f"unfrozen node {u} cannot take -1 (missed implied backbone)"
                    )
                if not any(active[w] for w in self.double_adj[u]):
                    free = [
                        w
                        for w in self.graph.adjacency[u]
                        if active[w] and state[w] == UNFROZEN
                    ]
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
