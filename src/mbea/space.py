"""Solution-space types: spin assignments, solution sets, frozen/pair summaries.

Spin convention: -1 means covered (in the vertex cover), +1 means uncovered.
A node is frozen when it takes one spin across all solutions; an unfrozen pair
(u, v) with spin_u + spin_v = 0 in every solution is a mutual-determination.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Assignment:
    """One spin configuration. spin[i] in {+1, -1}; inactive nodes default +1."""

    spin: tuple[int, ...]
    cover_size: int

    @classmethod
    def from_cover(cls, n: int, cover) -> "Assignment":
        cov = frozenset(cover)
        return cls(
            spin=tuple(-1 if i in cov else 1 for i in range(n)),
            cover_size=len(cov),
        )

    def covered(self) -> frozenset[int]:
        return frozenset(i for i, s in enumerate(self.spin) if s == -1)


@dataclass(frozen=True)
class SolutionSet:
    assignments: tuple[Assignment, ...]
    min_cover_size: int
    complete: bool

    @property
    def truncated(self) -> bool:
        return not self.complete

    def covers(self) -> set[frozenset[int]]:
        return {a.covered() for a in self.assignments}


@dataclass(frozen=True)
class SpaceSummary:
    pos_frozen: frozenset[int]
    neg_frozen: frozenset[int]
    mutual_pairs: frozenset[tuple[int, int]]
    solution_count: int


def summarize_space(s: SolutionSet) -> SpaceSummary:
    """Frozen sets and all mutual-determination pairs, by definition-checking.

    Requires an exhaustive solution set. Pairwise scan is O(n^2 * |solutions|),
    fine at oracle scale.
    """
    if not s.complete:
        raise ValueError("summarize_space needs a complete solution set")
    if not s.assignments:
        raise ValueError("summarize_space needs at least one solution")
    n = len(s.assignments[0].spin)
    spins = [a.spin for a in s.assignments]
    pos, neg, unfrozen = [], [], []
    for i in range(n):
        vals = {sp[i] for sp in spins}
        if vals == {1}:
            pos.append(i)
        elif vals == {-1}:
            neg.append(i)
        else:
            unfrozen.append(i)
    pairs = set()
    for a_idx, u in enumerate(unfrozen):
        for v in unfrozen[a_idx + 1 :]:
            if all(sp[u] == -sp[v] for sp in spins):
                pairs.add((u, v))
    return SpaceSummary(
        pos_frozen=frozenset(pos),
        neg_frozen=frozenset(neg),
        mutual_pairs=frozenset(pairs),
        solution_count=len(spins),
    )


@dataclass(frozen=True)
class SpaceDiff:
    equal: bool
    subset: bool  # first set contained in second
    size_delta: int  # first min size minus second min size
    missing: tuple[frozenset[int], ...]  # covers only in the second set
    extra: tuple[frozenset[int], ...]  # covers only in the first set
    pos_frozen_delta: tuple[frozenset[int], frozenset[int]]
    neg_frozen_delta: tuple[frozenset[int], frozenset[int]]
    mutual_pairs_delta: tuple[frozenset, frozenset]

    @property
    def summaries_equal(self) -> bool:
        return all(
            not a and not b
            for a, b in (
                self.pos_frozen_delta,
                self.neg_frozen_delta,
                self.mutual_pairs_delta,
            )
        )


def diff_spaces(first: SolutionSet, second: SolutionSet) -> SpaceDiff:
    """Compare two solution sets: cover-set equality, size gap, summary deltas."""
    covers_a, covers_b = first.covers(), second.covers()
    sum_a, sum_b = summarize_space(first), summarize_space(second)

    def _delta(xa, xb):
        return (frozenset(xa - xb), frozenset(xb - xa))

    missing = tuple(sorted(covers_b - covers_a, key=sorted))
    extra = tuple(sorted(covers_a - covers_b, key=sorted))
    return SpaceDiff(
        equal=covers_a == covers_b,
        subset=covers_a <= covers_b,
        size_delta=first.min_cover_size - second.min_cover_size,
        missing=missing,
        extra=extra,
        pos_frozen_delta=_delta(sum_a.pos_frozen, sum_b.pos_frozen),
        neg_frozen_delta=_delta(sum_a.neg_frozen, sum_b.neg_frozen),
        mutual_pairs_delta=_delta(sum_a.mutual_pairs, sum_b.mutual_pairs),
    )
