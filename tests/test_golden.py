"""Two SHA-256 digests over the solver's outputs on a fixed corpus.

GOLDEN covers the cover size, the case counts, the kept cover's spins, the
per-node trace and the RSG JSON of every graph below. SPACE_GOLDEN covers the
represented space of every corpus graph of at most 40 nodes: the minimum
cover size, the truncation flag and every assignment's spins, in order, of
`enumerate_assignments(limit=4096)`. A change that moves either changes what
`run_mbea` computes on some graph: if that is intended, put the new digest in
the constant and say in CHANGES.md why the outputs moved.
"""

import hashlib
from collections import Counter

import pytest

from mbea.graphs import GenConfig, cycle_graph, generate_er, path_graph
from mbea.solver import CASES, run_mbea

GOLDEN = "26f7279f4c0fd99972f9d899eda32ddf04808ade8a29b153f83b39c82ea83ca6"
SPACE_GOLDEN = "e0b754daab726433669f698f7599818110e1f4d8937f183286c05a6251d8e178"


def corpus():
    """About 300 small ER graphs, paths and cycles of 2-39 nodes, and ER
    n=1000 at c=2, 4 and 6."""
    for k in range(300):
        n = 6 + k % 35
        c = 0.5 + 0.5 * (k % 10)
        yield f"er {n} {c} {k}", generate_er(GenConfig(n, c, k))
    for n in range(2, 40):
        yield f"path {n}", path_graph(n)
        if n >= 3:
            yield f"cycle {n}", cycle_graph(n)
    for c in (2.0, 4.0, 6.0):
        yield f"er 1000 {c} 5", generate_er(GenConfig(1000, c, 5))


def outputs_digest() -> tuple[str, str, Counter]:
    """The outputs digest, the space digest, and how often the corpus ran
    each case."""
    h = hashlib.sha256()
    space = hashlib.sha256()
    totals: Counter = Counter()
    for label, g in corpus():
        res = run_mbea(g, trace=True)
        totals.update(res.case_counts)
        cases = " ".join(f"{c}:{k}" for c, k in sorted(res.case_counts.items()))
        h.update(f"{label}\n{res.cover_size}\n{cases}\n{res.spins}\n".encode())
        for e in res.trace:
            h.update(f"{e.node} {e.case} {e.affected}\n".encode())
        h.update(res.rsg.export_json().encode())
        if g.n <= 40:
            sols = res.rsg.enumerate_assignments(limit=4096)
            space.update(f"{label}\n{sols.min_cover_size} {sols.truncated}\n".encode())
            for a in sols.assignments:
                space.update(f"{a.spin}\n".encode())
    return h.hexdigest(), space.hexdigest(), totals


@pytest.fixture(scope="module")
def outputs():
    return outputs_digest()


def test_outputs_match_golden_digest(outputs):
    assert outputs[0] == GOLDEN


def test_represented_spaces_match_golden_digest(outputs):
    assert outputs[1] == SPACE_GOLDEN


def test_corpus_runs_every_case(outputs):
    """The digest covers every branch of the case dispatch."""
    assert all(outputs[2][c] > 0 for c in CASES), outputs[2]
