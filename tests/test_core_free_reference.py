"""Criterion 1 at any n: on a core-free graph the represented space must be
exactly the minimum covers, checked against the reference in
core_free_reference.py, which shares no code with the solver.

Take a closed RSG whose cover size is the minimum tau. Every represented
assignment covers every edge at the represented level, so the space lies
inside the minimum covers. It is all of them when every frozen node is a
backbone of its spin, every unfrozen node is free, and every double edge
between unfrozen nodes is implied by the minimum covers.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from mbea.graphs import GenConfig, generate_er
from mbea.leaf_removal import leaf_removal_ranks
from mbea.oracle import enumerate_min_covers

from core_free_reference import CoreFreeCovers, pendant_matching

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "criterion1_scan.py"
_spec = importlib.util.spec_from_file_location("criterion1_scan", _SCRIPT)
_scan = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_scan)


def _faults(g):
    return _scan.represented_faults(g, CoreFreeCovers(g.n, g.edges))


def test_reference_equals_the_oracle_on_small_core_free_graphs():
    checked = 0
    for c in (1.5, 2.0, 2.5):
        for seed in range(1, 101):
            g = generate_er(GenConfig(16, c, seed))
            core_free = pendant_matching(g.n, g.edges) is not None
            assert core_free == leaf_removal_ranks(g).core_empty, (c, seed)
            if not core_free:
                continue
            ref = CoreFreeCovers(g.n, g.edges)
            true = enumerate_min_covers(g, budget=16)
            assert ref.tau == true.min_cover_size, (c, seed)
            assert ref.covers() == true.covers(), (c, seed)
            checked += 1
    assert checked >= 180


def test_reference_refuses_a_graph_with_a_core():
    with pytest.raises(ValueError):
        CoreFreeCovers(3, [(0, 1), (1, 2), (0, 2)])


@pytest.mark.parametrize("seed", [1237, 3731])
def test_reference_flags_the_known_small_faults(seed):
    # the two n=24 instances test_acceptance pins as criterion-1 faults
    faults = _faults(generate_er(GenConfig(24, 2.0, seed)))
    assert faults.falsely_frozen and not faults.missed_backbones
    assert not faults.wrong_doubles and faults.excess == 0


# core-free ER n=2000 graphs, seeds 1-12; the others have a core
_CLEAN = [(1.5, s) for s in (1, 3, 4, 7, 8, 9, 10, 11, 12)]
_CLEAN += [(2.0, s) for s in (1, 2, 5, 6, 8, 9)] + [(2.5, 2)]
_FAULTY = [(1.5, 5), (2.0, 4), (2.0, 10), (2.5, 1), (2.5, 3), (2.5, 6), (2.5, 9)]
_KNOWN_FAULT = pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="known criterion-1 fault: falsely frozen nodes"
)


@pytest.mark.parametrize(
    "c, seed", _CLEAN + [pytest.param(c, s, marks=_KNOWN_FAULT) for c, s in _FAULTY]
)
def test_represented_space_is_exact_on_core_free_er_2000(c, seed):
    # CoreFreeCovers raises ValueError on a graph with a core, which the
    # xfail marker does not accept
    faults = _faults(generate_er(GenConfig(2000, c, seed)))
    assert faults.ok, faults


def test_scan_script_reports_the_faulty_seeds():
    out = subprocess.run(
        [sys.executable, str(_SCRIPT), "--n", "24", "--c", "2", "--seeds", "3729-3731"],
        capture_output=True, text=True, check=True,
    ).stdout
    assert "n=24 c=2: 1/2 core-free graphs faulty, 2 falsely frozen nodes; seeds [3731]" in out
