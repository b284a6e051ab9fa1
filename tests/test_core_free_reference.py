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
from mbea.solver import run_mbea

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


def _flag_hand_freezes(g, freezes):
    """The reference's verdict on the solver's space for g with the free
    nodes in freezes (node: spin) frozen by hand, as a faulty solver did."""
    ref = CoreFreeCovers(g.n, g.edges)
    assert _faults(g).ok
    res = run_mbea(g)
    frozen = [_scan._SPIN[s] for s in res.rsg.state]
    for u, spin in freezes.items():
        frozen[u] = spin
    faults = ref.faults(frozen, [], res.cover_size)
    assert faults.falsely_frozen == tuple(sorted(freezes))
    assert not faults.missed_backbones and faults.excess == 0


# the two n=24 instances test_acceptance pins as once-faulty, with the
# free-node freezes the solver made there before the fault was mended
_SMALL_FAULTS = {1237: {9: -1, 18: 1}, 3731: {11: 1, 12: -1}}


@pytest.mark.parametrize("seed", sorted(_SMALL_FAULTS))
def test_reference_flags_the_known_small_faults(seed):
    _flag_hand_freezes(generate_er(GenConfig(24, 2.0, seed)), _SMALL_FAULTS[seed])


def test_reference_flags_the_known_fault():
    # n=2000, c=2.5, seed 14, with the 22 free nodes the solver froze there
    # before rechecking freed every covered node paired with its one
    # uncovered neighbour by a double edge
    freezes = dict.fromkeys((21, 705, 708, 879, 900, 1013, 1057, 1143, 1307, 1352, 1556), 1)
    freezes.update(dict.fromkeys(
        (411, 511, 573, 930, 1049, 1059, 1206, 1520, 1534, 1581, 1863), -1
    ))
    _flag_hand_freezes(generate_er(GenConfig(2000, 2.5, 14)), freezes)


# core-free ER n=2000 graphs: seeds 1-12 (the others have a core), and the
# c=2.5 seeds criterion1_scan.py once found faulty among seeds 1-300
_CLEAN = [(1.5, s) for s in (1, 3, 4, 5, 7, 8, 9, 10, 11, 12)]
_CLEAN += [(2.0, s) for s in (1, 2, 4, 5, 6, 8, 9, 10)]
_CLEAN += [(2.5, s) for s in (1, 2, 3, 6, 9, 14, 81, 157, 158, 187, 209, 245)]


@pytest.mark.parametrize("c, seed", _CLEAN)
def test_represented_space_is_exact_on_core_free_er_2000(c, seed):
    faults = _faults(generate_er(GenConfig(2000, c, seed)))
    assert faults.ok, faults


def test_scan_script_reports_the_faulty_seeds():
    out = subprocess.run(
        [sys.executable, str(_SCRIPT), "--n", "2000", "--c", "2.5", "--seeds", "13-14"],
        capture_output=True, text=True, check=True,
    ).stdout
    assert "n=2000 c=2.5: 0/2 core-free graphs faulty, 0 falsely frozen nodes; seeds []" in out
