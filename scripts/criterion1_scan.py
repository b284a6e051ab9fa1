#!/usr/bin/env python3
"""Check criterion 1 (an exact represented space on core-free graphs) over a
grid of ER graphs against the exact reference in tests/core_free_reference.py.

    python3 scripts/criterion1_scan.py --n 2000 --c 1.5 2 2.5 --seeds 1-40
    python3 scripts/criterion1_scan.py --n 24 --c 2 --seeds 1-4000

For each mean degree it prints the number of core-free graphs, the faulty
seeds (a frozen node that is free or a backbone of the other spin, an
unfrozen backbone, a double edge between unfrozen nodes that the minimum
covers do not imply, or a cover above the minimum) and the falsely frozen
nodes summed over them. Graphs with a core are skipped: the reference does
not cover them.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from core_free_reference import CoreFreeCovers, pendant_matching
from mbea.graphs import GenConfig, generate_er
from mbea.rsg import NEG_FROZEN, POS_FROZEN, UNFROZEN
from mbea.solver import run_mbea

_SPIN = {UNFROZEN: 0, POS_FROZEN: 1, NEG_FROZEN: -1}


def represented_faults(g, ref: CoreFreeCovers):
    """The reference's Faults for the space run_mbea represents on g."""
    res = run_mbea(g)
    state, dadj = res.rsg.state, res.rsg.double_adj
    doubles = [
        (u, v) for u in range(g.n) for v in dadj[u]
        if u < v and state[u] == state[v] == UNFROZEN
    ]
    return ref.faults([_SPIN[s] for s in state], doubles, res.cover_size)


def seed_range(text: str) -> range:
    """'1-40' or '7' as a range of seeds; a descending range is a usage error."""
    lo, _, hi = text.partition("-")
    lo, hi = int(lo), int(hi or lo)
    if hi < lo:
        raise ValueError(f"descending seed range {text!r}")
    return range(lo, hi + 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--c", type=float, nargs="+", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 1-40")
    args = parser.parse_args()

    total_false = 0
    for c in args.c:
        core_free, faulty, falsely_frozen = 0, [], 0
        for seed in args.seeds:
            g = generate_er(GenConfig(args.n, c, seed))
            if pendant_matching(g.n, g.edges) is None:
                continue
            core_free += 1
            faults = represented_faults(g, CoreFreeCovers(g.n, g.edges))
            if not faults.ok:
                faulty.append(seed)
                falsely_frozen += len(faults.falsely_frozen)
        total_false += falsely_frozen
        print(f"n={args.n} c={c:g}: {len(faulty)}/{core_free} core-free graphs faulty, "
              f"{falsely_frozen} falsely frozen nodes; seeds {faulty}")
    print(f"falsely frozen nodes in all: {total_false}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
