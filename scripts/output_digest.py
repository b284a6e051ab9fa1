#!/usr/bin/env python3
"""Print one SHA-256 per group of solver outputs, to show that a change
leaves every output byte-identical.

    python3 scripts/output_digest.py

Run it in two checkouts and compare the lines. The groups:

  er        run_mbea trace, case counts, cover size, spins and export_json()
            on ER n=2000, c=1..10, seeds 7 and 8
  chains    the same outputs for paths (n=2..39) and cycles (n=3..39), and
            both at n=101, 250, 401, 600, 601
  cli       `mbea solve --json-out` stdout and JSON file, ER n=20000,
            c=1 and 1.5, seeds 5 and 97
  ensemble  run_backbone_fractions CSV and JSON: c=1, 2, 4, 6; n=200, 500;
            8 instances, seed 17, 2 workers
  enumerate enumerate_assignments(limit=64) on the er graphs at c=1 (min
            cover size, truncation flag, every assignment's spins in order),
            and every assignment of each unfrozen component of at most 14
            nodes on all er graphs

enumerate_assignments lists every assignment of each unfrozen component
before the limit applies, which at n=2000 exceeds 1.5 GB from c=2 on; so
larger mean degrees enumerate their small components only.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mbea.cli import main as cli_main
from mbea.experiments import (
    ExperimentConfig,
    rows_to_csv,
    rows_to_json,
    run_backbone_fractions,
)
from mbea.graphs import GenConfig, cycle_graph, generate_er, path_graph, write_edge_list
from mbea.solver import run_mbea


def _feed_run(h, label: str, res) -> None:
    h.update(f"{label}\n{res.cover_size} {sorted(res.case_counts.items())}\n".encode())
    for e in res.trace:
        h.update(f"{e.node} {e.case} {e.affected}\n".encode())
    h.update(bytes(s + 1 for s in res.spins))
    h.update(res.rsg.export_json().encode())


def main() -> int:
    er_h, enum_h = hashlib.sha256(), hashlib.sha256()
    for seed in (7, 8):
        for c in range(1, 11):
            label = f"er n=2000 c={c} seed={seed}"
            res = run_mbea(generate_er(GenConfig(2000, float(c), seed)), trace=True)
            _feed_run(er_h, label, res)
            enum_h.update(f"{label}\n".encode())
            if c == 1:
                sols = res.rsg.enumerate_assignments(limit=64)
                enum_h.update(f"{sols.min_cover_size} {sols.truncated}\n".encode())
                for a in sols.assignments:
                    enum_h.update(bytes(s + 1 for s in a.spin))
            for comp in res.rsg.unfrozen_components():
                if len(comp) <= 14:
                    for sol in res.rsg._component_assignments(comp):
                        enum_h.update(f"{sorted(sol.items())}\n".encode())

    chains_h = hashlib.sha256()
    chains = [("path", n) for n in range(2, 40)] + [("cycle", n) for n in range(3, 40)]
    chains += [(kind, n) for n in (101, 250, 401, 600, 601) for kind in ("path", "cycle")]
    for kind, n in chains:
        g = path_graph(n) if kind == "path" else cycle_graph(n)
        _feed_run(chains_h, f"{kind} {n}", run_mbea(g, trace=True))

    cli_h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for c in (1.0, 1.5):
            for seed in (5, 97):
                edges = Path(tmp, "g.edges")
                edges.write_text(write_edge_list(generate_er(GenConfig(20000, c, seed))))
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli_main(["solve", str(edges), "--json-out", f"{tmp}/rsg.json"])
                cli_h.update(f"c={c} seed={seed} exit={code}\n{out.getvalue()}".encode())
                cli_h.update(Path(tmp, "rsg.json").read_bytes())

    cfg = ExperimentConfig(
        c_grid=(1.0, 2.0, 4.0, 6.0), n_grid=(200, 500), instances=8, seed=17, workers=2
    )
    rows = run_backbone_fractions(cfg)
    ensemble_h = hashlib.sha256((rows_to_csv(rows) + rows_to_json(rows)).encode())

    for name, h in (
        ("er", er_h),
        ("chains", chains_h),
        ("cli", cli_h),
        ("ensemble", ensemble_h),
        ("enumerate", enum_h),
    ):
        print(f"{name:<10}{h.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
