"""Command-line front end.

Subcommands: gen, solve, oracle, export, exp-backbones, exp-coverage, exp-error.
Exit codes: 0 success, 1 usage error, 2 I/O or parse error, 3 budget refusal.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .experiments import (
    ExperimentConfig,
    rows_to_csv,
    rows_to_json,
    run_backbone_fractions,
    run_coverage,
    run_error_vs_exact,
)
from .graphs import GenConfig, ParseError, generate_er, parse_edge_list, write_edge_list
from .leaf_removal import leaf_removal_ranks
from .oracle import (
    DEFAULT_ENUM_BUDGET,
    DEFAULT_SIZE_BUDGET,
    BudgetExceededError,
    enumerate_min_covers,
    exact_min_cover,
)
from .rsg import dot_from_json
from .solver import cover_from_rsg, run_mbea
from .space import summarize_space

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_BUDGET = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="mbea", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a seeded random graph edge list")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=float, required=True, help="mean degree")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path)

    p = sub.add_parser("solve", help="run the evolution algorithm on an edge list")
    p.add_argument("path", type=Path)
    p.add_argument("--trace", action="store_true", help="print per-node case lines")
    p.add_argument("--json-out", type=Path, help="write the reduced solution graph as JSON")
    p.add_argument("--dot-out", type=Path, help="write the reduced solution graph as DOT")

    p = sub.add_parser("oracle", help="exact minimum cover via branch and bound")
    p.add_argument("path", type=Path)
    p.add_argument("--enumerate", action="store_true", help="list all minimum covers")
    p.add_argument("--oracle-budget", type=int, default=None)

    p = sub.add_parser("export", help="convert an RSG JSON file to DOT")
    p.add_argument("path", type=Path)
    p.add_argument("--out", type=Path)

    for name, help_text in (
        ("exp-backbones", "frozen-state fractions over a mean-degree grid"),
        ("exp-coverage", "coverage ratio over a mean-degree grid"),
        ("exp-error", "error against the exact oracle over a (c, n) grid"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--c", type=float, action="append", required=True)
        p.add_argument("--n", type=int, action="append", required=True)
        p.add_argument("--instances", type=int, default=100)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", type=Path)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--oracle-budget", type=int, default=150)
    return parser


def _write(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text)


def _load_graph(path: Path):
    return parse_edge_list(path.read_text())


def _cmd_gen(args) -> int:
    cfg = GenConfig(n=args.n, mean_degree=args.c, seed=args.seed)
    try:
        g = generate_er(cfg)
    except ValueError as exc:
        print(f"mbea gen: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _write(write_edge_list(g), args.out)
    return EXIT_OK


def _cmd_solve(args) -> int:
    g = _load_graph(args.path)
    res = run_mbea(g, trace=args.trace)
    cover_from_rsg(res)  # validity assertion on every run
    print(f"cover_size {res.cover_size}")
    counts = " ".join(f"{case}:{res.case_counts[case]}" for case in "ABCDE")
    print(f"cases {counts}")
    if args.trace and res.trace:
        for entry in res.trace:
            affected = ",".join(map(str, entry.affected))
            print(f"add {entry.node} case {entry.case} affected {affected}")
    if args.json_out:
        args.json_out.write_text(res.rsg.export_json())
    if args.dot_out:
        args.dot_out.write_text(res.rsg.export_dot())
    return EXIT_OK


def _cmd_oracle(args) -> int:
    g = _load_graph(args.path)
    size_budget = args.oracle_budget if args.oracle_budget is not None else DEFAULT_SIZE_BUDGET
    if args.enumerate:
        enum_budget = args.oracle_budget if args.oracle_budget is not None else DEFAULT_ENUM_BUDGET
        sols = enumerate_min_covers(g, budget=enum_budget)
        summary = summarize_space(sols)
        print(f"min {sols.min_cover_size}, {len(sols.assignments)} solutions")
        print(f"pos_frozen {sorted(summary.pos_frozen)}")
        print(f"neg_frozen {sorted(summary.neg_frozen)}")
        print(f"mutual_pairs {sorted(summary.mutual_pairs)}")
    else:
        print(f"min {exact_min_cover(g, budget=size_budget)}")
    return EXIT_OK


def _cmd_export(args) -> int:
    doc = json.loads(args.path.read_text())
    _write(dot_from_json(doc), args.out)
    return EXIT_OK


def _cmd_experiment(args, runner) -> int:
    cfg = ExperimentConfig(
        c_grid=tuple(args.c),
        n_grid=tuple(args.n),
        instances=args.instances,
        seed=args.seed,
        oracle_budget=args.oracle_budget,
        workers=args.workers,
    )
    try:
        cfg.validate()
    except ValueError as exc:
        print(f"mbea: {exc}", file=sys.stderr)
        return EXIT_USAGE
    rows = runner(cfg)
    if args.format == "csv":
        _write(rows_to_csv(rows), args.out)
        if args.out is not None:
            mirror = args.out.with_suffix(".json")
            mirror.write_text(rows_to_json(rows))
    else:
        _write(rows_to_json(rows), args.out)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    handlers = {
        "gen": _cmd_gen,
        "solve": _cmd_solve,
        "oracle": _cmd_oracle,
        "export": _cmd_export,
        "exp-backbones": lambda a: _cmd_experiment(a, run_backbone_fractions),
        "exp-coverage": lambda a: _cmd_experiment(a, run_coverage),
        "exp-error": lambda a: _cmd_experiment(a, run_error_vs_exact),
    }
    try:
        return handlers[args.command](args)
    except BudgetExceededError as exc:
        print(f"mbea: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ParseError as exc:
        print(f"mbea: {args.path}: {exc}" if hasattr(args, "path") else f"mbea: {exc}",
              file=sys.stderr)
        return EXIT_IO
    except (OSError, json.JSONDecodeError) as exc:
        print(f"mbea: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
