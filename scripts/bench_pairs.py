#!/usr/bin/env python3
"""Alternate benchmark runs of a parent checkout and this working tree, and
write the pairs and their summary as one BENCH_<workload>.json file.

    python3 scripts/bench_pairs.py --parent ../mbea-parent --parent-label 684a93c \\
        --workload chains --seeds 301-310 --holdout 397 --out BENCH_chains.json

Pair k runs `python3 bench/run.py --workload W --seed S --seconds T --trace 0`
(T is run_seconds in BENCHMARK.json) in both checkouts, the parent first when
k is even and the working tree first when it is odd. Before each run the
bytecode caches under the checkout's src/ are removed, as in a fresh
checkout, so the import time inside `setup_s` is measured the same way on
both sides whatever ran before (with
PYTHONDONTWRITEBYTECODE set, a cache left by an earlier run made it read 40%
lower). The file records nproc, the Python version, the seeds, every run's
metrics, and per end-to-end metric of BENCHMARK.json each side's median and
quartiles and the pairs each side won (ties count for neither); hold-out
seeds are summarised on their own. The file is rewritten after every pair,
so a run that fails or is stopped keeps the pairs it finished; a failing
benchmark run still ends the script with its stderr and a non-zero exit.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def seed_list(text: str) -> list[int]:
    """'301-310' or '301,305,397' (or a mix) as a list of seeds. A
    descending range raises ValueError, which argparse reports as a usage
    error, instead of yielding no seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        lo, hi = int(lo), int(hi or lo)
        if hi < lo:
            raise ValueError(f"descending seed range {part!r}")
        seeds.extend(range(lo, hi + 1))
    return seeds


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in checkout; its result object plus the seed."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    for cache in glob.glob(os.path.join(checkout, "src", "**", "__pycache__"), recursive=True):
        shutil.rmtree(cache)
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"seed": seed, **result}


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def tree_label() -> str:
    """The working tree's commit, with -dirty when a tracked file has
    uncommitted changes; the BENCH_*.json files this script writes into the
    tree and the notes (*.md) do not count."""
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True).stdout.strip()

    label = git("describe", "--always")
    if label and git("status", "--porcelain", "--untracked-files=no", "--", ".",
                     ":(exclude)BENCH_*.json", ":(exclude)*.md"):
        label += "-dirty"
    return label or None


def summarise(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: each side's median and quartiles, wins of each side and
    the change's median relative to the parent's; plus failed shares."""
    out = {"pairs": len(pairs), "metrics": {}}
    for side in SIDES:
        attempted = sum(p[side]["attempted"] for p in pairs)
        failed = sum(p[side]["failed"] for p in pairs)
        out[f"{side}_failed_share"] = failed / attempted if attempted else 0.0
        out[f"{side}_all_correct"] = all(p[side]["correct"] for p in pairs)
    for spec in metrics:
        name = spec["name"]
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        sign = 1 if spec["better"] == "higher" else -1
        diffs = [sign * (c - p) for p, c in zip(values["parent"], values["change"])]
        base = statistics.median(values["parent"])
        out["metrics"][name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "parent": quartiles(values["parent"]),
            "change": quartiles(values["change"]),
            "change_wins": sum(d > 0 for d in diffs),
            "parent_wins": sum(d < 0 for d in diffs),
            "median_ratio": statistics.median(values["change"]) / base if base else None,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="root of the parent commit's checkout")
    parser.add_argument("--parent-label", default=None, help="name of the parent commit, recorded as given")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, required=True, help="e.g. 301-310")
    parser.add_argument("--holdout", type=seed_list, default=[], help="seeds summarised on their own")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    metrics, seconds = spec["end_to_end"], spec["run_seconds"]
    checkouts = {"parent": os.path.abspath(args.parent), "change": ROOT}
    doc = {
        "workload": args.workload,
        "command": f"python3 bench/run.py --workload {args.workload} --seed S "
                   f"--seconds {seconds:g} --trace 0",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "parent": args.parent_label,
        "change": tree_label(),
        "seeds": args.seeds,
        "holdout_seeds": args.holdout,
    }
    pairs = []
    for k, seed in enumerate(args.seeds + args.holdout):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(checkouts[side], args.workload, seed, seconds)
        pairs.append(pair)
        held = pairs[len(args.seeds):]
        doc["summary"] = summarise(pairs[: len(args.seeds)], metrics)
        doc["holdout"] = summarise(held, metrics) if held else None
        doc["pairs"] = pairs
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        print(f"bench_pairs: {args.workload} seed {seed} done", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
