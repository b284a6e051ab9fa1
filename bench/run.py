"""mbea benchmark: run one workload for a fixed time and print its metrics.

    python3 bench/run.py --workload chains --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory. With --trace 0 the run measures the end-to-end metrics with
nothing interposed but the timers they need; with --trace 1 it alternates
untraced and traced passes over the same rounds and reports per-layer
figures instead. Progress and failures go to stderr; the last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics.
Exits 2 without a result when the package cannot be imported from the
checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# layer -> per-layer metric name of its self time
SELF_NAME = {
    "graphs.parse": "graphs.parse_s",
    "graphs.write": "graphs.write_s",
    "graphs.generate": "graphs.generate_s",
    "graphs.other": "graphs.other_s",
}
COUNTED_LAYERS = ("rsg.closure", "rsg.dispatch", "rsg.release", "rsg.freeze", "oracle.exact")


class ProgramMissing(Exception):
    """The checkout holds no importable mbea package."""


def import_program() -> None:
    """Import mbea from the checkout's src/."""
    if not os.path.isdir(os.path.join(SRC, "mbea")):
        raise ProgramMissing(f"no mbea package under {SRC}")
    sys.path.insert(0, SRC)
    import mbea
    import mbea.cli  # noqa: F401  (the cli pulls in experiments and multiprocessing)

    if os.path.dirname(os.path.dirname(os.path.abspath(mbea.__file__))) != SRC:
        raise ProgramMissing(f"mbea imported from {mbea.__file__}, not from {SRC}")


def import_seconds(repeats: int = 7) -> float:
    """Median time to import the package, as import_program does, in a fresh
    interpreter, in reference-speed seconds. Each interpreter reads the gauge
    right after its import: raw import times of two sets of runs moved by a
    fifth with the box's speed, scaled ones by about 1%."""
    code = (
        "import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
        "import mbea, mbea.cli; t = time.perf_counter() - t; "
        "sys.path.insert(0, sys.argv[2]); from gauge import Gauge; print(t * Gauge().scale())"
    )
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", code, SRC, HERE], capture_output=True, text=True,
                              timeout=60, check=True)
        times.append(float(proc.stdout))
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Peak resident set of this process. The ensemble's pool workers are left
    out: their peak follows the instances drawn (one memoised component search
    can add 20 MB) and spreads by a third from seed to seed."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def mean(values) -> float:
    """Mean per call. Rounds mix instance sizes, and a median of the mixture
    jumps between size classes from seed to seed (17% on er-ensemble)."""
    return statistics.fmean(values) if values else 0.0


def end_to_end(tally, import_s: float, peak: float) -> dict:
    return {
        "setup_s": (import_s + median(tally.prep_s), "s"),
        "instances_per_s": (tally.completed / tally.busy_s if tally.busy_s else 0.0, "1/s"),
        "solve_s": (mean(tally.solve_s), "s"),
        "call_s": (mean(tally.call_s), "s"),
        "cover_frac": (mean(tally.x), "1"),
        "cover_ratio": (tally.cover_total / tally.ref_total if tally.ref_total else 0.0, "1"),
        "peak_rss_mb": (peak, "MB"),
    }


def per_layer(tally, tracer) -> dict:
    from tracing import LAYERS

    rounds = max(tally.traced_rounds, 1)
    out = {}
    totals = tracer.layer_totals()
    for layer in LAYERS:
        self_s, calls = totals[layer]
        out[SELF_NAME.get(layer, f"{layer}.self_s")] = (self_s / rounds, "s")
        if layer in COUNTED_LAYERS:
            out[f"{layer}.calls"] = (calls / rounds, "count")
    out["rsg.minimise.components"] = (tracer.counts.get("rsg.minimise.components", 0) / rounds, "count")
    for key in ("rsg.minimise.max_component", "rsg.minimise.max_cycle_rank"):
        out[key] = (tracer.maxima.get(key, 0), "count")
    for case in "ABCDE":
        out[f"solver.case_{case}"] = (tracer.counts.get(f"solver.case_{case}", 0) / rounds, "count")
    out["solver.total_s"] = (tracer.total_s("solver.run_mbea") / rounds, "s")
    out["cli.total_s"] = (tracer.total_s("cli.main") / rounds, "s")
    cap = tally.pool_capacity_s
    out["experiments.parallel_efficiency"] = (tally.pool_work_s / cap if cap else 0.0, "1")
    out["experiments.idle_s"] = ((cap - tally.pool_work_s) / rounds, "s")
    out["trace.overhead_ratio"] = (tally.traced_s / tally.untraced_s if tally.untraced_s else 0.0, "1")
    out["trace.wall_s"] = (tally.traced_s / rounds, "s")
    out["trace.spans"] = (len(tracer.spans) // 4 / rounds, "count")
    return out


def measure(workload, seconds: float, trace: bool, import_s: float = 0.0, spans_path=None) -> dict:
    """Run whole rounds of `workload` until `seconds` have passed (at least
    one round) and return the result object the command prints."""
    from tracing import Tracer
    from workloads import Tally

    tally = Tally()
    tracer = Tracer() if trace else None
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < seconds:
        workload.gauge.factor()
        t0 = time.perf_counter()
        with tracer or contextlib.nullcontext():  # set-up calls into the program are traced too
            inputs = workload.prepare(r)
        tally.prep_s.append((time.perf_counter() - t0) * workload.gauge.factor())
        if tracer is None:
            workload.run(inputs, tally, traced=False)
            if r == 0:  # before any check allocates: the program's own peak
                peak = peak_rss_mb()
            workload.check_round(tally)
        else:
            workload.trace_round(inputs, tally, tracer, r)
        r += 1
    workload.finish(tally)
    if tracer is None:
        metrics = end_to_end(tally, import_s, peak)
    else:
        metrics = per_layer(tally, tracer)
        if spans_path:
            tracer.write_spans(spans_path)
    for message in tally.notes:
        print(f"bench: {message}", file=sys.stderr)
    print(
        f"bench: {workload.name} seed {workload.seed}: {r} rounds, {tally.attempted} instances, "
        f"{tally.failed} failed, {time.perf_counter() - start:.1f}s",
        file=sys.stderr,
    )
    return {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"bench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import_s = import_seconds() if not args.trace else 0.0

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = os.path.join(OUT, f"run-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        result = measure(
            WORKLOADS[args.workload](args.seed, workdir),
            args.seconds,
            bool(args.trace),
            import_s,
            os.path.join(OUT, f"spans-{args.workload}.csv.gz"),
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
