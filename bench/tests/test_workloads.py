"""Every workload at toy size, untraced and traced, through the same loop the
command uses; the tracer's bookkeeping; and the command's refusal to run
without the program."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import workloads as wl
from mbea import cli, solver
from tracing import Tracer

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TOY = {
    "er-ensemble": dict(n=200, degrees=(1.0, 2.0, 4.0), instances=2),
    "chains": dict(path_n=40, cycle_n=30),
    "oracle-exact": dict(points=((40, 4.0), (30, 6.0))),
    "sparse-cli": dict(n=600, degrees=(1.0, 1.5)),
}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TOY))
def test_toy_workload_runs_clean(name, trace, tmp_path):
    workload = wl.WORKLOADS[name](7, str(tmp_path), **TOY[name])
    result = run.measure(workload, 0.0, trace, spans_path=str(tmp_path / "spans.csv.gz"))
    assert result["correct"] and result["attempted"] > 0
    # oracle-exact keeps one instance of a known fault per pass; nothing else fails
    known = result["attempted"] // 3 if name == "oracle-exact" else 0
    assert result["failed"] == known
    metrics = result["metrics"]
    if trace:
        assert metrics["trace.wall_s"]["value"] > 0
        assert metrics["solver.total_s"]["value"] > 0
        assert metrics["trace.overhead_ratio"]["value"] > 0
        assert (tmp_path / "spans.csv.gz").stat().st_size > 0
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if trace else "end_to_end"]
    assert list(metrics) == [m["name"] for m in declared]
    assert [metrics[m["name"]]["unit"] for m in declared] == [m["unit"] for m in declared]
    if not trace:
        assert all(m["value"] > 0 for m in metrics.values())
        assert metrics["cover_ratio"]["value"] >= 1


def test_tracer_counts_layers_and_restores_the_program(tmp_path):
    original_run, original_cli_run = solver.run_mbea, cli.run_mbea
    workload = wl.Chains(1, str(tmp_path), path_n=60, cycle_n=40)
    tracer = Tracer()
    with tracer:
        assert solver.run_mbea is not original_run and cli.run_mbea is solver.run_mbea
        workload.run(workload.prepare(0), wl.Tally(), traced=True)
    assert solver.run_mbea is original_run and cli.run_mbea is original_cli_run
    totals = tracer.layer_totals()
    closure_self, closure_calls = totals["rsg.closure"]
    assert closure_calls > 0 and 0 < closure_self <= tracer.total_s("solver.run_mbea")
    self_sum = sum(t[0] for t in totals.values())
    wall = sum(tracer.total_ns[i] for i, k in enumerate(tracer.names) if k == "solver.run_mbea") / 1e9
    assert self_sum >= wall  # self times of nested spans add up to no less than the outer spans
    assert sum(tracer.counts[f"solver.case_{c}"] for c in "ABCDE") == sum(
        n for _, n, _ in workload.prepare(0)
    )


def test_sparse_cli_check_rejects_a_wrong_cover(tmp_path):
    workload = wl.SparseCli(3, str(tmp_path), n=400, degrees=(1.0,))
    inputs = workload.prepare(0)
    tally = wl.Tally()
    workload.run(inputs, tally, traced=False)
    (label, fn, (lab, c, g, text, json_out)), = workload._checks
    fn(tally, lab, c, g, text, json_out)  # the true output passes
    cover = int(text.split()[1])
    with pytest.raises(wl.CheckFailed):
        fn(tally, lab, c, g, text.replace(f"cover_size {cover}", f"cover_size {cover + 1}", 1), json_out)
    doc = json.loads(open(json_out).read())
    u, v = doc["edges"][0]["u"], doc["edges"][0]["v"]
    doc["nodes"][u]["state"] = doc["nodes"][v]["state"] = "pos"
    with open(json_out, "w") as f:
        json.dump(doc, f)
    with pytest.raises(wl.CheckFailed):
        fn(tally, lab, c, g, text, json_out)


def test_command_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "chains", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""
