import json
import subprocess
import sys

import pytest

from mbea.cli import main
from mbea.graphs import Graph, complete_graph, write_edge_list


@pytest.fixture
def k5_file(tmp_path):
    path = tmp_path / "k5.edges"
    path.write_text(write_edge_list(complete_graph(5)))
    return path


def test_gen_writes_parseable_file(tmp_path, capsys):
    out = tmp_path / "g.edges"
    assert main(["gen", "--n", "20", "--c", "2.0", "--seed", "3", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("20 20\n")


def test_gen_stdout_and_determinism(capsys):
    assert main(["gen", "--n", "10", "--c", "1.0", "--seed", "5"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "--n", "10", "--c", "1.0", "--seed", "5"]) == 0
    assert capsys.readouterr().out == first


def test_gen_rejects_impossible_density(capsys):
    assert main(["gen", "--n", "4", "--c", "9.0"]) == 1


def test_solve_k5(k5_file, tmp_path, capsys):
    json_out = tmp_path / "rsg.json"
    dot_out = tmp_path / "rsg.dot"
    code = main(
        ["solve", str(k5_file), "--json-out", str(json_out), "--dot-out", str(dot_out)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "cover_size 4" in out
    assert "cases A:1 B:0 C:1 D:3 E:0" in out
    doc = json.loads(json_out.read_text())
    assert doc["n"] == 5
    assert sum(e["kind"] == "double" for e in doc["edges"]) == 1
    assert dot_out.read_text().startswith("graph rsg {")


def test_solve_single_edge(tmp_path, capsys):
    path = tmp_path / "e.edges"
    path.write_text("2 1\n0 1\n")
    assert main(["solve", str(path)]) == 0
    assert "cover_size 1" in capsys.readouterr().out


def test_solve_trace_lines(tmp_path, capsys):
    path = tmp_path / "p3.edges"
    path.write_text(write_edge_list(Graph(3, [(0, 1), (1, 2)])))
    assert main(["solve", str(path), "--trace"]) == 0
    out = capsys.readouterr().out
    assert "add 1 case B" in out


def test_oracle_c4(tmp_path, capsys):
    path = tmp_path / "c4.edges"
    path.write_text("4 4\n0 1\n0 3\n1 2\n2 3\n")
    assert main(["oracle", str(path), "--enumerate"]) == 0
    out = capsys.readouterr().out
    assert "min 2, 2 solutions" in out


def test_oracle_budget_exit_code(k5_file, capsys):
    assert main(["oracle", str(k5_file), "--oracle-budget", "3"]) == 3


def test_oracle_negative_budget_is_a_usage_error(k5_file, capsys):
    assert main(["oracle", str(k5_file), "--oracle-budget", "-5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "mbea: --oracle-budget must be >= 0, got -5\n"


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.edges"
    path.write_text("2 1\n0 0\n")
    assert main(["solve", str(path)]) == 2
    assert "self-loop" in capsys.readouterr().err


def test_missing_file_exit_code(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "nope.edges")]) == 2


@pytest.mark.parametrize("command", ["solve", "oracle", "export"])
def test_non_utf8_input_exit_code(command, tmp_path, capsys):
    path = tmp_path / "bin.dat"
    path.write_bytes(b"\xff\xfe\x00bad")
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"mbea: {path}: ")
    assert len(captured.err.splitlines()) == 1


def test_usage_error_exit_code(capsys):
    assert main(["solve"]) == 1
    assert main(["frobnicate"]) == 1


def test_export_roundtrip(k5_file, tmp_path, capsys):
    json_out = tmp_path / "rsg.json"
    main(["solve", str(k5_file), "--json-out", str(json_out)])
    capsys.readouterr()
    assert main(["export", str(json_out)]) == 0
    dot = capsys.readouterr().out
    assert dot.startswith("graph rsg {") and "--" in dot


@pytest.mark.parametrize(
    "doc",
    [
        {"n": 1},
        [1, 2],
        {
            "n": 1,
            "nodes": [{"id": 0, "active": True, "state": "bogus", "mark": None, "rank": 1}],
            "edges": [],
        },
    ],
    ids=["no-nodes", "list", "unknown-state"],
)
def test_export_rejects_non_rsg_json(doc, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["export", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"mbea: {path}: ")
    assert len(captured.err.splitlines()) == 1


def test_experiment_csv_and_mirror(tmp_path, capsys):
    out = tmp_path / "cov.csv"
    code = main(
        [
            "exp-coverage",
            "--c", "1.0", "--c", "2.0",
            "--n", "30",
            "--instances", "4",
            "--seed", "11",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 3
    mirror = json.loads((tmp_path / "cov.json").read_text())
    assert len(mirror) == 2


def test_experiment_csv_out_named_json_keeps_the_csv(tmp_path, capsys):
    """An --out ending in .json already names the mirror's path: the CSV is
    written there, and no JSON overwrites it."""
    argv = ["exp-backbones", "--c", "1", "--n", "20", "--instances", "2"]
    assert main(argv) == 0
    csv = capsys.readouterr().out
    out = tmp_path / "r.json"
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_text() == csv
    assert [p.name for p in tmp_path.iterdir()] == ["r.json"]


def test_experiment_json_format(capsys):
    code = main(
        ["exp-backbones", "--c", "0.0", "--n", "10", "--instances", "2", "--format", "json"]
    )
    assert code == 0
    docs = json.loads(capsys.readouterr().out)
    assert docs[0]["pos_frac"] == 1.0


def test_exp_error_runs(capsys):
    code = main(
        ["exp-error", "--c", "2.0", "--n", "20", "--instances", "5", "--seed", "1"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("c,n,instances")


@pytest.mark.parametrize("command", ["exp-backbones", "exp-coverage"])
def test_oracle_budget_only_where_the_oracle_runs(command, monkeypatch, capsys):
    def no_instance(task):
        raise AssertionError(f"instance {task} ran")

    monkeypatch.setattr("mbea.experiments._run_instance", no_instance)
    assert main([command, "--c", "1", "--n", "10", "--oracle-budget", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage: mbea")
    assert captured.err.endswith("error: unrecognized arguments: --oracle-budget 5\n")


def test_exp_error_oracle_budget_refuses_larger_instances(capsys):
    args = ["exp-error", "--c", "1", "--n", "10", "--instances", "2"]
    assert main([*args, "--oracle-budget", "5"]) == 3
    captured = capsys.readouterr()
    assert captured.out.splitlines()[1].endswith(",,")
    assert captured.err == (
        "mbea: c=1, n=10: the oracle refused 2 of 2 instances (n exceeds --oracle-budget 5)\n"
    )
    assert main([*args, "--oracle-budget", "10"]) == 0
    captured = capsys.readouterr()
    assert not captured.out.splitlines()[1].endswith(",,") and captured.err == ""


@pytest.mark.parametrize(
    "grid",
    [
        ["--c", "1", "--n", "0"],
        ["--c", "1", "--n", "-5"],
        ["--c", "3", "--n", "2"],
        ["--c", "1", "--c", "3", "--n", "20", "--n", "2"],
        ["--c", "1", "--n", "10", "--workers", "0"],
    ],
    ids=["n-zero", "n-negative", "too-dense", "one-bad-point", "workers-zero"],
)
def test_experiment_rejects_bad_grid_point(grid, monkeypatch, capsys):
    def no_instance(task):
        raise AssertionError(f"instance {task} ran")

    monkeypatch.setattr("mbea.experiments._run_instance", no_instance)
    assert main(["exp-backbones", *grid, "--instances", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("mbea: ") and len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("c", ["inf", "nan"])
@pytest.mark.parametrize(
    "command",
    [["gen", "--n", "5"], ["exp-backbones", "--n", "10", "--instances", "1"]],
    ids=["gen", "exp-backbones"],
)
def test_non_finite_mean_degree_exits_one_line(command, c):
    proc = subprocess.run(
        [sys.executable, "-m", "mbea", *command, "--c", c],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr
    assert "finite" in proc.stderr


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "mbea", "gen", "--n", "6", "--c", "1.0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("6 3\n")
