import importlib.util
import subprocess
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tree_label_ignores_the_bench_files_it_writes(tmp_path, monkeypatch):
    def git(*args):
        return subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
            cwd=tmp_path, capture_output=True, text=True, check=True,
        ).stdout.strip()

    git("init", "-q")
    (tmp_path / "solver.py").write_text("x = 1\n")
    (tmp_path / "BENCH_chains.json").write_text("{}\n")
    (tmp_path / "NOTES.md").write_text("notes\n")
    git("add", ".")
    git("commit", "-q", "-m", "init")
    head = git("rev-parse", "--short", "HEAD")
    bench_pairs = _load_script()
    monkeypatch.setattr(bench_pairs, "ROOT", str(tmp_path))
    assert bench_pairs.tree_label() == head

    # a rewritten result file, a new untracked one and edited notes leave
    # the label clean
    (tmp_path / "BENCH_chains.json").write_text('{"pairs": 1}\n')
    (tmp_path / "BENCH_sparse-cli.json").write_text("{}\n")
    (tmp_path / "NOTES.md").write_text("notes, edited while the pairs run\n")
    assert bench_pairs.tree_label() == head

    (tmp_path / "solver.py").write_text("x = 2\n")
    assert bench_pairs.tree_label() == head + "-dirty"


def test_seed_list_reads_ranges_and_rejects_descending_ones(capsys):
    bench_pairs = _load_script()
    assert bench_pairs.seed_list("301-303,397,5-5") == [301, 302, 303, 397, 5]
    for text in ("310-301", "301,310-301"):
        with pytest.raises(ValueError, match="descending seed range '310-301'"):
            bench_pairs.seed_list(text)
    # argparse turns the ValueError into a usage error before any run starts
    with pytest.raises(SystemExit) as stop:
        bench_pairs.main(["--parent", ".", "--workload", "chains", "--seeds", "310-301",
                          "--out", "unused.json"])
    assert stop.value.code == 2
    assert "invalid seed_list value: '310-301'" in capsys.readouterr().err
