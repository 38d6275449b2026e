"""The pair runner's summary, on canned numbers (no benchmark run), and
the files it copies for the change side, in a throwaway git repo."""

from __future__ import annotations

import importlib.util
import subprocess
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", PATH)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

BETTER = {"cells_per_s": "higher", "cell_p50_ms": "lower"}


def pairs(parent_rate, change_rate, parent_ms, change_ms):
    return [
        {"parent": {"cells_per_s": pr, "cell_p50_ms": pm},
         "change": {"cells_per_s": cr, "cell_p50_ms": cm}}
        for pr, cr, pm, cm in zip(parent_rate, change_rate, parent_ms, change_ms)
    ]


def test_quartiles_inclusive():
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0}
    assert bench_pairs.quartiles([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0}


def test_summary_counts_wins_in_each_metric_direction():
    s = bench_pairs.summarize(pairs(
        parent_rate=[8.0, 7.0, 9.0, 8.0, 6.0],
        change_rate=[25.0, 26.0, 8.0, 30.0, 24.0],
        parent_ms=[100.0, 110.0, 90.0, 95.0, 105.0],
        change_ms=[15.0, 16.0, 95.0, 14.0, 105.0],
    ), BETTER)
    rate, ms = s["cells_per_s"], s["cell_p50_ms"]
    assert rate["parent"] == {"median": 8.0, "q1": 7.0, "q3": 8.0}
    assert rate["change"] == {"median": 25.0, "q1": 24.0, "q3": 26.0}
    assert (rate["change_won"], rate["pairs"]) == (4, 5)  # seed 3 lost
    assert rate["change_over_parent"] == pytest.approx(25.0 / 8.0)
    assert rate["beyond_parent_iqr"]
    # lower is better; the tie at 105 counts for neither side
    assert ms["change_won"] == 3
    assert ms["change"]["median"] == 16.0 and ms["beyond_parent_iqr"]


def test_summary_no_gain_inside_the_parent_spread():
    s = bench_pairs.summarize(pairs(
        parent_rate=[5.0, 7.0, 6.0, 8.0],
        change_rate=[6.5, 7.5, 7.0, 7.0],
        parent_ms=[1.0] * 4, change_ms=[1.0] * 4,
    ), BETTER)
    rate = s["cells_per_s"]
    assert rate["change_won"] == 3
    assert not rate["beyond_parent_iqr"]  # +0.5 against an IQR of 1.5
    assert s["cell_p50_ms"]["change_won"] == 0
    assert not s["cell_p50_ms"]["beyond_parent_iqr"]


@pytest.mark.parametrize("parent,change,way,verdict", [
    # medians 10 and 7: 30% worse against a 25% bound
    ([9.0, 10.0, 11.0], [6.0, 7.0, 8.0], "higher", "worse"),
    ([9.0, 10.0, 11.0], [12.0, 13.0, 14.0], "lower", "worse"),
    # 20% worse, inside the bound, and both sides tight
    ([9.9, 10.0, 10.1], [7.9, 8.0, 8.1], "higher", "not worse"),
    # 10% better, but the parent's runs spread by 4 (40% of its median)
    ([6.0, 8.0, 10.0, 12.0, 14.0], [9.0, 11.0, 13.0], "higher",
     "unresolved"),
    # the change's own spread alone is enough
    ([9.9, 10.0, 10.1], [6.0, 10.0, 14.0], "higher", "unresolved"),
    # as wide, but every change run beats every parent run
    ([6.0, 8.0, 10.0, 12.0, 14.0], [15.0, 17.0, 19.0, 21.0, 23.0],
     "higher", "not worse"),
    ([15.0, 17.0, 19.0, 21.0, 23.0], [6.0, 8.0, 10.0, 12.0, 14.0],
     "lower", "not worse"),
    # a tie between the best parent run and the worst change run
    ([6.0, 8.0, 10.0, 12.0, 15.0], [15.0, 17.0, 19.0, 21.0, 23.0],
     "higher", "unresolved"),
])
def test_no_worse_verdict(parent, change, way, verdict):
    assert bench_pairs.no_worse(parent, change, way, 0.25) == verdict


def test_summary_gives_the_verdict_for_bounded_metrics():
    s = bench_pairs.summarize(pairs(
        parent_rate=[8.0, 7.0, 9.0, 8.0, 6.0],
        change_rate=[25.0, 26.0, 8.0, 30.0, 24.0],
        parent_ms=[100.0, 110.0, 90.0, 95.0, 105.0],
        change_ms=[150.0, 160.0, 140.0, 145.0, 155.0],
    ), BETTER, {"cell_p50_ms": 0.25})
    assert "no_worse" not in s["cells_per_s"]
    assert s["cell_p50_ms"]["no_worse"] == "worse"


def test_change_side_copies_tracked_and_untracked_unignored_files(tmp_path):
    repo, dest = tmp_path / "repo", tmp_path / "copy"
    files = {
        ".gitignore": "__pycache__/\n/perfbench/out/\n*.log\n",
        "src/kept.py": "tracked\n",
        "src/gone.py": "tracked, then deleted\n",
        "src/edited.py": "tracked\n",
    }
    for name, text in files.items():
        (repo / name).parent.mkdir(parents=True, exist_ok=True)
        (repo / name).write_text(text)
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t",
           "-c", "commit.gpgsign=false"]
    subprocess.run(["git", "init", "-q", str(repo)], check=True)
    subprocess.run([*git, "add", "-A"], cwd=repo, check=True)
    subprocess.run([*git, "commit", "-q", "-m", "seed"], cwd=repo, check=True)
    (repo / "src/gone.py").unlink()
    (repo / "src/edited.py").write_text("edited\n")
    for name in ("src/new.py", "src/__pycache__/kept.cpython-311.pyc",
                 "perfbench/out/run.json", "bench.log"):
        (repo / name).parent.mkdir(parents=True, exist_ok=True)
        (repo / name).write_text("x\n")
    want = [".gitignore", "src/edited.py", "src/kept.py", "src/new.py"]
    assert bench_pairs.tree_files(repo) == want
    bench_pairs.copy_tree(repo, dest)
    got = sorted(str(p.relative_to(dest)) for p in dest.rglob("*") if p.is_file())
    assert got == want
    assert (dest / "src/edited.py").read_text() == "edited\n"
