"""Tests of the pure functions of ``tools/artifact_diff.py`` and ``tools/bench_pair.py``, and of the
checkout of ``tools/worktree.py``.

The byte-identity and gain statements made with these tools rest on how they compare files and
pairs of runs, and on the parent's files they run; only the checkout test runs git, on a throwaway
repository.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import artifact_diff  # noqa: E402
import bench_pair  # noqa: E402
import worktree  # noqa: E402


def write(folder: Path, name: str, content) -> Path:
    path = folder / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content if isinstance(content, str) else json.dumps(content))
    return path


def test_comparable_drops_only_the_wall_time(tmp_path):
    summary = {"kind": "snr", "wall_time_s": 1.5, "counters": {"searches": 6, "wall_time_s": 2.0}}
    one = write(tmp_path / "a", "summary.json", summary)
    slower = write(tmp_path / "b", "summary.json", {**summary, "wall_time_s": 9.0})
    moved = write(tmp_path / "c", "summary.json", {**summary, "counters": {"searches": 6, "wall_time_s": 3.0}})
    assert artifact_diff.comparable(one) == artifact_diff.comparable(slower)
    assert artifact_diff.comparable(one) != artifact_diff.comparable(moved)  # only the top-level key goes
    assert json.loads(artifact_diff.comparable(one)) == {k: v for k, v in summary.items() if k != "wall_time_s"}
    # Any other file is compared by its bytes, wall times and all.
    csv = write(tmp_path, "sweep.csv", "wall_time_s\n1.5\n")
    assert artifact_diff.comparable(csv) == b"wall_time_s\n1.5\n"


@pytest.mark.parametrize("new, old", [("L,A\n1,2\n", "L,B\n1,2\n"),  # a renamed column
                                      ("L,A\n1,2\n", "L,A\n1,2,3\n"),  # a longer row
                                      ({"a": 1, "b": 2}, {"a": 1, "c": 2})])  # a renamed key
def test_largest_change_reports_a_changed_layout(tmp_path, new, old):
    name = "summary.json" if isinstance(new, dict) else "sweep.csv"
    assert artifact_diff.largest_change(write(tmp_path / "tree", name, new),
                                        write(tmp_path / "base", name, old)) == "layout differs"


def test_largest_change_reports_a_moved_number(tmp_path):
    tree = write(tmp_path / "tree", "summary.json", {"counters": {"coarse_points": 110, "searches": 6},
                                                     "wall_time_s": 1.0})
    base = write(tmp_path / "base", "summary.json", {"counters": {"coarse_points": 100, "searches": 6},
                                                     "wall_time_s": 7.0})
    assert artifact_diff.largest_change(tree, base) == "1 of 2 values, max abs 10, max rel 0.1"
    # In a CSV, the largest changes of all cells, absolute and relative, may come from two cells.
    tree = write(tmp_path / "tree", "sweep.csv", "L,metric_db\n1,4.0\n2,30.0\n3,7.5\n")
    base = write(tmp_path / "base", "sweep.csv", "L,metric_db\n1,2.0\n2,25.0\n3,7.5\n")
    assert artifact_diff.largest_change(tree, base) == "2 of 6 values, max abs 5, max rel 1"
    # A cell written differently counts even where its number is the same.
    tree = write(tmp_path / "tree", "sweep.csv", "L,metric_db\n1,2.50\n")
    base = write(tmp_path / "base", "sweep.csv", "L,metric_db\n1,2.5\n")
    assert artifact_diff.largest_change(tree, base) == "1 of 2 values, max abs 0, max rel 0"


@pytest.mark.parametrize("new, old, shown", [(True, False, "True against False"),
                                             (True, 1, "True against 1"),
                                             (None, 0.5, "None against 0.5"),
                                             (0.25, None, "0.25 against None")])
def test_largest_change_reports_a_non_numeric_leaf(tmp_path, new, old, shown):
    tree = write(tmp_path / "tree", "summary.json", {"results": {"flag": new}})
    base = write(tmp_path / "base", "summary.json", {"results": {"flag": old}})
    assert artifact_diff.largest_change(tree, base) == f"non-numeric value differs: {shown}"


def test_spread_of_one_and_of_five_values():
    assert bench_pair.spread([3.0]) == {"median": 3.0, "q1": 3.0, "q3": 3.0, "iqr": 0.0}
    assert bench_pair.spread([5.0, 1.0, 4.0, 2.0, 3.0]) == {"median": 3.0, "q1": 2.0, "q3": 4.0, "iqr": 2.0}


def runs_of(sides: dict) -> list[dict]:
    """Runs as ``bench_pair`` records them, from ``{side: {metric: [value per pair]}}``."""
    pairs = len(next(iter(sides["parent"].values())))
    return [{"pair": p, "side": side, "metrics": {m: values[p] for m, values in sides[side].items()}}
            for p in range(pairs) for side in bench_pair.SIDES]


def test_summarise_counts_wins_by_the_better_direction_and_ties_for_neither_side():
    parent = {"wall_cal": [10.0] * 10, "improved_frac": [0.5] * 10, "calls": [4.0] * 10}
    change = {"wall_cal": [9.0] * 9 + [10.0], "improved_frac": [0.6] * 9 + [0.5], "calls": [4.0] * 10}
    better = {"wall_cal": "lower", "improved_frac": "higher"}  # calls takes the default, lower
    summary = bench_pair.summarise(runs_of({"parent": parent, "change": change}), better)
    assert [(summary[m]["wins"], summary[m]["ties"]) for m in parent] == [(9, 1), (9, 1), (0, 10)]
    assert summary["calls"]["better"] == "lower" and summary["calls"]["pair_ratios"] == [1.0] * 10
    # The same values read the other way round are losses, and the tie still counts for neither side.
    flipped = bench_pair.summarise(runs_of({"parent": parent, "change": change}),
                                   {"wall_cal": "higher", "improved_frac": "lower", "calls": "higher"})
    assert [(flipped[m]["wins"], flipped[m]["ties"]) for m in parent] == [(0, 1), (0, 1), (0, 10)]
    assert summary["wall_cal"]["ratio_of_medians"] == 0.9


@pytest.mark.parametrize("parent, change, holds", [
    ([10.0] * 10, [9.0] * 9 + [10.0], True),  # 9 of 10 pairs won, medians 1 apart, parent IQR 0
    ([10.0] * 10, [9.0] * 8 + [10.0, 11.0], False),  # 8 of 10 pairs won
    ([5.0, 15.0] * 5, [4.0, 14.0] * 5, False),  # every pair won, but the medians differ by 1, the IQR is 10
    ([9.0, 11.0] * 5, [7.0, 9.0] * 5, False),  # every pair won, but the medians differ by 2, as wide as the IQR
    ([9.5, 10.5] * 5, [7.5, 8.5] * 5, True),  # every pair won, and the medians differ by 2, the IQR is 1
])
def test_a_gain_claim_needs_nine_tenths_of_the_pairs_and_a_gap_over_the_parent_iqr(parent, change, holds):
    summary = bench_pair.summarise(runs_of({"parent": {"wall_cal": parent}, "change": {"wall_cal": change}}),
                                   {"wall_cal": "lower"})["wall_cal"]
    assert summary["gain_claim_holds"] is holds


def test_checkout_extracts_the_committed_files_and_writes_nothing_into_git(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    repo.mkdir()
    git = lambda *args: subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t", *args],
                                       check=True, capture_output=True)
    git("init", "--quiet")
    write(repo, "src/one.py", "committed\n")
    git("add", "src/one.py")
    git("commit", "--quiet", "-m", "one")
    write(repo, "src/one.py", "edited\n")  # the working tree's edits stay out of the checkout
    write(repo, "two.py", "untracked\n")
    before = sorted((repo / ".git").rglob("*"))
    monkeypatch.setattr(worktree, "ROOT", repo)
    handler = signal.getsignal(signal.SIGTERM)
    try:
        with worktree.checkout("HEAD", "test-checkout-") as path:
            assert signal.getsignal(signal.SIGTERM) is worktree._terminate
            assert sorted(p.relative_to(path) for p in path.rglob("*")) == [Path("src"), Path("src/one.py")]
            assert (path / "src/one.py").read_text() == "committed\n"
    finally:
        signal.signal(signal.SIGTERM, handler)
    assert not path.parent.exists()  # the temporary folder goes with the block
    assert sorted((repo / ".git").rglob("*")) == before
