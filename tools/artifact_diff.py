"""Compare the artifacts of every shipped config between the working tree and a git revision.

Usage, from anywhere inside the repository:

    python3 tools/artifact_diff.py <git-rev> [--full]

Runs ``masim run`` on each ``configs/*.json`` twice: once with the
working tree's sources and configs, once with those of ``<git-rev>``,
extracted by ``git archive`` into a temporary folder.  The ``snr``, ``sinr`` and
``mimo`` kinds run with ``--trials 2``; ``--full`` runs every config as
shipped (the 500-trial sweeps and the 200-seed ``mimo``).  Prints ``same``
or ``DIFF`` for every CSV and every ``summary.json`` (compared without its
``wall_time_s``) and exits 1 on any difference, 2 when a run fails.  When a
differing file keeps its layout (the same CSV header and row lengths, or
the same JSON keys), the DIFF line also gives how many of its values differ
("k of n values"), the largest absolute change of its numbers and the
largest change relative to the ``<git-rev>`` value.
BLAS runs on one thread on both sides.  Needs only the standard library,
git and the Python that runs it (with numpy).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from worktree import ROOT, checkout

TRIAL_KINDS = ("snr", "sinr", "mimo")
ONE_THREAD = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def run_configs(tree: Path, out: Path, full: bool) -> None:
    """Run every ``tree/configs/*.json`` with ``tree``'s sources into ``out/<config name>/``, with
    ``--trials 2`` for the kinds that take it unless ``full``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **ONE_THREAD)
    env.pop("MASIM_OUTPUT_DIR", None)
    for config in sorted((tree / "configs").glob("*.json")):
        command = [sys.executable, "-m", "masim.cli", "run", "-c", str(config),
                   "-o", str(out / config.stem)]
        if not full and json.loads(config.read_text()).get("kind") in TRIAL_KINDS:
            command += ["--trials", "2"]
        done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
        if done.returncode != 0:
            print(f"{tree}: {config.name} exited {done.returncode}\n{done.stderr}", file=sys.stderr)
            sys.exit(2)


def comparable(path: Path) -> bytes | str:
    """The file's bytes, or for ``summary.json`` its canonical JSON without ``wall_time_s``."""
    if path.name != "summary.json":
        return path.read_bytes()
    summary = json.loads(path.read_text())
    summary.pop("wall_time_s", None)
    return json.dumps(summary, sort_keys=True)


def leaves(node, where: str = "") -> list[tuple[str, object]]:
    """``(path, value)`` of every leaf of a JSON value, in order."""
    if isinstance(node, dict):
        node = node.items()
    elif isinstance(node, list):
        node = enumerate(node)
    else:
        return [(where, node)]
    return [leaf for key, child in node for leaf in leaves(child, f"{where}/{key}")]


def cells(path: Path) -> tuple[object, list]:
    """The file's layout and its values in order: a CSV's header and row lengths with its cells
    as text, or the leaf paths of :func:`comparable`'s ``summary.json`` with its leaves."""
    if path.name == "summary.json":
        found = leaves(json.loads(comparable(path)))
        return [where for where, _ in found], [value for _, value in found]
    header, *rows = path.read_text().splitlines()
    return (header, [row.count(",") for row in rows]), [c for row in rows for c in row.split(",")]


def largest_change(tree: Path, base: Path) -> str:
    """How many values of two files of one layout differ, and the largest absolute and relative
    change of their numbers, or why there is none to give."""
    (layout, new), (base_layout, old) = cells(tree), cells(base)
    if layout != base_layout:
        return "layout differs"
    worst_abs = worst_rel = 0.0
    moved = 0
    for x, y in zip(new, old):
        if x == y and type(x) is type(y):  # true == 1 in Python, but not in the file
            continue
        try:
            if isinstance(x, bool) or isinstance(y, bool):
                raise TypeError
            x, y = float(x), float(y)
        except (TypeError, ValueError):
            return f"non-numeric value differs: {x!r} against {y!r}"
        change = abs(x - y)
        moved += 1
        worst_abs = max(worst_abs, change)
        worst_rel = max(worst_rel, change / abs(y) if y else math.inf)
    return f"{moved} of {len(new)} values, max abs {worst_abs:.3g}, max rel {worst_rel:.3g}"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("rev")
    parser.add_argument("--full", action="store_true", help="run every config as shipped, without --trials 2")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="artifact-diff-") as tmp:
        tmp = Path(tmp)
        with checkout(args.rev, "artifact-diff-rev-") as base:
            run_configs(ROOT, tmp / "tree", args.full)
            run_configs(base, tmp / "base", args.full)
        files = sorted({p.relative_to(side) for side in (tmp / "tree", tmp / "base")
                        for p in side.rglob("*") if p.is_file()})
        differ = 0
        for rel in files:
            a, b = tmp / "tree" / rel, tmp / "base" / rel
            both = a.is_file() and b.is_file()
            same = both and comparable(a) == comparable(b)
            differ += not same
            detail = f"  ({largest_change(a, b)})" if both and not same else ""
            print(f"{'same' if same else 'DIFF'}  {rel}{detail}")
    print(f"{len(files) - differ} same, {differ} differ (working tree against {args.rev})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
