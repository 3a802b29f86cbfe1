"""Run perfbench on a git revision and on the working tree in alternating pairs.

Usage, from anywhere inside the repository:

    python3 tools/bench_pair.py <git-rev> --workload W --pairs N --seed S --out BENCH_<topic>.json
    python3 tools/bench_pair.py <git-rev> --workload W --pairs N --seed S --trace 1 --out ...

``<git-rev>`` (the parent) is checked out in a temporary ``git worktree``;
the change is the working tree.  Each pair runs ``perfbench/run.py
--workload W --seed S --seconds <run_seconds of BENCHMARK.json>`` once on
each side, the parent first in even pairs and the change first in odd
ones, so a slow drift of the host does not favour one side.  The benchmark
of both sides must be identical (``perfbench/`` and ``BENCHMARK.json``);
otherwise the tool exits 2 before running anything.

The JSON written to ``--out`` holds every run's metrics and failure
counts (and, for ``--trace 1``, the targets perfbench could not trace as
``absent``), and per metric: each side's median and quartiles, the ratio
change/parent of the medians and of each pair, the pairs the change won
(ties count for neither) and whether a gain may be claimed: the change
wins at least nine tenths of the pairs and the medians differ by more
than the parent's interquartile range.  It also records the machine
(nproc, CPU model, Python and numpy versions) and both commits.  Needs
only the standard library, git and the Python that runs it (with numpy).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

from worktree import ROOT, checkout

SIDES = ("parent", "change")


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def run_perfbench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its result line, parsed, and the ``absent``
    list of the result file it writes, when it has one."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    with subprocess.Popen(command, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as done:
        try:
            stdout, stderr = done.communicate()
        except BaseException:
            done.terminate()  # perfbench stops its own child on SIGTERM; leaving the block waits for it
            raise
    if done.returncode != 0:
        raise RuntimeError(f"{tree}: perfbench exited {done.returncode}\n{stderr[-2000:]}")
    result = json.loads(stdout.strip().splitlines()[-1])
    run = {key: result[key] for key in ("correct", "attempted", "failed")}
    record = tree / ".perfbench_out" / "results" / f"{workload}_seed{seed}_trace{trace}.json"
    if "absent" in (full := json.loads(record.read_text())):
        run["absent"] = full["absent"]
    return {**run, "metrics": {name: entry["value"] for name, entry in result["metrics"].items()}}


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method; a single value is its own quartiles)."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def ratio(change: float, parent: float) -> float | None:
    return change / parent if parent else None


def summarise(runs: list[dict], better: dict) -> dict:
    """Per metric: both sides' spread, change/parent ratios and wins per pair."""
    pairs = max(r["pair"] for r in runs) + 1
    value = {(r["pair"], r["side"]): r["metrics"] for r in runs}
    summary = {}
    for metric in runs[0]["metrics"]:
        sides = {side: [value[p, side][metric] for p in range(pairs)] for side in SIDES}
        parent, change = spread(sides["parent"]), spread(sides["change"])
        sign = -1.0 if better.get(metric, "lower") == "lower" else 1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(sides["parent"], sides["change"]))
        ties = sum(c == p for p, c in zip(sides["parent"], sides["change"]))
        summary[metric] = {
            "better": better.get(metric, "lower"), "parent": parent, "change": change,
            "ratio_of_medians": ratio(change["median"], parent["median"]),
            "pair_ratios": [ratio(c, p) for p, c in zip(sides["parent"], sides["change"])],
            "wins": wins, "ties": ties,
            "gain_claim_holds": bool(wins >= 0.9 * pairs and sign * (change["median"] - parent["median"])
                                     > parent["iqr"])}
    return summary


def source_digest(tree: Path) -> str:
    """SHA-256 of ``tree/src/masim/*.py``, computed as perfbench records it."""
    digest = hashlib.sha256()
    for path in sorted((tree / "src" / "masim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine() -> dict:
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model,
            "python": platform.python_version(), "numpy": np.__version__}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="parent revision, checked out in a temporary git worktree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    commit = git("rev-parse", "--verify", f"{args.rev}^{{commit}}")
    if subprocess.run(["git", "-C", str(ROOT), "diff", "--quiet", commit, "--",
                       "perfbench", "BENCHMARK.json"]).returncode != 0:
        print(f"error: perfbench/ or BENCHMARK.json differ from {args.rev}; "
              "both sides must run the same benchmark", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    seconds = benchmark["run_seconds"]

    runs = []
    with checkout(commit, "bench-pair-") as parent:
        trees = {"parent": parent, "change": ROOT}
        digests = {side: source_digest(tree) for side, tree in trees.items()}
        try:
            for pair in range(args.pairs):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for position, side in enumerate(order):
                    run = run_perfbench(trees[side], args.workload, args.seed, seconds, args.trace)
                    runs.append({"pair": pair, "side": side, "position": position, **run})
                    print(f"pair {pair} {side:6s} failed {run['failed']}/{run['attempted']} "
                          + " ".join(f"{m}={run['metrics'][m]:.4g}" for m in list(run["metrics"])[:4]),
                          flush=True)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    summary = summarise(runs, better)
    record = {"workload": args.workload, "seed": args.seed, "pairs": args.pairs,
              "seconds": seconds, "trace": args.trace,
              "parent": {"rev": args.rev, "commit": commit, "src_masim_sha256": digests["parent"]},
              "change": {"head": git("rev-parse", "HEAD"), "src_masim_sha256": digests["change"],
                         "uncommitted": bool(git("status", "--porcelain", "--", "src", "configs"))},
              "machine": machine(), "summary": summary, "runs": runs}
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    for metric, s in summary.items():
        r = s["ratio_of_medians"]
        print(f"{metric:50s} parent {s['parent']['median']:.4g} change {s['change']['median']:.4g} "
              f"ratio {'-' if r is None else f'{r:.3f}'} wins {s['wins']}/{args.pairs}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
