"""Outside-in benchmark of ``masim run``.

Usage, from the repository root:

    python3 perfbench/run.py --workload snr_sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

For ``--seconds`` it starts one fresh child process after another.  Each
child imports masim and validates the workload's configs (set-up), then
runs units: one ``masim.cli.main(["run", ...])`` call per config of the
workload, with pinned ``--trials`` and ``--workers 1``, under one-thread
BLAS.  Unit j of a run passes ``--seed <seed + j * SEED_STRIDE>``, so the
workload seed fixes every input.  A fixed calibration kernel (child.py)
runs before and after each unit; ``wall_cal`` and ``cpu_cal`` are a unit's
time over the calibration's, which cancels the slow drift of this host's
CPU speed.  Every call's artifacts are checked (see checks.py).
``--trace 0`` reports end-to-end medians; ``--trace 1`` alternates
untraced and traced children and reports per-layer metrics from the traced
ones (see tracing.py).  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
result, with provenance, goes to ``.perfbench_out/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import tracing  # noqa: E402

REFERENCE_SEED = 1
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKERS = 1
CHILD_TIMEOUT_S = 120
MIN_CHILDREN = 3      # per kind of child (untraced, traced) in one run
UNITS_PER_CHILD = 8
SEED_STRIDE = 1_000_003  # unit j of a run passes --seed <seed + j * SEED_STRIDE>
TRIALS_FIELD = {"snr": "trials", "sinr": "trials", "mimo": "seeds"}


@dataclass(frozen=True)
class Workload:
    configs: tuple[str, ...]  # names under configs/, run in this order in each unit
    trials: int | None        # --trials value, or None for kinds without one
    why: str


WORKLOADS = {
    "snr_sweep": Workload(
        ("snr",), 20,
        "units of 4 path counts x 5 region sizes x 20 trials = 400 small single-MA searches: "
        "per-trial Python overhead, channel draw and refine dominate"),
    "sinr_fine": Workload(
        ("sinr",), 25,
        "units of 25 trials at step 0.05, two 401x401 coarse fields per trial at A=20: the "
        "grid kernel dominates and the channel draw barely shows"),
    "mimo_greedy": Workload(
        ("mimo",), 2,
        "units of 2 seeds x 2 path counts x 4 SNRs = 16 greedy Rx placements: candidate "
        "scoring and slogdet, bypassing the SNR/SINR layers"),
    "artifact_export": Workload(
        ("gainmap", "beam_two_beam", "beam_null_steer", "estimate"), None,
        "units of one pass over the four light shipped configs as-is: CSV writing, beams, "
        "OMP and config handling, which no other workload reaches"),
}

END_TO_END = (("wall_cal", "cal"), ("cpu_cal", "cal"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def load_config(name: str, seed: int, trials: int | None) -> dict:
    """The config of ``configs/<name>.json`` as a call runs it."""
    with open(ROOT / "configs" / f"{name}.json") as fh:
        cfg = json.load(fh)
    cfg["seed"] = seed
    if trials is not None and cfg["kind"] in TRIALS_FIELD:
        cfg[TRIALS_FIELD[cfg["kind"]]] = trials
    return cfg


def plan_units(workload: Workload, seed: int, first: int, count: int, outdir: str) -> list:
    """Units ``first`` to ``first + count - 1`` of a run; a function of the seed alone.

    A unit is one ``masim run`` call per config of the workload, all with
    the same ``--seed``; each unit of a run draws other channels.
    """
    units = []
    for j in range(first, first + count):
        unit_seed = seed + j * SEED_STRIDE
        calls = []
        for name in workload.configs:
            out = f"{outdir}/u{j}_{name}"
            argv = ["run", "-c", f"configs/{name}.json", "-o", out,
                    "--seed", str(unit_seed), "--workers", str(WORKERS)]
            if workload.trials is not None:
                argv += ["--trials", str(workload.trials)]
            calls.append({"config": name, "seed": unit_seed, "argv": argv, "outdir": out})
        units.append(calls)
    return units


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return env


def run_child(configs, units, trace: bool, workdir: Path) -> dict:
    """Run one child; returns its report, with ``setup_s``, or ``{"error": ...}``."""
    workdir.mkdir(parents=True)
    plan_path, report_path = workdir / "plan.json", workdir / "report.json"
    plan = {"validate": [f"configs/{c}.json" for c in configs],
            "units": [[c["argv"] for c in calls] for calls in units], "trace": trace}
    plan_path.write_text(json.dumps(plan))
    log_path = workdir / "child.log"
    with open(log_path, "w") as log:
        spawn = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), str(plan_path), str(report_path)],
                cwd=ROOT, env=child_env(), stdout=log, stderr=subprocess.STDOUT,
                timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"error": f"child killed after {CHILD_TIMEOUT_S} s"}
    if proc.returncode != 0 or not report_path.exists():
        tail = log_path.read_text()[-2000:]
        return {"error": f"child exited with {proc.returncode}: {tail}"}
    report = json.loads(report_path.read_text())
    report["setup_s"] = report["ready"] - spawn
    report["wall_s"] = sum(u["wall_s"] for u in report["units"])
    if trace:
        with np.load(str(report_path) + ".spans.npz") as data:
            report["layers"] = tracing.layer_metrics(
                list(data["names"]), data["spans"], report["counts"], report["wall_s"])
    return report


def normalised(report: dict) -> dict:
    """Each unit's wall and CPU time over the calibration's, averaged from both sides of it."""
    cal = np.array(report["cal"])
    around = (cal[:-1] + cal[1:]) / 2.0
    return {"wall_cal": [u["wall_s"] / c for u, c in zip(report["units"], around[:, 0])],
            "cpu_cal": [u["cpu_s"] / c for u, c in zip(report["units"], around[:, 1])]}


def assess(report: dict, units, trials: int | None, references: dict) -> list[str]:
    """One message per failed call: a bad exit code or artifacts that fail the check."""
    calls = [c for unit in units for c in unit]
    if "error" in report:
        return [f"{c['config']}: {report['error']}" for c in calls]
    src = str(ROOT / "src")
    if not report["masim_file"].startswith(src):
        return [f"{c['config']}: imported masim from {report['masim_file']}, not {src}"
                for c in calls]
    problems = []
    bad_setup = [code for code in report["validate_codes"] if code != 0]
    codes = [code for unit in report["units"] for code in unit["codes"]]
    for call, code in zip(calls, codes):
        name = call["config"]
        if bad_setup or code != 0:
            problems.append(f"{name}: validate exits {report['validate_codes']}, run exits {code}")
            continue
        reference = references.get(name) if call["seed"] == REFERENCE_SEED else None
        errors = checks.check_outputs(name, load_config(name, call["seed"], trials),
                                      str(ROOT / call["outdir"]), reference)
        if errors:
            problems.append(f"{name}: " + "; ".join(errors[:5]))
    return problems


def _median(values):
    return statistics.median(values) if values else 0.0


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Run children of one workload for ``seconds``; returns metrics and counts."""
    workload = WORKLOADS[name]
    recorded = json.loads((BENCH / "reference.json").read_text())["results"]
    references = {c: recorded[f"{name}/{c}"] for c in workload.configs}
    children = {False: [], True: []}
    attempted, problems, durations = 0, [], []
    start = time.monotonic()
    k = 0
    while True:
        began = time.monotonic()
        traced = trace and k % 2 == 1
        child_dir = workdir / f"{name}-{k}"
        units = plan_units(workload, seed, k * UNITS_PER_CHILD, UNITS_PER_CHILD,
                           child_dir.relative_to(ROOT).as_posix())
        report = run_child(workload.configs, units, traced, child_dir)
        failures = assess(report, units, workload.trials, references)
        shutil.rmtree(child_dir)
        attempted += sum(len(unit) for unit in units)
        problems += failures
        children[traced].append(report)
        k += 1
        durations.append(time.monotonic() - began)
        enough = all(len(children[t]) >= MIN_CHILDREN for t in ({False, True} if trace else {False}))
        # Start another child only if a typical one still ends within the window.
        if enough and time.monotonic() - start + _median(durations) > seconds:
            break
    plain = [r for r in children[False] if "error" not in r]
    if not plain:
        raise RuntimeError(f"{name}: no child finished: {problems[:1]}")
    units = [normalised(r) for r in plain]
    samples = {
        "wall_cal": [v for u in units for v in u["wall_cal"]],
        "cpu_cal": [v for u in units for v in u["cpu_cal"]],
        "setup_s": [r["setup_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        "unit_wall_s": [u["wall_s"] for r in plain for u in r["units"]],
        "unit_cpu_s": [u["cpu_s"] for r in plain for u in r["units"]],
        "cal_wall_s": [c[0] for r in plain for c in r["cal"]],
    }
    result = {"attempted": attempted, "failed": len(problems), "problems": problems,
              "children": {"untraced": len(children[False]), "traced": len(children[True])},
              "raw": {m: _median(samples[m]) for m in ("unit_wall_s", "unit_cpu_s", "cal_wall_s")},
              "samples": samples}
    if not trace:
        result["metrics"] = {m: {"value": _median(samples[m]), "unit": unit}
                             for m, unit in END_TO_END}
        return result
    layered = [r for r in children[True] if "error" not in r]
    if not layered:
        raise RuntimeError(f"{name}: no traced child finished: {problems[:1]}")
    metrics = {}
    for metric, unit, _ in tracing.per_layer_specs():
        values = [r["layers"][metric] for r in layered if metric in r["layers"]]
        metrics[metric] = {"value": _median(values), "unit": unit}
    traced_wall = _median([v for r in layered for v in normalised(r)["wall_cal"]])
    metrics["trace.overhead_frac"]["value"] = traced_wall / _median(samples["wall_cal"]) - 1.0
    result["metrics"] = metrics
    result["absent"] = sorted({a for r in layered for a in r["absent"]})
    return result


def provenance(seed: int) -> dict:
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        commit = git.stdout.strip() if git.returncode == 0 else "not a git checkout"
    except OSError:
        commit = "git not installed"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "masim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": THREAD_ENV,
        "workers": WORKERS,
        "git_commit": commit,
        "src_masim_sha256": digest.hexdigest(),
        "seed": seed,
    }


def _print_table(name: str, seed: int, result: dict) -> None:
    print(f"{name} (seed {seed}): {result['children']['untraced']} untraced and "
          f"{result['children']['traced']} traced children, "
          f"{result['attempted']} masim runs")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:50s} {entry['value']:.6g} {entry['unit']}")
    if "absent" in result:
        print(f"  absent from this masim: {', '.join(result['absent']) or 'none'}")
    else:
        samples = result["samples"]
        print(f"  (wall_cal and cpu_cal are medians of {len(samples['wall_cal'])} units, "
              f"setup_s and peak_rss_mb of {len(samples['setup_s'])} children)")
        raw = result["raw"]
        print(f"  {'wall_s':50s} {raw['unit_wall_s']:.6g} s   (one unit, not normalised)")
        print(f"  {'cpu_s':50s} {raw['unit_cpu_s']:.6g} s   (one unit, not normalised)")
        print(f"  {'cal_s':50s} {raw['cal_wall_s']:.6g} s   (one calibration kernel)")
    print(f"  {'failed_frac':50s} {result['failed'] / result['attempted']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} runs)")
    for problem in result["problems"][:10]:
        print(f"  FAILED {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "masim" / "cli.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: no masim sources (src/masim, configs) under {ROOT}", file=sys.stderr)
        return 2
    warm = subprocess.run([sys.executable, "-c", "import masim.cli"], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True)
    if warm.returncode != 0:
        print(f"error: cannot import masim: {warm.stderr.strip()}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    workdir = OUT / f"work-{os.getpid()}"
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, args.seconds, bool(args.trace), workdir)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    prov = provenance(args.seed)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    for name, result in results.items():
        _print_table(name, args.seed, result)
        record = {"workload": name, "why": WORKLOADS[name].why, "seconds": args.seconds,
                  "trace": args.trace, "provenance": prov, **result}
        out = OUT / "results" / f"{name}_seed{args.seed}_trace{args.trace}.json"
        out.write_text(json.dumps(record, indent=2) + "\n")
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through subprocess.run, which kills the child


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
