"""Tests of the benchmark itself; run with ``python3 -m pytest -q perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SMALL = run.Workload(("snr", "mimo", "gainmap"), trials=2, why="test input")


def test_self_times_on_nested_tree():
    # root [0,10] holds a [1,4] (which holds a1 [2,3]) and b [5,9]; c [11,12] is a second root.
    starts = np.array([0.0, 1.0, 2.0, 5.0, 11.0])
    ends = np.array([10.0, 4.0, 3.0, 9.0, 12.0])
    parents = np.array([-1, 0, 1, 0, -1])
    assert tracing.self_times(starts, ends, parents).tolist() == [3.0, 2.0, 1.0, 4.0, 1.0]


def test_layer_metrics_from_spans():
    names = list(tracing.TARGETS)
    at = names.index
    # run_experiment [0,10] > max_snr_position [1,9] > channel_gain [2,4] and [5,6]
    spans = np.array([
        [at("experiments.run_experiment"), 0.0, 10.0, -1, 0],
        [at("positioning.max_snr_position"), 1.0, 9.0, 0, 0],
        [at("channel.channel_gain"), 2.0, 4.0, 1, 0],
        [at("channel.channel_gain"), 5.0, 6.0, 1, 0],
    ])
    counts = {"channel.channel_gain.positions": 12}
    metrics = tracing.layer_metrics(names, spans, counts, wall_s=10.0)
    assert metrics["channel.channel_gain.calls"] == 2
    assert metrics["channel.channel_gain.self_s"] == 3.0
    assert metrics["positioning.max_snr_position.self_s"] == 5.0
    assert metrics["experiments.run_experiment.self_s"] == 2.0
    assert metrics["positioning.evals_per_search"] == 12.0
    assert metrics["trace.spans"] == 4
    assert metrics["trace.coverage_frac"] == 0.8  # run_experiment's self time is left out
    assert set(metrics) | {"trace.overhead_frac"} == {m for m, _, _ in tracing.per_layer_specs()}


def test_tracer_wraps_every_binding_and_reports_absent_names():
    sys.path.insert(0, str(run.ROOT / "src"))
    from masim import channel, positioning, reference

    tracer = tracing.Tracer({"channel.field_on_grid": {"points": lambda a, k, r: np.size(r[0])},
                             "positioning.max_snr_position": {},
                             "channel.no_such_function": {}})
    tracer.install()
    try:
        positioning.max_snr_position(reference.two_path_spec(), channel.Region.square(1.0))
    finally:
        tracer.uninstall()
    # field_on_grid is reached through the name positioning imported, not masim.channel's.
    (outer, start0, end0, parent0, _), (inner, start1, end1, parent1, _) = tracer.spans
    assert tracer.names[outer] == "positioning.max_snr_position" and parent0 == -1
    assert tracer.names[inner] == "channel.field_on_grid" and parent1 == 0
    assert start0 <= start1 <= end1 <= end0
    assert tracer.counts == {"channel.field_on_grid.points": 11 * 11}
    assert tracer.absent == ["channel.no_such_function"]
    assert positioning.field_on_grid is channel.field_on_grid  # uninstall restores every binding


def _run_small(tmp_path: Path, seed: int, trace: bool):
    workdir = tmp_path / f"seed{seed}-trace{int(trace)}"
    units = run.plan_units(SMALL, seed, 0, 1, str(workdir / "out"))
    return units, run.run_child(SMALL.configs, units, trace, workdir)


@pytest.fixture(scope="module")
def small_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("small")
    return {(seed, trace): _run_small(tmp, seed, trace)
            for seed, trace in ((1, False), (1, True), (2, False))}


def _csv_bytes(units) -> dict:
    return {(c["config"], p.name): p.read_bytes()
            for unit in units for c in unit for p in sorted(Path(c["outdir"]).glob("*.csv"))}


def test_small_runs_pass_the_output_check(small_runs):
    for units, report in small_runs.values():
        assert run.assess(report, units, SMALL.trials, {}) == []
        assert len(report["cal"]) == len(report["units"]) + 1
        assert all(v > 0 for v in run.normalised(report)["wall_cal"])
    assert small_runs[1, True][1]["layers"]["channel.field_on_grid.calls"] > 0


def test_traced_and_untraced_runs_write_identical_csvs(small_runs):
    untraced, traced = _csv_bytes(small_runs[1, False][0]), _csv_bytes(small_runs[1, True][0])
    assert len(untraced) == 3 and untraced == traced


def test_same_seed_same_inputs_other_seed_other_inputs(small_runs, tmp_path):
    out = str(tmp_path)
    assert run.plan_units(SMALL, 1, 0, 3, out) == run.plan_units(SMALL, 1, 0, 3, out)
    assert run.plan_units(SMALL, 1, 0, 3, out) != run.plan_units(SMALL, 2, 0, 3, out)
    # Each unit of a run draws other channels.
    seeds = [unit[0]["seed"] for unit in run.plan_units(SMALL, 1, 0, 3, out)]
    assert seeds[0] == 1 and len(set(seeds)) == 3
    seed1, seed2 = _csv_bytes(small_runs[1, False][0]), _csv_bytes(small_runs[2, False][0])
    # The seed draws the snr and mimo channels; the gain map's paths are fixed by its config.
    assert seed1[("snr", "snr_sweep.csv")] != seed2[("snr", "snr_sweep.csv")]
    assert seed1[("mimo", "capacity_sweep.csv")] != seed2[("mimo", "capacity_sweep.csv")]
    assert seed1[("gainmap", "gain_map.csv")] == seed2[("gainmap", "gain_map.csv")]


def test_normalised_divides_by_the_calibration_on_both_sides():
    report = {"units": [{"wall_s": 3.0, "cpu_s": 2.0}, {"wall_s": 6.0, "cpu_s": 6.0}],
              "cal": [[1.0, 1.0], [2.0, 1.0], [4.0, 3.0]]}
    assert run.normalised(report) == {"wall_cal": [2.0, 2.0], "cpu_cal": [2.0, 3.0]}


def _drop_last_row(path: Path):
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))


def _ma_below_fpa(path: Path):
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[4] = repr(float(cells[3]) - 0.5)
    path.write_text("\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n")


def _snr_falls_with_size(path: Path):
    lines = path.read_text().splitlines()
    cells = lines[-1].split(",")  # largest region of the last path count
    cells[3] = repr(float(cells[3]) - 5.0)
    path.write_text("\n".join([*lines[:-1], ",".join(cells)]) + "\n")


@pytest.mark.parametrize("config, artifact, corrupt", [
    ("gainmap", "gain_map.csv", _drop_last_row),
    ("mimo", "capacity_sweep.csv", _ma_below_fpa),
    ("snr", "snr_sweep.csv", _snr_falls_with_size),
])
def test_corrupted_artifact_counts_as_failure(small_runs, tmp_path, config, artifact, corrupt):
    units, report = small_runs[1, False]
    copied = []
    for unit in units:
        copied.append([])
        for call in unit:
            out = tmp_path / call["config"]
            shutil.copytree(call["outdir"], out)
            copied[-1].append(dict(call, outdir=str(out)))
    assert run.assess(report, copied, SMALL.trials, {}) == []
    corrupt(tmp_path / config / artifact)
    problems = run.assess(report, copied, SMALL.trials, {})
    assert len(problems) == 1 and problems[0].startswith(f"{config}: {artifact}")


def test_reference_compare_tolerates_last_digits_only():
    want = {"metric_db": 24.081498108641263, "indices": [3, 5], "ok": True}
    errors = []
    checks.compare("results", {"metric_db": 24.081498108641270, "indices": [3, 5], "ok": True,
                               "extra": 1}, want, errors)
    assert errors == []
    checks.compare("results", {"metric_db": 24.09, "indices": [3, 6], "ok": True}, want, errors)
    assert len(errors) == 2


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        tracing.per_layer_specs()


def test_refuses_to_run_without_masim_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "snr_sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
