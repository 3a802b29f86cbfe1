import ctypes
import hashlib
import json
import math
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import masim
import masim.experiments as experiments
import masim.mimo as mimo
import masim.positioning as positioning
import masim.util as util
from masim.cli import main
from masim.experiments import (ConfigError, load_config, run_experiment,
                               validate_config_dict)
from masim.gainmap import evaluate_map
from masim.reference import two_path_spec
from masim.channel import Region, field_response, sample_stochastic_channel
from masim.mimo import greedy_rx_placement, tx_ula
from masim.beams import two_beam_weights

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def small_snr_config():
    return {"kind": "snr", "seed": 3, "path_counts": [4], "region_sizes": [2.0],
            "trials": 12, "coarse_step": 0.2}


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("*.json")))
def test_checked_in_sample_configs_are_valid(name):
    cfg = load_config(str(CONFIG_DIR / name))
    assert validate_config_dict(cfg) == []


def test_validation_reports_field_level_violations():
    bad = {"kind": "snr", "seed": -1, "path_counts": [], "region_sizes": [2.0],
           "trials": -5}
    violations = validate_config_dict(bad)
    assert any(v.startswith("seed:") for v in violations)
    assert any(v.startswith("path_counts:") for v in violations)
    assert any(v.startswith("trials:") for v in violations)


def test_validation_flags_region_too_small_for_antennas():
    cfg = {"kind": "mimo", "seed": 0, "num_tx": 4, "num_rx": 8,
           "path_counts": [5], "snr_db_list": [10.0], "seeds": 2,
           "region_size": 1.0}
    violations = validate_config_dict(cfg)
    assert any("region_size" in v and "spacing" in v for v in violations)


def test_validation_rejects_unknown_kind():
    assert validate_config_dict({"kind": "nope", "seed": 0})


def test_load_config_distinguishes_unreadable_from_invalid(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(bad))


def test_gainmap_run_matches_module_extrema(tmp_path):
    cfg = load_config(str(CONFIG_DIR / "gainmap.json"))
    cfg["step"] = 0.1  # keep the test quick
    out = tmp_path / "out"
    summary = run_experiment(cfg, output_dir=str(out))
    gm = evaluate_map(two_path_spec(), Region.square(4.0), 0.1)
    assert summary["results"]["max_db"] == gm.max_db
    assert summary["results"]["min_db"] == gm.min_db
    rows = (out / "gain_map.csv").read_text().splitlines()[1:]
    values = np.array([float(r.split(",")[2]) for r in rows])
    assert values.max() == gm.max_db and values.min() == gm.min_db


def test_run_rerun_byte_identical(tmp_path):
    cfg = small_snr_config()
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_experiment(cfg, output_dir=str(out1))
    run_experiment(cfg, output_dir=str(out2))
    assert (out1 / "snr_sweep.csv").read_bytes() == (out2 / "snr_sweep.csv").read_bytes()


def test_cli_workers_accepts_only_one(tmp_path):
    cfg = write_config(tmp_path, small_snr_config())
    out = tmp_path / "w"
    with pytest.raises(SystemExit) as exc:
        main(["run", "-c", cfg, "-o", str(out), "--workers", "2"])
    assert exc.value.code == 2
    assert not out.exists()
    assert main(["run", "-c", cfg, "-o", str(out), "--workers", "1"]) == 0


def test_single_trial_summary_is_strict_json(tmp_path):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    for cfg, key in ((small_snr_config(), "halfwidth_db"), (mimo_config(), "halfwidth")):
        halfwidths = []
        for trials in (1, 2):
            out = tmp_path / f"{cfg['kind']}{trials}"
            run_experiment(cfg, output_dir=str(out), trials=trials)
            results = json.loads((out / "summary.json").read_text(), parse_constant=reject)["results"]
            cells = results["mean_gain_bits"] if cfg["kind"] == "mimo" else results
            halfwidths.append([cell[key] for cell in cells.values()])
        assert halfwidths[0] == [None] * len(halfwidths[0])
        assert all(isinstance(h, float) and h >= 0 for h in halfwidths[1])


def test_mimo_summary_reports_per_seed_dominance(tmp_path):
    cfg = {"kind": "mimo", "seed": 5, "num_tx": 2, "num_rx": 2,
           "path_counts": [4], "snr_db_list": [10.0], "seeds": 4,
           "region_size": 2.0, "step": 0.2}
    summary = run_experiment(cfg, output_dir=str(tmp_path / "m"))
    assert summary["results"]["ma_ge_fpa_all_seeds"] is True


def test_mimo_block_seams_leave_no_mark(tmp_path, monkeypatch):
    # Four channels (two path counts x two seeds) at three SNRs: one run stacks every channel in
    # one lockstep, the other runs one channel per block.
    cfg = mimo_config(path_counts=[3, 6], seeds=2, snr_db_list=[-10.0, 5.0, 20.0])
    blocks, split = [], mimo._blocks
    monkeypatch.setattr(mimo, "_blocks", lambda *args: blocks.append(split(*args)) or blocks[-1])
    for run, budget in (("one", 2 ** 40), ("many", 1)):
        monkeypatch.setattr(mimo, "_LOCKSTEP_ELEMENTS", budget)
        run_experiment(cfg, output_dir=str(tmp_path / run))
    assert [[blk.stop - blk.start for blk in run] for run in blocks] == [[4], [1, 1, 1, 1]]
    for name in ("capacity_sweep.csv", "summary.json"):
        one, many = ((tmp_path / run / name).read_text() for run in ("one", "many"))
        if name == "summary.json":
            one, many = ({k: v for k, v in json.loads(t).items() if k != "wall_time_s"} for t in (one, many))
        assert one == many


def test_summary_records_the_effective_config_and_its_provenance(tmp_path):
    cfg = mimo_config(snr_db_list=[0.0, 10.0])
    run_experiment(cfg, output_dir=str(tmp_path / "m"), trials=3)
    summary = json.loads((tmp_path / "m" / "summary.json").read_text())
    resolved = experiments._resolve({**cfg, "seeds": 3})[0]
    assert summary["effective_config"] == resolved and resolved["seeds"] == 3
    digest = hashlib.sha256(json.dumps(resolved, sort_keys=True).encode()).hexdigest()
    assert summary["provenance"] == {"masim": masim.__version__, "numpy": np.__version__,
                                     "python": platform.python_version(),
                                     "blas_core": experiments._environment()["blas_core"],
                                     "cpu_dispatch": experiments._environment()["cpu_dispatch"],
                                     "config_sha256": digest}


def test_provenance_drops_the_cpu_dispatch_groups_numpy_disables():
    # A fresh process told to disable every dispatch group this host enables records none of them.
    enabled = experiments._environment()["cpu_dispatch"]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"),
               NPY_DISABLE_CPU_FEATURES=" ".join(enabled or []))
    script = "import json\nfrom masim.experiments import _environment\nprint(json.dumps(_environment()['cpu_dispatch']))"
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == (None if enabled is None else [])


def test_provenance_records_null_where_the_blas_kernel_cannot_be_read(tmp_path, monkeypatch):
    lookups = []

    def missing(*args, **kwargs):
        lookups.append(args)
        raise OSError("no such library")
    monkeypatch.setattr(ctypes, "CDLL", missing)
    experiments._environment.cache_clear()
    try:
        for run in ("a", "b"):
            run_experiment(mimo_config(), output_dir=str(tmp_path / run))
    finally:
        experiments._environment.cache_clear()
    assert len(lookups) <= 1  # once per process; none where numpy bundles no OpenBLAS
    for run in ("a", "b"):
        assert json.loads((tmp_path / run / "summary.json").read_text())["provenance"]["blas_core"] is None


def test_mimo_summary_counts_the_greedy_work(tmp_path):
    cfg = mimo_config(path_counts=[3, 6], seeds=2, snr_db_list=[-10.0, 20.0])
    summary = run_experiment(cfg, output_dir=str(tmp_path / "m"))
    region, tx = Region.square(cfg["region_size"]), tx_ula(cfg["num_tx"])
    passes = sum(len(greedy_rx_placement(
        sample_stochastic_channel(num_paths, (cfg["seed"], num_paths, s), include_tx=True),
        region, cfg["num_rx"], tx, [10.0 ** (snr_db / 10.0)], cfg["step"])[3][0])
        for num_paths in cfg["path_counts"] for s in range(cfg["seeds"]) for snr_db in cfg["snr_db_list"])
    assert summary["counters"] == {"searches": 8, "greedy_passes": passes,
                                   "candidates_scored": passes * cfg["num_rx"] * 11 ** 2}
    assert "counters" not in summary["results"]
    assert json.loads((tmp_path / "m" / "summary.json").read_text())["counters"] == summary["counters"]


@pytest.mark.parametrize("kind", ["snr", "sinr"])
def test_sweep_summary_counts_the_search_work(tmp_path, monkeypatch, kind):
    cfg = {**small_snr_config(), "kind": kind, "path_counts": [1, 4], "region_sizes": [0.0, 1.0, 2.0],
           "trials": 6}
    # Every refine evaluation reaches positioning's field_response once, for all channels' paths.
    calls = []
    counting = lambda r, d: calls.append(math.prod(np.shape(r)[:-1])) or field_response(r, d)
    monkeypatch.setattr(positioning, "field_response", counting)
    # Every scanned grid builds its trials' tables, once per channel and block; the constant maps
    # (L = 1, and the point region) take no table.
    scanned, tables = [], positioning._axis_tables

    def counting_tables(d, c, region, step):
        assert d.shape[1] > 1 and region.free_axes
        scanned.append(len(d))
        return tables(d, c, region, step)
    monkeypatch.setattr(positioning, "_axis_tables", counting_tables)
    one = run_experiment(cfg, output_dir=str(tmp_path / "one"))
    evaluations = sum(calls)
    assert evaluations > 0 and sum(scanned) == (2 if kind == "sinr" else 1) * 2 * 6
    # A scanned search (L = 4, on grids of 6 and 11 rows) recomputes between 1 and all of its rows
    # in float64, and a constant map's none.
    rescans = lambda summary: summary["counters"].pop("coarse_rescan_rows")
    assert 6 * 2 <= rescans(one) <= 6 * (6 + 11)
    # A constant map's search counts one point and no refine evaluation.
    assert one["counters"] == {"searches": 2 * 3 * 6, "coarse_points": 6 * (3 + 1 + 6 ** 2 + 11 ** 2),
                               "refine_evaluations": evaluations}
    flat = run_experiment({**cfg, "path_counts": [1]}, output_dir=str(tmp_path / "flat"))
    assert flat["counters"] == {"searches": 3 * 6, "coarse_points": 3 * 6, "coarse_rescan_rows": 0,
                                "refine_evaluations": 0}
    assert "counters" not in one["results"]
    monkeypatch.setattr(util, "_BLOCK_ELEMENTS", 1)  # one trial per draw, coarse and refine block
    many = run_experiment(cfg, output_dir=str(tmp_path / "many"))
    # One-row complex64 tiles round apart from wider ones, so how many rows are rescanned may move.
    assert 6 * 2 <= rescans(many) <= 6 * (6 + 11)
    assert many["counters"] == one["counters"]
    name = f"{kind}_sweep.csv"
    assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "many" / name).read_bytes()


def test_cli_validate_exit_codes(tmp_path):
    assert main(["validate", "-c", str(CONFIG_DIR / "mimo.json")]) == 0
    bad = write_config(tmp_path, {"kind": "snr", "seed": 0, "path_counts": [2],
                                  "region_sizes": [1.0], "trials": -1})
    assert main(["validate", "-c", bad]) == 2
    assert main(["validate", "-c", str(tmp_path / "missing.json")]) == 2


def test_cli_run_success_and_seed_override(tmp_path, capsys):
    cfg = write_config(tmp_path, small_snr_config())
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["run", "-c", cfg, "-o", str(out1)]) == 0
    assert main(["run", "-c", cfg, "-o", str(out2), "--seed", "99"]) == 0
    assert (out1 / "snr_sweep.csv").read_bytes() != (out2 / "snr_sweep.csv").read_bytes()


def test_cli_run_invalid_config_exits_2(tmp_path):
    cfg = write_config(tmp_path, {"kind": "snr", "seed": 0, "path_counts": [2],
                                  "region_sizes": [1.0], "trials": 0})
    assert main(["run", "-c", cfg, "-o", str(tmp_path / "x")]) == 2
    unhashable_kind = write_config(tmp_path, {"kind": ["snr"], "seed": 0}, name="kind.json")
    assert main(["run", "-c", unhashable_kind, "-o", str(tmp_path / "x"), "--trials", "2"]) == 2


def estimate_config(**changes):
    return {"kind": "estimate", "seed": 0, "num_paths": 2, "num_measurements": 4,
            "region_size": 2.0, "noise_var": 0.0, "dict_grid": 8} | changes


def gainmap_config(*paths, **changes):
    return {"kind": "gainmap", "seed": 0, "region_size": 1.0, "step": 0.5, "paths": list(paths)} | changes


def beam_config(**changes):
    return {"kind": "beam", "seed": 0, "num_elements": 4, "objective": "two-beam",
            "u1": 0.4, "u2": -0.4} | changes


def test_two_beam_run_gives_both_layouts_the_two_beam_weights(tmp_path):
    # No spacing up to d_max = 1.0 aligns u = +-0.4 (that takes 1.25): a u1 steering vector on the
    # MA layout would read 8 at u1 and 0.33 at u2, against the scan's best minimum of 4.81.
    results = run_experiment(beam_config(num_elements=8, d_max=1.0), str(tmp_path))["results"]
    layout = np.arange(8) * results["best_spacing"]
    w = two_beam_weights(layout, 0.4, -0.4).weights
    for u in (0.4, -0.4):
        # |<w, a(u)>|^2 / <w, w> from float64 sums of products of the real and imaginary parts.
        a = field_response(layout[:, None], [[u]])[:, 0]
        inner = np.sum(w.real * a.real + w.imag * a.imag) + 1j * np.sum(w.real * a.imag - w.imag * a.real)
        gain = np.abs(inner) ** 2 / np.sum(w.real * w.real + w.imag * w.imag)
        assert results[f"ma_gain_u{1 if u > 0 else 2}"] == gain == pytest.approx(results["best_objective"], rel=1e-12)
    assert results["fpa_gain_u2"] < results["ma_gain_u2"]


def mimo_config(**changes):
    return {"kind": "mimo", "seed": 5, "num_tx": 2, "num_rx": 2, "path_counts": [4],
            "snr_db_list": [10.0], "seeds": 2, "region_size": 2.0, "step": 0.2} | changes


PATH_RECORD = {"theta": 1.1, "phi": 0.7, "coeff_re": 1.0, "coeff_im": 0.0}
OTHER_PATH_RECORD = {"theta": 0.3, "phi": -1.2, "coeff_re": 0.0, "coeff_im": 1.0}


@pytest.mark.parametrize("cfg", [
    small_snr_config() | {"refine": "false"},
    estimate_config(max_paths=9),
    estimate_config(step=-1),
    beam_config(pattern_points=1),
    beam_config(d_max=0.3),
    estimate_config(dict_grid=1),
    gainmap_config(PATH_RECORD | {"tx_theta": 0.2, "tx_phi": 0.1}, PATH_RECORD),
    gainmap_config(PATH_RECORD | {"tx_theta": 4.0, "tx_phi": 0.1}),
    small_snr_config() | {"path_counts": [2.5]},
    mimo_config(path_counts=[2.7]),
    estimate_config(dict_grid=2),
    estimate_config(dict_grid=3, num_paths=6, num_measurements=8),
    beam_config(objective="null-steer", num_elements=1),
    beam_config(objective="null-steer", u1=0.3, u2=0.3),
    beam_config(objective="null-steer", u1=1.0, u2=-1.0),
    mimo_config(snr_db_list=[10.0, 5000.0]),
    mimo_config(snr_db_list=[3080.0]),
    small_snr_config() | {"region_sizes": [1e300]},
    beam_config(d_step=1e-300),
    gainmap_config(PATH_RECORD, region_size=2048.0, step=1.0),
    small_snr_config() | {"coarse_stp": 0.5},
    gainmap_config(PATH_RECORD, num_paths=3),
    small_snr_config() | {"region_sizes": [0.0], "coarse_step": 1e-4},
    small_snr_config() | {"output_dir": 7},
    small_snr_config() | {"path_counts": [2, 2]},
    small_snr_config() | {"region_sizes": [1.0, 1.0000001]},
    mimo_config(snr_db_list=[0.0, 0.0]),
    small_snr_config() | {"trials": 10 ** 12},
    estimate_config(noise_var=1e308),
    estimate_config(noise_var=1.01e100),
    gainmap_config(PATH_RECORD | {"coeff_re": 1e200}),
    gainmap_config(PATH_RECORD | {"coeff_re": 5.1e149}, OTHER_PATH_RECORD | {"coeff_im": 5e149}),
    mimo_config(seeds=10 ** 9),
    mimo_config(region_size=30.0, step=0.1, snr_db_list=[float(i) for i in range(16)]),
], ids=["refine-string", "max-paths-over-measurements", "estimate-negative-step",
        "one-pattern-point", "d-max-below-min-spacing", "one-point-dictionary",
        "mixed-tx-angles", "tx-theta-out-of-range", "snr-fractional-path-count",
        "mimo-fractional-path-count", "empty-dictionary", "more-paths-than-atoms",
        "null-steer-one-element", "null-steer-same-direction", "null-steer-opposite-endfire",
        "mimo-snr-overflow", "mimo-snr-nan-capacity", "huge-region", "tiny-d-step",
        "grid-just-over-cap", "unknown-key", "paths-and-num-paths", "coarse-step-below-refine-tol",
        "output-dir-not-string", "repeated-path-count", "region-sizes-one-summary-key",
        "repeated-snr", "trials-over-cap", "noise-var-overflow", "noise-var-just-over-cap",
        "gainmap-power-overflow", "gainmap-coefficients-just-over-cap", "mimo-searches-over-cap",
        "mimo-lockstep-over-cap"])
def test_invalid_config_exits_2_before_any_output(tmp_path, cfg):
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    out.mkdir()
    assert main(["validate", "-c", path]) == 2
    assert main(["run", "-c", path, "-o", str(out)]) == 2
    assert list(out.iterdir()) == []


def test_cli_runtime_failure_exits_3(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, small_snr_config())

    def boom(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setitem(experiments._KINDS, "snr", experiments._KINDS["snr"]._replace(run=boom))
    assert main(["run", "-c", cfg, "-o", str(tmp_path / "y")]) == 3


def test_noise_var_at_cap_gives_a_finite_summary(tmp_path):
    summary = run_experiment(estimate_config(noise_var=1e100), output_dir=str(tmp_path / "e"))
    assert math.isfinite(summary["results"]["nmse"]) and math.isfinite(summary["results"]["residual_norm"])


def test_gainmap_coefficients_at_cap_give_a_finite_summary(tmp_path):
    # Two paths whose magnitudes sum to the cap: where they add in phase, |h|^2 nears 1e300.
    cfg = gainmap_config(PATH_RECORD | {"coeff_re": 5e149}, OTHER_PATH_RECORD | {"coeff_im": 5e149})
    assert validate_config_dict(cfg) == []
    summary = run_experiment(cfg, output_dir=str(tmp_path / "g"))["results"]
    assert all(math.isfinite(summary[key]) for key in ("max_db", "min_db", "spread_db"))


def test_non_finite_summary_exits_3_and_leaves_nothing(tmp_path, monkeypatch):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, estimate_config())
    monkeypatch.setattr(experiments.estimation, "reconstruct_and_score", lambda *args: math.inf)
    assert main(["run", "-c", cfg, "-o", str(out)]) == 3
    assert list(out.iterdir()) == []


def test_failed_run_leaves_no_partial_csv(tmp_path, monkeypatch):
    out = tmp_path / "partial"
    cfg = write_config(tmp_path, small_snr_config())

    def failing_runner(cfg, outdir):
        from masim.util import write_csv_atomic

        def failing_column():
            yield 2.0
            raise RuntimeError("mid-write failure")

        write_csv_atomic(os.path.join(outdir, "doomed.csv"), "a,b", ([1], failing_column()))

    monkeypatch.setitem(experiments._KINDS, "snr", experiments._KINDS["snr"]._replace(run=failing_runner))
    assert main(["run", "-c", cfg, "-o", str(out)]) == 3
    assert list(out.glob("*")) == []

    # A runner that completes two files before failing leaves an earlier
    # successful run's files exactly as they were.
    monkeypatch.undo()
    assert main(["run", "-c", cfg, "-o", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(before) == ["snr_sweep.csv", "summary.json"]

    written = []

    def two_files_then_fail(cfg, outdir):
        from masim.util import write_csv_atomic
        for name in ("snr_sweep.csv", "extra.csv"):
            write_csv_atomic(os.path.join(outdir, name), "a,b", ([1], [2.0]))
            written.append(name)
        raise RuntimeError("failure after two files")

    monkeypatch.setitem(experiments._KINDS, "snr", experiments._KINDS["snr"]._replace(run=two_files_then_fail))
    assert main(["run", "-c", cfg, "-o", str(out)]) == 3
    assert written == ["snr_sweep.csv", "extra.csv"]
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_output_dir_env_variable(tmp_path, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv(experiments.ENV_OUTPUT_DIR, str(target))
    run_experiment(small_snr_config())
    assert (target / "snr_sweep.csv").exists()


def test_trials_override_applies_to_kind_field(tmp_path):
    cfg = small_snr_config()
    summary = run_experiment(cfg, output_dir=str(tmp_path / "t"), trials=5)
    csv = (tmp_path / "t" / "snr_sweep.csv").read_text().splitlines()
    assert csv[1].split(",")[2] == "5"


@pytest.mark.parametrize("name", ["gainmap", "beam_two_beam", "estimate"])
def test_trials_flag_leaves_a_kind_without_a_trial_field_as_it_was(tmp_path, name):
    runs = []
    for flags in ([], ["--trials", "3"]):
        out = tmp_path / f"out{len(flags)}"
        assert main(["run", "-c", str(CONFIG_DIR / f"{name}.json"), "-o", str(out), *flags]) == 0
        summary = json.loads((out / "summary.json").read_text())
        del summary["wall_time_s"]
        runs.append(({p.name: p.read_bytes() for p in out.glob("*.csv")}, json.dumps(summary)))
    assert runs[0][0] and runs[0] == runs[1]


def readme_schema_fields():
    """kind -> the backticked field names of README's config schema table; a blank kind cell
    carries the kind above it down, and "snr, sinr" names both."""
    section = (CONFIG_DIR.parent / "README.md").read_text().split("## Config schema\n", 1)[1]
    table = next(block for block in section.split("\n\n") if block.startswith("| kind | field |"))
    fields, kinds = {}, []
    for row in table.splitlines()[2:]:
        kind_cell, field_cell = re.split(r"(?<!\\)\|", row)[1:3]
        kinds = [kind.strip() for kind in kind_cell.split(",")] if kind_cell.strip() else kinds
        for kind in kinds:
            fields.setdefault(kind, set()).update(re.findall(r"`([^`]+)`", field_cell))
    return fields


def test_readme_schema_table_names_the_fields_of_every_kind():
    assert readme_schema_fields() == {kind: set(entry.fields) for kind, entry in experiments._KINDS.items()}


def test_grid_cap_boundary():
    side = math.isqrt(experiments.MAX_GRID_POINTS)
    assert validate_config_dict(gainmap_config(PATH_RECORD, region_size=side - 1.0, step=1.0)) == []
    violations = validate_config_dict(gainmap_config(PATH_RECORD, region_size=float(side), step=1.0))
    assert violations == [f"step: implies {(side + 1) ** 2} grid points, more than "
                          f"MAX_GRID_POINTS={experiments.MAX_GRID_POINTS}"]
    points = experiments.MAX_GRID_POINTS // 4
    assert validate_config_dict(beam_config(pattern_points=points)) == []
    assert validate_config_dict(beam_config(pattern_points=points + 1))[0].startswith("pattern_points:")


def test_size_cap_boundary():
    cap = experiments.MAX_GRID_POINTS
    capped = lambda cfg: [v.split(":")[0] for v in validate_config_dict(cfg)]
    # A region of 99 at step 1 has a grid side of 100 and 100^2 points.
    snr = small_snr_config() | {"region_sizes": [99.0, 2.0], "coarse_step": 1.0}
    assert capped(snr | {"path_counts": [cap // 100]}) == []
    assert capped(snr | {"path_counts": [2, cap // 100 + 1]}) == ["path_counts"]
    gainmap = gainmap_config(paths=None, region_size=99.0, step=1.0)
    assert capped(gainmap | {"num_paths": cap // 100}) == []
    assert capped(gainmap | {"num_paths": cap // 100 + 1}) == ["num_paths"]
    mimo = mimo_config(num_rx=1, region_size=99.0, step=1.0)
    assert capped(mimo | {"num_tx": cap // 100 ** 2}) == []
    assert capped(mimo | {"num_tx": cap // 100 ** 2 + 1}) == ["num_tx"]
    assert capped(mimo | {"path_counts": [cap // 100 ** 2]}) == []
    assert capped(mimo | {"path_counts": [cap // 100 ** 2 + 1]}) == ["path_counts"]
    # 101^2 candidates at one SNR: the search's too-near mask of (candidates, num_rx) and its
    # candidate scores fit 410 antennas, not 411.
    mimo = mimo_config(num_tx=1, region_size=300.0, step=3.0)
    assert capped(mimo | {"num_rx": cap // 101 ** 2 - 1}) == []
    assert capped(mimo | {"num_rx": cap // 101 ** 2}) == ["num_rx"]
    estimate = estimate_config(dict_grid=64)  # 64^2 lattice points bound the atoms
    assert capped(estimate | {"num_measurements": cap // 64 ** 2}) == []
    assert capped(estimate | {"num_measurements": cap // 64 ** 2 + 1}) == ["num_measurements"]
    estimate |= {"region_size": 99.0, "step": 1.0, "num_paths": cap // 100 + 1}
    assert capped(estimate) == ["num_paths", "max_paths"]


def test_mimo_cap_counts_what_the_greedy_search_allocates(tmp_path):
    # 129^2 candidates at one SNR: the greedy lockstep keeps C rows of num_tx entries, C x L
    # phases and, per search, a C x num_rx too-near mask and C scores, so 64 receive antennas fit
    # and 253 transmit antennas overflow the cap.
    cfg = mimo_config(num_rx=64, region_size=32.0, step=0.25)
    assert main(["validate", "-c", write_config(tmp_path, cfg, "fits.json")]) == 0
    assert main(["validate", "-c", write_config(tmp_path, cfg | {"num_tx": 253}, "over.json")]) == 2


def test_resolved_config_fills_defaults_and_types():
    cfg, violations = experiments._resolve(beam_config(u1=0, u2=-1))
    assert violations == []
    assert cfg == {"kind": "beam", "seed": 0, "output_dir": None, "num_elements": 4,
                   "objective": "two-beam", "u1": 0.0, "u2": -1.0, "d_max": 2.0,
                   "d_step": 1.0 / 64.0, "pattern_points": 2001}
    assert type(cfg["u1"]) is float and type(cfg["u2"]) is float
    nulls = dict.fromkeys(("d_max", "d_step", "pattern_points"))
    assert experiments._resolve(beam_config(u1=0, u2=-1) | nulls) == (cfg, [])
    cfg, _ = experiments._resolve(estimate_config(noise_var=0))
    assert cfg["max_paths"] == 2 and cfg["strategy"] == "uniform-random" and cfg["step"] == 0.1
    assert type(cfg["noise_var"]) is float
    cfg, _ = experiments._resolve(mimo_config(region_size=3, snr_db_list=[0, 10]))
    assert cfg["snr_db_list"] == [0.0, 10.0] and all(type(x) is float for x in cfg["snr_db_list"])
    assert type(cfg["region_size"]) is float and cfg["path_counts"] == [4]


# Shipped configs whose artifacts hold no BLAS call's bits, run at few trials where they take any.
KERNEL_FREE_CONFIGS = {"snr": 20, "sinr": 4, "gainmap": None, "beam_two_beam": None, "beam_null_steer": None}


def test_sweep_gain_map_and_beam_bytes_do_not_depend_on_the_blas_kernel(tmp_path):
    # Fresh processes on the default OpenBLAS kernels and on those an AVX2-only and an AVX-only host
    # would pick write the same CSV bytes, and each summary names the kernel it ran on.
    csvs, src = {}, Path(__file__).resolve().parent.parent / "src"
    for coretype in (None, "Haswell", "Sandybridge"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"} | {"PYTHONPATH": str(src)}
        if coretype:
            env["OPENBLAS_CORETYPE"] = coretype
        out = tmp_path / str(coretype)
        script = "from masim.cli import main\n" + "".join(
            f"assert main({['run', '-c', str(CONFIG_DIR / f'{name}.json'), '-o', str(out / name)]!r}"
            f" + {['--trials', str(trials)] if trials else []!r}) == 0\n"
            for name, trials in KERNEL_FREE_CONFIGS.items())
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        for name in KERNEL_FREE_CONFIGS:
            core = json.loads((out / name / "summary.json").read_text())["provenance"]["blas_core"]
            # The kernel asked for where it can be read; unset, whichever the host picked.
            assert core in (coretype, None) if coretype else core is None or isinstance(core, str)
        csvs[coretype] = {str(path.relative_to(out)): path.read_bytes() for path in sorted(out.rglob("*.csv"))}
    assert len(csvs[None]) == 2 + 1 + 2 * 3 and csvs["Haswell"] == csvs[None] == csvs["Sandybridge"]
