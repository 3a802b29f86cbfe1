import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

import masim.experiments as experiments
from masim.cli import main
from masim.experiments import (ConfigError, load_config, run_experiment,
                               validate_config_dict)
from masim.gainmap import evaluate_map
from masim.reference import two_path_spec
from masim.channel import Region

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


def mimo_config(**changes):
    return {"kind": "mimo", "seed": 5, "num_tx": 2, "num_rx": 2, "path_counts": [4],
            "snr_db_list": [10.0], "seeds": 2, "region_size": 2.0, "step": 0.2} | changes


PATH_RECORD = {"theta": 1.1, "phi": 0.7, "coeff_re": 1.0, "coeff_im": 0.0}


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
], ids=["refine-string", "max-paths-over-measurements", "estimate-negative-step",
        "one-pattern-point", "d-max-below-min-spacing", "one-point-dictionary",
        "mixed-tx-angles", "tx-theta-out-of-range", "snr-fractional-path-count",
        "mimo-fractional-path-count", "empty-dictionary", "more-paths-than-atoms",
        "null-steer-one-element", "null-steer-same-direction", "null-steer-opposite-endfire",
        "mimo-snr-overflow", "mimo-snr-nan-capacity", "huge-region", "tiny-d-step",
        "grid-just-over-cap", "unknown-key", "paths-and-num-paths", "coarse-step-below-refine-tol",
        "output-dir-not-string"])
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

    monkeypatch.setitem(experiments._RUNNERS, "snr", boom)
    assert main(["run", "-c", cfg, "-o", str(tmp_path / "y")]) == 3


def test_failed_run_leaves_no_partial_csv(tmp_path, monkeypatch):
    out = tmp_path / "partial"
    cfg = write_config(tmp_path, small_snr_config())

    def failing_runner(cfg, outdir):
        from masim.util import write_csv_atomic

        def rows():
            yield (1, 2.0)
            raise RuntimeError("mid-write failure")

        write_csv_atomic(os.path.join(outdir, "doomed.csv"), "a,b", rows())

    monkeypatch.setitem(experiments._RUNNERS, "snr", failing_runner)
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
            write_csv_atomic(os.path.join(outdir, name), "a,b", [(1, 2.0)])
            written.append(name)
        raise RuntimeError("failure after two files")

    monkeypatch.setitem(experiments._RUNNERS, "snr", two_files_then_fail)
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
    # 101^2 candidates: 20 receive antennas fit, 21 overflow the gram matrices.
    mimo = mimo_config(num_tx=1, region_size=100.0, step=1.0)
    assert capped(mimo | {"num_rx": 20}) == []
    assert capped(mimo | {"num_rx": 21}) == ["num_rx"]
    estimate = estimate_config(dict_grid=64)  # 64^2 lattice points bound the atoms
    assert capped(estimate | {"num_measurements": cap // 64 ** 2}) == []
    assert capped(estimate | {"num_measurements": cap // 64 ** 2 + 1}) == ["num_measurements"]
    estimate |= {"region_size": 99.0, "step": 1.0, "num_paths": cap // 100 + 1}
    assert capped(estimate) == ["num_paths", "max_paths"]


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
