"""Experiment harness: config validation, per-kind runners, artifact writing.

Configs are JSON files with a ``kind`` field selecting the experiment and a
flat set of kind-specific parameters (see README for the schema).  Every
runner is deterministic for a fixed config and seed: per-trial RNG streams
are derived from (seed, indices) and results are aggregated in index order,
so CSV outputs are byte-identical regardless of worker count.
"""

from __future__ import annotations

import json
import math
import os
import time

import numpy as np

from . import beams, estimation, gainmap, mimo, positioning
from .channel import (MIN_SPACING, ChannelSpec, Region, angles_from_direction,
                      channel_spec_from_records, sample_stochastic_channel)
from .util import map_indexed, write_csv_atomic, write_json_atomic

__all__ = ["EXPERIMENT_KINDS", "ENV_OUTPUT_DIR", "ConfigError",
           "load_config", "validate_config_dict", "run_experiment"]

EXPERIMENT_KINDS = ("gainmap", "snr", "sinr", "beam", "mimo", "estimate")
ENV_OUTPUT_DIR = "MASIM_OUTPUT_DIR"


class ConfigError(Exception):
    """Invalid or unreadable experiment config."""


def load_config(path: str) -> dict:
    """Read a JSON config; unreadable files and invalid JSON are reported distinctly."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    try:
        cfg = json.loads(text)
    except ValueError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _is_num(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _check_positive_int(cfg, key, bad, required=True, minimum=1):
    v = cfg.get(key)
    if v is None:
        if required:
            bad.append(f"{key}: required")
        return
    if not isinstance(v, int) or isinstance(v, bool) or v < minimum:
        bad.append(f"{key}: must be an integer >= {minimum}, got {v!r}")


def _check_positive_num(cfg, key, bad, required=True):
    v = cfg.get(key)
    if v is None:
        if required:
            bad.append(f"{key}: required")
        return
    if not _is_num(v) or v <= 0:
        bad.append(f"{key}: must be a positive number, got {v!r}")


def _check_num_list(cfg, key, bad, minimum=None):
    v = cfg.get(key)
    if v is None:
        bad.append(f"{key}: required")
        return
    if not isinstance(v, list) or not v or not all(_is_num(x) for x in v):
        bad.append(f"{key}: must be a nonempty list of numbers, got {v!r}")
        return
    if minimum is not None and any(x < minimum for x in v):
        bad.append(f"{key}: entries must be >= {minimum}")


def _validate_paths(cfg, bad):
    paths = cfg.get("paths")
    if paths is None:
        _check_positive_int(cfg, "num_paths", bad)
        return
    if not isinstance(paths, list) or not paths:
        bad.append("paths: must be a nonempty list of path objects")
        return
    for i, rec in enumerate(paths):
        if not isinstance(rec, dict):
            bad.append(f"paths[{i}]: must be an object")
            continue
        keys = ("theta", "phi", "coeff_re", "coeff_im")
        if "tx_theta" in rec or "tx_phi" in rec:
            keys += ("tx_theta", "tx_phi")
        for key in keys:
            if not _is_num(rec.get(key)):
                bad.append(f"paths[{i}].{key}: must be a finite number")
        for key in ("theta", "tx_theta"):
            if _is_num(rec.get(key)) and not 0.0 <= rec[key] <= math.pi:
                bad.append(f"paths[{i}].{key}: must lie in [0, pi]")
    if len({"tx_theta" in rec for rec in paths if isinstance(rec, dict)}) > 1:
        bad.append("paths: tx_theta/tx_phi must be given for every path or for none")


def validate_config_dict(cfg: dict) -> list[str]:
    """Return every violated constraint as a ``field: message`` string."""
    bad: list[str] = []
    kind = cfg.get("kind")
    if kind not in EXPERIMENT_KINDS:
        bad.append(f"kind: must be one of {EXPERIMENT_KINDS}, got {kind!r}")
        return bad
    seed = cfg.get("seed")
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        bad.append(f"seed: must be a nonnegative integer, got {seed!r}")

    if kind == "gainmap":
        _validate_paths(cfg, bad)
        _check_positive_num(cfg, "region_size", bad)
        _check_positive_num(cfg, "step", bad)
    elif kind in ("snr", "sinr"):
        _check_num_list(cfg, "path_counts", bad, minimum=1)
        _check_num_list(cfg, "region_sizes", bad, minimum=0)
        _check_positive_int(cfg, "trials", bad)
        _check_positive_num(cfg, "coarse_step", bad, required=False)
        if not isinstance(cfg.get("refine", True), bool):
            bad.append(f"refine: must be true or false, got {cfg['refine']!r}")
    elif kind == "beam":
        _check_positive_int(cfg, "num_elements", bad)
        objective = cfg.get("objective")
        if objective not in ("two-beam", "null-steer"):
            bad.append(f"objective: must be 'two-beam' or 'null-steer', got {objective!r}")
        for key in ("u1", "u2"):
            v = cfg.get(key)
            if not _is_num(v) or abs(v) > 1.0:
                bad.append(f"{key}: must be a number in [-1, 1], got {v!r}")
        d_max = cfg.get("d_max", 2.0)
        if not _is_num(d_max) or d_max < MIN_SPACING:
            bad.append(f"d_max: must be a number >= {MIN_SPACING}, got {d_max!r}")
        _check_positive_num(cfg, "d_step", bad, required=False)
        _check_positive_int(cfg, "pattern_points", bad, required=False, minimum=2)
    elif kind == "mimo":
        _check_positive_int(cfg, "num_tx", bad)
        _check_positive_int(cfg, "num_rx", bad)
        _check_num_list(cfg, "path_counts", bad, minimum=1)
        _check_num_list(cfg, "snr_db_list", bad)
        _check_positive_int(cfg, "seeds", bad)
        _check_positive_num(cfg, "region_size", bad)
        _check_positive_num(cfg, "step", bad, required=False)
        num_rx, size = cfg.get("num_rx"), cfg.get("region_size")
        if isinstance(num_rx, int) and _is_num(size) and size > 0:
            if (num_rx - 1) * MIN_SPACING > size + 1e-12:
                bad.append(
                    f"region_size: too small to host {num_rx} antennas at the "
                    f"{MIN_SPACING}-wavelength minimum spacing")
    elif kind == "estimate":
        _check_positive_int(cfg, "num_paths", bad)
        _check_positive_int(cfg, "num_measurements", bad)
        _check_positive_num(cfg, "region_size", bad)
        v = cfg.get("noise_var")
        if not _is_num(v) or v < 0:
            bad.append(f"noise_var: must be a nonnegative number, got {v!r}")
        strategy = cfg.get("strategy", "uniform-random")
        if strategy not in ("uniform-random", "grid"):
            bad.append(f"strategy: must be 'uniform-random' or 'grid', got {strategy!r}")
        _check_positive_int(cfg, "dict_grid", bad, required=False, minimum=2)
        _check_positive_int(cfg, "max_paths", bad, required=False)
        _check_positive_num(cfg, "step", bad, required=False)
        nm = cfg.get("num_measurements")
        for key in ("num_paths", "max_paths"):
            v = cfg.get(key)
            if isinstance(v, int) and isinstance(nm, int) and nm < v:
                bad.append(f"num_measurements: must be at least {key}")
    return bad


def _run_gainmap(cfg, seed, outdir, workers):
    if "paths" in cfg:
        spec = channel_spec_from_records(cfg["paths"])
    else:
        spec = sample_stochastic_channel(cfg["num_paths"], (seed, 0))
    region = Region.square(float(cfg["region_size"]))
    gm = gainmap.evaluate_map(spec, region, float(cfg["step"]))
    gainmap.write_gain_map_csv(gm, os.path.join(outdir, "gain_map.csv"))
    return {
        "max_db": gm.max_db,
        "min_db": gm.min_db,
        "argmax": list(gm.argmax),
        "argmin": list(gm.argmin),
        "spread_db": gm.max_db - gm.min_db,
    }


def _mean_db_and_halfwidth(values: np.ndarray) -> tuple[float, float]:
    """Mean in dB with a delta-method 95% half-width."""
    mean = float(values.mean())
    if values.size > 1:
        sem = float(values.std(ddof=1)) / math.sqrt(values.size)
        half = 10.0 / math.log(10.0) * 1.96 * sem / mean
    else:
        half = float("nan")
    return 10.0 * math.log10(mean), half


def _run_level_sweep(cfg, seed, outdir, workers, kind):
    trials = int(cfg["trials"])
    search = positioning.SearchConfig(coarse_step=float(cfg.get("coarse_step", 0.1)),
                                      refine=bool(cfg.get("refine", True)))
    max_trials = positioning.max_snr_trials if kind == "snr" else positioning.max_sinr_trials
    rows, summary = [], {}
    for num_paths in cfg["path_counts"]:
        for size in cfg["region_sizes"]:
            values = max_trials(int(num_paths), float(size), trials, seed, cfg=search, workers=workers)
            mean_db, half = _mean_db_and_halfwidth(values)
            rows.append((int(num_paths), float(size), trials, mean_db))
            summary[f"L{int(num_paths)}_A{size:g}"] = {
                "metric_db": mean_db, "halfwidth_db": half}
    positioning.write_sweep_csv(rows, os.path.join(outdir, f"{kind}_sweep.csv"))
    return summary


def _run_beam(cfg, seed, outdir, workers):
    n = int(cfg["num_elements"])
    objective = cfg["objective"]
    u1, u2 = float(cfg["u1"]), float(cfg["u2"])
    d_step = float(cfg.get("d_step", 1.0 / 64.0))
    d_range = (MIN_SPACING, float(cfg.get("d_max", 2.0)))
    grid_points = int(cfg.get("pattern_points", 2001))

    scan = beams.optimize_uniform_spacing(n, objective, (u1, u2), d_range, d_step)
    beams.write_spacing_csv(scan, os.path.join(outdir, "spacing_scan.csv"))

    fpa_layout = beams.uniform_layout(n, 0.5)
    ma_layout = beams.uniform_layout(n, scan.spacing)
    if objective == "two-beam":
        fpa_w = beams.two_beam_weights_fpa(fpa_layout, u1, u2).weights
        ma_w = beams.steering_vector(ma_layout, u1)
    else:
        fpa_w = beams.null_steer_weights(fpa_layout, u1, u2)
        ma_w = beams.null_steer_weights(ma_layout, u1, u2)
    beams.write_pattern_csv(beams.beam_pattern(fpa_layout, fpa_w, grid_points),
                            os.path.join(outdir, "pattern_fpa.csv"))
    beams.write_pattern_csv(beams.beam_pattern(ma_layout, ma_w, grid_points),
                            os.path.join(outdir, "pattern_ma.csv"))
    return {
        "best_spacing": scan.spacing,
        "best_objective": scan.objective,
        "fpa_gain_u1": beams.array_gain(fpa_layout, fpa_w, u1),
        "fpa_gain_u2": beams.array_gain(fpa_layout, fpa_w, u2),
        "ma_gain_u1": beams.array_gain(ma_layout, ma_w, u1),
        "ma_gain_u2": beams.array_gain(ma_layout, ma_w, u2),
    }


def _run_mimo(cfg, seed, outdir, workers):
    num_tx, num_rx = int(cfg["num_tx"]), int(cfg["num_rx"])
    region = Region.square(float(cfg["region_size"]))
    step = float(cfg.get("step", 0.1))
    tx = mimo.tx_ula(num_tx)
    snr_list = [float(s) for s in cfg["snr_db_list"]]
    seeds = int(cfg["seeds"])
    tasks = [(int(l), s) for l in cfg["path_counts"] for s in range(seeds)]

    def one(task):
        num_paths, s = task
        spec = sample_stochastic_channel(num_paths, (seed, num_paths, s), include_tx=True)
        out = []
        for snr_db in snr_list:
            rho = 10.0 ** (snr_db / 10.0)
            res = mimo.sequential_position_search(spec, region, num_rx, tx, rho, step=step)
            out.append((snr_db, num_paths, s, res.initial_capacity, res.capacity))
        return out

    rows = [row for chunk in map_indexed(one, tasks, workers) for row in chunk]
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    mimo.write_capacity_csv(rows, os.path.join(outdir, "capacity_sweep.csv"))
    ma_ge_fpa = all(r[4] >= r[3] - 1e-12 for r in rows)
    summary = {"ma_ge_fpa_all_seeds": ma_ge_fpa, "mean_gain_bits": {}}
    for snr_db in snr_list:
        for num_paths in cfg["path_counts"]:
            sel = np.array([r[4] - r[3] for r in rows if r[0] == snr_db and r[1] == num_paths])
            half = 1.96 * float(sel.std(ddof=1)) / math.sqrt(sel.size) if sel.size > 1 else float("nan")
            summary["mean_gain_bits"][f"snr{snr_db:g}_L{int(num_paths)}"] = {
                "mean": float(sel.mean()), "halfwidth": half}
    return summary


def _run_estimate(cfg, seed, outdir, workers):
    num_paths = int(cfg["num_paths"])
    k = int(cfg["num_measurements"])
    region = Region.square(float(cfg["region_size"]))
    dictionary = estimation.cosine_grid_dictionary(int(cfg.get("dict_grid", 64)))
    rng = np.random.default_rng((seed, 0))
    indices = rng.choice(dictionary.size, num_paths, replace=False)
    scale = math.sqrt(1.0 / (2.0 * num_paths))
    coeff = scale * (rng.standard_normal(num_paths) + 1j * rng.standard_normal(num_paths))
    truth = ChannelSpec(dictionary.directions[indices], coeff)

    positions = estimation.plan_measurement_positions(
        region, k, cfg.get("strategy", "uniform-random"), seed=(seed, 1))
    measurements = estimation.simulate_measurements(
        truth, positions, float(cfg["noise_var"]), seed=(seed, 2))
    estimate = estimation.omp_estimate(measurements, dictionary,
                                       int(cfg.get("max_paths", num_paths)))
    nmse = estimation.reconstruct_and_score(estimate, truth, region,
                                            float(cfg.get("step", 0.1)))
    rows = []
    for i in range(estimate.num_paths):
        theta, phi = angles_from_direction(estimate.directions[i])
        c = estimate.coefficients[i]
        rows.append((int(estimate.indices[i]), float(theta), float(phi),
                     float(c.real), float(c.imag)))
    write_csv_atomic(os.path.join(outdir, "recovered_paths.csv"),
                     "index,theta,phi,coeff_re,coeff_im", rows)
    return {
        "num_measurements": k,
        "max_paths": int(cfg.get("max_paths", num_paths)),
        "noise_var": float(cfg["noise_var"]),
        "true_indices": sorted(int(i) for i in indices),
        "recovered_indices": sorted(estimate.indices),
        "residual_norm": estimate.residual_norm,
        "nmse": nmse,
    }


_RUNNERS = {
    "gainmap": _run_gainmap,
    "snr": lambda c, s, o, w: _run_level_sweep(c, s, o, w, "snr"),
    "sinr": lambda c, s, o, w: _run_level_sweep(c, s, o, w, "sinr"),
    "beam": _run_beam,
    "mimo": _run_mimo,
    "estimate": _run_estimate,
}

# Per-kind field that a --trials override replaces.
_TRIALS_FIELD = {"snr": "trials", "sinr": "trials", "mimo": "seeds"}


def run_experiment(cfg: dict, output_dir: str | None = None, seed: int | None = None,
                   trials: int | None = None, workers: int = 1) -> dict:
    """Validate and run a config, writing CSV artifacts plus ``summary.json``.

    Returns the summary payload.  Raises :class:`ConfigError` for invalid
    configs; runtime failures propagate (no partial output files remain).
    """
    cfg = dict(cfg)
    if seed is not None:
        cfg["seed"] = seed
    if trials is not None:
        field = _TRIALS_FIELD.get(cfg.get("kind"))
        if field:
            cfg[field] = trials
    violations = validate_config_dict(cfg)
    if violations:
        raise ConfigError("; ".join(violations))
    outdir = output_dir or cfg.get("output_dir") or os.environ.get(ENV_OUTPUT_DIR) or "."
    os.makedirs(outdir, exist_ok=True)
    start = time.monotonic()
    results = _RUNNERS[cfg["kind"]](cfg, int(cfg["seed"]), outdir, workers)
    payload = {
        "kind": cfg["kind"],
        "seed": int(cfg["seed"]),
        "results": results,
        "wall_time_s": time.monotonic() - start,
    }
    write_json_atomic(os.path.join(outdir, "summary.json"), payload)
    return payload
