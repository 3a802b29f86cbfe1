"""Output checks for one ``masim run`` call.

Every call must leave each artifact the README documents, with its header
and the row count its config implies, plus a ``summary.json`` naming the
kind and seed.  On top of that come invariants that hold for any seed, and,
on the reference seed, the summary scalars recorded in ``reference.json``.
Numbers are compared with a tolerance, never byte for byte, so a correct
fast path that changes the last digits still passes.
"""

from __future__ import annotations

import json
import math
import os
import warnings

import numpy as np

# Header of each artifact, by experiment kind (README "CLI" section).
ARTIFACTS = {
    "gainmap": {"gain_map.csv": "x,y,gain_db"},
    "snr": {"snr_sweep.csv": "L,A_lambda,trials,metric_db"},
    "sinr": {"sinr_sweep.csv": "L,A_lambda,trials,metric_db"},
    "beam": {"spacing_scan.csv": "d_lambda,objective",
             "pattern_fpa.csv": "u,gain_linear,gain_db",
             "pattern_ma.csv": "u,gain_linear,gain_db"},
    "mimo": {"capacity_sweep.csv": "snr_db,L,seed,capacity_fpa,capacity_ma"},
    "estimate": {"recovered_paths.csv": "index,theta,phi,coeff_re,coeff_im"},
}

# Seed-independent results of the shipped configs: the two-path gain map
# peaks at 20*log10(2) dB where both unit paths add in phase, and the paper's
# spacings are 1.25 wavelengths (two-beam) and 15/8 wavelengths (null-steer).
EXPECTED = {
    "gainmap": {"max_db": 20.0 * math.log10(2.0)},
    "beam_two_beam": {"best_spacing": 1.25},
    "beam_null_steer": {"best_spacing": 1.875},
}
EXPECTED_TOL = 1e-6

# Mean max SNR/SINR may not fall as the region grows by more than this
# (dB).  The same channels are drawn for every size and the coarse grids
# nest, so only a rare worse local refine can lower a trial; L=1 is flat.
MONOTONE_TOL_DB = 0.05
CAPACITY_TOL = 1e-12
REF_RTOL = 1e-5
REF_ATOL = 1e-9


def _grid_count(size: float, step: float) -> int:
    return int(math.floor(size / step + 1e-9)) + 1


def _read_csv(outdir: str, name: str, header: str, errors: list):
    """The artifact's rows as an (n, columns) array, or None after appending the problem."""
    try:
        with open(os.path.join(outdir, name)) as fh, warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a header-only file is reported by the row count
            first = fh.readline().rstrip("\n")
            rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    except OSError as exc:
        errors.append(f"{name}: missing ({exc.strerror})")
        return None
    except ValueError as exc:
        errors.append(f"{name}: not a table of numbers ({exc})")
        return None
    if first != header:
        errors.append(f"{name}: header {first!r} is not {header!r}")
        return None
    if rows.size and (rows.shape[1] != header.count(",") + 1 or not np.isfinite(rows).all()):
        errors.append(f"{name}: rows are not {header.count(',') + 1} finite numbers")
        return None
    return rows.reshape(-1, header.count(",") + 1)


def _check_rows(name, rows, expected, errors) -> bool:
    if rows is None:
        return False
    if len(rows) != expected:
        errors.append(f"{name}: {len(rows)} rows, expected {expected}")
        return False
    return True


def _check_sweep(cfg, outdir, summary, errors):
    name = f"{cfg['kind']}_sweep.csv"
    rows = _read_csv(outdir, name, ARTIFACTS[cfg["kind"]][name], errors)
    if not _check_rows(name, rows, len(cfg["path_counts"]) * len(cfg["region_sizes"]), errors):
        return
    if np.any(rows[:, 2] != cfg["trials"]):
        errors.append(f"{name}: trials column differs from {cfg['trials']}")
    for num_paths in cfg["path_counts"]:
        curve = rows[rows[:, 0] == num_paths]
        curve = curve[np.argsort(curve[:, 1], kind="stable")]
        falls = np.nonzero(np.diff(curve[:, 3]) < -MONOTONE_TOL_DB)[0]
        for i in falls:
            errors.append(f"{name}: L={num_paths} falls from {curve[i, 3]} dB at "
                          f"A={curve[i, 1]} to {curve[i + 1, 3]} dB at A={curve[i + 1, 1]}")


def _check_mimo(cfg, outdir, summary, errors):
    name = "capacity_sweep.csv"
    rows = _read_csv(outdir, name, ARTIFACTS["mimo"][name], errors)
    expected = len(cfg["snr_db_list"]) * len(cfg["path_counts"]) * cfg["seeds"]
    if not _check_rows(name, rows, expected, errors):
        return
    worse = rows[rows[:, 4] < rows[:, 3] - CAPACITY_TOL]
    if len(worse):
        errors.append(f"{name}: {len(worse)} rows with capacity_ma < capacity_fpa, "
                      f"e.g. {worse[0].tolist()}")


def _check_gainmap(cfg, outdir, summary, errors):
    name = "gain_map.csv"
    rows = _read_csv(outdir, name, ARTIFACTS["gainmap"][name], errors)
    _check_rows(name, rows, _grid_count(cfg["region_size"], cfg["step"]) ** 2, errors)


def _check_beam(cfg, outdir, summary, errors):
    files = ARTIFACTS["beam"]
    scan = _read_csv(outdir, "spacing_scan.csv", files["spacing_scan.csv"], errors)
    d_max, d_step = cfg.get("d_max", 2.0), cfg.get("d_step", 1.0 / 64.0)
    _check_rows("spacing_scan.csv", scan, _grid_count(d_max - 0.5, d_step), errors)
    for name in ("pattern_fpa.csv", "pattern_ma.csv"):
        rows = _read_csv(outdir, name, files[name], errors)
        _check_rows(name, rows, cfg.get("pattern_points", 2001), errors)


def _check_estimate(cfg, outdir, summary, errors):
    name = "recovered_paths.csv"
    rows = _read_csv(outdir, name, ARTIFACTS["estimate"][name], errors)
    max_paths = cfg.get("max_paths", cfg["num_paths"])
    if rows is not None and not 1 <= len(rows) <= max_paths:
        errors.append(f"{name}: {len(rows)} rows, expected 1 to {max_paths}")
    nmse = summary.get("results", {}).get("nmse")
    if not isinstance(nmse, (int, float)) or not math.isfinite(nmse) or nmse < 0:
        errors.append(f"summary.json: nmse {nmse!r} is not a finite nonnegative number")


_KIND_CHECKS = {"snr": _check_sweep, "sinr": _check_sweep, "mimo": _check_mimo,
                "gainmap": _check_gainmap, "beam": _check_beam, "estimate": _check_estimate}


def compare(path: str, got, want, errors: list) -> None:
    """Append a message for every place where ``got`` differs from ``want``.

    Numbers match within REF_RTOL/REF_ATOL; keys that only ``got`` has are ignored.
    """
    if isinstance(want, dict):
        if not isinstance(got, dict):
            errors.append(f"{path}: expected an object, got {got!r}")
            return
        for key, value in want.items():
            if key not in got:
                errors.append(f"{path}.{key}: missing")
            else:
                compare(f"{path}.{key}", got[key], value, errors)
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            errors.append(f"{path}: {got!r} differs from {want!r}")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            compare(f"{path}[{i}]", g, w, errors)
    elif isinstance(want, (int, float)) and not isinstance(want, bool):
        if (not isinstance(got, (int, float)) or isinstance(got, bool)
                or not math.isclose(got, want, rel_tol=REF_RTOL, abs_tol=REF_ATOL)):
            errors.append(f"{path}: {got!r} differs from {want!r}")
    elif got != want:
        errors.append(f"{path}: {got!r} differs from {want!r}")


def check_outputs(config_name: str, cfg: dict, outdir: str, reference: dict | None = None) -> list:
    """Problems with the artifacts one ``masim run`` call left in ``outdir``.

    ``cfg`` is the config as run (seed and trial overrides applied);
    ``reference`` holds the summary results recorded for this call, if any.
    """
    errors: list = []
    try:
        with open(os.path.join(outdir, "summary.json")) as fh:
            summary = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"summary.json: unreadable ({exc})"]
    if summary.get("kind") != cfg["kind"] or summary.get("seed") != cfg["seed"]:
        errors.append(f"summary.json: kind/seed {summary.get('kind')!r}/{summary.get('seed')!r} "
                      f"differ from {cfg['kind']!r}/{cfg['seed']!r}")
    _KIND_CHECKS[cfg["kind"]](cfg, outdir, summary, errors)
    results = summary.get("results", {})
    for key, value in EXPECTED.get(config_name, {}).items():
        got = results.get(key)
        if not isinstance(got, (int, float)) or abs(got - value) > EXPECTED_TOL:
            errors.append(f"summary.json: {key} {got!r} is not {value}")
    if reference is not None:
        compare("results", results, reference, errors)
    return errors
