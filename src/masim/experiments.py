"""Experiment harness: config schema, per-kind runners, artifact writing.

Configs are JSON files with a ``kind`` field selecting the experiment and a
flat set of kind-specific parameters (``_SCHEMA`` below, listed in README).
Every runner is deterministic for a fixed config and seed: per-trial RNG
streams are derived from (seed, indices) and results are aggregated in index
order, so CSV outputs are byte-identical across runs.
"""

from __future__ import annotations

import ctypes
import functools
import json
import math
import os
import platform
import shutil
import tempfile
import time
from itertools import chain, repeat

import numpy as np

from . import beams, estimation, gainmap, mimo, positioning
from .channel import (MIN_SPACING, ChannelSpec, Region, _complex_normal, angles_from_direction,
                      channel_spec_from_records, grid_count, sample_stochastic_channel)
from .util import _blocks, write_csv_atomic, write_json_atomic

__all__ = ["EXPERIMENT_KINDS", "ENV_OUTPUT_DIR", "MAX_GRID_POINTS", "ConfigError",
           "load_config", "validate_config_dict", "run_experiment"]

EXPERIMENT_KINDS = ("gainmap", "snr", "sinr", "beam", "mimo", "estimate")
ENV_OUTPUT_DIR = "MASIM_OUTPUT_DIR"
# Most points any grid of a config may have (for beam arrays, points x
# elements); the largest shipped config uses 160,801.
MAX_GRID_POINTS = 2 ** 22


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


def _attempt(fn, *args):
    """``fn(*args)``, or None where it raises ValueError."""
    try:
        return fn(*args)
    except ValueError:
        return None


def _check(what, ok, cast=lambda v: v):
    """Field check: ``cast(v)`` if ``ok(v)``, else ValueError("must be <what>")."""
    def check(v):
        if not ok(v):
            raise ValueError(f"must be {what}")
        return cast(v)
    return check


_is_num = lambda v: isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
_is_int = lambda v: isinstance(v, int) and not isinstance(v, bool)
_int = lambda lo: _check(f"an integer >= {lo}", lambda v: _is_int(v) and v >= lo)
_num = lambda what, ok: _check(what, lambda v: _is_num(v) and ok(v), float)
# Summary keys format list entries as f"{x:g}" (floats) or str(x) (integers),
# so entries that repeat under that formatting would overwrite each other.
_key = lambda x: f"{x:g}" if isinstance(x, float) else str(x)
_list = lambda what, ok, cast=int: _check(
    f"a nonempty list of distinct {what}",
    lambda v: isinstance(v, list) and v != [] and all(ok(x) for x in v)
    and len({_key(cast(x)) for x in v}) == len(v),
    lambda v: [cast(x) for x in v])
_one_of = lambda *options: _check(f"one of {options}", lambda v: isinstance(v, str) and v in options)
_POSITIVE = _num("a positive number", lambda x: x > 0)
_COSINE = _num("a number in [-1, 1]", lambda x: abs(x) <= 1.0)
_COUNTS = _list("integers >= 1", lambda x: _is_int(x) and x >= 1)
_RECORD = {"theta", "phi", "coeff_re", "coeff_im"}
_PATHS = _check(
    "a nonempty list of path objects holding finite theta in [0, pi], phi, coeff_re, coeff_im "
    "and, on every path or on none, tx_theta in [0, pi] and tx_phi",
    lambda v: isinstance(v, list) and v != [] and all(
        isinstance(rec, dict) and set(rec) in (_RECORD, _RECORD | {"tx_theta", "tx_phi"})
        and all(_is_num(x) for x in rec.values()) for rec in v)
    and _attempt(channel_spec_from_records, v) is not None)
_REQUIRED = object()
_LEVEL_SWEEP = {
    "path_counts": (_COUNTS, _REQUIRED),
    "region_sizes": (_list("nonnegative numbers", lambda x: _is_num(x) and x >= 0, float), _REQUIRED),
    "trials": (_int(1), _REQUIRED),
    "coarse_step": (_POSITIVE, 0.1),
    "refine": (_check("true or false", lambda v: isinstance(v, bool)), True),
}

# The config schema: per kind, field -> (check, default).  _REQUIRED marks a
# field without a default, None an optional field left unset, and a callable
# default is computed from the fields resolved before it.
_SCHEMA = {
    "gainmap": {
        "paths": (_PATHS, None),
        "num_paths": (_int(1), None),
        "region_size": (_POSITIVE, _REQUIRED),
        "step": (_POSITIVE, _REQUIRED),
    },
    "snr": _LEVEL_SWEEP,
    "sinr": _LEVEL_SWEEP,
    "beam": {
        "num_elements": (_int(1), _REQUIRED),
        "objective": (_one_of("two-beam", "null-steer"), _REQUIRED),
        "u1": (_COSINE, _REQUIRED),
        "u2": (_COSINE, _REQUIRED),
        "d_max": (_num(f"a number >= {MIN_SPACING}", lambda x: x >= MIN_SPACING), 2.0),
        "d_step": (_POSITIVE, 1.0 / 64.0),
        "pattern_points": (_int(2), 2001),
    },
    "mimo": {
        "num_tx": (_int(1), _REQUIRED),
        "num_rx": (_int(1), _REQUIRED),
        "path_counts": (_COUNTS, _REQUIRED),
        # Near 3080 dB, rho*|H|^2 overflows and the capacities turn NaN.
        "snr_db_list": (_list("numbers <= 1000 (dB)", lambda x: _is_num(x) and x <= 1000.0, float),
                        _REQUIRED),
        "seeds": (_int(1), _REQUIRED),
        "region_size": (_POSITIVE, _REQUIRED),
        "step": (_POSITIVE, 0.1),
    },
    "estimate": {
        "num_paths": (_int(1), _REQUIRED),
        "num_measurements": (_int(1), _REQUIRED),
        "region_size": (_POSITIVE, _REQUIRED),
        # Near 1e305 the NMSE and the residual norm overflow; 1e100 is a
        # -1000 dB per-sample SNR, the mimo bound.
        "noise_var": (_num("a number in [0, 1e100]", lambda x: 0 <= x <= 1e100), _REQUIRED),
        "strategy": (_one_of("uniform-random", "grid"), "uniform-random"),
        "dict_grid": (_int(2), 64),
        "max_paths": (_int(1), lambda c: c.get("num_paths")),
        "step": (_POSITIVE, 0.1),
    },
}
_COMMON = {"seed": (_int(0), _REQUIRED),
           "output_dir": (_check("a string", lambda v: isinstance(v, str)), None)}


# (field, points) of every grid a kind builds and of every array a field
# scales with a grid, checked before anything is allocated: path counts x
# grid side (the field_on_grid phase factors); mimo candidates x paths (their
# Rx-side fields), x num_tx (their channel rows) and x num_rx (the too-near mask);
# snr/sinr trials x region sizes (the per-trial maxima); estimate
# measurements x dict_grid^2, which bounds the atoms of the measurement
# matrix; beam scan or pattern points x elements.  _side saturates just
# past the cap, so a huge extent/step ratio stays finite.
_side = lambda extent, step: grid_count(min(extent, step * MAX_GRID_POINTS), step)


def _square_grid(step_key, side, path_counts):
    """A ``side`` x ``side`` grid and the phase factors of each ``(field, path count)``."""
    return [(step_key, side ** 2)] + [(key, count * side) for key, count in path_counts]


def _mimo_grids(c):
    points = _side(c["region_size"], c["step"]) ** 2
    return [("step", points), ("path_counts", points * max(c["path_counts"])),
            ("num_rx", points * c["num_rx"]), ("num_tx", points * c["num_tx"])]


def _estimate_grids(c):
    side, lattice = _side(c["region_size"], c["step"]), c["dict_grid"] ** 2
    return _square_grid("step", side, [("num_paths", c["num_paths"]), ("max_paths", c["max_paths"])]) + [
        ("dict_grid", lattice), ("num_measurements", c["num_measurements"] * lattice)]


_sweep_grid = lambda c: _square_grid("coarse_step", _side(max(c["region_sizes"]), c["coarse_step"]),
                                     [("path_counts", max(c["path_counts"]))]) + [
    ("trials", c["trials"] * len(c["region_sizes"]))]
_GRIDS = {
    "gainmap": lambda c: _square_grid("step", _side(c["region_size"], c["step"]),
                                      [("paths", len(c["paths"] or ())), ("num_paths", c["num_paths"] or 0)]),
    "snr": _sweep_grid,
    "sinr": _sweep_grid,
    "beam": lambda c: [("d_step", _side(c["d_max"] - MIN_SPACING, c["d_step"]) * c["num_elements"]),
                       ("pattern_points", c["pattern_points"] * c["num_elements"])],
    "mimo": _mimo_grids,
    "estimate": _estimate_grids,
}

# Cross-field rules (kinds, field, message, ok), run once the grids fit.
_RULES = [
    (("gainmap",), "paths", "give exactly one of paths and num_paths",
     lambda c: (c["paths"] is None) != (c["num_paths"] is None)),
    (("snr", "sinr"), "coarse_step", "too small for the local refine steps",
     lambda c: _attempt(positioning.SearchConfig, c["coarse_step"]) is not None),
    (("beam",), "u2", f"null-steer needs u1, u2 steering vectors not collinear at {MIN_SPACING} spacing",
     lambda c: c["objective"] == "two-beam" or _attempt(
         beams.null_steer_weights, beams.uniform_layout(c["num_elements"], MIN_SPACING),
         c["u1"], c["u2"]) is not None),
    (("mimo",), "region_size", f"too small to host num_rx antennas at {MIN_SPACING} spacing",
     lambda c: _attempt(mimo._initial_ula_placement, Region.square(c["region_size"]),
                        c["num_rx"]) is not None),
    (("estimate",), "num_measurements", "must be at least num_paths and max_paths",
     lambda c: c["num_measurements"] >= max(c["num_paths"], c["max_paths"])),
    # A dict_grid whose points all fall outside the cosine disk raises: 0 atoms.
    (("estimate",), "dict_grid", "must give a dictionary of at least num_paths and max_paths atoms",
     lambda c: max(c["num_paths"], c["max_paths"]) <= getattr(
         _attempt(estimation.cosine_grid_dictionary, c["dict_grid"]), "shape", (0,))[0]),
]


def _resolve(cfg: dict) -> tuple[dict, list[str]]:
    """The config with every default filled in and every value typed, and its violations."""
    kind = cfg.get("kind")
    if kind not in EXPERIMENT_KINDS:
        return {}, [f"kind: must be one of {EXPERIMENT_KINDS}, got {kind!r}"]
    fields = _COMMON | _SCHEMA[kind]
    out = {"kind": kind}
    bad = [f"{key}: unknown field" for key in cfg if key != "kind" and key not in fields]
    for key, (check, default) in fields.items():
        v = cfg.get(key)
        if v is not None:
            try:
                out[key] = check(v)
            except (ValueError, OverflowError) as exc:
                bad.append(f"{key}: {exc}, got {v!r}")
        elif default is _REQUIRED:
            bad.append(f"{key}: required")
        else:
            out[key] = default(out) if callable(default) else default
    if not bad:
        bad = [f"{key}: implies {points} grid points, more than MAX_GRID_POINTS={MAX_GRID_POINTS}"
               for key, points in _GRIDS[kind](out) if points > MAX_GRID_POINTS]
    if not bad:
        bad = [f"{key}: {message}" for kinds, key, message, ok in _RULES
               if kind in kinds and not ok(out)]
    return out, bad


def validate_config_dict(cfg: dict) -> list[str]:
    """Return every violated constraint as a ``field: message`` string."""
    return _resolve(cfg)[1]


def _run_gainmap(cfg, outdir):
    spec = (sample_stochastic_channel(cfg["num_paths"], (cfg["seed"], 0)) if cfg["paths"] is None
            else channel_spec_from_records(cfg["paths"]))
    gm = gainmap.evaluate_map(spec, Region.square(cfg["region_size"]), cfg["step"])
    # Row-major x,y,gain_db rows; each coordinate is formatted once and its string repeated.
    ys = list(map(str, gm.coords1.tolist()))
    write_csv_atomic(os.path.join(outdir, "gain_map.csv"), "x,y,gain_db", (
        chain.from_iterable(repeat(x, len(ys)) for x in map(str, gm.coords0.tolist())),
        chain.from_iterable(repeat(ys, len(gm.coords0))),
        chain.from_iterable(row.tolist() for row in gm.values)))
    return {"max_db": gm.max_db, "min_db": gm.min_db, "argmax": list(gm.argmax),
            "argmin": list(gm.argmin), "spread_db": gm.max_db - gm.min_db}


def _halfwidth(values: np.ndarray, scale: float = 1.96) -> float | None:
    """``scale`` standard errors of the mean (95% by default); None (JSON null) for one value."""
    return scale * (float(values.std(ddof=1)) / math.sqrt(values.size)) if values.size > 1 else None


def _mean_db_and_halfwidth(values: np.ndarray) -> tuple[float, float | None]:
    """Mean in dB with a delta-method 95% half-width."""
    mean, half = float(values.mean()), _halfwidth(values, 10.0 / math.log(10.0) * 1.96)
    return 10.0 * math.log10(mean), None if half is None else half / mean


def _run_level_sweep(cfg, outdir):
    kind, trials = cfg["kind"], cfg["trials"]
    search = positioning.SearchConfig(coarse_step=cfg["coarse_step"], refine=cfg["refine"])
    regions = [Region.square(size) for size in cfg["region_sizes"]]
    rows, summary, counters = [], {}, {}
    for num_paths in cfg["path_counts"]:
        sweep, work = positioning._sweep(kind, num_paths, regions, trials, cfg["seed"], search)
        counters = {name: counters.get(name, 0) + int(counts.sum()) for name, counts in work.items()}
        for size, values in zip(cfg["region_sizes"], sweep):
            mean_db, half = _mean_db_and_halfwidth(values)
            rows.append((num_paths, size, trials, mean_db))
            summary[f"L{num_paths}_A{size:g}"] = {"metric_db": mean_db, "halfwidth_db": half}
    write_csv_atomic(os.path.join(outdir, f"{kind}_sweep.csv"), "L,A_lambda,trials,metric_db", zip(*rows))
    summary["counters"] = {"searches": len(rows) * trials, **counters}
    return summary


def _run_beam(cfg, outdir):
    n, objective, u1, u2 = cfg["num_elements"], cfg["objective"], cfg["u1"], cfg["u2"]
    scan = beams.optimize_uniform_spacing(n, objective, (u1, u2), (MIN_SPACING, cfg["d_max"]),
                                          cfg["d_step"])
    write_csv_atomic(os.path.join(outdir, "spacing_scan.csv"), "d_lambda,objective", scan.scan.T.tolist())

    summary = {"best_spacing": scan.spacing, "best_objective": scan.objective}
    u = np.linspace(-1.0, 1.0, cfg["pattern_points"])
    for name, spacing in (("fpa", 0.5), ("ma", scan.spacing)):
        layout = beams.uniform_layout(n, spacing)  # one weight rule per objective for both layouts
        w = (beams.two_beam_weights(layout, u1, u2).weights if objective == "two-beam"
             else beams.null_steer_weights(layout, u1, u2))
        gain = beams.array_gain(layout, w, u).tolist()
        # math.log10, not np.log10, whose last digit can differ; exact nulls are floored.
        db = [10.0 * math.log10(g) if g > 0.0 else gainmap.DB_FLOOR for g in gain]
        write_csv_atomic(os.path.join(outdir, f"pattern_{name}.csv"), "u,gain_linear,gain_db",
                         (u.tolist(), gain, db))
        summary[f"{name}_gain_u1"] = beams.array_gain(layout, w, u1)
        summary[f"{name}_gain_u2"] = beams.array_gain(layout, w, u2)
    return summary


def _run_mimo(cfg, outdir):
    """FPA and greedy MA capacities of every (SNR, path count, seed), from one greedy lockstep
    per block of (path count, seed) channels, each channel at every SNR.  A block holds at most
    ``mimo._LOCKSTEP_ELEMENTS`` elements of the lockstep's arrays, or one channel; every result is
    bit for bit that of its search alone, so the blocks leave no mark on the artifacts."""
    region = Region.square(cfg["region_size"])
    tx = mimo.tx_ula(cfg["num_tx"])
    snrs = cfg["snr_db_list"]
    rhos = [10.0 ** (snr_db / 10.0) for snr_db in snrs]
    candidates = grid_count(cfg["region_size"], cfg["step"]) ** 2
    channels = [(num_paths, s) for num_paths in cfg["path_counts"] for s in range(cfg["seeds"])]
    # A channel holds its candidate rows, candidates x 2 num_tx reals, and each of its searches
    # its scores and its too-near masks, candidates x (1 + num_rx).
    per_channel = candidates * (2 * cfg["num_tx"] + len(rhos) * (1 + cfg["num_rx"]))
    rows, passes = [], 0
    for blk in _blocks(len(channels), per_channel, mimo._LOCKSTEP_ELEMENTS):
        specs = [sample_stochastic_channel(num_paths, (cfg["seed"], num_paths, s), include_tx=True)
                 for num_paths, s in channels[blk]]
        _, fpa, ma, trace = mimo._greedy(specs, region, cfg["num_rx"], tx, np.array(rhos), cfg["step"])
        for (num_paths, s), fpa_k, ma_k, trace_k in zip(channels[blk], fpa, ma, trace):
            rows += [(snr_db, num_paths, s, float(cf), float(cm))
                     for snr_db, cf, cm in zip(snrs, fpa_k, ma_k)]
            passes += sum(map(len, trace_k))
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    write_csv_atomic(os.path.join(outdir, "capacity_sweep.csv"), "snr_db,L,seed,capacity_fpa,capacity_ma",
                     zip(*rows))
    summary = {"ma_ge_fpa_all_seeds": all(r[4] >= r[3] - 1e-12 for r in rows), "mean_gain_bits": {}}
    for snr_db in cfg["snr_db_list"]:
        for num_paths in cfg["path_counts"]:
            sel = np.array([r[4] - r[3] for r in rows if r[0] == snr_db and r[1] == num_paths])
            summary["mean_gain_bits"][f"snr{snr_db:g}_L{num_paths}"] = {
                "mean": float(sel.mean()), "halfwidth": _halfwidth(sel)}
    summary["counters"] = {"searches": len(rows), "greedy_passes": passes,
                           "candidates_scored": passes * cfg["num_rx"] * candidates}
    return summary


def _run_estimate(cfg, outdir):
    seed, num_paths = cfg["seed"], cfg["num_paths"]
    region = Region.square(cfg["region_size"])
    dictionary = estimation.cosine_grid_dictionary(cfg["dict_grid"])
    rng = np.random.default_rng((seed, 0))
    indices = rng.choice(len(dictionary), num_paths, replace=False)
    truth = ChannelSpec(dictionary[indices], _complex_normal(rng, num_paths, 1.0 / num_paths))

    positions = estimation.plan_measurement_positions(
        region, cfg["num_measurements"], cfg["strategy"], seed=(seed, 1))
    measurements = estimation.simulate_measurements(truth, positions, cfg["noise_var"], seed=(seed, 2))
    estimate = estimation.omp_estimate(measurements, dictionary, cfg["max_paths"])
    nmse = estimation.reconstruct_and_score(estimate, truth, region, cfg["step"])
    rows = [(i, *angles_from_direction(d), float(c.real), float(c.imag))
            for i, d, c in zip(estimate.indices, estimate.directions, estimate.coefficients)]
    write_csv_atomic(os.path.join(outdir, "recovered_paths.csv"),
                     "index,theta,phi,coeff_re,coeff_im", zip(*rows))
    return {"num_measurements": cfg["num_measurements"], "max_paths": cfg["max_paths"],
            "noise_var": cfg["noise_var"], "true_indices": sorted(int(i) for i in indices),
            "recovered_indices": sorted(estimate.indices), "residual_norm": estimate.residual_norm,
            "nmse": nmse}


# Per kind, runner(cfg, outdir) -> results; work counters a runner reports
# under results["counters"] go to the summary's top level.
_RUNNERS = {
    "gainmap": _run_gainmap,
    "snr": _run_level_sweep,
    "sinr": _run_level_sweep,
    "beam": _run_beam,
    "mimo": _run_mimo,
    "estimate": _run_estimate,
}


@functools.cache
def _environment() -> dict:
    """The masim, numpy and Python versions of this process; ``blas_core``, the kernel numpy's bundled
    OpenBLAS picked (``SkylakeX``, ``Haswell``, ...), read with ctypes from the library numpy loaded;
    and ``cpu_dispatch``, the groups of numpy's CPU dispatch (``X86_V3``, ``AVX512_ICL``, ...) that
    ``NPY_DISABLE_CPU_FEATURES`` leaves on.  None where unreadable.  Read on first use, and kept."""
    import glob  # here and in _provenance, imported on first use: setup stays as fast

    from . import __version__
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    found = glob.glob(os.path.join(libs, "libscipy_openblas*"))
    try:
        corename = ctypes.CDLL(found[0]).scipy_openblas_get_corename64_
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        core = corename().decode()
    except (IndexError, OSError, AttributeError):
        core = None
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
        dispatch = [group for group in __cpu_dispatch__ if __cpu_features__.get(group)]
    except ImportError:
        dispatch = None
    return {"masim": __version__, "numpy": np.__version__, "python": platform.python_version(),
            "blas_core": core, "cpu_dispatch": dispatch}


def _provenance(cfg: dict) -> dict:
    """What a run's artifacts depend on besides its code: :func:`_environment` and a sha256 of
    the resolved config.  Only ``mimo``'s and ``estimate``'s bytes can differ between BLAS kernels."""
    import hashlib
    digest = hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()
    return {**_environment(), "config_sha256": digest}


def run_experiment(cfg: dict, output_dir: str | None = None, seed: int | None = None,
                   trials: int | None = None) -> dict:
    """Validate and run a config, writing CSV artifacts plus ``summary.json``.

    Returns the summary payload: the results, the resolved config as ``effective_config`` and
    its ``provenance`` (see :func:`_provenance`).  Raises :class:`ConfigError` for invalid
    configs.  Artifacts are staged in a temporary directory inside the
    output directory and moved into place only once the run has succeeded,
    so a runtime failure propagates and leaves the output directory as it was.
    """
    cfg = dict(cfg)
    if seed is not None:
        cfg["seed"] = seed
    if trials is not None and cfg.get("kind") in ("snr", "sinr", "mimo"):  # kinds with a trial count
        cfg["seeds" if cfg["kind"] == "mimo" else "trials"] = trials
    cfg, violations = _resolve(cfg)
    if violations:
        raise ConfigError("; ".join(violations))
    outdir = output_dir or cfg["output_dir"] or os.environ.get(ENV_OUTPUT_DIR) or "."
    os.makedirs(outdir, exist_ok=True)
    stage = tempfile.mkdtemp(prefix=".masim-", dir=outdir)
    try:
        start = time.monotonic()
        results = _RUNNERS[cfg["kind"]](cfg, stage)
        payload = {"kind": cfg["kind"], "seed": cfg["seed"], "results": results,
                   "wall_time_s": time.monotonic() - start, "effective_config": cfg,
                   "provenance": _provenance(cfg)}
        if "counters" in results:
            payload["counters"] = results.pop("counters")
        write_json_atomic(os.path.join(stage, "summary.json"), payload)
        for name in os.listdir(stage):
            os.replace(os.path.join(stage, name), os.path.join(outdir, name))
    finally:
        shutil.rmtree(stage, ignore_errors=True)
    return payload
