"""Single-MA position optimization for SNR/SINR and Monte Carlo sweeps.

The coarse stage scans the region grid; local refinement is an axis-aligned
pattern search with halving steps, so returned objectives dominate every
coarse grid point by construction.  An analytic power gradient and a
projected gradient-ascent refiner are provided for local optimization
studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelSpec, Region, channel_gain, field_on_grid, sample_stochastic_channel
from .util import map_indexed, write_csv_atomic

__all__ = [
    "SearchConfig",
    "InterferenceScenario",
    "max_snr_position",
    "max_sinr_position",
    "snr_gradient",
    "gradient_ascent_refine",
    "max_snr_trials",
    "expected_max_snr",
    "max_sinr_trials",
    "expected_max_sinr",
    "write_sweep_csv",
]


@dataclass
class SearchConfig:
    """Grid-then-refine search parameters (all lengths in wavelengths)."""

    coarse_step: float = 0.1
    refine: bool = True
    refine_step_init: float | None = None  # defaults to coarse_step / 2
    refine_tol: float = 1e-4
    max_refine_iters: int = 120

    def __post_init__(self):
        if self.coarse_step <= 0:
            raise ValueError("coarse_step must be positive")
        if self.refine_step_init is None:
            self.refine_step_init = self.coarse_step / 2.0
        if not self.refine_tol < self.refine_step_init:
            raise ValueError("refine_tol must be smaller than refine_step_init")
        if self.max_refine_iters < 1:
            raise ValueError("max_refine_iters must be positive")


@dataclass(eq=False)
class InterferenceScenario:
    """Desired-signal and interference channels with reference-point power levels.

    Under the stochastic sampler the expected power gain at the reference
    point is 1, so the linear scale factors are simply ``10**(db/10)``:
    ``SINR(r) = rho_signal*|h_s(r)|^2 / (rho_interference*|h_i(r)|^2 + 1)``.
    """

    signal: ChannelSpec
    interference: ChannelSpec
    snr_ref_db: float = 20.0
    inr_ref_db: float = 20.0

    @property
    def rho_signal(self) -> float:
        return 10.0 ** (self.snr_ref_db / 10.0)

    @property
    def rho_interference(self) -> float:
        return 10.0 ** (self.inr_ref_db / 10.0)


def _pattern_search(objective, start: np.ndarray, region: Region, cfg: SearchConfig):
    """Compass search over the region's free axes; monotone and deterministic.

    ``objective`` must accept a (B, 3) batch of positions.
    """
    axes = region.free_axes
    x = np.array(start, dtype=float)
    fx = float(objective(x[None, :])[0])
    if not axes:
        return x, fx
    lo, hi = region.origin, region.upper
    step = cfg.refine_step_init
    for _ in range(cfg.max_refine_iters):
        if step < cfg.refine_tol:
            break
        cands = np.repeat(x[None, :], 2 * len(axes), axis=0)
        for k, a in enumerate(axes):
            cands[2 * k, a] = min(x[a] + step, hi[a])
            cands[2 * k + 1, a] = max(x[a] - step, lo[a])
        fc = objective(cands)
        best = int(np.argmax(fc))
        if fc[best] > fx:
            x = cands[best]
            fx = float(fc[best])
        else:
            step /= 2.0
    return x, fx


def max_snr_position(spec: ChannelSpec, region: Region, cfg: SearchConfig | None = None,
                     rho: float = 1.0):
    """Position maximizing ``rho * |h(r)|^2`` over the region.

    Returns ``(position, snr_linear)``; the value dominates every coarse
    grid point and the position lies inside the region.
    """
    cfg = cfg or SearchConfig()
    h, coords = field_on_grid(spec, region, cfg.coarse_step)
    power = np.abs(h) ** 2
    pos = region.grid_position(coords, int(np.argmax(power)))
    best = rho * float(np.max(power))
    if cfg.refine and region.free_axes:
        obj = lambda r: rho * np.abs(channel_gain(spec, r)) ** 2
        pos, best = _pattern_search(obj, pos, region, cfg)
    return pos, best


def max_sinr_position(scenario: InterferenceScenario, region: Region,
                      cfg: SearchConfig | None = None):
    """Position maximizing SINR against the scenario's interference field."""
    cfg = cfg or SearchConfig()
    rho_s, rho_i = scenario.rho_signal, scenario.rho_interference
    hs, coords = field_on_grid(scenario.signal, region, cfg.coarse_step)
    hi, _ = field_on_grid(scenario.interference, region, cfg.coarse_step)
    sinr = rho_s * np.abs(hs) ** 2 / (rho_i * np.abs(hi) ** 2 + 1.0)
    pos = region.grid_position(coords, int(np.argmax(sinr)))
    best = float(np.max(sinr))
    if cfg.refine and region.free_axes:
        def obj(r):
            ps = rho_s * np.abs(channel_gain(scenario.signal, r)) ** 2
            pi = rho_i * np.abs(channel_gain(scenario.interference, r)) ** 2
            return ps / (pi + 1.0)
        pos, best = _pattern_search(obj, pos, region, cfg)
    return pos, best


def snr_gradient(spec: ChannelSpec, r, axes=(0, 1)) -> np.ndarray:
    """Analytic in-plane gradient of the power gain ``|h(r)|^2``.

    grad |h|^2 = 2 Re[ conj(h) * sum_l c_l * j*2*pi*d_l * exp(j*2*pi*<d_l, r>) ],
    restricted to the given axes.
    """
    r = np.asarray(r, dtype=float)
    dirs = spec.rx_directions
    terms = spec.coefficients * np.exp(2j * np.pi * (dirs @ r))
    h = terms.sum()
    full = 2.0 * np.real(np.conj(h) * (2j * np.pi) * (dirs.T @ terms))
    return full[list(axes)]


def gradient_ascent_refine(spec: ChannelSpec, r0, region: Region,
                           max_iters: int = 200, trace: list | None = None) -> np.ndarray:
    """Projected gradient ascent on ``|h(r)|^2`` from ``r0``.

    Backtracking step sizes keep the objective nondecreasing; iterates are
    clipped to the region box.  Returns a position with
    ``|h(result)|^2 >= |h(r0)|^2``.  When ``trace`` is a list, the objective
    value of every accepted iterate is appended to it.
    """
    axes = list(region.free_axes)
    x = np.array(r0, dtype=float)
    if not region.contains(x):
        raise ValueError("start position must lie inside the region")
    if trace is not None:
        trace.append(abs(channel_gain(spec, x)) ** 2)
    if not axes:
        return x
    lo, hi = region.origin, region.upper
    fx = abs(channel_gain(spec, x)) ** 2
    scale = 0.02  # initial move length in wavelengths
    for _ in range(max_iters):
        g = np.zeros(3)
        g[axes] = snr_gradient(spec, x, axes=axes)
        gnorm = float(np.linalg.norm(g))
        if gnorm < 1e-12:
            break
        t = scale / gnorm
        accepted = False
        for _ in range(40):
            cand = np.clip(x + t * g, lo, hi)
            move = cand - x
            if np.linalg.norm(move) < 1e-14:
                break
            fc = abs(channel_gain(spec, cand)) ** 2
            if fc >= fx + 1e-4 * float(g @ move):
                x, fx = cand, fc
                accepted = True
                scale = min(2.0 * t * gnorm, 0.05)
                if trace is not None:
                    trace.append(fx)
                break
            t /= 2.0
        if not accepted:
            break
    return x


def max_snr_trials(num_paths: int, region_size: float, trials: int, seed: int,
                   cfg: SearchConfig | None = None, snr_ref_db: float = 20.0,
                   workers: int = 1) -> np.ndarray:
    """Per-trial maximum SNR (linear) over a square region, stochastic channels.

    Trial ``t`` draws its channel from the RNG stream ``(seed, t)``; results
    are independent of worker count and execution order.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    cfg = cfg or SearchConfig()
    region = Region.square(region_size)
    rho = 10.0 ** (snr_ref_db / 10.0)

    def one(t: int) -> float:
        spec = sample_stochastic_channel(num_paths, (seed, t))
        _, value = max_snr_position(spec, region, cfg, rho=rho)
        return value

    return np.array(map_indexed(one, range(trials), workers))


def expected_max_snr(num_paths: int, region_size: float, trials: int, seed: int,
                     cfg: SearchConfig | None = None, snr_ref_db: float = 20.0,
                     workers: int = 1) -> float:
    """Expected maximum SNR in dB (mean taken in the linear domain)."""
    values = max_snr_trials(num_paths, region_size, trials, seed, cfg, snr_ref_db, workers)
    return 10.0 * math.log10(float(values.mean()))


def max_sinr_trials(num_paths: int, region_size: float, trials: int, seed: int,
                    cfg: SearchConfig | None = None, snr_ref_db: float = 20.0,
                    inr_ref_db: float = 20.0, workers: int = 1) -> np.ndarray:
    """Per-trial maximum SINR (linear) with an independent interference channel.

    The signal channel of trial ``t`` uses stream ``(seed, t)`` — the same
    stream as :func:`max_snr_trials` — so SNR/SINR sweeps can share
    realizations; interference uses ``(seed, t, 1)``.  The interference
    channel carries the same number of paths as the signal channel.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    cfg = cfg or SearchConfig()
    region = Region.square(region_size)

    def one(t: int) -> float:
        signal = sample_stochastic_channel(num_paths, (seed, t))
        interference = sample_stochastic_channel(num_paths, (seed, t, 1))
        scenario = InterferenceScenario(signal, interference, snr_ref_db, inr_ref_db)
        _, value = max_sinr_position(scenario, region, cfg)
        return value

    return np.array(map_indexed(one, range(trials), workers))


def expected_max_sinr(num_paths: int, region_size: float, trials: int, seed: int,
                      cfg: SearchConfig | None = None, snr_ref_db: float = 20.0,
                      inr_ref_db: float = 20.0, workers: int = 1) -> float:
    """Expected maximum SINR in dB (mean taken in the linear domain)."""
    values = max_sinr_trials(num_paths, region_size, trials, seed, cfg,
                             snr_ref_db, inr_ref_db, workers)
    return 10.0 * math.log10(float(values.mean()))


def write_sweep_csv(rows, path: str) -> None:
    """Export sweep rows ``(L, A_lambda, trials, metric_db)``."""
    write_csv_atomic(path, "L,A_lambda,trials,metric_db",
                     ((int(l), float(a), int(n), float(m)) for l, a, n, m in rows))
