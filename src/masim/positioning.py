"""Single-MA position optimization for SNR/SINR and Monte Carlo sweeps.

The coarse stage scans the region grid; local refinement is an axis-aligned
pattern search with halving steps, so returned objectives dominate every
coarse grid point by construction.  An analytic power gradient and a
projected gradient-ascent refiner are provided for local optimization
studies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelSpec, Region, channel_gain, field_on_grid, sample_stochastic_channel
from .util import write_csv_atomic

__all__ = [
    "SearchConfig",
    "InterferenceScenario",
    "max_snr_position",
    "max_sinr_position",
    "snr_gradient",
    "gradient_ascent_refine",
    "max_snr_trials",
    "max_sinr_trials",
    "write_sweep_csv",
]


# The local refine starts at coarse_step / 2 and halves its step on every
# failed move until the step drops below _REFINE_MIN_STEP, in at most
# _REFINE_ITERS iterations.
_REFINE_MIN_STEP = 1e-4
_REFINE_ITERS = 120


@dataclass
class SearchConfig:
    """Grid-then-refine search parameters (all lengths in wavelengths)."""

    coarse_step: float = 0.1
    refine: bool = True

    def __post_init__(self):
        if not _REFINE_MIN_STEP < self.coarse_step / 2.0:
            raise ValueError(f"coarse_step must exceed {2 * _REFINE_MIN_STEP:g} to leave room to refine")


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


def _grid_then_refine(values, coords, region: Region, cfg: SearchConfig, objective):
    """Best point of the coarse grid, then (with ``cfg.refine``) a compass search from it.

    ``values`` holds the objective on the grid ``coords`` and ``objective``
    evaluates it on a (B, 3) batch of positions.  The search moves along
    the region's free axes and halves its step after every failed move, so
    it is monotone and deterministic.  Returns ``(position, value)``.
    """
    x = region.grid_position(coords, int(np.argmax(values)))
    axes = region.free_axes
    if not (cfg.refine and axes):
        return x, float(np.max(values))
    fx = float(objective(x[None, :])[0])
    lo, hi = region.origin, region.upper
    step = cfg.coarse_step / 2.0
    for _ in range(_REFINE_ITERS):
        if step < _REFINE_MIN_STEP:
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
    return _grid_then_refine(rho * np.abs(h) ** 2, coords, region, cfg,
                             lambda r: rho * np.abs(channel_gain(spec, r)) ** 2)


def max_sinr_position(scenario: InterferenceScenario, region: Region,
                      cfg: SearchConfig | None = None):
    """Position maximizing SINR against the scenario's interference field."""
    cfg = cfg or SearchConfig()
    rho_s, rho_i = scenario.rho_signal, scenario.rho_interference
    sinr = lambda hs, hi: rho_s * np.abs(hs) ** 2 / (rho_i * np.abs(hi) ** 2 + 1.0)
    hs, coords = field_on_grid(scenario.signal, region, cfg.coarse_step)
    hi, _ = field_on_grid(scenario.interference, region, cfg.coarse_step)
    return _grid_then_refine(
        sinr(hs, hi), coords, region, cfg,
        lambda r: sinr(channel_gain(scenario.signal, r), channel_gain(scenario.interference, r)))


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


def _trial_maxima(search, num_paths: int, trials: int, seed: int, streams) -> np.ndarray:
    """``search(*channels)``'s value for each trial, in trial order.

    Trial ``t`` draws one ``num_paths``-path channel per entry of
    ``streams``, from the RNG stream ``(seed, t, *entry)``.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    values = np.empty(trials)
    for t in range(trials):
        channels = [sample_stochastic_channel(num_paths, (seed, t, *s)) for s in streams]
        values[t] = search(*channels)[1]
    return values


def max_snr_trials(num_paths: int, region_size: float, trials: int, seed: int,
                   cfg: SearchConfig | None = None, snr_ref_db: float = 20.0) -> np.ndarray:
    """Per-trial maximum SNR (linear) over a square region, stochastic channels.

    Trial ``t`` draws its channel from the RNG stream ``(seed, t)``.
    """
    region = Region.square(region_size)
    rho = 10.0 ** (snr_ref_db / 10.0)
    return _trial_maxima(lambda spec: max_snr_position(spec, region, cfg, rho=rho),
                         num_paths, trials, seed, [()])


def max_sinr_trials(num_paths: int, region_size: float, trials: int, seed: int,
                    cfg: SearchConfig | None = None, snr_ref_db: float = 20.0,
                    inr_ref_db: float = 20.0) -> np.ndarray:
    """Per-trial maximum SINR (linear) with an independent interference channel.

    The signal channel of trial ``t`` uses stream ``(seed, t)`` — the same
    stream as :func:`max_snr_trials` — so SNR/SINR sweeps can share
    realizations; interference uses ``(seed, t, 1)``.  The interference
    channel carries the same number of paths as the signal channel.
    """
    region = Region.square(region_size)
    search = lambda signal, interference: max_sinr_position(
        InterferenceScenario(signal, interference, snr_ref_db, inr_ref_db), region, cfg)
    return _trial_maxima(search, num_paths, trials, seed, [(), (1,)])


def write_sweep_csv(rows, path: str) -> None:
    """Export sweep rows ``(L, A_lambda, trials, metric_db)``."""
    write_csv_atomic(path, "L,A_lambda,trials,metric_db",
                     ((int(l), float(a), int(n), float(m)) for l, a, n, m in rows))
