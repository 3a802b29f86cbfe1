"""Single-MA position optimization for SNR/SINR and Monte Carlo sweeps.

The coarse stage scans the region grid; local refinement is an axis-aligned
pattern search with halving steps, so returned objectives dominate every
coarse grid point by construction.  Monte Carlo trials run as a batch: one
draw per trial serves every region size, one kernel computes the coarse
fields of a block of trials, and the refine moves them in lockstep.  An
analytic power gradient is provided for local optimization studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (ChannelSpec, Region, _fields_on_grid, field_on_grid, field_response,
                      sample_stochastic_channel)
from .util import _blocks, write_csv_atomic

__all__ = [
    "SearchConfig",
    "max_snr_position",
    "max_sinr_position",
    "snr_gradient",
    "level_trials",
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


# The objectives, as functions of the channels' responses: the SNR of one
# channel, and the SINR of a signal channel against an interference channel.
_snr_level = lambda rho: lambda h: rho * np.abs(h) ** 2
_sinr_level = lambda rho_s, rho_i: lambda hs, hi: rho_s * np.abs(hs) ** 2 / (rho_i * np.abs(hi) ** 2 + 1.0)
# The linear signal and interference level at the reference point, 20 dB:
# under the stochastic sampler the expected power gain there is 1.
_REF_LEVEL = 100.0
# Per sweep kind, the objective and the RNG stream suffix of each channel it reads.
_SWEEP_LEVELS = {"snr": (_snr_level(_REF_LEVEL), [()]),
                 "sinr": (_sinr_level(_REF_LEVEL, _REF_LEVEL), [(), (1,)])}


def _search(channels, level, region: Region, cfg: SearchConfig, coarse):
    """Best position (T, 3) and value (T,) of ``level`` for each of T trials.

    ``channels`` holds one ``(directions (T, L, 3), coefficients (T, L))``
    pair per argument of ``level``, which maps those channels' responses to
    the objective.  ``coarse(block)`` returns the channels' fields on the
    coarse grid for a slice of trials, each (Tb, *grid).  Each trial starts
    from its first best grid point; with ``cfg.refine`` a compass search
    then moves along the free axes and halves that trial's step after every
    failed move, so it is monotone and deterministic.  All trials take the
    same iterations in lockstep until their steps run out.
    """
    coords = region.grid_coords(cfg.coarse_step)
    trials, num_paths = channels[0][1].shape
    sides = [len(c) for c in coords]
    start, best = np.empty(trials, dtype=int), np.empty(trials)
    for blk in _blocks(trials, max([math.prod(sides), num_paths] + [n * num_paths for n in sides])):
        values = level(*coarse(blk)).reshape(blk.stop - blk.start, -1)
        start[blk], best[blk] = values.argmax(axis=1), values.max(axis=1)
    x = region.grid_position(coords, start)
    axes = region.free_axes
    if not (cfg.refine and axes):
        return x, best
    lo, hi = region.origin, region.upper
    objective = lambda r, t: level(*[(field_response(r, d[t]) @ c[t, :, None])[..., 0] for d, c in channels])
    for blk in _blocks(trials, 2 * len(axes) * num_paths):
        fx = objective(x[blk, None], blk)[:, 0]
        step = np.full(fx.size, cfg.coarse_step / 2.0)
        for _ in range(_REFINE_ITERS):
            act = np.flatnonzero(step >= _REFINE_MIN_STEP)
            if act.size == 0:
                break
            t = blk.start + act
            cands = np.repeat(x[t, None], 2 * len(axes), axis=1)
            for k, a in enumerate(axes):
                cands[:, 2 * k, a] = np.minimum(x[t, a] + step[act], hi[a])
                cands[:, 2 * k + 1, a] = np.maximum(x[t, a] - step[act], lo[a])
            fc = objective(cands, t)
            j = fc.argmax(axis=1)
            fj = fc[np.arange(act.size), j]
            up = fj > fx[act]
            x[t[up]] = cands[up, j[up]]
            fx[act[up]] = fj[up]
            step[act[~up]] /= 2.0
        best[blk] = fx
    return x, best


def _position(specs, level, region: Region, cfg: SearchConfig | None):
    """:func:`_search` as one trial over the channels ``specs``: ``(position, value)``."""
    cfg = cfg or SearchConfig()
    channels = [(s.rx_directions[None], s.coefficients[None]) for s in specs]
    coarse = lambda blk: [field_on_grid(s, region, cfg.coarse_step)[0][None] for s in specs]
    x, value = _search(channels, level, region, cfg, coarse)
    return x[0], float(value[0])


def max_snr_position(spec: ChannelSpec, region: Region, cfg: SearchConfig | None = None,
                     rho: float = 1.0):
    """Position maximizing ``rho * |h(r)|^2`` over the region.

    Returns ``(position, snr_linear)``; the value dominates every coarse
    grid point and the position lies inside the region.
    """
    return _position([spec], _snr_level(rho), region, cfg)


def max_sinr_position(signal: ChannelSpec, interference: ChannelSpec, region: Region,
                      cfg: SearchConfig | None = None, *, rho: float = _REF_LEVEL,
                      rho_interference: float = _REF_LEVEL):
    """Position maximizing ``rho*|h_s(r)|^2 / (rho_interference*|h_i(r)|^2 + 1)`` over the region.

    Returns ``(position, sinr_linear)``; the levels are linear and default
    to 20 dB each.
    """
    return _position([signal, interference], _sinr_level(rho, rho_interference), region, cfg)


def snr_gradient(spec: ChannelSpec, r, axes=(0, 1)) -> np.ndarray:
    """Analytic in-plane gradient of the power gain ``|h(r)|^2``.

    grad |h|^2 = 2 Re[ conj(h) * sum_l c_l * j*2*pi*d_l * exp(j*2*pi*<d_l, r>) ]
               = -4 pi Im[ conj(h) * sum_l c_l * d_l * exp(j*2*pi*<d_l, r>) ],
    restricted to the given axes.
    """
    dirs = spec.rx_directions
    terms = spec.coefficients * field_response(r, dirs)
    full = -4.0 * np.pi * np.imag(np.conj(terms.sum()) * (dirs.T @ terms))
    return full[list(axes)]


def level_trials(kind: str, num_paths: int, regions, trials: int, seed: int,
                 cfg: SearchConfig | None = None) -> np.ndarray:
    """Per-trial maximum SNR or SINR (``kind``), linear, over each region: (regions, trials).

    Trial ``t`` draws its signal channel from the RNG stream ``(seed, t)``
    and, for SINR, an interference channel of as many paths from
    ``(seed, t, 1)``; one draw serves every region.  Signal and
    interference are at 20 dB at the reference point.
    """
    if kind not in _SWEEP_LEVELS:
        raise ValueError(f"kind must be one of {tuple(_SWEEP_LEVELS)}, got {kind!r}")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    cfg = cfg or SearchConfig()
    level, streams = _SWEEP_LEVELS[kind]
    values = np.empty((len(regions), trials))
    for blk in _blocks(trials, 3 * num_paths):
        draws = [[sample_stochastic_channel(num_paths, (seed, t, *s)) for t in range(blk.start, blk.stop)]
                 for s in streams]
        channels = [(np.stack([c.rx_directions for c in d]), np.stack([c.coefficients for c in d]))
                    for d in draws]
        for i, region in enumerate(regions):
            coarse = lambda b: [_fields_on_grid(d[b], c[b], region, cfg.coarse_step)[0] for d, c in channels]
            values[i, blk] = _search(channels, level, region, cfg, coarse)[1]
    return values


def write_sweep_csv(rows, path: str) -> None:
    """Export sweep rows ``(L, A_lambda, trials, metric_db)``."""
    rows = [(int(l), float(a), int(n), float(m)) for l, a, n, m in rows]
    write_csv_atomic(path, "L,A_lambda,trials,metric_db", zip(*rows))
