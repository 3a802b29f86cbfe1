"""Single-MA position optimization for SNR/SINR and Monte Carlo sweeps.

The coarse stage scans the region grid; local refinement is an axis-aligned
pattern search with halving steps, so returned objectives dominate every
coarse grid point by construction.  Monte Carlo trials run as a batch: one
draw per trial serves every region size, one kernel computes the coarse
fields of a block of trials, and one refine moves the searches of every
region and trial of the block in lockstep.  An analytic power gradient is
provided for local optimization studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (_SPLIT_ERROR, ChannelSpec, Region, _fields_on_grid, _stochastic_paths, field_on_grid,
                      field_response)
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


def _power(h, rho: float) -> np.ndarray:
    """``rho * |h|**2`` in one new array, computed in place: coarse maps are a sweep's largest arrays."""
    p = np.abs(h)
    np.square(p, out=p)
    p *= rho
    return p


# The objectives, as functions of the channels' responses: the SNR of one
# channel, and the SINR of a signal channel against an interference channel.
_snr_level = lambda rho: lambda h: _power(h, rho)


def _sinr_level(rho_s: float, rho_i: float):
    def level(hs, hi):
        noise = _power(hi, rho_i)  # rho_i * |hi|**2 + 1, then the SINR, in one array
        noise += 1.0
        return np.divide(_power(hs, rho_s), noise, out=noise)
    return level


# The linear signal and interference level at the reference point, 20 dB:
# under the stochastic sampler the expected power gain there is 1.
_REF_LEVEL = 100.0
# Per sweep kind, the objective and the RNG stream suffix of each channel it reads.
_SWEEP_LEVELS = {"snr": (_snr_level(_REF_LEVEL), [()]),
                 "sinr": (_sinr_level(_REF_LEVEL, _REF_LEVEL), [(), (1,)])}


# A fast coarse map ranks a search's start only where its maximum beats every
# other point by the relative margin _RANK_MARGIN * max(1, M), M the region's
# largest |coordinate|: 1e5 times the phase tables' error bound, which the
# path sum and the SINR's interference term amplify far less than 100-fold
# (the maps' measured error is under 1.1e-13 at M = 10).
_RANK_MARGIN = 1e5 * _SPLIT_ERROR


def _search(channels, level, regions, cfg: SearchConfig, coarse, rank=None):
    """Best positions (R, T, 3), values (R, T), refine evaluations (R, T) and ranking ties (R, T)
    of ``level`` over each of R regions for each of T trials.

    ``channels`` holds one ``(directions (T, L, 3), coefficients (T, L))``
    pair per argument of ``level``, which maps those channels' responses to
    the objective.  ``coarse(region, trials)`` returns the channels' fields on
    the region's coarse grid for an index array of trials, each (Tb, *grid).
    Each (region, trial) search starts from its first best grid point; with
    ``cfg.refine``, the searches of all regions with the same free axes then
    take one :func:`_refine`, which counts 1 + 2 * |axes| evaluations per
    iteration a search takes.  ``rank``, like ``coarse`` but faster and
    inexact, may pick the starts of refined searches: a trial whose ``rank``
    maximum does not win by _RANK_MARGIN is a tie, and takes ``coarse``'s.
    """
    trials, num_paths = channels[0][1].shape
    x, best = np.empty((len(regions), trials, 3)), np.empty((len(regions), trials))
    ties = np.zeros((len(regions), trials), dtype=bool)
    for i, region in enumerate(regions):
        coords = region.grid_coords(cfg.coarse_step)
        sides = [len(c) for c in coords]
        fast = rank if cfg.refine and region.free_axes else None
        margin = 1.0 + _RANK_MARGIN * max(1.0, np.abs([region.origin, region.upper]).max())
        start = np.empty(trials, dtype=int)
        for blk in _blocks(trials, max([math.prod(sides), num_paths] + [n * num_paths for n in sides])):
            sel = np.arange(blk.start, blk.stop)
            if fast:
                values = level(*fast(region, sel)).reshape(sel.size, -1)
                start[sel] = values.argmax(axis=1)
                peak = values[np.arange(sel.size), start[sel]]
                values[np.arange(sel.size), start[sel]] = -np.inf
                ties[i, sel] = ~(peak > margin * values.max(axis=1))
                sel = sel[ties[i, sel]]
            if sel.size:
                values = level(*coarse(region, sel)).reshape(sel.size, -1)
                start[sel], best[i, sel] = values.argmax(axis=1), values.max(axis=1)
        x[i] = region.grid_position(coords, start)
    evals = np.zeros((len(regions), trials), dtype=int)
    for axes in dict.fromkeys(r.free_axes for r in regions if cfg.refine and r.free_axes):
        group, free = [i for i, r in enumerate(regions) if r.free_axes == axes], list(axes)
        lo = np.repeat([regions[i].origin[free] for i in group], trials, axis=0)
        hi = np.repeat([regions[i].upper[free] for i in group], trials, axis=0)
        xs, shape = x[group].reshape(-1, 3), (len(group), trials)
        fx, taken = _refine(channels, level, xs, np.tile(np.arange(trials), len(group)), lo, hi, free,
                            cfg.coarse_step / 2.0)
        x[group], best[group] = xs.reshape(*shape, 3), fx.reshape(shape)
        evals[group] = (1 + 2 * len(free) * taken).reshape(shape)
    return x, best, evals, ties


def _refine(channels, level, x, trial, lo, hi, free, step):
    """Compass-search S searches from ``x`` (S, 3) in lockstep, moving ``x``; (values, iterations).

    Search s reads trial ``trial[s]`` of ``channels``, moves along the axes ``free`` within
    ``lo[s]`` and ``hi[s]``, and halves its own step after every failed move until it drops
    below _REFINE_MIN_STEP, in at most _REFINE_ITERS iterations, so it is monotone and
    deterministic.
    """
    # Candidate 2k moves a search up along axis free[k], candidate 2k + 1 down.
    num_paths, moves = channels[0][1].shape[1], 2 * np.arange(len(free))
    objective = lambda r, t: level(*[(field_response(r, d[t]) @ c[t, :, None])[..., 0] for d, c in channels])
    fx, taken = np.empty(len(x)), np.zeros(len(x), dtype=int)
    for blk in _blocks(len(x), 2 * len(free) * num_paths):
        fx[blk] = objective(x[blk, None], trial[blk])[:, 0]
        steps = np.full(blk.stop - blk.start, step)
        for _ in range(_REFINE_ITERS):
            act = np.flatnonzero(steps >= _REFINE_MIN_STEP)
            if act.size == 0:
                break
            s = blk.start + act
            cands = np.repeat(x[s, None], 2 * len(free), axis=1)
            here, reach = cands[:, 0, free], steps[act, None]
            cands[:, moves, free] = np.minimum(here + reach, hi[s])
            cands[:, moves + 1, free] = np.maximum(here - reach, lo[s])
            fc = objective(cands, trial[s])
            j = fc.argmax(axis=1)
            fj = fc[np.arange(act.size), j]
            up = fj > fx[s]
            x[s[up]] = cands[up, j[up]]
            fx[s[up]] = fj[up]
            steps[act[~up]] /= 2.0
            taken[s] += 1
    return fx, taken


def _position(specs, level, region: Region, cfg: SearchConfig | None):
    """:func:`_search` as one trial over the channels ``specs``: ``(position, value)``."""
    cfg = cfg or SearchConfig()
    channels = [(s.rx_directions[None], s.coefficients[None]) for s in specs]
    coarse = lambda region, blk: [field_on_grid(s, region, cfg.coarse_step)[0][None] for s in specs]
    x, value, _, _ = _search(channels, level, [region], cfg, coarse)
    return x[0, 0], float(value[0, 0])


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
    if trials < 1 or num_paths < 1:
        raise ValueError("trials and num_paths must be at least 1")
    return _sweep(kind, num_paths, regions, trials, seed, cfg or SearchConfig())[0]


def _sweep(kind: str, num_paths: int, regions, trials: int, seed: int, cfg: SearchConfig):
    """:func:`level_trials`, the refine evaluations of each search and whether its fast ranking
    tied (see :func:`_search`): each (regions, trials).

    The searches of a refined sweep of L > 1 paths are ranked on split phase
    tables; a single path's flat map is ranked by rounding alone, so it keeps the exact tables.
    """
    level, streams = _SWEEP_LEVELS[kind]
    (values, evals), ties = np.empty((2, len(regions), trials)), np.empty((len(regions), trials), dtype=bool)
    for blk in _blocks(trials, 3 * num_paths):
        draws = [[_stochastic_paths(num_paths, (seed, t, *s)) for t in range(blk.start, blk.stop)]
                 for s in streams]
        channels = [(np.stack([d[0] for d in ds]), np.stack([d[1] for d in ds])) for ds in draws]
        fields = lambda split: lambda region, b: [
            _fields_on_grid(d[b], c[b], region, cfg.coarse_step, split)[0] for d, c in channels]
        rank = fields(True) if cfg.refine and num_paths > 1 else None
        _, values[:, blk], evals[:, blk], ties[:, blk] = _search(channels, level, regions, cfg,
                                                                  fields(False), rank)
    return values, evals, ties


def write_sweep_csv(rows, path: str) -> None:
    """Export sweep rows ``(L, A_lambda, trials, metric_db)``."""
    rows = [(int(l), float(a), int(n), float(m)) for l, a, n, m in rows]
    write_csv_atomic(path, "L,A_lambda,trials,metric_db", zip(*rows))
