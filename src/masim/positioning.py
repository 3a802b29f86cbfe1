"""Single-MA position optimization for SNR/SINR and Monte Carlo sweeps.

The coarse stage scans the region grid; local refinement is an axis-aligned
pattern search with halving steps, so returned objectives dominate every
coarse grid point by construction.  Monte Carlo trials run as a batch: one
draw per trial serves every region size, one kernel computes the coarse
fields of a block of trials, and one refine moves the searches of every
region and trial of the block in lockstep.  Every coarse grid is read from the
split phase tables of ``channel._axis_tables`` in row tiles of bounded size, so its
memory does not grow with the grid: one loop computes each tile and keeps each
trial's first best point, and a block of more than one trial always fits in one
tile.  A map that cannot vary (a point region, or one path per channel) takes its
closed form instead.  An analytic power gradient is provided for local
optimization studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (ChannelSpec, Region, _axis_tables, _collapsed, _count, _grid_product, _levels,
                      _points, _stochastic_paths, field_on_grid, field_response)
from .util import _blocks

__all__ = [
    "SearchConfig",
    "max_snr_position",
    "max_sinr_position",
    "snr_gradient",
    "level_trials",
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
        if not (math.isfinite(self.coarse_step) and _REFINE_MIN_STEP < self.coarse_step / 2.0):
            raise ValueError(f"coarse_step must be finite and exceed {2 * _REFINE_MIN_STEP:g} to leave room to refine")


def _power(h, out=None) -> np.ndarray:
    """``|h|**2``, computed in place in one new array or in ``out``: coarse maps are a sweep's
    largest arrays.  ``h.real**2 + h.imag**2`` is faster on small tiles, but its last bits differ,
    and the sweeps' values are defined by ``np.abs``'s."""
    p = np.abs(h, out=out)
    return np.square(p, out=p)


# The objectives, as functions of the channels' powers |h|**2, which they overwrite: the SNR
# of one channel, and the SINR of a signal channel against an interference channel.
_snr_level = lambda rho: lambda p: np.multiply(p, rho, out=p)


def _sinr_level(rho_s: float, rho_i: float):
    def level(ps, pi):
        pi *= rho_i  # rho_i * |hi|**2 + 1, then the SINR, in place
        pi += 1.0
        ps *= rho_s
        return np.divide(ps, pi, out=pi)
    return level


# The linear signal and interference level at the reference point, 20 dB:
# under the stochastic sampler the expected power gain there is 1.
_REF_LEVEL = 100.0
# Per sweep kind, the objective and the RNG stream suffix of each channel it reads.
_SWEEP_LEVELS = {"snr": (_snr_level(_REF_LEVEL), [()]),
                 "sinr": (_sinr_level(_REF_LEVEL, _REF_LEVEL), [(), (1,)])}


def _search(channels, level, regions, cfg: SearchConfig, coarse=None):
    """Best positions (R, T, 3), values (R, T) and work of ``level``'s search over each of R regions for
    each of T trials: ``work`` maps "coarse_points" and "refine_evaluations" to (R, T) counts.

    ``channels`` holds one ``(directions (T, L, 3), coefficients (T, L))`` pair per argument of
    ``level``, which maps those channels' powers to the objective.  A map without a phase <d_l - d_1, r>
    (a point region, or one path per channel) is constant: its one point, the region's origin, gives its
    value, with no scan or refine.  Each other (region, trial) search starts from its first best point
    of :func:`_coarse`'s scan of every grid point (``coarse`` is its one-trial hook); with ``cfg.refine``,
    the searches of all regions with the same free axes then take one :func:`_refine`, which counts
    1 + 2 * |axes| evaluations per iteration a search takes.
    """
    trials = len(channels[0][1])
    x, best = np.empty((len(regions), trials, 3)), np.empty((len(regions), trials))
    work = {name: np.zeros(best.shape, dtype=int) for name in ("coarse_points", "refine_evaluations")}
    flat = all(c.shape[1] == 1 for _, c in channels)
    for i, region in enumerate(regions):
        if flat or not region.free_axes:
            x[i], best[i] = region.origin, level(*[_power(_collapsed(d, c, region).sum(-1)) for d, c in channels])
            work["coarse_points"][i] = 1
            continue
        coords = region.grid_coords(cfg.coarse_step)
        sides = [len(c) for c in coords]
        start, best[i] = _coarse(channels, level, region, sides, cfg.coarse_step, coarse)
        x[i], work["coarse_points"][i] = region.grid_position(coords, start), math.prod(sides)
    for axes in dict.fromkeys(r.free_axes for r in regions if cfg.refine and r.free_axes and not flat):
        group, free = [i for i, r in enumerate(regions) if r.free_axes == axes], list(axes)
        lo = np.repeat([regions[i].origin[free] for i in group], trials, axis=0)
        hi = np.repeat([regions[i].upper[free] for i in group], trials, axis=0)
        xs, shape = x[group].reshape(-1, 3), (len(group), trials)
        fx, taken = _refine(channels, level, xs, np.tile(np.arange(trials), len(group)), lo, hi, free,
                            cfg.coarse_step / 2.0)
        x[group], best[group] = xs.reshape(*shape, 3), fx.reshape(shape)
        work["refine_evaluations"][group] = (1 + 2 * len(free) * taken).reshape(shape)
    return x, best, work


def _coarse(channels, level, region: Region, sides, step: float, coarse):
    """The coarse stage of :func:`_search` on one region of ``sides`` grid points per free axis,
    whose map varies: each trial's first best grid point (flat index) and its value, each (T,).

    One loop scans each block of trials in tiles of rows of :func:`_axis_tables`' first table, each
    of at most util._BLOCK_ELEMENTS points or one row of one trial, in one ``field`` and one
    ``powers`` buffer.  A tile's maximum replaces a trial's best only when it is strictly larger, so
    the first of equal maxima wins, as in the whole map's argmax.  By :func:`_blocks`' sizing, a
    block of more than one trial always fits in one tile: only one-trial blocks span several.  A
    one-trial grid that fits one tile reads its fields (1, *grid) per channel from ``coarse(region)``
    instead, when given."""
    trials, num_paths = channels[0][1].shape
    blocks = _blocks(trials, max([math.prod(sides)] + [n * num_paths for n in sides]))
    rows = _blocks(sides[0], blocks[0].stop * math.prod(sides[1:]))[0].stop
    if coarse is not None and rows == sides[0]:
        values = level(*map(_power, coarse(region))).reshape(1, -1)
        return values.argmax(axis=1), values.max(axis=1)
    start, best = np.zeros(trials, dtype=int), np.full(trials, -np.inf)
    field = np.empty((blocks[0].stop, rows, *sides[1:]), dtype=complex)
    powers = np.empty((len(channels), *field.shape))
    for blk in blocks:
        tables = [_axis_tables(d[blk], c[blk], region, step) for d, c in channels]
        size, first, peak = blk.stop - blk.start, start[blk], best[blk]  # views of start and best
        for row in range(0, sides[0], rows):
            count = min(rows, sides[0] - row)
            maps = powers[:, :size, :count]
            for (head, *rest), power in zip(tables, maps):
                _power(_grid_product([head[:, row:row + count], *rest], out=field[:size, :count]), out=power)
            values = level(*maps).reshape(size, -1)
            at = values.argmax(axis=1)
            value = values[np.arange(size), at]
            new = value > peak
            first[new], peak[new] = at[new] + row * math.prod(sides[1:]), value[new]
    return start, best


def _refine(channels, level, x, trial, lo, hi, free, step):
    """Compass-search S searches from ``x`` (S, 3) in lockstep, moving ``x``; (values, iterations).

    Search s reads trial ``trial[s]`` of ``channels``, moves along the axes ``free`` within
    ``lo[s]`` and ``hi[s]``, and halves its own step after every failed move until it drops
    below _REFINE_MIN_STEP, in at most _REFINE_ITERS iterations, so it is monotone and
    deterministic.
    """
    # Candidate 2k moves a search up along axis free[k], candidate 2k + 1 down.
    num_paths, moves = channels[0][1].shape[1], 2 * np.arange(len(free))
    objective = lambda r, t: level(*[_power((field_response(r, d[t]) @ c[t, :, None])[..., 0])
                                     for d, c in channels])
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


def _position(specs, make_level, region: Region, cfg: SearchConfig | None, *rhos):
    """:func:`_search` as one trial of ``make_level(*rhos)`` over the channels ``specs``: ``(position, value)``."""
    _levels(rhos)
    cfg = cfg or SearchConfig()
    channels = [(s.rx_directions[None], s.coefficients[None]) for s in specs]
    # field_on_grid through this module's binding: perfbench's tracer test expects its span.
    coarse = lambda region: [field_on_grid(s, region, cfg.coarse_step)[0][None] for s in specs]
    x, value, _ = _search(channels, make_level(*rhos), [region], cfg, coarse)
    return x[0, 0], float(value[0, 0])


def max_snr_position(spec: ChannelSpec, region: Region, cfg: SearchConfig | None = None,
                     rho: float = 1.0):
    """Position maximizing ``rho * |h(r)|^2`` over the region.

    Returns ``(position, snr_linear)``; the value dominates every coarse grid point (a
    constant map's up to rounding) and the position lies inside the region.
    """
    return _position([spec], _snr_level, region, cfg, rho)


def max_sinr_position(signal: ChannelSpec, interference: ChannelSpec, region: Region,
                      cfg: SearchConfig | None = None, *, rho: float = _REF_LEVEL,
                      rho_interference: float = _REF_LEVEL):
    """Position maximizing ``rho*|h_s(r)|^2 / (rho_interference*|h_i(r)|^2 + 1)`` over the region.

    Returns ``(position, sinr_linear)``; the levels are linear and default
    to 20 dB each.
    """
    return _position([signal, interference], _sinr_level, region, cfg, rho, rho_interference)


def snr_gradient(spec: ChannelSpec, r) -> np.ndarray:
    """Analytic in-plane gradient of the power gain ``|h(r)|^2``: its (x, y) components.

    grad |h|^2 = 2 Re[ conj(h) * sum_l c_l * j*2*pi*d_l * exp(j*2*pi*<d_l, r>) ]
               = -4 pi Im[ conj(h) * sum_l c_l * d_l * exp(j*2*pi*<d_l, r>) ].
    """
    dirs = spec.rx_directions
    terms = spec.coefficients * field_response(_points([r], "position")[0], dirs)
    full = -4.0 * np.pi * np.imag(np.conj(terms.sum()) * (dirs.T @ terms))
    return full[:2]


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
    trials, num_paths = _count(trials, "trials"), _count(num_paths, "num_paths")
    return _sweep(kind, num_paths, regions, trials, seed, cfg or SearchConfig())[0]


def _sweep(kind: str, num_paths: int, regions, trials: int, seed: int, cfg: SearchConfig):
    """:func:`level_trials` and the work of each search (see :func:`_search`): ``(values, work)``,
    each array (regions, trials)."""
    level, streams = _SWEEP_LEVELS[kind]
    values, work = np.empty((len(regions), trials)), []
    for blk in _blocks(trials, 3 * num_paths):
        draws = [[_stochastic_paths(num_paths, (seed, t, *s)) for t in range(blk.start, blk.stop)]
                 for s in streams]
        channels = [(np.stack([d[0] for d in ds]), np.stack([d[1] for d in ds])) for ds in draws]
        _, values[:, blk], done = _search(channels, level, regions, cfg)
        work.append(done)
    return values, {name: np.concatenate([w[name] for w in work], axis=1) for name in work[0]}
