"""Single-MA position optimization for SNR/SINR and Monte Carlo sweeps.

The coarse stage scans the region grid; local refinement is an axis-aligned
pattern search with halving steps, so returned objectives dominate every
coarse grid point by construction.  Monte Carlo trials run as a batch: one
draw per trial serves every region size, one kernel computes the coarse
fields of a block of trials, and one refine moves the searches of every
region and trial of the block in lockstep.  Every coarse grid is read from the
head and tail of ``channel._axis_tables`` in tiles of head rows of bounded size, so
its memory does not grow with the grid: one loop ranks each tile's rows in single
precision, a rounding-error certificate picks the rows that may hold each trial's
maximum, and only those are recomputed in double precision, which gives every
value and start its whole double-precision map's bits.  A map that cannot vary (a
point region, or one path per channel) takes its closed form instead.  An
analytic power gradient is provided for local optimization studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (ChannelSpec, Region, _axis_tables, _collapsed, _count, _grid_product, _grid_rows, _levels,
                      _path_sum, _points, _stochastic_paths, field_on_grid, field_response)
from . import util
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
    """``|h|**2`` in ``h``'s precision, into one new array or ``out``: coarse maps are a sweep's
    largest arrays.  A complex128 field takes ``np.abs`` squared, whose bits define the sweeps'
    values; a complex64 ranking tile, which it overwrites, takes ``re**2 + im**2``."""
    if h.dtype == np.complex64:
        parts = np.square(h.view(np.float32), out=h.view(np.float32))  # re**2, im**2 interleaved
        return np.add(parts[..., ::2], parts[..., 1::2], out=out)
    p = np.abs(h, out=out)
    return np.square(p, out=p)


def _level(rhos):
    """The objective of one linear level per channel, as a function of the channels' powers
    |h|**2, which it overwrites in their precision (the levels are Python floats): the SNR
    ``rho * p`` of one channel, or the SINR ``rho_s * ps / (rho_i * pi + 1)`` of a signal channel
    against an interference channel."""
    if len(rhos) == 1:
        return lambda p: np.multiply(p, rhos[0], out=p)
    rho_s, rho_i = rhos

    def level(ps, pi):
        pi *= rho_i  # rho_i * |hi|**2 + 1, then the SINR, in place
        pi += 1.0
        ps *= rho_s
        return np.divide(ps, pi, out=pi)
    return level


# The linear signal and interference level at the reference point, 20 dB:
# under the stochastic sampler the expected power gain there is 1.
_REF_LEVEL = 100.0
# Per sweep kind, the RNG stream suffix of each channel its objective reads, each at _REF_LEVEL.
_SWEEP_STREAMS = {"snr": [()], "sinr": [(), (1,)]}

# The certificate of _coarse's float32 ranking (Higham, "Accuracy and Stability of Numerical
# Algorithms", ch. 3; u = 2^-24, gamma_n = n u / (1 - n u)).  A grid entry h over L paths sums,
# over l, the product of an entry of channel._axis_tables' head, of modulus |c_l| times a phase's,
# and one of its tail, a phase or a product of two (or 1), so the terms' moduli sum to
# S = sum_l |c_l| (within 1e-14 S).  From the same two tables, the complex64 entry h32 lies within
#     dh = e u S + (8 L + 16) 2^-149,   e = 2.9 L + 3,
# of the complex128 entry h64:
#   - rounding each table once to complex64 moves each term by at most 2u of its modulus;
#   - one BLAS product sums, in each component of h, 2L real products, in any order and with or
#     without fused multiply-adds: sqrt(2) gamma_2L S;
#   - h64's own error is 2^29 times smaller, and underflow adds at most 2^-150 per real product or
#     rounded entry.
# So ||h32|^2 - |h64|^2| <= (2S + dh) dh.  rho times that, plus 2^-147 for the underflow of the
# float32 power and level, is the absolute error A of rho_s |hs|^2, and B of rho_i |hi|^2.  The
# float32 power (gamma_2), each rho's float32 copy and product, and the SINR's + 1 and quotient
# take at most 4 roundings for SNR and 10 for SINR.  So with v' the level of the float32 fields'
# exact powers and r = 5u or 11u, which also covers the float64 side's roundings, every point has
#     v64 <= (v' + A) / (1 - B) <= (v32 (1 + r) + A) / (1 - B)   and
#     v64 >= (v' - A) / (1 + B) >= (v32 (1 - r) - A) / (1 + B)    (0 <= B < 1; B = 0 for SNR).
# A channel whose float32 power or level may overflow (max(rho, 1) (S + dh)^2 near 2^128), or whose
# rho is below float32's smallest normal number, 2^-126, but not 0, takes the error inf, which sets
# its trials' threshold in _candidates to -inf.


def _ranking_errors(coefficients, rhos):
    """The certificate's (A, B, r) of ``rhos``' level; A and B (T,) from the T trials' coefficients
    (T, L) of each channel."""
    errors = []
    for c, rho in zip(coefficients, rhos):
        s, paths = np.abs(c).sum(axis=1), c.shape[1]
        dh = ((2.9 * paths + 3) * s + (8 * paths + 16) * 2.0 ** -125) * 2.0 ** -24
        fits = (max(rho, 1.0) * (s + dh) ** 2 < 2.0 ** 120) & (rho == 0 or rho >= 2.0 ** -126)
        errors.append(np.where(fits, rho * (2 * s + dh) * dh + 2.0 ** -147, np.inf))
    if len(errors) == 1:
        return errors[0], np.zeros_like(errors[0]), 5 * 2.0 ** -24
    return errors[0], errors[1], 11 * 2.0 ** -24


def _candidates(tops, a, b, r) -> np.ndarray:
    """The rows (T, n) whose float64 maximum may reach their trial's: from the float32 maxima
    ``tops`` (T, n) of every row and the certificate's (A, B, r), each row whose upper bound
    (v32 (1 + r) + A) / (1 - B) is not below its trial's lower bound (top (1 - r) - A) / (1 + B).
    A trial whose top is not finite or whose B is at least 1/2 keeps every row.  The slack of r
    covers the rounding of the threshold."""
    top = tops.max(axis=1).astype(float)
    cut = ((top * (1 - r) - a) / (1 + b) * (1 - b) - a) / (1 + r)
    cut[~(np.isfinite(top) & (b < 0.5))] = -np.inf
    return ~(tops < cut[:, None])


def _search(channels, rhos, regions, cfg: SearchConfig, coarse=None):
    """Best positions (R, T, 3), values (R, T) and work of the search of :func:`_level` of ``rhos``
    over each of R regions for each of T trials: ``work`` maps "coarse_points",
    "coarse_rescan_rows" and "refine_evaluations" to (R, T) counts.

    ``channels`` holds one ``(directions (T, L, 3), coefficients (T, L))`` pair per level of
    ``rhos``.  A map without a phase <d_l - d_1, r> (a point region, or one path per channel) is
    constant: its one point, the region's origin, gives its value, with no scan or refine.  Each other
    (region, trial) search starts from its first best point of :func:`_coarse`'s scan of every grid
    point (``coarse`` is its one-trial hook), which counts the grid rows it computes in float64; with
    ``cfg.refine``, the searches of all regions with the same free axes then take one :func:`_refine`,
    which counts 1 + 2 * |axes| evaluations per iteration a search takes.
    """
    trials, level = len(channels[0][1]), _level(rhos)
    x, best = np.empty((len(regions), trials, 3)), np.empty((len(regions), trials))
    work = {name: np.zeros(best.shape, dtype=int)
            for name in ("coarse_points", "coarse_rescan_rows", "refine_evaluations")}
    flat = all(c.shape[1] == 1 for _, c in channels)
    for i, region in enumerate(regions):
        if flat or not region.free_axes:
            x[i], best[i] = region.origin, level(*[_power(_path_sum(_collapsed(d, c, region))) for d, c in channels])
            work["coarse_points"][i] = 1
            continue
        coords = region.grid_coords(cfg.coarse_step)
        sides = [len(c) for c in coords]
        start, best[i], work["coarse_rescan_rows"][i] = _coarse(channels, rhos, region, sides, cfg.coarse_step,
                                                                coarse)
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


def _coarse(channels, rhos, region: Region, sides, step: float, coarse):
    """The coarse stage of :func:`_search` on one region of ``sides`` grid points per free axis,
    whose map varies: each trial's first best grid point (flat index), its value and the number of
    grid rows it computed in float64, each (T,).

    The scan takes two precisions.  Each block of trials is ranked in tiles of rows of
    :func:`_axis_tables`' head, each of at most util._BLOCK_ELEMENTS points or one row of
    one trial, from complex64 copies of the tables; only each row's float32 maximum is kept.  By
    :func:`_blocks`' sizing, a block of more than one trial always fits in one tile: only one-trial
    blocks span several.  Then for each group of blocks whose tables hold at most
    util._BLOCK_ELEMENTS entries (or one block), :func:`_rescan` recomputes in float64, BLAS-free, the
    rows that :func:`_candidates` keeps, so every start and value is that of the float64 map's first
    maximum.  A trial whose float32 levels the certificate cannot bound rescans every row.  A
    one-trial grid that fits one tile reads its fields (1, *grid) per channel from
    ``coarse(region)`` instead, when given, all in float64."""
    trials, num_paths = channels[0][1].shape
    level, n, width = _level(rhos), sides[0], math.prod(sides[1:])  # the head's and the tail's rows
    block = _blocks(trials, max(n * width, n * num_paths, width * num_paths))[0].stop
    rows = _blocks(n, block * width)[0].stop
    if coarse is not None and rows == n:
        values = level(*map(_power, coarse(region))).reshape(1, -1)
        return values.argmax(axis=1), values.max(axis=1), np.full(1, n)
    start, best, rescanned = np.zeros(trials, dtype=int), np.full(trials, -np.inf), np.zeros(trials, dtype=int)
    tile = (block, rows, width)
    field32, powers32 = np.empty(tile, dtype=np.complex64), np.empty((len(channels), *tile), dtype=np.float32)
    group = block * max(1, util._BLOCK_ELEMENTS // (len(channels) * num_paths * (n + width)) // block)
    tops = np.empty((min(group, trials), n), dtype=np.float32)
    a, b, r = _ranking_errors([c for _, c in channels], rhos)
    with np.errstate(over="ignore", invalid="ignore"):  # a float32 overflow sets the threshold -inf
        for g in range(0, trials, group):
            grp = slice(g, min(g + group, trials))
            tables = [_axis_tables(d[grp], c[grp], region, step) for d, c in channels]
            top = tops[:grp.stop - g]
            for t in range(0, grp.stop - g, block):
                blk = slice(t, min(t + block, grp.stop - g))
                singles = [[table[blk].astype(np.complex64) for table in ts] for ts in tables]
                for row in range(0, n, rows):
                    size, count = blk.stop - t, min(rows, n - row)
                    maps = powers32[:, :size, :count]
                    for (head, tail), power in zip(singles, maps):
                        _power(_grid_product(head[:, row:row + count], tail, out=field32[:size, :count]), out=power)
                    # rho * p is monotone: the SNR takes the level of its rows' maxima, below.
                    values = maps[0] if len(maps) == 1 else level(*maps)
                    values.max(axis=-1, out=top[blk, row:row + count])
            if len(channels) == 1:
                level(top)
            candidates = _candidates(top, a[grp], b[grp], r)
            rescanned[grp] = _rescan(tables, candidates, level, start[grp], best[grp])
    return start, best, rescanned


def _rescan(tables, candidates, level, first, peak) -> np.ndarray:
    """Recompute in float64 with :func:`_grid_rows`, from the ``tables`` of T trials, the rows
    ``candidates`` (T, n) of each trial in row order, step k each trial's k-th, and set ``first`` and
    ``peak`` (T,) to a row's first maximum where it is strictly larger; the rows per trial (T,)."""
    count = candidates.sum(axis=1)
    picks = np.argsort(~candidates, axis=1, kind="stable")  # each trial's candidates first, in order
    for k in range(count.max()):
        sub = np.flatnonzero(count > k)
        row, take = picks[sub, k], slice(None) if len(sub) == len(count) else sub
        maps = [_power(_grid_rows(head[sub, row], tail[take])) for head, tail in tables]
        values = level(*maps)
        at = values.argmax(axis=1)
        value = values[np.arange(len(sub)), at]
        new = value > peak[sub]
        first[sub[new]], peak[sub[new]] = (row * values.shape[1] + at)[new], value[new]
    return count


def _refine(channels, level, x, trial, lo, hi, free, step):
    """Compass-search S searches from ``x`` (S, 3) in lockstep, moving ``x``; (values, iterations).

    Search s reads trial ``trial[s]`` of ``channels``, moves along the axes ``free`` within
    ``lo[s]`` and ``hi[s]``, and halves its own step after every failed move until it drops
    below _REFINE_MIN_STEP, in at most _REFINE_ITERS iterations, so it is monotone and
    deterministic.
    """
    # Candidate 2k moves a search up along axis free[k], candidate 2k + 1 down.  An evaluation takes
    # one field_response of every channel's paths, and each channel sums its own span of them.
    dirs, moves = np.concatenate([d for d, _ in channels], axis=1), 2 * np.arange(len(free))
    spans = np.cumsum([0] + [c.shape[1] for _, c in channels])
    paths = lambda f, t: [_path_sum(f[..., i:j], c[t, None]) for (_, c), i, j in zip(channels, spans, spans[1:])]
    objective = lambda r, t: level(*map(_power, paths(field_response(r, dirs[t]), t)))
    fx, taken = np.empty(len(x)), np.zeros(len(x), dtype=int)
    for blk in _blocks(len(x), 2 * len(free) * dirs.shape[1]):
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


def _position(specs, rhos, region: Region, cfg: SearchConfig | None):
    """:func:`_search` as one trial of :func:`_level` of ``rhos`` over the channels ``specs``:
    ``(position, value)``."""
    cfg = cfg or SearchConfig()
    channels = [(s.rx_directions[None], s.coefficients[None]) for s in specs]
    # field_on_grid through this module's binding: perfbench's tracer test expects its span.
    coarse = lambda region: [field_on_grid(s, region, cfg.coarse_step)[0][None] for s in specs]
    x, value, _ = _search(channels, rhos, [region], cfg, coarse)
    return x[0, 0], float(value[0, 0])


def max_snr_position(spec: ChannelSpec, region: Region, cfg: SearchConfig | None = None,
                     rho: float = 1.0):
    """Position maximizing ``rho * |h(r)|^2`` over the region.

    Returns ``(position, snr_linear)``; the value dominates every coarse grid point (a
    constant map's up to rounding) and the position lies inside the region.
    """
    return _position([spec], [_levels(rho, one=True)], region, cfg)


def max_sinr_position(signal: ChannelSpec, interference: ChannelSpec, region: Region,
                      cfg: SearchConfig | None = None, *, rho: float = _REF_LEVEL,
                      rho_interference: float = _REF_LEVEL):
    """Position maximizing ``rho*|h_s(r)|^2 / (rho_interference*|h_i(r)|^2 + 1)`` over the region.

    Returns ``(position, sinr_linear)``; the levels are linear and default
    to 20 dB each.
    """
    rhos = [_levels(rho, one=True), _levels(rho_interference, "rho_interference", one=True)]
    return _position([signal, interference], rhos, region, cfg)


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
    if kind not in _SWEEP_STREAMS:
        raise ValueError(f"kind must be one of {tuple(_SWEEP_STREAMS)}, got {kind!r}")
    trials, num_paths = _count(trials, "trials"), _count(num_paths, "num_paths")
    return _sweep(kind, num_paths, regions, trials, seed, cfg or SearchConfig())[0]


def _sweep(kind: str, num_paths: int, regions, trials: int, seed: int, cfg: SearchConfig):
    """:func:`level_trials` and the work of each search (see :func:`_search`): ``(values, work)``,
    each array (regions, trials)."""
    streams = _SWEEP_STREAMS[kind]
    values, work = np.empty((len(regions), trials)), []
    for blk in _blocks(trials, 3 * num_paths):
        draws = [[_stochastic_paths(num_paths, (seed, t, *s)) for t in range(blk.start, blk.stop)]
                 for s in streams]
        channels = [(np.stack([d[0] for d in ds]), np.stack([d[1] for d in ds])) for ds in draws]
        _, values[:, blk], done = _search(channels, [_REF_LEVEL] * len(streams), regions, cfg)
        work.append(done)
    return values, {name: np.concatenate([w[name] for w in work], axis=1) for name in work[0]}
