"""MIMO channels from path geometry, capacity metrics, and the greedy
per-antenna Rx placement search.

Entry (m, n) of the channel matrix is
``sum_l c_l * exp(j*2*pi*<rx_dir_l, r_m>) * exp(j*2*pi*<tx_dir_l, t_n>)``,
the natural two-sided extension of the scalar field response.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import MIN_SPACING, ChannelSpec, Region, _axis_tables, _count, _levels, _points, field_response

__all__ = [
    "tx_ula",
    "capacity_identity_cov",
    "WaterfillingResult",
    "capacity_waterfilling",
    "greedy_rx_placement",
]

_SPACING_SLACK = 1e-9
# Stopping rule of the greedy search: a pass gaining under _TOL_BITS, or _MAX_PASSES passes.
_TOL_BITS = 1e-6
_MAX_PASSES = 10
# A lockstep of greedy searches over many channels runs in blocks of channels whose arrays hold at
# most this many elements, or one channel's where that is larger.
_LOCKSTEP_ELEMENTS = 2 ** 20


def _near(points: np.ndarray, others: np.ndarray) -> np.ndarray:
    """(K, P): whether point p of ``points`` (P, 3) lies under MIN_SPACING from point k of ``others``."""
    gaps = np.linalg.norm(points[None, :, :] - others[:, None, :], axis=2)
    return gaps < MIN_SPACING - _SPACING_SLACK


def _grid_near(shape: tuple[int, ...], step: float) -> np.ndarray:
    """(*shape, *shape) view: entry g is ``_near`` of grid point g against a grid of ``shape`` and ``step``."""
    squares = sum(np.meshgrid(*((np.arange(1 - n, n) * step) ** 2 for n in shape), indexing="ij", sparse=True))
    table = np.sqrt(squares) < MIN_SPACING - _SPACING_SLACK  # on the offsets 1-n ... n-1 of each axis
    # Window n-1-g of the table holds the offsets c - g of every grid point c; flipped, it is entry g.
    return np.flip(np.lib.stride_tricks.sliding_window_view(table, shape), tuple(range(len(shape))))


def tx_ula(num_elements: int) -> np.ndarray:
    """Tx positions (N, 3): a ULA of ``num_elements`` (an integer >= 1) along x at the origin,
    MIN_SPACING apart."""
    n = _count(num_elements, "num_elements")
    t = np.zeros((n, 3))
    t[:, 0] = np.arange(n) * MIN_SPACING
    return t


def _channel_rows(spec: ChannelSpec, t: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Channel-matrix rows (M, N) of the off-grid Rx positions ``r`` (M, 3) for the Tx positions ``t`` (N, 3)."""
    rx_side = field_response(r, spec.rx_directions) * spec.coefficients
    return rx_side @ field_response(t, spec.tx_directions).T


def _grid_channel_rows(spec: ChannelSpec, t: np.ndarray, region: Region, step: float) -> np.ndarray:
    """:func:`_channel_rows` (C, N) of the region's C grid points, in ``grid_position``'s row-major order:
    the Rx side of point (i, j) is the product of head row i and tail row j of ``channel._axis_tables``,
    whose paths' errors sum to at most len(free_axes) * _SPLIT_ERROR * max(1, M) * sum |c_l|."""
    head, tail = (tb[0] for tb in _axis_tables(spec.rx_directions[None], spec.coefficients[None], region, step))
    return (head[:, None] * tail).reshape(-1, head.shape[-1]) @ field_response(t, spec.tx_directions).T


def _capacity_batch(h_batch: np.ndarray, rho: float, num_tx: int) -> np.ndarray:
    """log2 det(I + rho/N * H H^H) for a (..., M, N) batch, as sum_k log2(1 + rho/N * s_k^2) over the
    singular values s_k of H, which stays exact at high SNR for every rank of H, unlike a gram's log-det."""
    s = np.linalg.svd(h_batch, compute_uv=False)
    return np.log1p((rho / num_tx) * s ** 2).sum(axis=-1) / math.log(2.0)


def _row_replacement_capacities(h: np.ndarray, m: int, rows: np.ndarray, a: np.ndarray,
                                spans: list[tuple[int, slice]]) -> np.ndarray:
    """(S, C): log2 det(I + a_s H'^H H') for each H' = ``h[s]`` with row ``m`` replaced by a
    candidate row r of its channel, for a stack of S searches: ``h`` (S, M, N), ``a`` (S,), and
    ``rows`` (K, C, 2N) the rows ``[Re r | Im r]`` of K channels, each paired in ``spans`` with the
    slice of the searches it holds.  Scored as det(I + a H_^H H_) (1 + a q), H_ = ``h[s]`` without
    row m and q = r Q r^H = sum_k w_k |r v_k|^2, with v_k the right singular vectors of H_ and
    w_k = 1/(1 + a s_k^2), 1 on the null space.  An inverse, a solve or a gram of the rows would
    lose the null space once a s^2 swamps 1.  q is real arithmetic: per search one (C, 2N) product
    with the real block [[Re V, Im V], [-Im V, Re V]] of V = [v_1 ... v_N], squared in place and
    summed against [w | w].  Its shape, so its bits, do not depend on how many searches are stacked.
    """
    n = h.shape[-1]
    _, s, vh = np.linalg.svd(np.delete(h, m, axis=1))
    gains = a[:, None] * s ** 2
    weights = np.ones((len(h), 2, n))  # [w | w]
    weights[:, :, :s.shape[-1]] = (1.0 / (1.0 + gains))[:, None]
    re, im = np.swapaxes(vh.real, 1, 2), np.swapaxes(vh.imag, 1, 2)  # V = re - j im
    blocks = np.empty((len(h), 2 * n, 2 * n))
    blocks[:, :n, :n] = blocks[:, n:, n:] = re
    blocks[:, :n, n:], blocks[:, n:, :n] = -im, im
    quad = np.empty((len(h), rows.shape[1], 1))
    prod = np.empty((max(span.stop - span.start for _, span in spans),) + rows.shape[1:])
    for k, span in spans:
        p = np.matmul(rows[k], blocks[span], out=prod[:span.stop - span.start])
        np.square(p, out=p)
        np.matmul(p, weights[span].reshape(-1, 2 * n, 1), out=quad[span])
    caps = quad[:, :, 0]  # the capacities, computed in place
    caps *= a[:, None]
    np.log1p(caps, out=caps)
    caps += np.log1p(gains).sum(axis=1)[:, None]
    caps /= math.log(2.0)
    return caps


def _matrix(h_matrix) -> np.ndarray:
    """``h_matrix`` as a complex matrix of finite entries with at least one column, else ValueError."""
    h = np.asarray(h_matrix, dtype=complex)
    if not (h.ndim == 2 and h.shape[1] >= 1 and np.isfinite(h).all()):
        raise ValueError(f"H must be a finite matrix with at least one column, got shape {h.shape}")
    return h


def capacity_identity_cov(h_matrix, rho: float) -> float:
    """Capacity with an identity transmit covariance scaled by 1/N.

    ``C = log2 det(I_M + (rho/N) H H^H)`` in bits/s/Hz, where ``rho`` is the
    total transmit SNR and ``N`` the number of transmit antennas, the
    column count of H.
    """
    rho = _levels(rho, one=True)
    h = _matrix(h_matrix)
    return float(_capacity_batch(h, rho, h.shape[1]))


@dataclass(eq=False)
class WaterfillingResult:
    """Water-filling capacity with the per-eigenchannel power allocation.

    ``allocation[k]`` is the power on the k-th strongest eigenchannel
    (singular values sorted descending, zeros included); the water level
    satisfies ``allocation[k] + 1/gain[k] == water_level`` on active
    channels.
    """

    capacity: float
    allocation: np.ndarray
    water_level: float
    singular_values: np.ndarray


def capacity_waterfilling(h_matrix, rho_total: float) -> WaterfillingResult:
    """Optimal power allocation over the eigenchannels of H.

    Solves max sum log2(1 + p_k s_k^2) subject to sum p_k = rho_total,
    p_k >= 0 by the active-set water-filling rule.
    """
    rho_total = _levels(rho_total, "rho_total", positive=True, one=True)
    s = np.linalg.svd(_matrix(h_matrix), compute_uv=False)
    gains = s ** 2
    active = gains > gains.max() * 1e-15 if gains.size and gains.max() > 0 else np.zeros_like(gains, bool)
    if not active.any():
        raise ValueError("channel matrix has rank zero")
    g = gains[active]  # sorted descending by svd convention
    inv = 1.0 / g
    # Largest k such that the water level mu_k covers channel k.
    k_active = g.size
    for k in range(1, g.size + 1):
        mu = (rho_total + inv[:k].sum()) / k
        if mu < inv[k - 1]:
            k_active = k - 1
            break
    mu = (rho_total + inv[:k_active].sum()) / k_active
    allocation = np.zeros_like(gains)
    allocation[:k_active] = mu - inv[:k_active]
    capacity = float(np.log1p(allocation * gains).sum() / math.log(2.0))
    return WaterfillingResult(capacity=capacity, allocation=allocation,
                              water_level=float(mu), singular_values=s)


def _initial_ula_placement(region: Region, num_rx: int) -> np.ndarray:
    if not region.free_axes:
        raise ValueError("region has no free axis to host the antennas")
    axis = max(region.free_axes, key=lambda a: region.extents[a])
    if (num_rx - 1) * MIN_SPACING > region.extents[axis] + 1e-12:
        raise ValueError(f"region too small to host {num_rx} antennas at {MIN_SPACING} wavelength spacing")
    positions = np.tile(region.center, (num_rx, 1))
    positions[:, axis] += (np.arange(num_rx) - (num_rx - 1) / 2.0) * MIN_SPACING
    return positions


def _greedy(specs: list[ChannelSpec], region: Region, num_rx: int, t: np.ndarray, rho: np.ndarray,
            step: float):
    """The greedy searches of :func:`greedy_rx_placement` on K = len(``specs``) channels, each at
    every level of ``rho`` (S,), in one lockstep; the caller checks the arguments.  Each channel's
    candidate rows come once from its phase tables (:func:`_grid_channel_rows`) and are held once;
    each antenna step scores every running search in one batch, and a search drops out after the
    pass that ends it.  Returns the placements (K, S, num_rx, 3), the FPA and final capacities
    (K, S) and, per channel and level, the list of capacities after every pass.
    """
    n, levels = len(t), rho.size
    start = _initial_ula_placement(region, num_rx)
    coords = region.grid_coords(step)
    shape = tuple(c.size for c in coords)
    candidates = region.grid_position(coords, np.arange(math.prod(shape)))
    rows = np.empty((len(specs), len(candidates), 2 * n))
    for k, spec in enumerate(specs):
        r = _grid_channel_rows(spec, t, region, step)
        rows[k, :, :n], rows[k, :, n:] = r.real, r.imag
    # The searches, channel by channel and level by level within a channel.
    h = np.repeat([_channel_rows(spec, t, start) for spec in specs], levels, axis=0)
    rho = np.tile(rho, len(specs))
    a = rho / n
    initial = _capacity_batch(h, rho[:, None], n)
    capacity = initial.copy()
    positions = np.repeat(start[None], len(h), axis=0)
    near = np.repeat(_near(candidates, start)[None], len(h), axis=0)  # [s, k, c]: c too near antenna k
    grid_near = _grid_near(shape, step)

    live = np.arange(len(h))  # the running searches, whose state the arrays above hold
    final_positions, final_h = np.empty_like(positions), np.empty_like(h)
    pass_capacities = [[] for _ in live]
    for _ in range(_MAX_PASSES):
        channel = live // levels
        bounds = np.searchsorted(channel, np.arange(len(specs) + 1))
        spans = [(k, slice(lo, hi)) for k, (lo, hi) in enumerate(zip(bounds, bounds[1:])) if hi > lo]
        before = capacity.copy()
        for m in range(num_rx):
            caps = _row_replacement_capacities(h, m, rows, a, spans)
            caps[np.delete(near, m, axis=1).any(axis=1)] = -np.inf
            best = caps.argmax(axis=1)
            gain = caps[np.arange(live.size), best]
            up = np.flatnonzero(gain > capacity)
            capacity[up] = gain[up]
            positions[up, m] = candidates[best[up]]
            picked = rows[channel[up], best[up]]
            h.real[up, m], h.imag[up, m] = picked[:, :n], picked[:, n:]
            near[up, m] = grid_near[np.unravel_index(best[up], shape)].reshape(-1, len(candidates))
        for i, c in zip(live, capacity):
            pass_capacities[i].append(float(c))
        going = ~(capacity - before < _TOL_BITS)
        final_positions[live], final_h[live] = positions, h
        live, h, a, capacity, positions, near = (
            x[going] for x in (live, h, a, capacity, positions, near))
        if not live.size:
            break
    final = _capacity_batch(final_h, rho[:, None], n)
    by_channel = lambda x: x.reshape((len(specs), levels) + x.shape[1:])
    return (by_channel(final_positions), by_channel(initial), by_channel(final),
            [pass_capacities[k * levels:(k + 1) * levels] for k in range(len(specs))])


def greedy_rx_placement(spec: ChannelSpec, region: Region, num_rx: int, tx_positions, rhos,
                        step: float = 0.1):
    """Greedy capacity-maximizing placement of the Rx antennas on one channel, at every total SNR
    of ``rhos``.

    Each search starts from a half-wavelength ULA at the region's centre (a valid fixed-antenna
    placement, whose capacity is the FPA baseline) and moves each antenna in index order to the
    best candidate grid point with the others fixed, skipping candidates under MIN_SPACING from
    another antenna.  Passes repeat until one gains under ``_TOL_BITS`` or ``_MAX_PASSES`` are
    done, so no capacity falls below its baseline.  This is the one-channel call of the lockstep
    that the mimo runner runs on blocks of channels, in which each search stops under its own rule,
    so each result is bit for bit that of its search alone.  ``num_rx`` must be an integer >= 1 and
    ``rhos`` a sequence of at least one level; else ValueError.  Returns, per level, the placement
    (S, num_rx, 3), the FPA and final capacities (S,) and the list of capacities after every pass.
    """
    num_rx = _count(num_rx, "num_rx")
    rho = _levels(rhos)
    if rho.ndim != 1 or rho.size < 1:
        raise ValueError(f"rhos must be a sequence of at least one level, got {rhos!r}")
    t = _points(tx_positions, "tx positions")
    if np.triu(_near(t, t), 1).any():
        raise ValueError(f"tx antenna positions must be at least {MIN_SPACING} wavelengths apart")
    if not spec.has_tx:
        raise ValueError("every path needs a departure direction for MIMO channels")
    positions, initial, capacity, passes = _greedy([spec], region, num_rx, t, rho, step)
    return positions[0], initial[0], capacity[0], passes[0]
