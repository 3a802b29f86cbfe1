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

from .channel import MIN_SPACING, ChannelSpec, Region, _points, field_response
from .util import write_csv_atomic

__all__ = [
    "RxPlacement",
    "tx_ula",
    "build_channel_matrix",
    "capacity_identity_cov",
    "WaterfillingResult",
    "capacity_waterfilling",
    "SequentialSearchResult",
    "sequential_position_search",
    "write_capacity_csv",
]

_SPACING_SLACK = 1e-9
# Stopping rule of the greedy search: a pass gaining under _TOL_BITS, or _MAX_PASSES passes.
_TOL_BITS = 1e-6
_MAX_PASSES = 10


def _near(points: np.ndarray, others: np.ndarray) -> np.ndarray:
    """(K, P): whether point p of ``points`` (P, 3) lies under MIN_SPACING from point k of ``others``."""
    gaps = np.linalg.norm(points[None, :, :] - others[:, None, :], axis=2)
    return gaps < MIN_SPACING - _SPACING_SLACK


def _antenna_positions(positions, side: str) -> np.ndarray:
    """``positions`` as a float (K, 3) array of finite points pairwise MIN_SPACING apart."""
    p = _points(positions, f"{side} positions")
    if np.triu(_near(p, p), 1).any():
        raise ValueError(f"{side} antenna positions must be at least {MIN_SPACING} wavelengths apart")
    return p


@dataclass(eq=False)
class RxPlacement:
    """Rx antenna positions with the pairwise half-wavelength constraint."""

    positions: np.ndarray
    region: Region | None = None

    def __post_init__(self):
        p = _antenna_positions(self.positions, "rx")
        if self.region is not None and not all(self.region.contains(r) for r in p):
            raise ValueError("all positions must lie inside the region")
        p.flags.writeable = False
        self.positions = p


def tx_ula(num_elements: int, spacing: float = 0.5) -> np.ndarray:
    """Tx positions (N, 3): uniform linear array along x at the origin."""
    if num_elements < 1:
        raise ValueError("need at least one element")
    t = np.zeros((num_elements, 3))
    t[:, 0] = np.arange(num_elements) * spacing
    return t


def _channel_rows(spec: ChannelSpec, t: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Channel-matrix rows (M, N) of the Rx positions ``r`` (M, 3) for the Tx positions ``t`` (N, 3)."""
    rx_side = field_response(r, spec.rx_directions) * spec.coefficients
    return rx_side @ field_response(t, spec.tx_directions).T


def build_channel_matrix(spec: ChannelSpec, tx_positions, rx) -> np.ndarray:
    """M x N channel matrix for the given Tx/Rx antenna positions."""
    if not spec.has_tx:
        raise ValueError("every path needs a departure direction for MIMO channels")
    t = _antenna_positions(tx_positions, "tx")
    if not isinstance(rx, RxPlacement):
        rx = RxPlacement(rx)
    return _channel_rows(spec, t, rx.positions)


def _capacity_batch(h_batch: np.ndarray, rho: float, num_tx: int) -> np.ndarray:
    """log2 det(I + rho/N * H H^H) for a (..., M, N) batch, as sum_k log2(1 + rho/N * s_k^2) over the
    singular values s_k of H, which stays exact at high SNR for every rank of H, unlike a gram's log-det."""
    s = np.linalg.svd(h_batch, compute_uv=False)
    return np.log1p((rho / num_tx) * s ** 2).sum(axis=-1) / math.log(2.0)


def _row_replacement_capacities(h: np.ndarray, m: int, rows: np.ndarray, a: np.ndarray) -> np.ndarray:
    """(S, C): log2 det(I + a_s H'^H H') for each H' = ``h[s]`` with row ``m`` replaced by a row r of
    ``rows``, for a stack of S searches: ``h`` (S, M, N), ``rows`` (C, N), ``a`` (S,).  Scored as
    det(I + a H_^H H_) (1 + a r Q r^H), H_ = ``h[s]`` without row m, Q = (I + a H_^H H_)^-1 applied
    through the full SVD of H_.  An inverse or solve would lose the null space once a s^2 swamps 1.
    """
    _, s, vh = np.linalg.svd(np.delete(h, m, axis=1))
    gains = a[:, None] * s ** 2
    null = np.zeros((len(h), vh.shape[-1] - s.shape[-1]))
    weights = 1.0 / (1.0 + np.concatenate((gains, null), axis=1))  # 1 on the null space
    quad = (np.abs(rows @ np.conj(np.swapaxes(vh, 1, 2))) ** 2 @ weights[:, :, None])[..., 0]
    return (np.log1p(gains).sum(axis=1)[:, None] + np.log1p(a[:, None] * quad)) / math.log(2.0)


def capacity_identity_cov(h_matrix, rho: float, num_tx: int | None = None) -> float:
    """Capacity with an identity transmit covariance scaled by 1/N.

    ``C = log2 det(I_M + (rho/N) H H^H)`` in bits/s/Hz, where ``rho`` is the
    total transmit SNR and ``N`` the number of transmit antennas (defaults
    to the column count of H).
    """
    if not rho >= 0:
        raise ValueError(f"rho must be nonnegative, got {rho}")
    h = np.asarray(h_matrix, dtype=complex)
    if h.ndim != 2:
        raise ValueError("H must be a matrix")
    n = h.shape[1] if num_tx is None else int(num_tx)
    if n < 1:
        raise ValueError(f"num_tx must be at least 1, got {n}")
    return float(_capacity_batch(h, rho, n))


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
    h = np.asarray(h_matrix, dtype=complex)
    if not (rho_total > 0 and h.ndim == 2 and np.isfinite(h).all()):
        raise ValueError(f"need rho_total > 0 and a finite matrix H, got {rho_total} and shape {h.shape}")
    s = np.linalg.svd(h, compute_uv=False)
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


@dataclass(eq=False)
class SequentialSearchResult:
    """Outcome of the greedy per-antenna placement search."""

    placement: RxPlacement
    capacity: float
    initial_capacity: float
    pass_capacities: list[float]


def _initial_ula_placement(region: Region, num_rx: int) -> np.ndarray:
    axes = region.free_axes
    if not axes:
        raise ValueError("region has no free axis to host the antennas")
    axis = max(axes, key=lambda a: region.extents[a])
    needed = (num_rx - 1) * MIN_SPACING
    if needed > region.extents[axis] + 1e-12:
        raise ValueError(
            f"region too small to host {num_rx} antennas at "
            f"{MIN_SPACING} wavelength spacing")
    positions = np.tile(region.center, (num_rx, 1))
    offsets = (np.arange(num_rx) - (num_rx - 1) / 2.0) * MIN_SPACING
    positions[:, axis] = region.center[axis] + offsets
    return positions


def _searches(spec: ChannelSpec, region: Region, num_rx: int, tx_positions, rhos, step: float):
    """The greedy search of :func:`sequential_position_search` on one channel at every total SNR
    of ``rhos``, all advancing in lockstep.

    The channel's candidate rows are built once and serve every search; each antenna step scores
    all running searches in one batch, and a search drops out under its own stopping rule, so each
    result equals that of a search run alone.  Returns, per entry of ``rhos``, the placement
    (S, num_rx, 3), the FPA and final capacities (S,) and the list of capacities after every pass.
    """
    t = _antenna_positions(tx_positions, "tx")
    rho = np.array(rhos, dtype=float).reshape(-1, 1)
    if not (np.isfinite(rho).all() and (rho >= 0).all()):
        raise ValueError(f"rho must be finite and nonnegative, got {rhos}")
    if not spec.has_tx:
        raise ValueError("every path needs a departure direction for MIMO channels")
    start = _initial_ula_placement(region, num_rx)
    coords = region.grid_coords(step)
    candidates = region.grid_position(coords, np.arange(math.prod(c.size for c in coords)))
    rows = _channel_rows(spec, t, candidates)
    h = np.repeat(_channel_rows(spec, t, start)[None], rho.size, axis=0)
    a = rho[:, 0] / len(t)
    initial = _capacity_batch(h, rho, len(t))
    capacity = initial.copy()
    positions = np.repeat(start[None], rho.size, axis=0)
    near = np.repeat(_near(candidates, start)[None], rho.size, axis=0)  # [s, k, c]: c too near antenna k

    live = np.arange(rho.size)  # the running searches, whose state the arrays above hold
    final_positions, final_h = np.empty_like(positions), np.empty_like(h)
    pass_capacities = [[] for _ in live]
    for _ in range(_MAX_PASSES):
        before = capacity.copy()
        for m in range(num_rx):
            caps = _row_replacement_capacities(h, m, rows, a)
            caps[np.delete(near, m, axis=1).any(axis=1)] = -np.inf
            best = caps.argmax(axis=1)
            gain = caps[np.arange(live.size), best]
            up = np.flatnonzero(gain > capacity)
            capacity[up] = gain[up]
            positions[up, m] = candidates[best[up]]
            h[up, m] = rows[best[up]]
            near[up, m] = _near(candidates, positions[up, m])
        for i, c in zip(live, capacity):
            pass_capacities[i].append(float(c))
        going = ~(capacity - before < _TOL_BITS)
        final_positions[live], final_h[live] = positions, h
        live, h, a, capacity, positions, near = (
            x[going] for x in (live, h, a, capacity, positions, near))
        if not live.size:
            break
    return final_positions, initial, _capacity_batch(final_h, rho, len(t)), pass_capacities


def sequential_position_search(spec: ChannelSpec, region: Region, num_rx: int,
                               tx_positions, rho: float, step: float = 0.1) -> SequentialSearchResult:
    """Greedy capacity-maximizing placement of the Rx antennas.

    Starting from a half-wavelength ULA inside the region (a valid
    fixed-antenna placement, whose capacity is the FPA baseline), each
    antenna in index order is moved to the best candidate grid point with
    the others fixed; candidates violating the pairwise spacing are
    skipped.  Passes repeat until the per-pass improvement drops below
    ``_TOL_BITS`` or ``_MAX_PASSES`` passes are done, so the returned capacity
    never falls below the baseline.  This is :func:`_searches` at one SNR.
    """
    positions, initial, capacity, passes = _searches(spec, region, num_rx, tx_positions, [rho], step)
    return SequentialSearchResult(
        placement=RxPlacement(positions[0], region),
        capacity=float(capacity[0]),
        initial_capacity=float(initial[0]),
        pass_capacities=passes[0],
    )


def write_capacity_csv(rows, path: str) -> None:
    """Export rows ``(snr_db, L, seed, capacity_fpa, capacity_ma)``."""
    rows = [(float(s), int(l), int(k), float(cf), float(cm)) for s, l, k, cf, cm in rows]
    write_csv_atomic(path, "snr_db,L,seed,capacity_fpa,capacity_ma", zip(*rows))
