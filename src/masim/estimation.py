"""Angle-domain field-response estimation from positional measurements.

The channel response sampled at chosen MA positions is a linear combination
of angle-domain atoms exp(j*2*pi*<dir_g, r_k>), so path angles and
coefficients can be recovered by sparse regression (orthogonal matching
pursuit here) with a measurement matrix set by the visited positions.  A
dictionary is a (G, 3) array of candidate arrival directions.  A
separate least-squares refit supports the two-time-scale strategy where
angles are reused and only coefficients are re-estimated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (ChannelSpec, Region, _complex_normal, _count, _levels, _points, channel_gain,
                      field_on_grid, field_response)

__all__ = [
    "MeasurementSet",
    "cosine_grid_dictionary",
    "FriEstimate",
    "plan_measurement_positions",
    "simulate_measurements",
    "omp_estimate",
    "refit_coefficients",
    "reconstruct_and_score",
]

# OMP stops early once the residual norm falls to this.
_EPS_RESIDUAL = 1e-12


@dataclass(eq=False)
class MeasurementSet:
    """Channel samples y_k = h(r_k) + n_k at K probe positions."""

    positions: np.ndarray
    samples: np.ndarray

    def __post_init__(self):
        p = _points(self.positions, "positions")
        y = np.asarray(self.samples, dtype=complex)
        if y.shape != (p.shape[0],):
            raise ValueError("need one complex sample per position")
        if not np.isfinite(y).all():
            raise ValueError("samples must be finite")
        self.positions, self.samples = p, y

    @property
    def count(self) -> int:
        return self.positions.shape[0]


def cosine_grid_dictionary(grid_size: int = 64) -> np.ndarray:
    """Upper-hemisphere dictionary on a grid over the 2D cosine disk.

    ``grid_size`` points per cosine axis; points outside the unit disk are
    dropped, the rest lifted to unit vectors (u, v, sqrt(1-u^2-v^2)) and
    returned as a (G, 3) array.
    """
    if _count(grid_size, "grid_size") < 3:
        raise ValueError(f"grid_size must be at least 3 (a smaller grid has no atom in the disk), got {grid_size}")
    u = np.linspace(-1.0, 1.0, grid_size)
    uu, vv = np.meshgrid(u, u, indexing="ij")
    uu, vv = uu.ravel(), vv.ravel()
    keep = uu ** 2 + vv ** 2 <= 1.0 + 1e-12
    uu, vv = uu[keep], vv[keep]
    ww = np.sqrt(np.maximum(0.0, 1.0 - uu ** 2 - vv ** 2))
    return _points(np.column_stack([uu, vv, ww]), "dictionary")


@dataclass(eq=False)
class FriEstimate:
    """Recovered directions (dictionary indices) and complex coefficients."""

    indices: tuple[int, ...]
    directions: np.ndarray
    coefficients: np.ndarray
    residual_norm: float

    def to_channel_spec(self) -> ChannelSpec | None:
        """Equivalent channel spec, or None for an empty estimate."""
        if not self.indices:
            return None
        return ChannelSpec(self.directions, self.coefficients)


def _most_square_lattice(count: int) -> tuple[int, int]:
    """Factor count = nx * ny with nx the largest divisor <= sqrt(count)."""
    nx = max(d for d in range(1, math.isqrt(count) + 1) if count % d == 0)
    return nx, count // nx


def plan_measurement_positions(region: Region, num_positions: int,
                               strategy: str = "uniform-random", seed=0) -> np.ndarray:
    """Probe positions inside the region.

    ``uniform-random`` draws i.i.d. uniform points (deterministic per
    seed); ``grid`` lays out the most-square lattice whose corner points
    include the region corners.  Grid counts that cannot be hosted on the
    region's free axes are rejected.
    """
    num_positions = _count(num_positions, "num_positions")
    axes = region.free_axes
    positions = np.tile(region.origin, (num_positions, 1))
    if strategy == "uniform-random":
        rng = np.random.default_rng(seed)
        for a in axes:
            positions[:, a] = region.origin[a] + rng.random(num_positions) * region.extents[a]
        return positions
    if strategy != "grid":
        raise ValueError("strategy must be 'uniform-random' or 'grid'")
    if len(axes) == 0:
        if num_positions != 1:
            raise ValueError("a point region can host only one grid position")
        return positions
    if len(axes) > 2:
        raise ValueError("grid strategy supports regions with at most two free axes")
    counts = (num_positions,) if len(axes) == 1 else _most_square_lattice(num_positions)
    lines = [np.linspace(region.origin[a], region.upper[a], n) if n > 1 else region.center[a:a + 1]
             for a, n in zip(axes, counts)]
    return region.grid_position(lines, np.arange(num_positions))


def simulate_measurements(spec: ChannelSpec, positions, noise_var: float, seed=0) -> MeasurementSet:
    """Synthetic sounding: y_k = h(r_k) + CSCG noise of the given variance, one level."""
    noise_var = _levels(noise_var, "noise_var", one=True)
    p = np.asarray(positions, dtype=float)
    clean = np.asarray(channel_gain(spec, p))
    if noise_var > 0:
        clean = clean + _complex_normal(np.random.default_rng(seed), p.shape[0], noise_var)
    return MeasurementSet(positions=p, samples=clean)


def omp_estimate(measurements: MeasurementSet, dictionary, max_paths: int) -> FriEstimate:
    """Orthogonal matching pursuit over a (G, 3) dictionary of directions.

    Greedily selects the atom most correlated with the residual and
    least-squares refits the coefficients on the selected support each
    iteration; stops after ``max_paths`` atoms or when the residual norm
    drops to ``_EPS_RESIDUAL``.  Each atom is selected at most once.
    """
    dictionary = _points(dictionary, "dictionary")
    if _count(max_paths, "max_paths") > len(dictionary):
        raise ValueError(f"max_paths must lie in [1, {len(dictionary)}] (the atom count), got {max_paths}")
    if measurements.count < max_paths:
        raise ValueError("need at least as many measurements as paths sought")
    a = field_response(measurements.positions, dictionary)
    y = measurements.samples
    support: list[int] = []
    coeffs = np.zeros(0, dtype=complex)
    residual = y.copy()
    for _ in range(max_paths):
        if np.linalg.norm(residual) <= _EPS_RESIDUAL:
            break
        corr = np.abs(np.conj(a.T) @ residual)
        corr[support] = -1.0
        support.append(int(np.argmax(corr)))
        sub = a[:, support]
        coeffs, *_ = np.linalg.lstsq(sub, y, rcond=None)
        residual = y - sub @ coeffs
    return FriEstimate(
        indices=tuple(support),
        directions=dictionary[support],
        coefficients=np.asarray(coeffs, dtype=complex),
        residual_norm=float(np.linalg.norm(residual)),
    )


def refit_coefficients(measurements: MeasurementSet, directions) -> np.ndarray:
    """Least-squares path coefficients for known arrival directions.

    Supports the two-time-scale strategy: directions estimated rarely,
    coefficients refit from fresh measurements.  The residual is orthogonal
    to the span of the atoms; a rank-deficient atom matrix is rejected with
    a conditioning diagnostic.
    """
    d = _points(directions, "directions")
    if measurements.count < d.shape[0]:
        raise ValueError("need at least as many measurements as directions")
    a = field_response(measurements.positions, d)
    coeffs, _, rank, _ = np.linalg.lstsq(a, measurements.samples, rcond=None)
    if rank < d.shape[0]:
        raise ValueError(
            f"atom matrix is rank deficient (rank {rank} < {d.shape[0]}, "
            f"condition number {np.linalg.cond(a):.3e})")
    return coeffs


def reconstruct_and_score(estimate: FriEstimate, truth: ChannelSpec,
                          region: Region, step: float) -> float:
    """Normalized MSE of the reconstructed field against the true field.

    NMSE = sum |h_hat - h|^2 / sum |h|^2 over the region grid; an empty
    estimate scores exactly 1.
    """
    h_true, _ = field_on_grid(truth, region, step)
    energy = float(np.sum(np.abs(h_true) ** 2))
    if energy == 0.0:
        raise ValueError("true field has zero energy on the grid")
    spec_hat = estimate.to_channel_spec()
    if spec_hat is None:
        return 1.0
    h_hat, _ = field_on_grid(spec_hat, region, step)
    return float(np.sum(np.abs(h_hat - h_true) ** 2) / energy)
