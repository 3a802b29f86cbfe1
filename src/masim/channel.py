"""Far-field multipath channel model over movable-antenna regions.

All positions and region sizes are expressed in wavelength units, so the
carrier wavelength never appears in a phase formula: a path with arrival
direction d contributes ``coeff * exp(+1j * 2*pi * <d, r>)`` at position
``r``.  The ``+j`` sign convention applies identically on the Tx side and
is written here in one place, :func:`field_response`, which ``beams`` also
calls on 1-D element positions and direction cosines.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "UNIT_NORM_TOL",
    "MIN_SPACING",
    "ChannelSpec",
    "Region",
    "grid_count",
    "direction_from_angles",
    "angles_from_direction",
    "field_response",
    "channel_gain",
    "field_on_grid",
    "sample_stochastic_channel",
    "channel_spec_from_records",
]

UNIT_NORM_TOL = 1e-12
# Minimum antenna separation in wavelengths (coupling constraint).
MIN_SPACING = 0.5
# Slack of Region.contains, in wavelengths.
_CONTAINS_TOL = 1e-9


def _points(points, name: str, stacked: bool = False) -> np.ndarray:
    """``points`` as a new float array of finite 3-vectors: shape (K, 3) with K >= 1, or any
    (..., 3) when ``stacked``.  The one home of this rule; anything else raises ValueError."""
    p = np.array(points, dtype=float)
    if p.shape[-1:] != (3,) or not (stacked or (p.ndim == 2 and len(p) >= 1)):
        raise ValueError(f"{name} must have shape {'(..., 3)' if stacked else '(K, 3) with K >= 1'}, "
                         f"got {p.shape}")
    if not np.isfinite(p).all():
        raise ValueError(f"{name} must be finite")
    return p


def _count(n, name: str) -> int:
    """``n`` as an int, which must be an integer >= 1 and not a bool.  The one home of this rule;
    anything else raises ValueError."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {n!r}")
    return int(n)


def _levels(levels, name: str = "rho", positive: bool = False, one: bool = False):
    """``levels`` (a linear SNR level or several, or a noise variance) as a float array, each finite
    and >= 0, or > 0 when ``positive``; with ``one``, a single level, as a float.  The one home of
    this rule; anything else raises ValueError."""
    rho = np.array(levels, dtype=float)
    if one and rho.ndim:
        raise ValueError(f"{name} must be one level, got {levels!r}")
    if not (np.isfinite(rho).all() and ((rho > 0) if positive else (rho >= 0)).all()):
        raise ValueError(f"{name} must be finite and {'positive' if positive else 'nonnegative'}, got {levels}")
    return float(rho) if one else rho


def grid_count(extent: float, step: float) -> int:
    """floor(extent/step) + 1 grid points; the 1e-9 slack keeps an endpoint lost to rounding."""
    if not (0 < step < math.inf and 0 <= extent < math.inf):
        raise ValueError(f"grid step must be finite and > 0, extent finite and >= 0; got {step}, {extent}")
    return int(math.floor(extent / step + 1e-9)) + 1


def direction_from_angles(theta: float, phi: float) -> np.ndarray:
    """Unit direction vector from elevation ``theta`` and azimuth ``phi``.

    Convention: ``(sin(theta)cos(phi), sin(theta)sin(phi), cos(theta))``
    with ``theta`` measured from the +z axis, ``theta in [0, pi]``.
    """
    if not 0.0 <= theta <= math.pi:
        raise ValueError(f"theta must lie in [0, pi], got {theta}")
    st = math.sin(theta)
    return np.array([st * math.cos(phi), st * math.sin(phi), math.cos(theta)])


def angles_from_direction(direction: np.ndarray) -> tuple[float, float]:
    """Inverse of :func:`direction_from_angles`; azimuth returned in [0, 2*pi)."""
    d = np.asarray(direction, dtype=float)
    theta = math.acos(min(1.0, max(-1.0, float(d[2]))))
    phi = math.atan2(float(d[1]), float(d[0])) % (2.0 * math.pi)
    return theta, phi


@dataclass(eq=False)
class ChannelSpec:
    """Field-response channel: ``L`` paths held as arrays.

    ``rx_directions`` (L, 3) unit arrival directions, ``coefficients`` (L,)
    finite complex path coefficients, and optional ``tx_directions`` (L, 3)
    unit departure directions for scenarios with a Tx-side array (present
    for every path or for none).  The arrays are copied and frozen.
    """

    rx_directions: np.ndarray
    coefficients: np.ndarray
    tx_directions: np.ndarray | None = None

    def __post_init__(self):
        rx = _points(self.rx_directions, "rx_directions")
        tx = rx if self.tx_directions is None else np.array(self.tx_directions, dtype=float)
        coeff = np.array(self.coefficients, dtype=complex)
        if coeff.shape != rx.shape[:1] or tx.shape != rx.shape:
            raise ValueError("need one coefficient per path and Tx directions for all paths or none; "
                             f"got shapes {rx.shape}, {coeff.shape}, {tx.shape}")
        error = np.abs(np.linalg.norm(np.concatenate([rx, tx]), axis=1) - 1.0)
        if not (error <= UNIT_NORM_TOL).all():
            raise ValueError(f"directions must have unit norm (max |norm-1|={error.max():.2e})")
        if not np.isfinite(coeff).all():
            raise ValueError("path coefficients must be finite")
        for arr in (rx, tx, coeff):
            arr.flags.writeable = False
        self.rx_directions = rx
        self.coefficients = coeff
        self.tx_directions = None if self.tx_directions is None else tx

    @property
    def has_tx(self) -> bool:
        return self.tx_directions is not None


@dataclass(eq=False)
class Region:
    """Axis-aligned movement region in wavelength units; a zero extent collapses that axis."""

    origin: np.ndarray
    extents: np.ndarray
    # Axes with nonzero extent, in x, y, z order.
    free_axes: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        self.origin = np.array(self.origin, dtype=float)
        self.extents = np.array(self.extents, dtype=float)
        if self.origin.shape != (3,) or self.extents.shape != (3,):
            raise ValueError("origin and extents must be 3-vectors")
        if not np.isfinite(self.origin).all() or not np.isfinite(self.extents).all():
            raise ValueError("region must be finite")
        if (self.extents < 0).any():
            raise ValueError("extents must be nonnegative")
        for arr in (self.origin, self.extents):
            arr.flags.writeable = False
        self.free_axes = tuple(int(a) for a in np.flatnonzero(self.extents > 0))

    @classmethod
    def square(cls, size: float) -> "Region":
        """Square ``size x size`` region in the xy-plane, centered at the origin."""
        return cls(origin=[-size / 2.0, -size / 2.0, 0.0], extents=[size, size, 0.0])

    @property
    def center(self) -> np.ndarray:
        return self.origin + self.extents / 2.0

    @property
    def upper(self) -> np.ndarray:
        return self.origin + self.extents

    def contains(self, r) -> bool:
        r = np.asarray(r, dtype=float)
        return bool((r >= self.origin - _CONTAINS_TOL).all() and (r <= self.upper + _CONTAINS_TOL).all())

    def grid_coords(self, step: float) -> list[np.ndarray]:
        """Per-free-axis grid coordinates, :func:`grid_count` points each."""
        counts = [grid_count(extent, step) for extent in self.extents]  # checks the step of a point too
        return [self.origin[a] + np.arange(counts[a]) * step for a in self.free_axes]

    def grid_position(self, coords, flat_index) -> np.ndarray:
        """Position of the grid point(s) at row-major ``flat_index``.

        ``coords`` lists the coordinates along each free axis (as from
        :meth:`grid_coords`); collapsed axes keep the origin's coordinate.
        An integer index gives a (3,) position, an index array of shape (P,)
        gives (P, 3) positions.
        """
        index = np.unravel_index(flat_index, tuple(len(c) for c in coords)) if coords else ()
        pos = np.tile(self.origin, np.shape(flat_index) + (1,))
        for axis, c, i in zip(self.free_axes, coords, index):
            pos[..., axis] = c[i]
        return pos


def field_response(positions, directions) -> np.ndarray:
    """Field response ``exp(j 2 pi <d_l, r>)`` of every direction at every position.

    ``positions`` (..., D) in wavelengths (D = 3, or 1 on one axis) and ``directions`` (L, D) give
    (..., L); a stack of directions (T, L, D) broadcasts against the positions' leading axes, as in
    a matmul.  The phase adds the products r_a d_a elementwise in axis order, with no BLAS call.
    """
    r, d = np.asarray(positions, dtype=float), np.asarray(directions, dtype=float)
    if r.ndim > 1:
        r, d = r[..., :, None, :], d[..., None, :, :]
    phases = r[..., 0] * d[..., 0]
    for a in range(1, r.shape[-1]):
        phases += r[..., a] * d[..., a]
    return np.exp(2j * np.pi * phases)


def _path_sum(*factors) -> np.ndarray:
    """sum_l of the product of the factors' entries l on their last axis, the other axes broadcast:
    the float64 path sum of every field but ``mimo``'s.  numpy's own einsum loop multiplies left to
    right and adds l = 1, ..., L in order (an order fixed by L for one factor), with no BLAS call or
    fused multiply-add: no entry's bits depend on the BLAS kernel or on the call's other entries."""
    return np.einsum(",".join(["...l"] * len(factors)) + "->...", *factors)


def channel_gain(spec: ChannelSpec, r) -> complex | np.ndarray:
    """Complex channel response ``h(r) = sum_l c_l exp(j 2 pi <d_l, r>)`` at the position(s)
    ``r`` (3,) or (..., 3) in wavelengths: a complex for one position, else an array (...)."""
    r = _points(r, "positions", stacked=True)
    values = _path_sum(field_response(r, spec.rx_directions), spec.coefficients)
    return complex(values) if r.ndim == 1 else values


def field_on_grid(spec: ChannelSpec, region: Region, step: float):
    """Sample the channel response on the region's grid.

    Returns ``(values, coords)`` where ``values`` has one axis per free
    region axis (shape () for a point region) and ``coords`` lists the
    grid coordinates along each free axis.  Uses the separability of the
    plane-wave phase across axes and :func:`_axis_tables`' two tables, so its
    exps scale with the grid perimeter rather than its area; each value is
    within ``len(free_axes) * _SPLIT_ERROR * max(1, M) * sum |c_l|`` of
    :func:`channel_gain`'s, M the grid's largest |coordinate|.
    """
    coords = region.grid_coords(step)
    directions, coefficients = spec.rx_directions[None], spec.coefficients[None]
    if not region.free_axes:
        return _path_sum(_collapsed(directions, coefficients, region)).reshape(()), coords
    head, tail = _axis_tables(directions, coefficients, region, step)
    return _grid_rows(head[0], tail[0]).reshape([len(c) for c in coords]), coords


def _collapsed(directions, coefficients, region: Region) -> np.ndarray:
    """The coefficients times the phase of the region's collapsed coordinates, constant per path: (T, L)."""
    fixed = region.origin.copy()
    fixed[list(region.free_axes)] = 0.0
    return coefficients * field_response(fixed, directions)


def _grid_product(head, tail, out=None) -> np.ndarray:
    """sum_l of the product of one row of each of :func:`_axis_tables`' tables, in any order BLAS
    takes: the complex64 ranking tiles (T, n_1, w), into ``out`` when given."""
    return np.matmul(head, np.swapaxes(tail, -1, -2), out=out)


def _grid_rows(head, tail) -> np.ndarray:
    """The float64 field (..., w) of :func:`_axis_tables`' head rows (..., L) against its tail (..., w, L),
    leading axes broadcast: each entry the :func:`_path_sum` of its own rows, whatever shares the call."""
    return _path_sum(head[..., None, :], tail)


def _axis_tables(directions, coefficients, region: Region, step: float) -> tuple[np.ndarray, np.ndarray]:
    """The head (T, n_1, L) and tail (T, w, L) of the grid of a region with 1 to 3 free axes for T
    stacked channels: the first axis's :func:`_split_response` table times :func:`_collapsed`'s
    coefficients, and the second axis's table, the row-major product of the second and third axes'
    or ones (w = 1).  Every grid field of the package sums a head row times a tail row over l: the
    float64 fields of :func:`_grid_rows`, the complex64 ranking tiles of :func:`_grid_product` and
    the MIMO rows of ``mimo._grid_channel_rows``."""
    first, *rest = [_split_response(region.origin[a], step, len(c), directions[..., [a]])
                    for c, a in zip(region.grid_coords(step), region.free_axes)]
    if len(rest) == 2:
        rest = [(rest[0][:, :, None] * rest[1][:, None]).reshape(len(first), -1, first.shape[-1])]
    head = first * _collapsed(directions, coefficients, region)[:, None]
    return head, rest[0] if rest else np.ones_like(first[:, :1])


# Bound on the error of a _split_response entry relative to field_response's,
# per unit of the grid's largest |coordinate| M (at least 1): its two phases
# and their coordinates carry about a dozen roundings of M, each at most
# 2^-53 M cycles, or 8.4e-15 M radians in all, and the two exps and their
# product a few more of 2^-53.
_SPLIT_ERROR = 1e-14


def _split_response(origin: float, step: float, n: int, directions) -> np.ndarray:
    """:func:`field_response` of the n coordinates ``origin + k * step`` along one axis, from
    about 2 sqrt(n) ``exp`` calls per path instead of n.

    ``directions`` holds that axis's direction components, (..., L, 1); the result is
    (..., n, L).  With k = q B + r and B = ceil(sqrt(n)), each entry is the product of
    ``exp(j 2 pi (origin + q B step) d)`` and ``exp(j 2 pi r step d)``.
    """
    size = math.isqrt(n - 1) + 1
    coords = np.concatenate([origin + np.arange(-(-n // size)) * (size * step), np.arange(size) * step])
    both = field_response(coords[:, None], directions)  # the outer phases, then the size inner ones
    table = both[..., :-size, None, :] * both[..., None, -size:, :]
    return table.reshape(*both.shape[:-2], -1, both.shape[-1])[..., :n, :]


def _sample_hemisphere(rng: np.random.Generator, count: int) -> np.ndarray:
    """Directions uniform in solid angle over the upper (z >= 0) hemisphere."""
    z = rng.random(count)
    phi = rng.uniform(0.0, 2.0 * np.pi, count)
    s = np.sqrt(1.0 - z * z)
    return np.column_stack([s * np.cos(phi), s * np.sin(phi), z])


def _complex_normal(rng: np.random.Generator, count: int, var: float) -> np.ndarray:
    """``count`` i.i.d. circularly symmetric complex Gaussians of variance ``var``."""
    return math.sqrt(var / 2.0) * (rng.standard_normal(count) + 1j * rng.standard_normal(count))


def sample_stochastic_channel(num_paths: int, seed, include_tx: bool = False) -> ChannelSpec:
    """Draw a random multipath channel.

    Coefficients are i.i.d. zero-mean circularly symmetric complex Gaussian
    with per-path variance ``1/num_paths`` (unit total mean power, so the
    expected power gain is 1 at every position).  Directions are uniform in
    solid angle over the upper hemisphere; this distribution is a modeling
    choice recorded here so experiments are self-describing.

    ``seed`` is anything accepted by :func:`numpy.random.default_rng`; pass
    an ``(experiment_seed, trial_index)`` tuple to derive per-trial streams.
    """
    return ChannelSpec(*_stochastic_paths(_count(num_paths, "num_paths"), seed, include_tx))


def _stochastic_paths(num_paths: int, seed, include_tx: bool = False):
    """The unvalidated arrays of :func:`sample_stochastic_channel`, drawn in its order:
    rx directions (L, 3), coefficients (L,) and tx directions (L, 3) or None."""
    rng = np.random.default_rng(seed)
    rx = _sample_hemisphere(rng, num_paths)
    tx = _sample_hemisphere(rng, num_paths) if include_tx else None
    return rx, _complex_normal(rng, num_paths, 1.0 / num_paths), tx


def channel_spec_from_records(records) -> ChannelSpec:
    """Channel from path records ``{theta, phi, coeff_re, coeff_im[, tx_theta, tx_phi]}``.

    Angles are in radians; the Tx angles are optional but, when given, must
    be given for every path.
    """
    rx = [direction_from_angles(rec["theta"], rec["phi"]) for rec in records]
    tx = [direction_from_angles(rec["tx_theta"], rec["tx_phi"])
          for rec in records if "tx_theta" in rec]
    coeff = [complex(rec["coeff_re"], rec["coeff_im"]) for rec in records]
    return ChannelSpec(rx, coeff, tx or None)
