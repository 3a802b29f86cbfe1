"""Gridded channel power-gain maps (dB) over planar movement regions."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .channel import ChannelSpec, Region, field_on_grid
from .util import write_csv_atomic

__all__ = ["DB_FLOOR", "GainMap", "evaluate_map", "write_gain_map_csv"]

# Exact nulls are floored so exported maps stay finite.
DB_FLOOR = -120.0


@dataclass(eq=False)
class GainMap:
    """Power gain 10*log10(|h|^2) sampled on a 2D grid.

    ``values[i, j]`` corresponds to ``(coords0[i], coords1[j])`` along the
    region's two free axes; extrema ties are broken by lowest row-major
    index.
    """

    coords0: np.ndarray
    coords1: np.ndarray
    values: np.ndarray
    max_db: float
    min_db: float
    argmax: np.ndarray
    argmin: np.ndarray


def evaluate_map(spec: ChannelSpec, region: Region, step: float) -> GainMap:
    """Evaluate the power-gain map of ``spec`` over a planar region.

    The region must have exactly two free axes; ``step`` is the grid
    resolution in wavelengths.
    """
    if len(region.free_axes) != 2:
        raise ValueError("gain maps need a two-dimensional region (exactly one zero extent)")
    h, coords = field_on_grid(spec, region, step)
    power = np.abs(h) ** 2
    values = np.where(power > 0.0, 10.0 * np.log10(np.where(power > 0.0, power, 1.0)), DB_FLOOR)
    imax, imin = int(np.argmax(values)), int(np.argmin(values))
    return GainMap(
        coords0=coords[0],
        coords1=coords[1],
        values=values,
        max_db=float(values.flat[imax]),
        min_db=float(values.flat[imin]),
        argmax=region.grid_position(coords, imax),
        argmin=region.grid_position(coords, imin),
    )


def write_gain_map_csv(gain_map: GainMap, path: str) -> None:
    """Export as ``x,y,gain_db`` rows in row-major order."""
    n0, n1 = gain_map.values.shape
    # Each coordinate is formatted once and its string repeated.
    xs = map(str, gain_map.coords0.tolist())
    ys = list(map(str, gain_map.coords1.tolist()))
    write_csv_atomic(path, "x,y,gain_db", (
        chain.from_iterable(repeat(x, n1) for x in xs),
        chain.from_iterable(repeat(ys, n0)),
        chain.from_iterable(row.tolist() for row in gain_map.values)))
