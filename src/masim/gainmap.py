"""Gridded channel power-gain maps (dB) over planar movement regions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelSpec, Region, field_on_grid

__all__ = ["DB_FLOOR", "GainMap", "evaluate_map"]

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
