"""Canonical demo channels used by the docs, sample configs, and tests.

The two-path channel produces the classic interference stripes over a
4x4-wavelength region (constructive peaks at 6.02 dB, nulls tens of dB
down); the four-path channel shows the denser fading structure of richer
multipath.  Angles and seeds are pinned so every artifact derived from
them is reproducible.
"""

from __future__ import annotations

import numpy as np

from .channel import ChannelSpec, _sample_hemisphere, direction_from_angles

__all__ = [
    "TWO_PATH_ANGLES",
    "FOUR_PATH_SEED",
    "two_path_spec",
    "four_path_spec",
]

# (theta, phi) in radians, upper hemisphere.
TWO_PATH_ANGLES = ((1.1, 0.7), (0.5, 3.9))
FOUR_PATH_SEED = 1


def two_path_spec() -> ChannelSpec:
    """Two unit-power paths with distinct arrival angles."""
    rx = [direction_from_angles(theta, phi) for theta, phi in TWO_PATH_ANGLES]
    return ChannelSpec(rx, np.ones(len(rx)))


def four_path_spec() -> ChannelSpec:
    """Four unit-power paths with random arrival angles drawn from FOUR_PATH_SEED."""
    rng = np.random.default_rng(FOUR_PATH_SEED)
    return ChannelSpec(_sample_hemisphere(rng, 4), np.ones(4))
