"""Linear arrays with repositionable elements: steering vectors, array gain,
multi-beam and null-steering weight synthesis, and uniform-spacing search.

Directions are parameterized in the cosine domain u = cos(angle) in [-1, 1];
element n at position x_n (wavelengths) responds with exp(j*2*pi*x_n*u), the
:func:`channel.field_response` of the 1-D coordinates x_n and u.
Array gain is |w^H a(u)|^2 / ||w||^2, bounded by the element count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import MIN_SPACING, _count, field_response, grid_count

__all__ = [
    "MIN_SPACING",
    "uniform_layout",
    "steering_vector",
    "array_gain",
    "TwoBeamResult",
    "two_beam_weights",
    "null_steer_weights",
    "SpacingSearchResult",
    "optimize_uniform_spacing",
]


def uniform_layout(num_elements: int, spacing: float) -> np.ndarray:
    """Element positions 0, d, 2d, ... for a uniform linear array of ``num_elements`` (an integer >= 1)."""
    n = _count(num_elements, "num_elements")
    if not MIN_SPACING <= spacing < np.inf:
        raise ValueError(f"spacing must be finite and at least {MIN_SPACING} wavelengths, got {spacing}")
    return np.arange(n) * float(spacing)


def _check_layout(layout) -> np.ndarray:
    x = np.asarray(layout, dtype=float)
    if x.ndim != 1 or x.size < 1 or not np.isfinite(x).all():
        raise ValueError("layout must be a 1D array of finite element positions")
    if x.size > 1 and np.diff(x).min() < MIN_SPACING - 1e-12:
        raise ValueError(f"element positions must increase by at least {MIN_SPACING} wavelengths")
    return x


def _check_cosines(u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if not (np.abs(u) <= 1.0 + 1e-12).all():  # also false for NaN
        raise ValueError("cosine-domain directions must be finite and lie in [-1, 1]")
    return u


def _check_weights(weights, n: int) -> np.ndarray:
    w = np.asarray(weights, dtype=complex)
    if w.shape != (n,):
        raise ValueError(f"weights must have shape ({n},)")
    if not np.isfinite(w).all():
        raise ValueError("weights must be finite")
    if not np.any(w):
        raise ValueError("weights must not all be zero")
    return w


def _inner(a, b):
    """<a, b> = sum_n conj(a_n) b_n over the last axis, from float64 products and sums of the real
    and imaginary parts, with no BLAS call and no complex product: <a, a>'s imaginary part is 0."""
    re = np.sum(a.real * b.real + a.imag * b.imag, axis=-1)
    return re + 1j * np.sum(a.real * b.imag - a.imag * b.real, axis=-1)


def steering_vector(layout, u: float) -> np.ndarray:
    """Per-element phase response exp(j*2*pi*x_n*u) toward the one cosine direction u."""
    if np.ndim(u):
        raise ValueError(f"a cosine-domain direction must be one number, got {u!r}")
    return field_response(_check_layout(layout)[:, None], [[_check_cosines(u)]])[:, 0]


def array_gain(layout, weights, u):
    """Array gain |w^H a(u)|^2 / ||w||^2; scalar or vectorized over u."""
    x = _check_layout(layout)
    w = _check_weights(weights, x.size)
    a = field_response(np.atleast_1d(_check_cosines(u))[:, None], x[:, None])
    gain = np.abs(_inner(w, a)) ** 2 / _inner(w, w).real
    return float(gain[0]) if np.ndim(u) == 0 else gain


@dataclass
class TwoBeamResult:
    """Two-beam weights plus the achieved min per-direction gain."""

    weights: np.ndarray
    min_gain: float


def two_beam_weights(layout, u1: float, u2: float) -> TwoBeamResult:
    """Two-beam weights w = a(u1) + exp(j*psi)*a(u2) maximizing min(G(u1), G(u2)).

    With c = <a(u1), a(u2)> = sum_n exp(j*2*pi*x_n*(u2-u1)), both beams get
    (N^2 + |c|^2 + 2N*Re(e^{j psi} c)) / (2N + 2*Re(e^{j psi} c)), which
    rises with Re(e^{j psi} c); so psi = -arg(c) and the gain is (N + |c|)/2.
    Coincident directions give the matched filter 2*a(u1).
    """
    a1 = steering_vector(layout, u1)
    a2 = steering_vector(layout, u2)
    c = complex(_inner(a1, a2))
    return TwoBeamResult(weights=a1 + np.exp(-1j * np.angle(c)) * a2,
                         min_gain=(a1.size + abs(c)) / 2.0)


def null_steer_weights(layout, u_signal: float, u_interference: float) -> np.ndarray:
    """Zero-forcing weights: a(u_signal) projected off the interference atom.

    The post-nulling gain toward the signal is N*(1 - |rho|^2) where rho is
    the normalized steering-vector overlap; collinear steering vectors are
    rejected since nulling would also kill the signal.
    """
    x = _check_layout(layout)
    a_s = steering_vector(x, u_signal)
    a_i = steering_vector(x, u_interference)
    n = x.size
    rho = complex(_inner(a_i, a_s)) / n
    if 1.0 - abs(rho) ** 2 < 1e-12:
        raise ValueError("steering vectors are collinear; nulling would cancel the signal")
    return a_s - rho * a_i


@dataclass(eq=False)
class SpacingSearchResult:
    """Best uniform spacing with the objective scan that produced it."""

    spacing: float
    objective: float
    scan: np.ndarray  # (n, 2) columns: d_lambda, objective


def optimize_uniform_spacing(num_elements: int, objective: str, u_params,
                             d_range=(MIN_SPACING, 2.0), d_step: float = 1.0 / 64.0) -> SpacingSearchResult:
    """Grid search over uniform spacings for two-beam or null-steer synthesis.

    ``objective`` is ``"two-beam"`` (maximize the min per-direction gain
    (N + |c|)/2 of the two-beam weights at ``u_params = (u1, u2)``) or
    ``"null-steer"`` (maximize the post-nulling signal gain
    N*(1-|rho|^2) at ``u_params = (u_signal, u_interference)``).  Ties break
    toward the smaller spacing.
    """
    lo, hi = float(d_range[0]), float(d_range[1])
    if lo < MIN_SPACING or hi < lo:
        raise ValueError(f"spacing range must lie within [{MIN_SPACING}, inf)")
    if objective not in ("two-beam", "null-steer"):
        raise ValueError("objective must be 'two-beam' or 'null-steer'")
    spacings = lo + np.arange(grid_count(hi - lo, d_step)) * d_step
    u1, u2 = _check_cosines(u_params)
    # Row i is the unit-spacing layout scaled to spacings[i].
    layouts = np.outer(spacings, uniform_layout(num_elements, 1.0))
    # Normalized steering overlap |<a(u1), a(u2)>|/N of every layout; hypot
    # rather than np.abs keeps the null-steer scan bit-identical to abs(complex).
    overlap = np.mean(field_response(layouts[..., None], [[u2 - u1]])[..., 0], axis=1)
    rho = np.hypot(overlap.real, overlap.imag)
    if objective == "two-beam":
        values = num_elements * (1.0 + rho) / 2.0
    else:
        values = num_elements * (1.0 - rho ** 2)
    best = int(np.argmax(values))
    return SpacingSearchResult(spacing=float(spacings[best]), objective=float(values[best]),
                               scan=np.column_stack([spacings, values]))
