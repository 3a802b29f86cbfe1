import math

import numpy as np
import pytest

from masim.beams import (array_gain, null_steer_weights, optimize_uniform_spacing,
                         steering_vector, two_beam_weights, uniform_layout)
from masim.channel import field_response
from masim.experiments import run_experiment


def dirichlet_overlap(n, spacing, du):
    """|<a(u1), a(u2)>| / N for a uniform layout, closed form."""
    x = math.pi * spacing * du
    if abs(math.sin(x)) < 1e-15:
        return 1.0
    return abs(math.sin(n * x) / (n * math.sin(x)))


def test_steering_vector_reference_cases():
    np.testing.assert_allclose(steering_vector(uniform_layout(4, 0.5), 0.0), np.ones(4))
    # Endfire at half-wavelength spacing: phases 0, pi, 2*pi, ... i.e. (-1)^n.
    a = steering_vector(uniform_layout(4, 0.5), 1.0)
    np.testing.assert_allclose(a, [1, -1, 1, -1], atol=1e-12)


def test_steering_vectors_coincide_at_grating_alignment():
    # 1.25 * 0.8 = 1: element-wise phase difference is 0 mod 2 pi.
    layout = uniform_layout(8, 1.25)
    a1 = steering_vector(layout, 0.4)
    a2 = steering_vector(layout, -0.4)
    np.testing.assert_allclose(a1, a2, atol=1e-12)


def test_steering_vector_and_array_gain_are_the_field_response():
    # One phase formula: the beam responses are field_response on 1-D coordinates, bit for bit.
    layout = np.cumsum(np.random.default_rng(22).uniform(0.5, 1.5, 7)) - 0.5
    w = steering_vector(layout, 0.3) + 0.5j * steering_vector(layout, -0.6)
    u = np.linspace(-1.0, 1.0, 101)
    for v in u:
        assert np.array_equal(steering_vector(layout, v), field_response(layout[:, None], [[v]])[:, 0])
        # exp(j 2 pi x (-u)) is the exact conjugate of exp(j 2 pi x u).
        assert np.array_equal(steering_vector(layout, -v), np.conj(steering_vector(layout, v)))
    a = field_response(u[:, None], layout[:, None])
    # |<w, a(u)>|^2 / <w, w> from float64 sums of products of the real and imaginary parts.
    inner = np.sum(w.real * a.real + w.imag * a.imag, axis=1) + 1j * np.sum(w.real * a.imag - w.imag * a.real, axis=1)
    norm = np.sum(w.real * w.real + w.imag * w.imag)
    assert np.array_equal(array_gain(layout, w, u), np.abs(inner) ** 2 / norm)
    assert array_gain(layout, w, 0.3) == array_gain(layout, w, [0.3])[0]


def test_steering_vector_rejects_out_of_range():
    with pytest.raises(ValueError):
        steering_vector(uniform_layout(4, 0.5), 1.1)


@pytest.mark.parametrize("u", [1.1, -1.0 - 1e-9, math.nan, math.inf, -math.inf])
def test_every_cosine_input_is_checked(u):
    layout, w = uniform_layout(4, 0.5), np.ones(4, dtype=complex)
    for call in (lambda: steering_vector(layout, u), lambda: array_gain(layout, w, u),
                 lambda: array_gain(layout, w, [0.0, u]),
                 lambda: optimize_uniform_spacing(4, "two-beam", (u, 0.2)),
                 lambda: optimize_uniform_spacing(4, "null-steer", (0.2, u))):
        with pytest.raises(ValueError, match="cosine"):
            call()
    # One past the edge by at most 1e-12 is rounding, and is accepted.
    assert array_gain(layout, w, 1.0 + 1e-13) > 0.0


@pytest.mark.parametrize("u", [[0.1, 0.3], [0.2], np.array([[0.1]])])
def test_one_direction_is_one_cosine(u):
    # A list of directions would give a vector that mixes them; only array_gain takes several.
    layout = uniform_layout(2, 0.5)
    for call in (lambda: steering_vector(layout, u), lambda: two_beam_weights(layout, u, 0.4),
                 lambda: two_beam_weights(layout, 0.4, u), lambda: null_steer_weights(layout, u, 0.4),
                 lambda: null_steer_weights(layout, 0.0, u)):
        with pytest.raises(ValueError, match="cosine"):
            call()


@pytest.mark.parametrize("count", [2.5, True, 0, -1, None])
def test_element_counts_are_integers(count):
    with pytest.raises(ValueError, match="num_elements must be an integer >= 1"):
        uniform_layout(count, 1.0)
    with pytest.raises(ValueError, match="num_elements must be an integer >= 1"):
        optimize_uniform_spacing(count, "two-beam", (0.4, -0.4))
    assert np.array_equal(uniform_layout(np.int64(3), 1.0), [0.0, 1.0, 2.0])


def test_layout_validation():
    for spacing in (0.4, math.inf, math.nan):
        with pytest.raises(ValueError, match="spacing"):
            uniform_layout(8, spacing)
    with pytest.raises(ValueError):
        array_gain(np.array([0.0, 0.3]), np.ones(2, dtype=complex), 0.0)
    for layout in ([0.0, math.nan, 1.0], [0.0, 1.0, math.inf], [math.nan]):
        with pytest.raises(ValueError, match="finite"):
            array_gain(layout, np.ones(len(layout), dtype=complex), 0.0)
        with pytest.raises(ValueError, match="finite"):
            steering_vector(layout, 0.0)
    for weights in ([math.nan, 1.0], [1.0, math.inf], [1.0, complex(0.0, math.nan)]):
        with pytest.raises(ValueError, match="weights must be finite"):
            array_gain([0.0, 0.5], weights, 0.0)


def test_matched_filter_reaches_full_gain():
    layout = uniform_layout(8, 0.7)
    w = steering_vector(layout, 0.25)
    assert abs(array_gain(layout, w, 0.25) - 8.0) < 1e-9


def test_dirichlet_null():
    layout = uniform_layout(8, 0.5)
    w = steering_vector(layout, 0.0)
    assert array_gain(layout, w, 0.25) < 1e-9


def test_gain_bounds_and_weight_invariance():
    rng = np.random.default_rng(20)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        layout = np.cumsum(rng.uniform(0.5, 1.5, n)) - 0.5
        w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        u = rng.uniform(-1, 1, 50)
        g = array_gain(layout, w, u)
        assert (g >= -1e-12).all() and (g <= n + 1e-9).all()
        g2 = array_gain(layout, 3.5 * np.exp(1j * 0.7) * w, u)
        np.testing.assert_allclose(g, g2, atol=1e-9)


def test_grating_lobe_identity():
    # d*(u1-u2) integer with matched-filter weights: full gain at both.
    layout = uniform_layout(6, 2.0)
    w = steering_vector(layout, 0.3)
    assert abs(array_gain(layout, w, 0.3) - 6.0) < 1e-12
    assert abs(array_gain(layout, w, -0.2) - 6.0) < 1e-9


def test_two_beam_fpa_half_gain():
    result = two_beam_weights(uniform_layout(8, 0.5), 0.4, -0.4)
    assert 3.2 <= result.min_gain <= 4.8


def test_two_beam_symmetric_directions_balanced():
    layout = uniform_layout(8, 0.5)
    result = two_beam_weights(layout, 0.35, -0.35)
    g1 = array_gain(layout, result.weights, 0.35)
    g2 = array_gain(layout, result.weights, -0.35)
    assert abs(g1 - g2) < 1e-6


def test_two_beam_degenerate_single_direction():
    layout = uniform_layout(8, 0.5)
    result = two_beam_weights(layout, 0.4, 0.4)
    assert np.array_equal(result.weights, 2 * steering_vector(layout, 0.4))  # the matched filter
    assert abs(result.min_gain - 8.0) < 1e-12


def scanned_two_beam_min_gains(layout, u1, u2, points=4096):
    """Reference: min(G(u1), G(u2)) of w = a(u1) + exp(j*psi)*a(u2) on a dense psi grid."""
    a1, a2 = steering_vector(layout, u1), steering_vector(layout, u2)
    psi = 2.0 * np.pi * np.arange(points) / points
    w = a1[None, :] + np.exp(1j * psi)[:, None] * a2[None, :]
    norms = np.einsum("ij,ij->i", w, np.conj(w)).real
    g1 = np.abs(np.conj(w) @ a1) ** 2 / np.maximum(norms, 1e-300)
    g2 = np.abs(np.conj(w) @ a2) ** 2 / np.maximum(norms, 1e-300)
    gains = np.minimum(g1, g2)
    gains[norms < 1e-12] = 0.0  # the two beams cancel
    return gains


TWO_BEAM_PAIRS = [(0.4, -0.4), (0.35, -0.35), (0.1, 0.7), (-0.9, 0.2), (0.0, 1.0 / 15.0)]


def test_two_beam_closed_form_matches_phase_scan():
    for spacing in 0.5 + np.arange(97) / 64.0:
        layout = uniform_layout(8, spacing)
        for u1, u2 in TWO_BEAM_PAIRS:
            result = two_beam_weights(layout, u1, u2)
            scanned = scanned_two_beam_min_gains(layout, u1, u2)
            assert result.min_gain >= scanned.max() - 1e-12
            assert abs(result.min_gain - scanned.max()) <= 1e-6 * scanned.max()
            g1 = array_gain(layout, result.weights, u1)
            g2 = array_gain(layout, result.weights, u2)
            assert abs(g1 - g2) < 1e-9
            assert abs(min(g1, g2) - result.min_gain) < 1e-9


def test_optimize_spacing_scan_matches_per_layout_loop():
    # Reference: one layout at a time, through the single-layout routines.
    for objective, (u1, u2), d_step in (("two-beam", (0.4, -0.4), 1.0 / 64.0),
                                        ("null-steer", (0.0, 1.0 / 15.0), 1.0 / 128.0),
                                        ("two-beam", (0.1, 0.7), 0.01)):
        result = optimize_uniform_spacing(8, objective, (u1, u2), (0.5, 2.0), d_step)
        for d, value in result.scan:
            layout = uniform_layout(8, d)
            if objective == "two-beam":
                expected = two_beam_weights(layout, u1, u2).min_gain
            else:
                rho = complex(np.mean(field_response(layout[:, None], [[u2 - u1]])[:, 0]))
                expected = 8 * (1.0 - abs(rho) ** 2)
                assert value == expected  # the null-steer scan is bit-identical
            assert abs(value - expected) <= 1e-12 * max(1.0, abs(expected))


def test_null_steer_fpa_loss_matches_dirichlet_oracle():
    layout = uniform_layout(8, 0.5)
    w = null_steer_weights(layout, 0.0, 1.0 / 15.0)
    rho = dirichlet_overlap(8, 0.5, 1.0 / 15.0)
    expected = 8.0 * (1.0 - rho ** 2)
    assert abs(array_gain(layout, w, 0.0) - expected) < 1e-9
    assert abs(expected - 1.69) < 0.01
    assert array_gain(layout, w, 1.0 / 15.0) < 1e-12 * 8


def test_null_steer_ma_spacing_keeps_full_gain():
    layout = uniform_layout(8, 15.0 / 8.0)
    w = null_steer_weights(layout, 0.0, 1.0 / 15.0)
    assert abs(array_gain(layout, w, 0.0) - 8.0) < 1e-9
    assert array_gain(layout, w, 1.0 / 15.0) < 1e-12 * 8


def test_null_steer_projection_identity():
    layout = uniform_layout(8, 0.6)
    u_sig, u_int = 0.1, -0.7
    w = null_steer_weights(layout, u_sig, u_int)
    rho = dirichlet_overlap(8, 0.6, u_int - u_sig)
    assert abs(array_gain(layout, w, u_sig) - 8.0 * (1 - rho ** 2)) < 1e-9


def test_null_steer_rejects_collinear():
    # d*(u_int - u_sig) = 1: steering vectors coincide (grating alignment).
    with pytest.raises(ValueError):
        null_steer_weights(uniform_layout(8, 2.0), 0.25, -0.25)


def test_optimize_spacing_two_beam_recovers_grating_solution():
    result = optimize_uniform_spacing(8, "two-beam", (0.4, -0.4), (0.5, 2.0), 1.0 / 64.0)
    assert result.spacing == 1.25
    assert abs(result.objective - 8.0) < 1e-9
    assert result.objective >= result.scan[:, 1].max() - 1e-12


def test_optimize_spacing_null_steer_recovers_15_over_8():
    result = optimize_uniform_spacing(8, "null-steer", (0.0, 1.0 / 15.0), (0.5, 2.0), 1.0 / 128.0)
    assert result.spacing == 15.0 / 8.0
    assert abs(result.objective - 8.0) < 1e-9


def test_optimize_spacing_rejects_bad_range():
    with pytest.raises(ValueError):
        optimize_uniform_spacing(8, "two-beam", (0.4, -0.4), (0.3, 1.0), 0.01)
    with pytest.raises(ValueError):
        optimize_uniform_spacing(8, "bad-objective", (0.4, -0.4))
    # A step that is not finite and positive, or a range that is not finite, has no grid.
    for d_range, d_step in (((0.5, 1.0), math.inf), ((0.5, 1.0), math.nan), ((0.5, 1.0), 0.0),
                            ((0.5, math.inf), 0.01), ((0.5, math.nan), 0.01)):
        with pytest.raises(ValueError, match="grid step"):
            optimize_uniform_spacing(8, "two-beam", (0.4, -0.4), d_range, d_step)


def test_beam_pattern_peak_and_bounds():
    layout = uniform_layout(8, 1.25)
    w = steering_vector(layout, 0.4)
    u = np.linspace(-1.0, 1.0, 2001)
    gain = array_gain(layout, w, u)
    assert gain.max() <= 8.0 + 1e-9
    assert abs(gain[np.argmin(np.abs(u - 0.4))] - 8.0) < 1e-9
    assert abs(gain[np.argmin(np.abs(u + 0.4))] - 8.0) < 1e-9


def test_beam_pattern_symmetric_for_real_weights():
    layout = uniform_layout(6, 0.75)
    w = np.array([1.0, 2.0, -0.5, -0.5, 2.0, 1.0], dtype=complex)
    gain = array_gain(layout, w, np.linspace(-1.0, 1.0, 801))
    np.testing.assert_allclose(gain, gain[::-1], atol=1e-9)


def test_pattern_energy_quadrature_matches_sinc_sum():
    # integral of |w^H a(u)|^2 over [-1,1] = sum_nm conj(w_n) w_m 2 sinc(2(x_m-x_n)).
    rng = np.random.default_rng(21)
    layout = np.cumsum(rng.uniform(0.5, 1.2, 5)) - 0.5
    w = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    u = np.linspace(-1.0, 1.0, 20001)
    quad = np.trapezoid(array_gain(layout, w, u), u)
    diff = layout[None, :] - layout[:, None]
    oracle = np.real(np.conj(w)[:, None] * w[None, :] * 2.0 * np.sinc(2.0 * diff)).sum()
    oracle /= float(np.vdot(w, w).real)
    assert abs(quad - oracle) < 1e-6
    assert quad <= 2 * 5 + 1e-9


def test_pattern_csv(tmp_path):
    run_experiment({"kind": "beam", "seed": 0, "num_elements": 4, "objective": "two-beam", "u1": 0.4,
                    "u2": -0.4, "pattern_points": 5}, str(tmp_path))
    layout = uniform_layout(4, 0.5)
    u = np.linspace(-1.0, 1.0, 5)
    gain = array_gain(layout, two_beam_weights(layout, 0.4, -0.4).weights, u)
    for name in ("pattern_fpa.csv", "pattern_ma.csv"):
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == "u,gain_linear,gain_db"
        assert len(lines) == 6
    rows = [tuple(map(float, line.split(","))) for line in (tmp_path / "pattern_fpa.csv").read_text().splitlines()[1:]]
    assert [r[:2] for r in rows] == list(zip(u, gain))
    assert [r[2] for r in rows] == [10.0 * math.log10(g) for g in gain]
