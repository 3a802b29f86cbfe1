import numpy as np
import pytest

from masim.channel import ChannelSpec, Region, channel_gain, field_response
from masim.estimation import (MeasurementSet, cosine_grid_dictionary, omp_estimate,
                              plan_measurement_positions, reconstruct_and_score,
                              refit_coefficients, simulate_measurements)

# Pinned fixture seeds: OMP exact recovery at K=2L is seed-sensitive with
# greedy selection, so working (spec, positions) draws are frozen here.
OMP_EXAMPLE_SEEDS = {"L1_K8": (50_000, 60_000), "L2_K16": (30_000, 40_000)}


def on_grid_truth(dictionary, num_paths, seed):
    rng = np.random.default_rng(seed)
    idx = list(map(int, rng.choice(len(dictionary), num_paths, replace=False)))
    coeff = (rng.standard_normal(num_paths) + 1j * rng.standard_normal(num_paths))
    coeff /= np.sqrt(2.0 * num_paths)
    spec = ChannelSpec(dictionary[idx], coeff)
    return spec, idx, coeff


def test_grid_strategy_k9_is_3x3_lattice_with_corners():
    region = Region.square(2.0)
    pos = plan_measurement_positions(region, 9, strategy="grid")
    assert pos.shape == (9, 3)
    xs = sorted(set(pos[:, 0]))
    ys = sorted(set(pos[:, 1]))
    np.testing.assert_allclose(xs, [-1.0, 0.0, 1.0])
    np.testing.assert_allclose(ys, [-1.0, 0.0, 1.0])
    corners = {(-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)}
    assert corners <= {(x, y) for x, y, _ in pos}


def test_uniform_random_positions_deterministic():
    region = Region.square(3.0)
    a = plan_measurement_positions(region, 16, "uniform-random", seed=5)
    b = plan_measurement_positions(region, 16, "uniform-random", seed=5)
    assert np.array_equal(a, b)
    assert all(region.contains(r) for r in a)


def test_grid_rejects_unhostable_counts():
    point = Region(origin=[0, 0, 0], extents=[0, 0, 0])
    with pytest.raises(ValueError):
        plan_measurement_positions(point, 2, "grid")
    with pytest.raises(ValueError):
        plan_measurement_positions(Region.square(1.0), 0, "grid")
    with pytest.raises(ValueError):
        plan_measurement_positions(Region.square(1.0), 4, "bogus")


def coherence(matrix):
    """Largest normalized off-diagonal column correlation."""
    norms = np.linalg.norm(matrix, axis=0)
    gram = np.abs(np.conj(matrix.T) @ matrix) / np.outer(norms, norms)
    np.fill_diagonal(gram, 0.0)
    return float(gram.max())


def test_random_positions_beat_grid_coherence():
    dictionary = cosine_grid_dictionary(64)
    region = Region.square(4.0)
    random_pos = plan_measurement_positions(region, 32, "uniform-random", seed=11)
    grid_pos = plan_measurement_positions(region, 32, "grid")
    c_random = coherence(field_response(random_pos, dictionary))
    c_grid = coherence(field_response(grid_pos, dictionary))
    assert c_random < c_grid


def test_simulate_measurements_noiseless_exact(two_path):
    region = Region.square(2.0)
    pos = plan_measurement_positions(region, 8, "uniform-random", seed=3)
    meas = simulate_measurements(two_path, pos, 0.0)
    np.testing.assert_allclose(meas.samples, channel_gain(two_path, pos), atol=0)


def test_simulate_measurements_noise_variance(two_path):
    pos = np.zeros((100_000, 3))
    meas = simulate_measurements(two_path, pos, noise_var=0.3, seed=9)
    noise = meas.samples - channel_gain(two_path, pos)
    empirical = float(np.mean(np.abs(noise) ** 2))
    assert abs(empirical - 0.3) / 0.3 < 0.02


def test_simulate_measurements_deterministic(two_path):
    pos = plan_measurement_positions(Region.square(2.0), 5, "uniform-random", seed=1)
    a = simulate_measurements(two_path, pos, 0.5, seed=2)
    b = simulate_measurements(two_path, pos, 0.5, seed=2)
    assert np.array_equal(a.samples, b.samples)
    with pytest.raises(ValueError):
        simulate_measurements(two_path, pos, -0.1)


@pytest.mark.parametrize("noise_var", [[0.1, 0.2], np.array([0.1, 0.2]), [0.1]], ids=["list", "array", "one-list"])
def test_simulate_measurements_takes_one_noise_level(two_path, noise_var):
    # A sequence is rejected by name before any sounding, not by a comparison with 0.
    with pytest.raises(ValueError, match="noise_var must be one level"):
        simulate_measurements(two_path, np.zeros((2, 3)), noise_var)


@pytest.mark.parametrize("grid_size", [1, 2])
def test_cosine_dictionary_without_atoms_is_rejected_by_grid_size(grid_size):
    # A 2 x 2 grid's points (+-1, +-1) all lie outside the cosine disk; 3 is the smallest grid with atoms.
    with pytest.raises(ValueError, match="grid_size must be at least 3"):
        cosine_grid_dictionary(grid_size)
    assert cosine_grid_dictionary(3).shape == (5, 3)


def test_omp_single_path_matched_filter_first_pick():
    dictionary = cosine_grid_dictionary(64)
    spec_seed, pos_seed = OMP_EXAMPLE_SEEDS["L1_K8"]
    truth, idx, coeff = on_grid_truth(dictionary, 1, spec_seed)
    region = Region.square(4.0)
    pos = plan_measurement_positions(region, 8, "uniform-random", seed=pos_seed)
    meas = simulate_measurements(truth, pos, 0.0)
    # Independent oracle: the matched-filter argmax over all atoms.
    a = field_response(pos, dictionary)
    oracle = int(np.argmax(np.abs(np.conj(a.T) @ meas.samples)))
    est = omp_estimate(meas, dictionary, 1)
    assert est.indices == (oracle,) == (idx[0],)
    assert abs(est.coefficients[0] - coeff[0]) < 1e-10


def test_omp_two_paths_exact_support_k16():
    dictionary = cosine_grid_dictionary(64)
    spec_seed, pos_seed = OMP_EXAMPLE_SEEDS["L2_K16"]
    truth, idx, coeff = on_grid_truth(dictionary, 2, spec_seed)
    region = Region.square(4.0)
    pos = plan_measurement_positions(region, 16, "uniform-random", seed=pos_seed)
    meas = simulate_measurements(truth, pos, 0.0)
    est = omp_estimate(meas, dictionary, 2)
    assert sorted(est.indices) == sorted(idx)
    # Oracle: least squares on the known support.
    a = field_response(pos, dictionary)[:, idx]
    oracle, *_ = np.linalg.lstsq(a, meas.samples, rcond=None)
    order = [est.indices.index(i) for i in idx]
    nmse = np.abs(est.coefficients[order] - oracle).sum() / np.abs(oracle).sum()
    assert nmse < 1e-10


def test_omp_zero_measurements_empty_estimate(two_path):
    dictionary = cosine_grid_dictionary(16)
    pos = plan_measurement_positions(Region.square(2.0), 6, "uniform-random", seed=4)
    meas = simulate_measurements(two_path, pos, 0.0)
    meas.samples[:] = 0.0
    est = omp_estimate(meas, dictionary, 3)
    assert est.indices == ()
    assert est.residual_norm == 0.0
    assert reconstruct_and_score(est, two_path, Region.square(2.0), 0.25) == 1.0


def test_omp_residual_nonincreasing(four_path):
    dictionary = cosine_grid_dictionary(32)
    pos = plan_measurement_positions(Region.square(4.0), 24, "uniform-random", seed=8)
    meas = simulate_measurements(four_path, pos, 0.01, seed=5)
    residuals = [omp_estimate(meas, dictionary, k).residual_norm for k in range(1, 8)]
    assert all(b <= a + 1e-12 for a, b in zip(residuals, residuals[1:]))


def test_omp_preconditions(two_path):
    dictionary = cosine_grid_dictionary(16)
    pos = plan_measurement_positions(Region.square(2.0), 3, "uniform-random", seed=4)
    meas = simulate_measurements(two_path, pos, 0.0)
    with pytest.raises(ValueError):
        omp_estimate(meas, dictionary, 4)
    with pytest.raises(ValueError):
        omp_estimate(meas, np.zeros((0, 3)), 1)


def test_measurement_set_rejects_non_finite_inputs(two_path):
    positions, samples = np.zeros((2, 3)), np.ones(2, dtype=complex)
    bad_positions, bad_samples = positions.copy(), samples.copy()
    bad_positions[1, 0], bad_samples[0] = np.nan, np.inf
    for p, y in ((bad_positions, samples), (positions, bad_samples)):
        with pytest.raises(ValueError):
            MeasurementSet(p, y)
    for noise_var in (np.nan, np.inf, -1.0):  # refused under the noise's own name
        with pytest.raises(ValueError, match="noise_var must be finite and nonnegative"):
            simulate_measurements(two_path, positions, noise_var)


def test_omp_rejects_more_paths_than_atoms(two_path):
    # With every atom taken, the next argmax would pick atom 0 a second time.
    dictionary = cosine_grid_dictionary(16)[:3]
    pos = plan_measurement_positions(Region.square(2.0), 6, "uniform-random", seed=4)
    meas = simulate_measurements(two_path, pos, 0.0)
    assert len(set(omp_estimate(meas, dictionary, 3).indices)) == 3
    with pytest.raises(ValueError):
        omp_estimate(meas, dictionary, 5)


def test_refit_exact_on_true_directions(two_path):
    pos = plan_measurement_positions(Region.square(3.0), 12, "uniform-random", seed=6)
    meas = simulate_measurements(two_path, pos, 0.0)
    coeff = refit_coefficients(meas, two_path.rx_directions)
    np.testing.assert_allclose(coeff, two_path.coefficients, atol=1e-12)


def test_refit_single_direction_single_measurement(two_path):
    direction = two_path.rx_directions[:1]
    single = ChannelSpec(two_path.rx_directions[:1], two_path.coefficients[:1])
    pos = np.array([[0.4, -0.2, 0.0]])
    meas = simulate_measurements(single, pos, 0.0)
    coeff = refit_coefficients(meas, direction)
    atom = np.exp(2j * np.pi * (direction[0] @ pos[0]))
    assert abs(coeff[0] - meas.samples[0] / atom) < 1e-12


def test_refit_residual_orthogonal(four_path):
    pos = plan_measurement_positions(Region.square(4.0), 20, "uniform-random", seed=7)
    meas = simulate_measurements(four_path, pos, 0.05, seed=3)
    coeff = refit_coefficients(meas, four_path.rx_directions)
    a = field_response(pos, four_path.rx_directions)
    residual = meas.samples - a @ coeff
    assert np.abs(np.conj(a.T) @ residual).max() < 1e-9


def test_refit_optimality_against_perturbations(four_path):
    pos = plan_measurement_positions(Region.square(4.0), 20, "uniform-random", seed=7)
    meas = simulate_measurements(four_path, pos, 0.05, seed=3)
    coeff = refit_coefficients(meas, four_path.rx_directions)
    a = field_response(pos, four_path.rx_directions)
    base = np.linalg.norm(meas.samples - a @ coeff)
    rng = np.random.default_rng(44)
    for _ in range(50):
        delta = 1e-3 * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
        assert np.linalg.norm(meas.samples - a @ (coeff + delta)) >= base - 1e-12


def test_refit_noise_averaging_improves_with_more_measurements(two_path):
    region = Region.square(3.0)
    errors = {}
    for count in (8, 16):
        nmse = 0.0
        for draw in range(100):
            pos = plan_measurement_positions(region, count, "uniform-random", seed=(200, draw))
            meas = simulate_measurements(two_path, pos, 0.2, seed=(201, draw))
            coeff = refit_coefficients(meas, two_path.rx_directions)
            nmse += float(np.abs(coeff - two_path.coefficients).sum() ** 2)
        errors[count] = nmse / 100
    assert errors[16] < errors[8]


def test_refit_rejects_rank_deficient():
    direction = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    pos = plan_measurement_positions(Region.square(2.0), 6, "uniform-random", seed=9)
    spec = ChannelSpec([[0.0, 0.0, 1.0]], [1.0])
    meas = simulate_measurements(spec, pos, 0.0)
    with pytest.raises(ValueError, match="condition number"):
        refit_coefficients(meas, direction)


def test_reconstruct_score_zero_for_truth(two_path):
    from masim.estimation import FriEstimate
    est = FriEstimate(indices=(0, 1), directions=two_path.rx_directions,
                      coefficients=two_path.coefficients, residual_norm=0.0)
    assert reconstruct_and_score(est, two_path, Region.square(2.0), 0.2) == 0.0


def test_reconstruct_score_rejects_zero_energy_truth():
    from masim.estimation import FriEstimate
    d = np.array([0.0, 0.0, 1.0])
    silent = ChannelSpec([d], [0.0])
    est = FriEstimate(indices=(), directions=np.zeros((0, 3)),
                      coefficients=np.zeros(0, dtype=complex), residual_norm=0.0)
    with pytest.raises(ValueError):
        reconstruct_and_score(est, silent, Region.square(2.0), 0.5)
