import numpy as np
import pytest

from conftest import brute_force_power_scan
from masim.channel import ChannelSpec, Region, channel_gain, direction_from_angles
from masim.experiments import run_experiment
from masim.gainmap import DB_FLOOR, evaluate_map
from masim.reference import TWO_PATH_ANGLES


def test_single_path_flat_map(region4):
    spec = ChannelSpec([direction_from_angles(0.8, 0.3)], [1.0])
    gm = evaluate_map(spec, region4, 0.1)
    assert np.abs(gm.values).max() < 1e-12


def test_two_path_fixture_spread_exceeds_40db(two_path, region4):
    gm = evaluate_map(two_path, region4, 1.0 / 50.0)
    assert gm.max_db - gm.min_db > 40.0


def test_two_path_fixture_max_matches_coherent_sum(two_path, region4):
    gm = evaluate_map(two_path, region4, 1.0 / 50.0)
    # |h|^2 = 4 at constructive points -> 6.0206 dB, grid quantization slack.
    assert abs(gm.max_db - 6.0206) < 0.05


def test_two_path_periodicity_oracle(two_path, region4):
    # Shifting by the in-plane period vector d/|d|^2 leaves the gain unchanged.
    d = two_path.rx_directions[0] - two_path.rx_directions[1]
    d_in = np.array([d[0], d[1], 0.0])
    period = d_in / (d_in @ d_in)
    rng = np.random.default_rng(5)
    for _ in range(25):
        r = np.array([rng.uniform(-2, 1), rng.uniform(-2, 1), 0.0])
        g0 = 10 * np.log10(abs(channel_gain(two_path, r)) ** 2)
        g1 = 10 * np.log10(abs(channel_gain(two_path, r + period)) ** 2)
        assert abs(g0 - g1) < 1e-9


def test_two_path_translation_orthogonal_to_direction_difference(two_path):
    d = two_path.rx_directions[0] - two_path.rx_directions[1]
    t = np.array([-d[1], d[0], 0.0])
    t /= np.linalg.norm(t)
    rng = np.random.default_rng(6)
    for _ in range(25):
        r = np.array([rng.uniform(-2, 2), rng.uniform(-2, 2), 0.0])
        shift = rng.uniform(-2, 2) * t
        g0 = abs(channel_gain(two_path, r)) ** 2
        g1 = abs(channel_gain(two_path, r + shift)) ** 2
        assert abs(10 * np.log10(g0) - 10 * np.log10(g1)) < 1e-9


def test_four_path_fixture_min_and_finer_null(four_path, region4):
    gm = evaluate_map(four_path, region4, 1.0 / 50.0)
    assert gm.min_db < -30.0
    # A fine brute-force scan confirms a deeper null exists nearby.
    power, _, _ = brute_force_power_scan(four_path, region4, 1.0 / 500.0)
    fine_min_db = 10 * np.log10(power[power > 0].min())
    assert fine_min_db < gm.min_db


def test_refinement_monotonicity(four_path, region4):
    coarse = evaluate_map(four_path, region4, 0.1)
    fine = evaluate_map(four_path, region4, 0.05)
    assert fine.max_db >= coarse.max_db
    assert fine.min_db <= coarse.min_db


def test_scaling_shifts_db_and_preserves_argmax(four_path, region4):
    scale = 3.7
    scaled = ChannelSpec(four_path.rx_directions, scale * four_path.coefficients)
    a = evaluate_map(four_path, region4, 0.1)
    b = evaluate_map(scaled, region4, 0.1)
    np.testing.assert_allclose(b.values - a.values, 20 * np.log10(scale), atol=1e-9)
    np.testing.assert_allclose(a.argmax, b.argmax)
    np.testing.assert_allclose(a.argmin, b.argmin)


def test_exact_null_floor():
    # Broadside arrival keeps in-plane phases exactly zero, so the two
    # opposite coefficients cancel to an exact float zero.
    d = direction_from_angles(0.0, 0.0)
    spec = ChannelSpec([d, d], [1.0, -1.0])
    gm = evaluate_map(spec, Region.square(1.0), 0.5)
    assert (gm.values == DB_FLOOR).all()


def test_flat_map_ties_break_to_first_grid_point():
    spec = ChannelSpec([direction_from_angles(0.0, 0.0)], [2.0])
    region = Region.square(1.0)
    gm = evaluate_map(spec, region, 0.25)
    assert gm.max_db == gm.min_db
    np.testing.assert_allclose(gm.argmax, region.origin)
    np.testing.assert_allclose(gm.argmin, region.origin)


def test_extrema_consistent_with_values(four_path, region4):
    gm = evaluate_map(four_path, region4, 0.1)
    assert gm.max_db == gm.values.max()
    assert gm.min_db == gm.values.min()
    assert region4.contains(gm.argmax) and region4.contains(gm.argmin)
    # Each extremum's position is the grid point holding its value.
    for pos, value in ((gm.argmax, gm.max_db), (gm.argmin, gm.min_db)):
        i = int(np.argmin(np.abs(gm.coords0 - pos[0])))
        j = int(np.argmin(np.abs(gm.coords1 - pos[1])))
        assert (gm.coords0[i], gm.coords1[j], region4.origin[2]) == tuple(pos)
        assert gm.values[i, j] == value


def test_grid_dimensions_follow_floor_rule(two_path):
    region = Region(origin=[0, 0, 0], extents=[2.0, 1.0, 0.0])
    gm = evaluate_map(two_path, region, 0.3)
    assert gm.values.shape == (int(2.0 / 0.3) + 1, int(1.0 / 0.3) + 1)


def test_rejects_bad_step_and_non_planar_region(two_path):
    with pytest.raises(ValueError):
        evaluate_map(two_path, Region.square(1.0), 0.0)
    with pytest.raises(ValueError):
        evaluate_map(two_path, Region(origin=[0, 0, 0], extents=[1, 1, 1]), 0.1)
    with pytest.raises(ValueError):
        evaluate_map(two_path, Region(origin=[0, 0, 0], extents=[1, 0, 0]), 0.1)


def test_csv_export_row_major_and_deterministic(tmp_path, two_path):
    gm = evaluate_map(two_path, Region.square(1.0), 0.5)
    paths = [{"theta": theta, "phi": phi, "coeff_re": 1.0, "coeff_im": 0.0} for theta, phi in TWO_PATH_ANGLES]
    for run in ("a", "b"):
        run_experiment({"kind": "gainmap", "seed": 0, "region_size": 1.0, "step": 0.5, "paths": paths},
                       str(tmp_path / run))
    p1, p2 = tmp_path / "a" / "gain_map.csv", tmp_path / "b" / "gain_map.csv"
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0] == "x,y,gain_db"
    assert len(lines) == 1 + gm.values.size
    x0, y0, db0 = lines[1].split(",")
    assert float(x0) == gm.coords0[0] and float(y0) == gm.coords1[0]
    # Row-major: the second row advances y, not x.
    x1, y1, _ = lines[2].split(",")
    assert float(x1) == gm.coords0[0] and float(y1) == gm.coords1[1]
    assert float(db0) == gm.values[0, 0]
