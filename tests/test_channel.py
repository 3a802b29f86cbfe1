import cmath
import math

import numpy as np
import pytest

from masim.channel import (_SPLIT_ERROR, ChannelSpec, Region, _axis_tables, _collapsed, _grid_product, _grid_rows,
                           _path_sum, _split_response, _stochastic_paths, angles_from_direction,
                           channel_gain, channel_spec_from_records,
                           direction_from_angles, field_on_grid, field_response, grid_count,
                           sample_stochastic_channel)
from masim.beams import uniform_layout
from masim.estimation import (MeasurementSet, cosine_grid_dictionary, omp_estimate, plan_measurement_positions,
                              refit_coefficients, simulate_measurements)
from masim.mimo import greedy_rx_placement, tx_ula
from masim.positioning import level_trials
from masim.reference import two_path_spec


def test_direction_from_angles_reference_points():
    np.testing.assert_allclose(direction_from_angles(0.0, 0.0), [0, 0, 1], atol=1e-15)
    np.testing.assert_allclose(direction_from_angles(np.pi / 2, 0.0), [1, 0, 0], atol=1e-15)
    np.testing.assert_allclose(direction_from_angles(np.pi / 2, np.pi / 2), [0, 1, 0], atol=1e-15)


def test_direction_rejects_out_of_range_theta():
    with pytest.raises(ValueError):
        direction_from_angles(-0.1, 0.0)
    with pytest.raises(ValueError):
        direction_from_angles(np.pi + 0.1, 0.0)


def test_direction_unit_norm_fuzz():
    rng = np.random.default_rng(0)
    for _ in range(200):
        d = direction_from_angles(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
        assert abs(np.linalg.norm(d) - 1.0) < 1e-12


def test_angle_round_trip():
    rng = np.random.default_rng(1)
    for _ in range(50):
        theta, phi = rng.uniform(0.05, np.pi - 0.05), rng.uniform(0, 2 * np.pi)
        t2, p2 = angles_from_direction(direction_from_angles(theta, phi))
        assert abs(t2 - theta) < 1e-12
        assert abs((p2 - phi + np.pi) % (2 * np.pi) - np.pi) < 1e-12


INVALID_PATHS = [  # (rx_directions, coefficients, tx_directions)
    ([[1.0, 1.0, 0.0]], [1.0], None),                       # non-unit arrival direction
    ([[0.0, 0.0, 1.0]], [1.0], [[0.0, 0.5, 0.5]]),          # non-unit departure direction
    ([[0.0, 0.0, np.nan]], [1.0], None),                    # non-finite direction
    ([[0.0, 0.0, 1.0]], [complex(np.nan, 0)], None),        # NaN coefficient
    ([[0.0, 0.0, 1.0]], [complex(0, np.inf)], None),        # infinite coefficient
]

INVALID_CHANNELS = [  # (rx_directions, coefficients, tx_directions)
    ([[0.0, 0.0, 1.0]] * 2, [1.0, 1.0], [[0.0, 0.0, 1.0]]),  # Tx on one path of two
    (np.zeros((0, 3)), [], None),                           # empty
    ([], [], None),                                         # empty, flat
    ([[0.0, 0.0, 1.0]] * 2, [1.0, 1.0, 1.0], None),         # (L,3) against (L+1,)
    ([[0.0, 0.0, 1.0]] * 2, [[1.0, 1.0]], None),            # (L,3) against (1,L)
    ([0.0, 0.0, 1.0], [1.0], None),                         # (3,) directions
    ([[0.0, 1.0]], [1.0], None),                            # (L,2) directions
]


def test_path_spec_validation():
    # Each path needs unit directions and a finite coefficient.
    for rx, coeff, tx in INVALID_PATHS:
        with pytest.raises(ValueError):
            ChannelSpec(rx, coeff, tx)


def test_channel_spec_validation():
    for rx, coeff, tx in INVALID_CHANNELS:
        with pytest.raises(ValueError):
            ChannelSpec(rx, coeff, tx)


def test_channel_spec_copies_and_freezes_arrays():
    rx = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    coeff = np.array([1.0, 2.0 - 1.0j])
    spec = ChannelSpec(rx, coeff, rx)
    rx[0, 2] = 5.0
    assert spec.rx_directions[0, 2] == 1.0 and spec.tx_directions[0, 2] == 1.0
    assert spec.coefficients.dtype == complex and spec.coefficients.shape == (2,) and spec.has_tx
    for arr in (spec.rx_directions, spec.tx_directions, spec.coefficients):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert not ChannelSpec(rx[1:], coeff[1:]).has_tx


def test_single_unit_path_constant_envelope():
    spec = ChannelSpec([direction_from_angles(0.7, 1.2)], [1.0])
    rng = np.random.default_rng(2)
    for _ in range(20):
        r = rng.uniform(-5, 5, 3)
        assert abs(abs(channel_gain(spec, r)) - 1.0) < 1e-12


def test_two_path_coherent_sum_and_cancellation():
    d1 = direction_from_angles(0.9, 0.1)
    d2 = direction_from_angles(1.3, 2.0)
    # At the origin both phases vanish, so the terms add or cancel exactly.
    add = ChannelSpec([d1, d2], [1.0, 1.0])
    assert abs(abs(channel_gain(add, np.zeros(3))) ** 2 - 4.0) < 1e-12
    cancel = ChannelSpec([d1, d2], [1.0, -1.0])
    assert abs(channel_gain(cancel, np.zeros(3))) < 1e-12


def test_phase_linearity_per_path():
    rng = np.random.default_rng(3)
    spec = sample_stochastic_channel(5, 11)
    for _ in range(50):
        r = rng.uniform(-3, 3, 3)
        delta = rng.uniform(-1, 1, 3)
        for d, c in zip(spec.rx_directions, spec.coefficients):
            term = lambda pos: c * np.exp(2j * np.pi * (d @ pos))
            diff = np.angle(term(r + delta)) - np.angle(term(r))
            expected = 2 * np.pi * (d @ delta)
            assert abs((diff - expected + np.pi) % (2 * np.pi) - np.pi) < 1e-9


def test_triangle_bound_fuzz():
    rng = np.random.default_rng(4)
    for seed in range(10):
        spec = sample_stochastic_channel(int(rng.integers(1, 9)), seed)
        bound = np.abs(spec.coefficients).sum()
        r = rng.uniform(-10, 10, (50, 3))
        assert (np.abs(channel_gain(spec, r)) <= bound + 1e-12).all()


def test_stochastic_channel_deterministic():
    a = sample_stochastic_channel(4, 7)
    b = sample_stochastic_channel(4, 7)
    assert np.array_equal(a.rx_directions, b.rx_directions)
    assert np.array_equal(a.coefficients, b.coefficients)
    c = sample_stochastic_channel(4, 8)
    assert not np.array_equal(a.coefficients, c.coefficients)


# sample_stochastic_channel(5, (1, 0), include_tx=True), pinned so that any
# change to the (seed, index) streams or the draw order shows up bit for bit.
PINNED_RX = [
    [-0.7613129612755781, 0.39804673027547854, 0.5118216247002567],
    [0.14579880292586994, -0.27452043827704997, 0.9504636963259353],
    [-0.832829785063304, 0.5344273151439176, 0.14415961271963373],
    [-0.3010956143632675, -0.09698276886853739, 0.9486494471372439],
    [0.9359285101654858, 0.16370390770059906, 0.31183145201048545],
]
PINNED_TX = [
    [-0.6295694479770509, 0.1893681737491821, 0.7535131086748066],
    [0.5611855971999138, 0.6288660429159408, 0.5381433132192782],
    [-0.7744794786086133, 0.5398689955430787, 0.32973171649909216],
    [0.17733990780494152, 0.5890082654003593, 0.7884287034284043],
    [-0.07365169897026357, 0.9500780613873809, 0.303194829291645],
]
PINNED_COEFF = [
    complex(0.002574783555821587, -0.5973584387485728),
    complex(-0.08715329105057006, -0.055267788232693016),
    complex(0.4092189091103731, -0.13350833068651966),
    complex(0.3183541812239821, 0.06755984782412669),
    complex(-0.8573448540320806, 0.06872322875373063),
]


def test_stochastic_channel_pinned_draw():
    spec = sample_stochastic_channel(5, (1, 0), include_tx=True)
    assert np.array_equal(spec.rx_directions, np.array(PINNED_RX))
    assert np.array_equal(spec.tx_directions, np.array(PINNED_TX))
    assert np.array_equal(spec.coefficients, np.array(PINNED_COEFF))
    # The Rx-only draw shares the Rx stream prefix.
    rx_only = sample_stochastic_channel(5, (1, 0))
    assert np.array_equal(rx_only.rx_directions, np.array(PINNED_RX))
    assert rx_only.tx_directions is None


@pytest.mark.parametrize("include_tx", [False, True], ids=["rx", "rx-tx"])
@pytest.mark.parametrize("num_paths", [1, 5, 20])
def test_stochastic_paths_are_the_sampled_channel_arrays(num_paths, include_tx):
    bits = lambda a: (a.shape, a.dtype, a.tobytes())
    for seed in ((37, 2), (37, 2, 1)):
        rx, coefficients, tx = _stochastic_paths(num_paths, seed, include_tx)
        spec = sample_stochastic_channel(num_paths, seed, include_tx)
        assert bits(rx) == bits(spec.rx_directions) and bits(coefficients) == bits(spec.coefficients)
        if include_tx:
            assert bits(tx) == bits(spec.tx_directions)
        else:
            assert tx is None and spec.tx_directions is None


def test_stochastic_channel_rejects_zero_paths():
    with pytest.raises(ValueError):
        sample_stochastic_channel(0, 1)


def test_stochastic_channel_mean_power():
    # Total mean power is 1: per-path variance 1/L.
    rng = np.random.default_rng(12)
    draws = 100_000
    total = 0.0
    for _ in range(draws):  # the arrays of sample_stochastic_channel, drawn without its checks
        total += float((np.abs(_stochastic_paths(8, rng)[1]) ** 2).sum())
    assert abs(total / draws - 1.0) < 0.01


def test_stochastic_channel_single_path_variance():
    rng = np.random.default_rng(13)
    draws = 100_000
    total = 0.0
    for _ in range(draws):
        total += float(np.abs(_stochastic_paths(1, rng)[1][0]) ** 2)
    assert abs(total / draws - 1.0) < 0.02


@pytest.mark.parametrize("num_paths", [1, 2, 5, 10])
def test_reference_point_normalization(num_paths):
    # E[|h(ref)|^2] = 1 for every L; check within 3 sigma of the MC estimate.
    trials = 4000
    ref = np.zeros(3)
    values = np.empty(trials)
    for t in range(trials):
        values[t] = abs(channel_gain(sample_stochastic_channel(num_paths, (500, t)), ref)) ** 2
    sem = values.std(ddof=1) / math.sqrt(trials)
    assert abs(values.mean() - 1.0) < 3 * sem + 1e-3


def test_translation_covariance():
    # Translating the region equals rotating each coefficient by its own
    # fixed unit-modulus factor.
    spec = sample_stochastic_channel(4, 21)
    delta = np.array([0.37, -1.21, 0.0])
    rotated = ChannelSpec(spec.rx_directions,
                          spec.coefficients * np.exp(2j * np.pi * (spec.rx_directions @ delta)))
    region = Region.square(2.0)
    shifted = Region(origin=region.origin + delta, extents=region.extents)
    h_shifted, _ = field_on_grid(spec, shifted, 0.25)
    h_rotated, _ = field_on_grid(rotated, region, 0.25)
    np.testing.assert_allclose(h_shifted, h_rotated, atol=1e-12)


@pytest.mark.parametrize("extents", [[0.0, 0.0, 0.0], [0.0, 1.5, 0.0], [2.0, 1.5, 0.0], [2.0, 1.5, 0.9]],
                         ids=["0-axes", "1-axis", "2-axes", "3-axes"])
def test_field_on_grid_matches_pointwise(extents):
    spec = sample_stochastic_channel(6, 31)
    region = Region(origin=[-1.0, 0.5, 0.25], extents=extents)
    values, coords = field_on_grid(spec, region, 0.3)
    assert values.shape == tuple(len(c) for c in coords)
    for index in np.ndindex(values.shape):
        r = region.origin.copy()
        for axis, c, i in zip(region.free_axes, coords, index):
            r[axis] = c[i]
        assert abs(values[index] - channel_gain(spec, r)) < 1e-12


def test_field_response_matches_explicit_loop():
    rng = np.random.default_rng(32)
    positions = rng.uniform(-3.0, 3.0, (5, 3))
    directions = sample_stochastic_channel(4, 33).rx_directions
    expected = [[cmath.exp(2j * math.pi * sum(p * d for p, d in zip(r, dl))) for dl in directions]
                for r in positions]
    np.testing.assert_allclose(field_response(positions, directions), expected, rtol=0, atol=1e-12)
    assert field_response(positions[0], directions).shape == (4,)


def test_field_response_broadcasts_over_stacked_directions():
    rng = np.random.default_rng(34)
    directions = np.stack([sample_stochastic_channel(3, (35, t)).rx_directions for t in range(4)])
    positions = rng.uniform(-3.0, 3.0, (4, 5, 3))
    expected = [[[cmath.exp(2j * math.pi * sum(p * d for p, d in zip(r, dl))) for dl in directions[t]]
                 for r in positions[t]] for t in range(4)]
    batched = field_response(positions, directions)
    np.testing.assert_allclose(batched, expected, rtol=0, atol=1e-12)
    for t in range(4):  # each trial's block is its own call's, bit for bit
        assert batched[t].tobytes() == field_response(positions[t], directions[t]).tobytes()
    assert field_response(positions[0], directions).shape == (4, 5, 3)


@pytest.mark.parametrize("extents", [[0.0, 0.0, 0.0], [0.0, 1.5, 0.0], [2.0, 1.5, 0.0], [2.0, 1.5, 0.9]],
                         ids=["0-axes", "1-axis", "2-axes", "3-axes"])
def test_stacked_fields_on_grid_match_one_call_per_channel(extents):
    specs = [sample_stochastic_channel(5, (36, t)) for t in range(3)]
    region = Region(origin=[-1.0, 0.5, 0.25], extents=extents)
    directions, coefficients = np.stack([s.rx_directions for s in specs]), np.stack([s.coefficients for s in specs])
    if region.free_axes:
        head, tail = _axis_tables(directions, coefficients, region, 0.3)
        stacked = _grid_rows(head, tail[:, None])
    else:  # a point region's one value is its collapsed path sum
        stacked = _path_sum(_collapsed(directions, coefficients, region))
    for t, spec in enumerate(specs):
        values, coords = field_on_grid(spec, region, 0.3)
        assert isinstance(values, np.ndarray) and values.shape == tuple(len(c) for c in coords)
        assert values.tobytes() == stacked[t].tobytes()


# (region, step): axes of 1 and 2 points, 1, 2 and 3 free axes, and 401-point
# axes near the origin and far from it.
SPLIT_GRIDS = {
    "short-axes": (Region(origin=[0.3, -0.2, 0.0], extents=[0.1, 0.3, 0.0]), 0.25),
    "1-axis": (Region(origin=[-1.0, 0.5, 0.25], extents=[2.5, 0.0, 0.0]), 0.1),
    "2-axes": (Region.square(20.0), 0.05),
    "3-axes": (Region(origin=[-1.0, 0.5, 0.25], extents=[2.0, 1.5, 0.9]), 0.1),
    "far-off": (Region(origin=[1000.0, -3000.0, 0.0], extents=[20.0, 20.0, 0.0]), 0.05),
}


@pytest.mark.parametrize("case", sorted(SPLIT_GRIDS))
def test_split_tables_match_field_response_within_bound(monkeypatch, case):
    region, step = SPLIT_GRIDS[case]
    draws = [_stochastic_paths(20, (38, t)) for t in range(3)]
    directions, coefficients = np.stack([d[0] for d in draws]), np.stack([d[1] for d in draws])
    bound = _SPLIT_ERROR * max(1.0, np.abs([region.origin, region.upper]).max())
    exact = []
    for c, a in zip(region.grid_coords(step), region.free_axes):
        exact.append(field_response(c[:, None], directions[..., [a]]))
        split = _split_response(region.origin[a], step, len(c), directions[..., [a]])
        assert split.shape == exact[-1].shape and np.abs(split - exact[-1]).max() <= bound
    # Each field sums L products of a head and a tail entry, rounded in its own order; the exact
    # field takes the head and tail of the exact per-axis tables.
    split = _grid_product(*_axis_tables(directions, coefficients, region, step))
    monkeypatch.setattr("masim.channel._split_response",
                        lambda origin, step, n, d: field_response((origin + np.arange(n) * step)[:, None], d))
    exact = _grid_product(*_axis_tables(directions, coefficients, region, step))
    assert split.shape == exact.shape
    slack = len(region.free_axes) * bound + 4 * 20 * np.finfo(float).eps
    assert (np.abs(split - exact).reshape(3, -1).max(axis=1) <= slack * np.abs(coefficients).sum(axis=1)).all()


def test_field_on_grid_far_off_stays_within_the_split_bound():
    region, step = SPLIT_GRIDS["far-off"][0], 0.25
    scale = max(1.0, np.abs([region.origin, region.upper]).max())
    for seed in range(3):
        spec = sample_stochastic_channel(6, (39, seed))
        values, coords = field_on_grid(spec, region, step)
        x, y = np.meshgrid(*coords, indexing="ij")
        points = np.stack([x, y, np.full_like(x, region.origin[2])], axis=-1)
        bound = len(region.free_axes) * _SPLIT_ERROR * scale * np.abs(spec.coefficients).sum()
        assert np.abs(values - channel_gain(spec, points)).max() <= bound


def test_region_validation_and_free_axes():
    region = Region(origin=[0, 0, 0], extents=[2, 4, 0])
    assert region.free_axes == (0, 1)
    with pytest.raises(ValueError):
        Region(origin=[0, 0, 0], extents=[-1, 0, 0])


def test_grid_coords_dimensions():
    region = Region(origin=[0, 0, 0], extents=[4.0, 4.0, 0.0])
    coords = region.grid_coords(0.05)
    assert [c.size for c in coords] == [81, 81]
    # The step must be finite and positive, the extent finite and nonnegative.
    for step in (0.0, -0.1, math.inf, math.nan):
        for r in (region, Region.square(0.0)):
            with pytest.raises(ValueError, match="grid step"):
                r.grid_coords(step)
    for extent in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="grid step"):
            grid_count(extent, 0.1)


def test_region_lattice_points_match_meshgrid():
    for region in (Region(origin=[-1.0, 0.5, 0.25], extents=[2.0, 1.5, 0.0]),
                   Region(origin=[0.0, -1.0, 2.0], extents=[0.0, 1.0, 0.5]),
                   Region(origin=[1.0, 2.0, 3.0], extents=[0.4, 0.6, 0.2])):
        coords = region.grid_coords(0.2)
        # Reference: fill the free axes of origin copies from an "ij" meshgrid.
        mesh = np.meshgrid(*coords, indexing="ij")
        expected = np.tile(region.origin, (mesh[0].size, 1))
        for axis, grid in zip(region.free_axes, mesh):
            expected[:, axis] = grid.ravel()
        points = region.grid_position(coords, np.arange(mesh[0].size))
        assert np.array_equal(points, expected)
        for k in (0, 7, mesh[0].size - 1):
            assert np.array_equal(region.grid_position(coords, k), expected[k])
    point = Region(origin=[1.0, 2.0, 3.0], extents=[0.0, 0.0, 0.0])
    assert np.array_equal(point.grid_position(point.grid_coords(0.1), 0), point.origin)


def test_path_records_schema():
    # The record schema of the config ``paths`` field.
    spec = channel_spec_from_records([
        {"theta": 1.1, "phi": 0.7, "coeff_re": 1.0, "coeff_im": -0.5},
        {"theta": 0.5, "phi": 3.9, "coeff_re": 0.25, "coeff_im": 0.0}])
    np.testing.assert_array_equal(spec.rx_directions[1], direction_from_angles(0.5, 3.9))
    np.testing.assert_array_equal(spec.coefficients, [1.0 - 0.5j, 0.25])
    assert not spec.has_tx
    mixed = [{"theta": 1.0, "phi": 0.0, "coeff_re": 1.0, "coeff_im": 0.0, "tx_theta": 0.2, "tx_phi": 0.1},
             {"theta": 1.0, "phi": 0.0, "coeff_re": 1.0, "coeff_im": 0.0}]
    with pytest.raises(ValueError):
        channel_spec_from_records(mixed)
    with pytest.raises(ValueError):
        channel_spec_from_records([])



def _measurements():
    return simulate_measurements(two_path_spec(), [[0.0, 0.0, 0.0], [0.3, 0.1, 0.0], [0.7, 0.9, 0.0]], 0.0)


def _mimo_spec():
    return sample_stochastic_channel(2, 5, include_tx=True)


POSITIONS = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
DIRECTIONS = [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]
POINT_CHECKED = {  # caller of the one point check: (call on a points array, valid points)
    "channel_gain": (lambda p: channel_gain(two_path_spec(), p), POSITIONS),
    "greedy_rx_placement-tx": (lambda p: greedy_rx_placement(_mimo_spec(), Region.square(1.0), 1, p, [1.0], 0.5),
                               POSITIONS),
    "MeasurementSet": (lambda p: MeasurementSet(p, np.ones(len(p))), POSITIONS),
    "omp_estimate": (lambda d: omp_estimate(_measurements(), d, 1), DIRECTIONS),
    "refit_coefficients": (lambda d: refit_coefficients(_measurements(), d), DIRECTIONS),
}


def _bad_points(valid, case):
    bad = np.array(valid)
    if case == "nan":
        bad[1, 0] = np.nan
        return bad
    return bad[:, :2] if case == "last-axis-2" else bad[:0]


# channel_gain takes any (..., 3) stack, so zero points are valid there; the rest need K >= 1.
@pytest.mark.parametrize("caller,case", [(caller, case) for caller in POINT_CHECKED
                                         for case in ("nan", "last-axis-2", "no-points")
                                         if (caller, case) != ("channel_gain", "no-points")])
def test_point_check_rejects_bad_points(caller, case):
    call, valid = POINT_CHECKED[caller]
    call(valid)
    # Rejected by the check itself as a plain ValueError, not by LAPACK (a LinAlgError) further on.
    with pytest.raises(ValueError) as excinfo:
        call(_bad_points(valid, case))
    assert excinfo.type is ValueError


COUNT_CHECKED = {  # caller of the one count rule: (call on a count, valid count)
    "sample_stochastic_channel": (lambda n: sample_stochastic_channel(n, 1), 2),
    "level_trials-trials": (lambda n: level_trials("snr", 2, [Region.square(0.5)], n, 1), 2),
    "level_trials-num_paths": (lambda n: level_trials("snr", n, [Region.square(0.5)], 2, 1), 2),
    "plan_measurement_positions": (lambda n: plan_measurement_positions(Region.square(1.0), n, "grid"), 2),
    "omp_estimate": (lambda n: omp_estimate(_measurements(), DIRECTIONS, n), 2),
    "cosine_grid_dictionary": (lambda n: cosine_grid_dictionary(n), 3),  # 2 points give no atom
    "uniform_layout": (lambda n: uniform_layout(n, 0.5), 2),
    "tx_ula": (lambda n: tx_ula(n), 2),
    "greedy_rx_placement-num_rx": (lambda n: greedy_rx_placement(_mimo_spec(), Region.square(1.0), n, POSITIONS,
                                                                 [1.0], 0.5), 2),
}


@pytest.mark.parametrize("count", [2.5, True, 0, -1, None])
@pytest.mark.parametrize("caller", COUNT_CHECKED)
def test_count_rule_rejects_counts_off_the_rule(caller, count):
    call, valid = COUNT_CHECKED[caller]
    call(valid)
    # Rejected by the rule itself as a plain ValueError, not as a TypeError or a silent truncation.
    with pytest.raises(ValueError, match="must be an integer >= 1") as excinfo:
        call(count)
    assert excinfo.type is ValueError
