import numpy as np
import pytest

from conftest import brute_force_power_scan
from masim.channel import (ChannelSpec, Region, channel_gain,
                           direction_from_angles, sample_stochastic_channel)
from masim.positioning import (InterferenceScenario, SearchConfig,
                               expected_max_snr, gradient_ascent_refine,
                               max_sinr_position, max_sinr_trials,
                               max_snr_position, max_snr_trials, snr_gradient)


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(coarse_step=0.0)
    with pytest.raises(ValueError):
        SearchConfig(coarse_step=0.1, refine_step_init=0.05, refine_tol=0.05)
    cfg = SearchConfig(coarse_step=0.2)
    assert cfg.refine_step_init == 0.1


def test_flat_objective_returns_first_grid_point():
    spec = ChannelSpec([direction_from_angles(0.0, 0.0)], [0.5])
    region = Region.square(2.0)
    pos, snr = max_snr_position(spec, region, SearchConfig(coarse_step=0.5, refine=False), rho=8.0)
    np.testing.assert_allclose(pos, region.origin)
    assert abs(snr - 8.0 * 0.25) < 1e-12


def test_two_path_max_snr_matches_brute_force(two_path, region4):
    pos, snr = max_snr_position(two_path, region4, SearchConfig(coarse_step=0.02), rho=1.0)
    power, _, _ = brute_force_power_scan(two_path, region4, 1.0 / 500.0)
    oracle_db = 10 * np.log10(power.max())
    assert abs(10 * np.log10(snr) - oracle_db) < 0.05
    assert region4.contains(pos)


def test_snr_dominates_every_coarse_grid_point(four_path, region4):
    cfg = SearchConfig(coarse_step=0.25)
    pos, snr = max_snr_position(four_path, region4, cfg)
    coarse, _, _ = brute_force_power_scan(four_path, region4, 0.25)
    assert snr >= coarse.max() - 1e-12


def test_nested_regions_monotone(four_path):
    cfg = SearchConfig(coarse_step=0.1)
    _, small = max_snr_position(four_path, Region.square(2.0), cfg)
    _, large = max_snr_position(four_path, Region.square(4.0), cfg)
    assert large >= small - 1e-9


def test_sinr_degenerates_to_snr_with_zero_interference(two_path, region4):
    silent = ChannelSpec([direction_from_angles(0.3, 0.1)], [0.0])
    scenario = InterferenceScenario(two_path, silent, snr_ref_db=20.0, inr_ref_db=20.0)
    cfg = SearchConfig(coarse_step=0.1)
    pos_sinr, sinr = max_sinr_position(scenario, region4, cfg)
    pos_snr, snr = max_snr_position(two_path, region4, cfg, rho=scenario.rho_signal)
    np.testing.assert_allclose(pos_sinr, pos_snr, atol=1e-12)
    assert abs(sinr - snr) < 1e-9


def test_max_sinr_never_exceeds_max_snr(region4):
    for seed in range(5):
        signal = sample_stochastic_channel(4, (60, seed))
        interference = sample_stochastic_channel(4, (60, seed, 1))
        scenario = InterferenceScenario(signal, interference)
        cfg = SearchConfig(coarse_step=0.1)
        _, sinr = max_sinr_position(scenario, region4, cfg)
        _, snr = max_snr_position(signal, region4, cfg, rho=scenario.rho_signal)
        assert sinr <= snr + 1e-9


def test_sinr_matches_brute_force(two_path, region4):
    interference = ChannelSpec([direction_from_angles(1.2, 5.0)], [1.0])
    scenario = InterferenceScenario(two_path, interference, snr_ref_db=10.0, inr_ref_db=10.0)
    _, sinr = max_sinr_position(scenario, region4, SearchConfig(coarse_step=0.02))
    ps, _, _ = brute_force_power_scan(two_path, region4, 1.0 / 500.0)
    pi, _, _ = brute_force_power_scan(interference, region4, 1.0 / 500.0)
    oracle = (scenario.rho_signal * ps / (scenario.rho_interference * pi + 1.0)).max()
    assert abs(10 * np.log10(sinr) - 10 * np.log10(oracle)) < 0.05


def test_gradient_zero_for_single_path():
    spec = ChannelSpec([direction_from_angles(0.9, 0.4)], [2.0])
    g = snr_gradient(spec, np.array([0.3, -0.7, 0.0]))
    np.testing.assert_allclose(g, [0.0, 0.0], atol=1e-12)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    for seed in range(10):
        spec = sample_stochastic_channel(4, (70, seed))
        r = np.array([rng.uniform(-2, 2), rng.uniform(-2, 2), 0.0])
        g = snr_gradient(spec, r)
        fd = np.empty(2)
        delta = 1e-5
        for a in range(2):
            e = np.zeros(3)
            e[a] = delta
            fd[a] = (abs(channel_gain(spec, r + e)) ** 2
                     - abs(channel_gain(spec, r - e)) ** 2) / (2 * delta)
        assert np.linalg.norm(g - fd) / np.linalg.norm(g) < 1e-6


def test_gradient_vanishes_at_constructive_peak(two_path):
    # The in-plane period vector lands on an exact phase-alignment point.
    d = two_path.rx_directions[0] - two_path.rx_directions[1]
    d_in = np.array([d[0], d[1], 0.0])
    peak = d_in / (d_in @ d_in)
    assert abs(abs(channel_gain(two_path, peak)) ** 2 - 4.0) < 1e-9
    assert np.linalg.norm(snr_gradient(two_path, peak)) < 1e-6


def test_gradient_ascent_fixed_point(two_path, region4):
    d = two_path.rx_directions[0] - two_path.rx_directions[1]
    d_in = np.array([d[0], d[1], 0.0])
    peak = d_in / (d_in @ d_in)
    out = gradient_ascent_refine(two_path, peak, region4)
    f0 = abs(channel_gain(two_path, peak)) ** 2
    f1 = abs(channel_gain(two_path, out)) ** 2
    assert abs(f1 - f0) < 1e-9


def test_gradient_ascent_monotone_trace(two_path, region4):
    rng = np.random.default_rng(9)
    for _ in range(10):
        r0 = np.array([rng.uniform(-2, 2), rng.uniform(-2, 2), 0.0])
        trace = []
        out = gradient_ascent_refine(two_path, r0, region4, trace=trace)
        assert region4.contains(out)
        assert all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))
        assert abs(channel_gain(two_path, out)) ** 2 >= abs(channel_gain(two_path, r0)) ** 2


def test_gradient_ascent_converges_near_global_optimum(four_path, region4):
    power, xs, ys = brute_force_power_scan(four_path, region4, 1.0 / 500.0)
    i, j = np.unravel_index(int(np.argmax(power)), power.shape)
    optimum = np.array([xs[i], ys[j], 0.0])
    rng = np.random.default_rng(10)
    for _ in range(5):
        start = optimum + np.array([rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05), 0.0])
        start = np.clip(start, region4.origin, region4.upper)
        out = gradient_ascent_refine(four_path, start, region4)
        reached = abs(channel_gain(four_path, out)) ** 2
        assert 10 * np.log10(power[i, j]) - 10 * np.log10(reached) < 0.01


def test_gradient_ascent_rejects_outside_start(two_path, region4):
    with pytest.raises(ValueError):
        gradient_ascent_refine(two_path, np.array([10.0, 0.0, 0.0]), region4)


def test_degenerate_region_forces_reference_snr():
    values = max_snr_trials(num_paths=4, region_size=0.0, trials=2000, seed=3)
    assert abs(10 * np.log10(values.mean()) - 20.0) < 0.2


def test_single_path_region_size_irrelevant():
    values = max_snr_trials(num_paths=1, region_size=3.0, trials=2000, seed=4)
    assert abs(10 * np.log10(values.mean()) - 20.0) < 0.2


def test_trials_deterministic_and_worker_independent():
    a = max_snr_trials(5, 2.0, 40, 11)
    b = max_snr_trials(5, 2.0, 40, 11)
    c = max_snr_trials(5, 2.0, 40, 11, workers=3)
    assert np.array_equal(a, b)
    assert np.array_equal(a, c)
    d = max_sinr_trials(5, 2.0, 10, 11, workers=3)
    e = max_sinr_trials(5, 2.0, 10, 11)
    assert np.array_equal(d, e)


def test_refinement_dominates_coarse_per_trial():
    coarse = max_snr_trials(6, 4.0, 50, 12, cfg=SearchConfig(coarse_step=0.2, refine=False))
    refined = max_snr_trials(6, 4.0, 50, 12, cfg=SearchConfig(coarse_step=0.2, refine=True))
    assert (refined >= coarse - 1e-12).all()


def test_sinr_trials_bounded_by_snr_trials_shared_seeds():
    snr = max_snr_trials(4, 3.0, 60, 13)
    sinr = max_sinr_trials(4, 3.0, 60, 13)
    assert (sinr <= snr + 1e-9).all()


def test_region_growth_monotone_shared_seeds():
    small = max_snr_trials(6, 2.0, 60, 14)
    large = max_snr_trials(6, 4.0, 60, 14)
    # Shared seeds and nested grids: per-trial values can only grow, up to
    # refinement wobble far below the mean gap.
    assert 10 * np.log10(large.mean()) >= 10 * np.log10(small.mean())
    assert (large >= small - 1e-6).all()


def test_expected_max_snr_rejects_zero_trials():
    with pytest.raises(ValueError):
        expected_max_snr(4, 2.0, 0, 1)
