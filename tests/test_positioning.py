import math

import numpy as np
import pytest

import masim.channel as channel
import masim.positioning as positioning
import masim.util as util
from conftest import brute_force_power_scan
from masim.channel import (ChannelSpec, Region, _fields_on_grid, _stochastic_paths, channel_gain,
                           direction_from_angles, field_on_grid, sample_stochastic_channel)
from masim.positioning import SearchConfig, level_trials, max_sinr_position, max_snr_position, snr_gradient


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(coarse_step=0.0)
    with pytest.raises(ValueError):  # the first refine step, coarse_step/2, must exceed 1e-4
        SearchConfig(coarse_step=2e-4)
    assert SearchConfig(coarse_step=2.1e-4).coarse_step == 2.1e-4
    for step in (math.inf, math.nan, -1.0):
        with pytest.raises(ValueError, match="finite"):
            SearchConfig(coarse_step=step)


@pytest.mark.parametrize("bad", [-1.0, -100.0, math.nan, math.inf])
@pytest.mark.parametrize("name", ["rho", "rho_interference"])
def test_position_searches_reject_bad_levels(two_path, name, bad):
    region = Region.square(1.0)
    searches = [lambda: max_sinr_position(two_path, two_path, region, **{name: bad})]
    if name == "rho":
        searches.append(lambda: max_snr_position(two_path, region, rho=bad))
    for search in searches:
        with pytest.raises(ValueError, match="finite and nonnegative"):
            search()


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
    cfg = SearchConfig(coarse_step=0.1)
    pos_sinr, sinr = max_sinr_position(two_path, silent, region4, cfg, rho=100.0, rho_interference=100.0)
    pos_snr, snr = max_snr_position(two_path, region4, cfg, rho=100.0)
    np.testing.assert_allclose(pos_sinr, pos_snr, atol=1e-12)
    assert abs(sinr - snr) < 1e-9


def test_max_sinr_never_exceeds_max_snr(region4):
    for seed in range(5):
        signal = sample_stochastic_channel(4, (60, seed))
        interference = sample_stochastic_channel(4, (60, seed, 1))
        cfg = SearchConfig(coarse_step=0.1)
        _, sinr = max_sinr_position(signal, interference, region4, cfg)
        _, snr = max_snr_position(signal, region4, cfg, rho=100.0)
        assert sinr <= snr + 1e-9


def test_sinr_matches_brute_force(two_path, region4):
    interference = ChannelSpec([direction_from_angles(1.2, 5.0)], [1.0])
    rho_s, rho_i = 10.0, 10.0
    _, sinr = max_sinr_position(two_path, interference, region4, SearchConfig(coarse_step=0.02),
                                rho=rho_s, rho_interference=rho_i)
    ps, _, _ = brute_force_power_scan(two_path, region4, 1.0 / 500.0)
    pi, _, _ = brute_force_power_scan(interference, region4, 1.0 / 500.0)
    oracle = (rho_s * ps / (rho_i * pi + 1.0)).max()
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


def test_degenerate_region_forces_reference_snr():
    values = level_trials("snr", 4, [Region.square(0.0)], 2000, 3)[0]
    assert abs(10 * np.log10(values.mean()) - 20.0) < 0.2


def test_single_path_region_size_irrelevant():
    values = level_trials("snr", 1, [Region.square(3.0)], 2000, 4)[0]
    assert abs(10 * np.log10(values.mean()) - 20.0) < 0.2


def test_trials_deterministic():
    a = level_trials("snr", 5, [Region.square(2.0)], 40, 11)[0]
    b = level_trials("snr", 5, [Region.square(2.0)], 40, 11)[0]
    assert np.array_equal(a, b)
    d = level_trials("sinr", 5, [Region.square(2.0)], 10, 11)[0]
    e = level_trials("sinr", 5, [Region.square(2.0)], 10, 11)[0]
    assert np.array_equal(d, e)


# Per-trial values of level_trials(kind, L, [Region.square(2.0)], 3, 7,
# SearchConfig(coarse_step=0.25, refine)) from the separate SNR and SINR
# search and trial loops that the shared ones replaced.
PINNED_TRIALS = {
    ("snr", 4, True): [104.54159092546715, 306.39251628460624, 125.44214554008855],
    ("snr", 4, False): [96.14386039247171, 303.13926395683046, 121.669104747706],
    ("snr", 1, True): [43.41526935018296, 29.071748301876116, 97.4992495152538],
    ("snr", 1, False): [43.415269350182975, 29.071748301876116, 97.4992495152538],
    ("sinr", 4, True): [32.335335964047424, 177.65783474187032, 29.739190292977234],
    ("sinr", 4, False): [30.116970728769445, 48.38828304729758, 26.930167090934532],
    ("sinr", 1, True): [0.7146072603807632, 0.19003365070638098, 0.5392976010903952],
    ("sinr", 1, False): [0.7146072603807632, 0.19003365070638098, 0.5392976010903952],
}


@pytest.mark.parametrize("key", sorted(PINNED_TRIALS), ids=lambda k: f"{k[0]}-L{k[1]}-refine{k[2]}")
def test_trials_match_pinned_values(key):
    kind, num_paths, refine = key
    cfg = SearchConfig(coarse_step=0.25, refine=refine)
    values = level_trials(kind, num_paths, [Region.square(2.0)], 3, 7, cfg)[0]
    if num_paths > 1:
        assert values.tolist() == PINNED_TRIALS[key]
    else:
        # A single path gives a flat coarse map, whose argmax (and so the
        # refine's start) is decided by rounding-level differences.
        np.testing.assert_allclose(values, PINNED_TRIALS[key], rtol=1e-12, atol=0)


def test_refinement_dominates_coarse_per_trial():
    region = [Region.square(4.0)]
    coarse = level_trials("snr", 6, region, 50, 12, SearchConfig(coarse_step=0.2, refine=False))[0]
    refined = level_trials("snr", 6, region, 50, 12, SearchConfig(coarse_step=0.2, refine=True))[0]
    assert (refined >= coarse - 1e-12).all()


def test_sinr_trials_bounded_by_snr_trials_shared_seeds():
    snr = level_trials("snr", 4, [Region.square(3.0)], 60, 13)[0]
    sinr = level_trials("sinr", 4, [Region.square(3.0)], 60, 13)[0]
    assert (sinr <= snr + 1e-9).all()


def test_region_growth_monotone_shared_seeds():
    small = level_trials("snr", 6, [Region.square(2.0)], 60, 14)[0]
    large = level_trials("snr", 6, [Region.square(4.0)], 60, 14)[0]
    # Shared seeds and nested grids: per-trial values can only grow, up to
    # refinement wobble far below the mean gap.
    assert 10 * np.log10(large.mean()) >= 10 * np.log10(small.mean())
    assert (large >= small - 1e-6).all()


def test_trials_reject_zero_trials():
    with pytest.raises(ValueError):
        level_trials("snr", 4, [Region.square(2.0)], 0, 1)
    with pytest.raises(ValueError):
        level_trials("sinr", 4, [Region.square(2.0)], 0, 1)


def test_unknown_sweep_kind_is_rejected():
    with pytest.raises(ValueError, match="kind"):
        level_trials("snrr", 4, [Region.square(2.0)], 3, 1)


def reference_search(values, coords, region, cfg, objective):
    """The one-trial search that the batched one replaced: the grid's first argmax, then a compass
    search calling ``objective`` on a (B, 3) batch of positions, halving its step on failure."""
    x = region.grid_position(coords, int(np.argmax(values)))
    axes = region.free_axes
    if not (cfg.refine and axes):
        return x, float(np.max(values))
    fx = float(objective(x[None, :])[0])
    lo, hi = region.origin, region.upper
    step = cfg.coarse_step / 2.0
    for _ in range(120):
        if step < 1e-4:
            break
        cands = np.repeat(x[None, :], 2 * len(axes), axis=0)
        for k, a in enumerate(axes):
            cands[2 * k, a] = min(x[a] + step, hi[a])
            cands[2 * k + 1, a] = max(x[a] - step, lo[a])
        fc = objective(cands)
        best = int(np.argmax(fc))
        if fc[best] > fx:
            x, fx = cands[best], float(fc[best])
        else:
            step /= 2.0
    return x, fx


def reference_position(kind, signal, interference, region, cfg):
    """The one-trial SNR or SINR search (20 dB levels) on channel_gain and field_on_grid."""
    rho = 100.0
    hs, coords = field_on_grid(signal, region, cfg.coarse_step)
    if kind == "snr":
        level = lambda h: rho * np.abs(h) ** 2
        return reference_search(level(hs), coords, region, cfg, lambda r: level(channel_gain(signal, r)))
    hi, _ = field_on_grid(interference, region, cfg.coarse_step)
    sinr = lambda a, b: rho * np.abs(a) ** 2 / (rho * np.abs(b) ** 2 + 1.0)
    return reference_search(sinr(hs, hi), coords, region, cfg,
                            lambda r: sinr(channel_gain(signal, r), channel_gain(interference, r)))


def reference_trials(kind, num_paths, region, trials, seed, cfg):
    """The per-trial loop that the batched one replaced: one draw and one search per trial."""
    return np.array([reference_position(kind, sample_stochastic_channel(num_paths, (seed, t)),
                                        sample_stochastic_channel(num_paths, (seed, t, 1)), region, cfg)[1]
                     for t in range(trials)])


# (region, path count, coarse step, trials).  With 2^15-element blocks, the
# 201^2 grid takes one trial per coarse block, and 300 paths split 50 trials
# into several draw, coarse and refine blocks.  Two paths on a 20-wavelength
# square give SNR ridge maps, which take the exact tables alone, and SINR
# maps of two phases, which rank fast; the far-off square scales the ranking
# margin with its coordinates.
BATCH_CASES = {
    "0-axes": (Region.square(0.0), 4, 0.25, 5),
    "1-axis": (Region(origin=[-1.0, 0.5, 0.0], extents=[2.5, 0.0, 0.0]), 4, 0.25, 5),
    "2-axes": (Region.square(2.0), 4, 0.25, 5),
    "3-axes": (Region(origin=[-0.5, -0.5, -0.25], extents=[1.0, 1.0, 0.5]), 3, 0.25, 4),
    "grid-over-block": (Region.square(20.0), 3, 0.1, 3),
    "many-blocks": (Region.square(1.0), 300, 0.25, 50),
    "L=2": (Region.square(20.0), 2, 0.1, 4),
    "far-off": (Region(origin=[1000.0, -3000.0, 0.0], extents=[20.0, 20.0, 0.0]), 4, 0.25, 3),
}


@pytest.mark.parametrize("refine", [True, False], ids=["refine", "coarse"])
@pytest.mark.parametrize("kind", ["snr", "sinr"])
@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_batched_trials_match_per_trial_reference(case, kind, refine):
    region, num_paths, step, trials = BATCH_CASES[case]
    cfg = SearchConfig(coarse_step=step, refine=refine)
    values = level_trials(kind, num_paths, [region], trials, 21, cfg)[0]
    assert values.tobytes() == reference_trials(kind, num_paths, region, trials, 21, cfg).tobytes()


@pytest.fixture
def split_tables(monkeypatch):
    """The argument tuples of every _split_response call made while the test runs."""
    built, split = [], channel._split_response
    monkeypatch.setattr(channel, "_split_response", lambda *args: built.append(args) or split(*args))
    return built


@pytest.mark.parametrize("case", ["1-axis", "2-axes", "3-axes"])
def test_position_search_matches_one_trial_reference(case, split_tables):
    region, num_paths, step, _ = BATCH_CASES[case]
    signal, interference = (sample_stochastic_channel(num_paths, (22, s)) for s in (0, 1))
    cfg = SearchConfig(coarse_step=step)
    searches = {"snr": max_snr_position(signal, region, cfg, rho=100.0),
                "sinr": max_sinr_position(signal, interference, region, cfg)}
    for kind, (pos, value) in searches.items():
        ref_pos, ref_value = reference_position(kind, signal, interference, region, cfg)
        assert pos.tobytes() == ref_pos.tobytes() and value == ref_value and type(value) is float
    # One table per free axis and channel of a search ranked fast: every search here but the SNR
    # search on the 3-axis box, whose L = 3 map has two phases for three axes.
    axes = len(region.free_axes)
    assert len(split_tables) == (axes if num_paths - 1 >= axes else 0) + 2 * axes


def test_one_draw_serves_every_region_size():
    sizes, cfg = (0.0, 1.0, 3.0), SearchConfig(coarse_step=0.2)
    for kind in ("snr", "sinr"):
        shared = level_trials(kind, 5, [Region.square(a) for a in sizes], 12, 23, cfg)
        separate = np.array([level_trials(kind, 5, [Region.square(a)], 12, 23, cfg)[0] for a in sizes])
        assert shared.tobytes() == separate.tobytes()


# Region lists for one level_trials call against separate single-region
# calls: a point, a 1-axis segment, two squares and a 3-axis box; no region
# at all; and 300 paths, whose refine budget of 2 x 2 x 300 elements per
# search splits the 2 x 20 square searches of one draw into two blocks.
MERGED_CASES = {
    "mixed": ([Region.square(0.0), BATCH_CASES["1-axis"][0], Region.square(1.0), Region.square(2.0),
               BATCH_CASES["3-axes"][0]], 4, 5),
    "empty": ([], 4, 3),
    "many-blocks": ([Region.square(0.0), Region.square(1.0), Region.square(2.0)], 300, 20),
}


@pytest.mark.parametrize("refine", [True, False], ids=["refine", "coarse"])
@pytest.mark.parametrize("kind", ["snr", "sinr"])
@pytest.mark.parametrize("case", sorted(MERGED_CASES))
def test_merged_refine_matches_single_region_calls(case, kind, refine):
    regions, num_paths, trials = MERGED_CASES[case]
    cfg = SearchConfig(coarse_step=0.25, refine=refine)
    merged, evals, _ = positioning._sweep(kind, num_paths, regions, trials, 24, cfg)
    assert merged.shape == evals.shape == (len(regions), trials)
    assert merged.tobytes() == level_trials(kind, num_paths, regions, trials, 24, cfg).tobytes()
    for region, values in zip(regions, merged):
        assert values.tobytes() == level_trials(kind, num_paths, [region], trials, 24, cfg)[0].tobytes()
        assert values.tobytes() == reference_trials(kind, num_paths, region, trials, 24, cfg).tobytes()
    # Each search counts 1 + 2 * |axes| evaluations per iteration it takes itself.
    iterations = {int(n) for region, e in zip(regions, evals) if region.free_axes
                  for n in (e - 1) / (2 * len(region.free_axes))}
    if refine and regions:
        assert len(iterations) > 1  # searches of one call drop out of the lockstep at different iterations
    else:
        assert not evals.any()
    if case == "many-blocks":
        assert len(util._blocks(2 * trials, 2 * 2 * num_paths)) > 1


@pytest.mark.parametrize("margin", [0.0, 0.05, 0.2, math.inf])
@pytest.mark.parametrize("kind", ["snr", "sinr"])
def test_any_ranking_margin_gives_the_exact_values(monkeypatch, kind, margin):
    # Margins from none (a fast argmax is never tied) to infinite (always tied); in between,
    # the one block of 8 trials holds both tied and certified trials.
    monkeypatch.setattr(positioning, "_RANK_MARGIN", margin)
    regions, cfg = [Region.square(1.0), Region.square(2.0)], SearchConfig(coarse_step=0.2)
    values, _, ties = positioning._sweep(kind, 4, regions, 8, 26, cfg)
    if margin == 0.0:
        assert not ties.any()
    elif margin == math.inf:
        assert ties.all()
    else:
        assert ties.any() and not ties.all()
    for region, row in zip(regions, values):
        assert row.tobytes() == reference_trials(kind, 4, region, 8, 26, cfg).tobytes()


@pytest.mark.parametrize("kind", ["snr", "sinr"])
@pytest.mark.parametrize("case", ["1-axis", "2-axes", "3-axes", "L=2", "far-off"])
def test_fast_maps_stay_inside_the_ranking_margin(case, kind):
    region, num_paths, step, trials = BATCH_CASES[case]
    level, streams = positioning._SWEEP_LEVELS[kind]
    channels = [[_stochastic_paths(num_paths, (27, t, *s))[:2] for t in range(trials)] for s in streams]
    channels = [(np.stack([d for d, _ in ch]), np.stack([c for _, c in ch])) for ch in channels]
    exact, fast = (level(*[_fields_on_grid(d, c, region, step, split)[0] for d, c in channels])
                   for split in (False, True))
    grid = tuple(range(1, exact.ndim))
    error = np.abs(fast - exact).max(axis=grid) / exact.max(axis=grid)
    scale = max(1.0, np.abs([region.origin, region.upper]).max())
    assert (error <= positioning._RANK_MARGIN * scale / 1000).all()


def test_single_path_and_coarse_sweeps_build_no_split_tables(split_tables):
    regions = [Region.square(0.0), Region.square(2.0)]
    for kind in ("snr", "sinr"):
        level_trials(kind, 1, regions, 3, 28, SearchConfig(coarse_step=0.25))
        level_trials(kind, 3, regions, 3, 28, SearchConfig(coarse_step=0.25, refine=False))
    # Two paths: an SNR map has one phase <d_2 - d_1, r> for two free axes, so its ridges could only tie.
    region, num_paths, step, trials = BATCH_CASES["L=2"]
    _, _, ties = positioning._sweep("snr", num_paths, [region], trials, 21, SearchConfig(coarse_step=step))
    assert split_tables == [] and not ties.any()
    level_trials("snr", 3, regions, 3, 28, SearchConfig(coarse_step=0.25))
    assert len(split_tables) == 2  # one table per free axis of the one block of the square
    # A two-path SINR map has a phase per channel, so it ranks fast: two tables per channel and block.
    split_tables.clear()
    _, _, ties = positioning._sweep("sinr", num_paths, [region], trials, 21, SearchConfig(coarse_step=step))
    blocks = len(util._blocks(trials, channel.grid_count(region.extents[0], step) ** 2))
    assert len(split_tables) == 2 * 2 * blocks and not ties.any()
