import math
import tracemalloc

import numpy as np
import pytest

import masim.positioning as positioning
import masim.util as util
from conftest import brute_force_power_scan
from masim.channel import (ChannelSpec, Region, _axis_tables, _grid_product, _stochastic_paths, channel_gain,
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


@pytest.mark.parametrize("levels", [[100.0], [1.0, 2.0], np.array([100.0])], ids=["one-list", "two-list", "array"])
def test_position_searches_take_one_level(two_path, levels):
    region = Region.square(1.0)
    searches = {"rho": [lambda: max_snr_position(two_path, region, rho=levels),
                        lambda: max_sinr_position(two_path, two_path, region, rho=levels)],
                "rho_interference": [lambda: max_sinr_position(two_path, two_path, region, rho_interference=levels)]}
    for name, calls in searches.items():
        for search in calls:
            with pytest.raises(ValueError, match=f"{name} must be one level"):
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


@pytest.mark.parametrize("r", [[math.nan, 0.0, 0.0], [0.0, math.inf, 0.0], [0.3, -0.7], [[0.3, -0.7, 0.0]]])
def test_gradient_rejects_bad_positions(two_path, r):
    with pytest.raises(ValueError, match="position"):
        snr_gradient(two_path, r)


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
# SearchConfig(coarse_step=0.25, refine)): for L = 4 from the separate SNR and
# SINR search and trial loops that the shared ones replaced (the unrefined
# grid values since the grid reads split phase tables), for L = 1 the closed
# form of a map without a phase, with or without refine.  The L = 4 values were re-pinned, each
# within 6e-16 relative, when the float64 fields moved to one fixed-order evaluator.
PINNED_TRIALS = {
    ("snr", 4, True): [104.5415909254671, 306.3925162846064, 125.44214554008855],
    ("snr", 4, False): [96.14386039247168, 303.1392639568304, 121.669104747706],
    ("snr", 1, True): [43.41526935018295, 29.071748301876095, 97.49924951525377],
    ("snr", 1, False): [43.41526935018295, 29.071748301876095, 97.49924951525377],
    ("sinr", 4, True): [32.33533596404743, 177.65783474187037, 29.73919029297722],
    ("sinr", 4, False): [30.11697072876944, 48.38828304729763, 26.930167090934518],
    ("sinr", 1, True): [0.7146072603807628, 0.19003365070638076, 0.5392976010903947],
    ("sinr", 1, False): [0.7146072603807628, 0.19003365070638076, 0.5392976010903947],
}


@pytest.mark.parametrize("key", sorted(PINNED_TRIALS), ids=lambda k: f"{k[0]}-L{k[1]}-refine{k[2]}")
def test_trials_match_pinned_values(key):
    kind, num_paths, refine = key
    cfg = SearchConfig(coarse_step=0.25, refine=refine)
    values = level_trials(kind, num_paths, [Region.square(2.0)], 3, 7, cfg)[0]
    assert values.tolist() == PINNED_TRIALS[key]


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


def reference_position(kind, signal, interference, region, cfg, rho=100.0):
    """The one-trial SNR or SINR search (levels ``rho``, 20 dB by default) on channel_gain and
    field_on_grid."""
    hs, coords = field_on_grid(signal, region, cfg.coarse_step)
    if kind == "snr":
        level = lambda h: rho * np.abs(h) ** 2
        return reference_search(level(hs), coords, region, cfg, lambda r: level(channel_gain(signal, r)))
    hi, _ = field_on_grid(interference, region, cfg.coarse_step)
    sinr = lambda a, b: rho * np.abs(a) ** 2 / (rho * np.abs(b) ** 2 + 1.0)
    return reference_search(sinr(hs, hi), coords, region, cfg,
                            lambda r: sinr(channel_gain(signal, r), channel_gain(interference, r)))


def reference_trials(kind, num_paths, region, trials, seed, cfg, rho=100.0, scale=1.0):
    """The per-trial loop that the batched one replaced: one draw and one search per trial, with
    every path coefficient times ``scale``."""
    def draw(*stream):
        spec = sample_stochastic_channel(num_paths, stream)
        return ChannelSpec(spec.rx_directions, scale * spec.coefficients)
    return np.array([reference_position(kind, draw(seed, t), draw(seed, t, 1), region, cfg, rho)[1]
                     for t in range(trials)])


# (region, path count, coarse step, trials).  With 2^15-element blocks, the
# 201^2 grid takes one trial per coarse block, and 300 paths split 50 trials
# into several draw, coarse and refine blocks.  Two paths on a 20-wavelength
# square give SNR ridge maps and SINR maps of two phases; the far-off square
# scales the phase tables' error with its coordinates.  The thin box's second axis keeps one grid
# point, so each of its grid products is a matrix-vector product.
BATCH_CASES = {
    "0-axes": (Region.square(0.0), 4, 0.25, 5),
    "1-axis": (Region(origin=[-1.0, 0.5, 0.0], extents=[2.5, 0.0, 0.0]), 4, 0.25, 5),
    "2-axes": (Region.square(2.0), 4, 0.25, 5),
    "3-axes": (Region(origin=[-0.5, -0.5, -0.25], extents=[1.0, 1.0, 0.5]), 3, 0.25, 4),
    "grid-over-block": (Region.square(20.0), 3, 0.1, 3),
    "many-blocks": (Region.square(1.0), 300, 0.25, 50),
    "L=2": (Region.square(20.0), 2, 0.1, 4),
    "far-off": (Region(origin=[1000.0, -3000.0, 0.0], extents=[20.0, 20.0, 0.0]), 4, 0.25, 3),
    "thin": (Region(origin=[-1.0, 0.3, 0.0], extents=[5.0, 0.05, 0.0]), 5, 0.1, 6),
}


@pytest.mark.parametrize("refine", [True, False], ids=["refine", "coarse"])
@pytest.mark.parametrize("kind", ["snr", "sinr"])
@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_batched_trials_match_per_trial_reference(case, kind, refine):
    region, num_paths, step, trials = BATCH_CASES[case]
    cfg = SearchConfig(coarse_step=step, refine=refine)
    values = level_trials(kind, num_paths, [region], trials, 21, cfg)[0]
    assert values.tobytes() == reference_trials(kind, num_paths, region, trials, 21, cfg).tobytes()


# Maps without a phase <d_l - d_1, r>: one path per channel on regions of 0 to 3 free axes and on a
# far-off square, and four paths on a point off the origin.
CONSTANT_CASES = {
    "L=1-0-axes": (Region.square(0.0), 1),
    "L=1-1-axis": (BATCH_CASES["1-axis"][0], 1),
    "L=1-2-axes": (Region.square(2.0), 1),
    "L=1-3-axes": (BATCH_CASES["3-axes"][0], 1),
    "L=1-far-off": (BATCH_CASES["far-off"][0], 1),
    "L=4-point": (Region(origin=[0.3, -1.7, 0.25], extents=[0.0, 0.0, 0.0]), 4),
}


@pytest.mark.parametrize("refine", [True, False], ids=["refine", "coarse"])
@pytest.mark.parametrize("kind", ["snr", "sinr"])
@pytest.mark.parametrize("case", sorted(CONSTANT_CASES))
def test_constant_maps_take_the_closed_form(monkeypatch, case, kind, refine):
    region, num_paths = CONSTANT_CASES[case]
    cfg = SearchConfig(coarse_step=0.25, refine=refine)
    monkeypatch.setattr(positioning, "_coarse", lambda *args: pytest.fail("a constant map reached the grid scan"))
    values, work = positioning._sweep(kind, num_paths, [region], 5, 28, cfg)
    signal, interference = (sample_stochastic_channel(num_paths, (29, s)) for s in (0, 1))
    pos, value = {"snr": lambda: max_snr_position(signal, region, cfg, rho=100.0),
                  "sinr": lambda: max_sinr_position(signal, interference, region, cfg)}[kind]()
    # The grid-and-refine search of the reference reaches the closed form up to rounding.
    np.testing.assert_allclose(values[0], reference_trials(kind, num_paths, region, 5, 28, cfg), rtol=1e-12, atol=0)
    assert not work["refine_evaluations"].any()
    assert (work["coarse_points"] == 1).all()  # the one point of the closed form, with no grid
    assert pos.tobytes() == region.origin.tobytes()
    np.testing.assert_allclose(value, reference_position(kind, signal, interference, region, cfg)[1],
                               rtol=1e-12, atol=0)


@pytest.mark.parametrize("kind", ["snr", "sinr"])
def test_one_path_values_do_not_depend_on_the_region(kind):
    values = level_trials(kind, 1, [Region.square(a) for a in (0.0, 2.0, 5.0, 20.0)], 6, 30)
    assert (values == values[0]).all()


@pytest.fixture
def grid_fields(monkeypatch):
    """The channels of every field_on_grid call the position searches make while the test runs."""
    fields, grid = [], positioning.field_on_grid
    monkeypatch.setattr(positioning, "field_on_grid", lambda spec, *args: fields.append(spec) or grid(spec, *args))
    return fields


@pytest.mark.parametrize("case", ["1-axis", "2-axes", "3-axes"])
def test_position_search_matches_one_trial_reference(case, grid_fields):
    region, num_paths, step, _ = BATCH_CASES[case]
    signal, interference = (sample_stochastic_channel(num_paths, (22, s)) for s in (0, 1))
    cfg = SearchConfig(coarse_step=step)
    searches = {"snr": max_snr_position(signal, region, cfg, rho=100.0),
                "sinr": max_sinr_position(signal, interference, region, cfg)}
    for kind, (pos, value) in searches.items():
        ref_pos, ref_value = reference_position(kind, signal, interference, region, cfg)
        assert pos.tobytes() == ref_pos.tobytes() and value == ref_value and type(value) is float
    # Each grid fits one tile, so each search reads one field_on_grid per channel.
    assert grid_fields == [signal, signal, interference]


def test_one_draw_serves_every_region_size():
    sizes, cfg = (0.0, 1.0, 3.0), SearchConfig(coarse_step=0.2)
    for kind in ("snr", "sinr"):
        shared = level_trials(kind, 5, [Region.square(a) for a in sizes], 12, 23, cfg)
        separate = np.array([level_trials(kind, 5, [Region.square(a)], 12, 23, cfg)[0] for a in sizes])
        assert shared.tobytes() == separate.tobytes()


# Region lists for one level_trials call against separate single-region
# calls: a point, a 1-axis segment, two squares and a 3-axis box; no region
# at all; 300 paths, whose refine budget of 2 x 2 x 300 elements per
# search splits the 2 x 20 square searches of one draw into two blocks; and a
# point at a shipped path count, 20, whose one-factor path sum numpy's einsum
# does not add in path order (it does up to 4 paths).
MERGED_CASES = {
    "mixed": ([Region.square(0.0), BATCH_CASES["1-axis"][0], Region.square(1.0), Region.square(2.0),
               BATCH_CASES["3-axes"][0]], 4, 5),
    "empty": ([], 4, 3),
    "many-blocks": ([Region.square(0.0), Region.square(1.0), Region.square(2.0)], 300, 20),
    "shipped-L20": ([Region.square(0.0), Region.square(2.0)], 20, 6),
}


@pytest.mark.parametrize("refine", [True, False], ids=["refine", "coarse"])
@pytest.mark.parametrize("kind", ["snr", "sinr"])
@pytest.mark.parametrize("case", sorted(MERGED_CASES))
def test_merged_refine_matches_single_region_calls(case, kind, refine):
    regions, num_paths, trials = MERGED_CASES[case]
    cfg = SearchConfig(coarse_step=0.25, refine=refine)
    merged, work = positioning._sweep(kind, num_paths, regions, trials, 24, cfg)
    evals = work["refine_evaluations"]
    assert merged.shape == evals.shape == (len(regions), trials)
    # Each search counts its grid's points once, and a point region its one point.
    for region, points in zip(regions, work["coarse_points"]):
        assert (points == (math.prod(len(c) for c in region.grid_coords(0.25)) if region.free_axes else 1)).all()
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


@pytest.fixture
def ranked_tiles(monkeypatch):
    """The shape (Tb, rows, *sides[1:]) of every complex64 ranking tile the coarse scans compute
    while the test runs, once per channel: the ``out`` of each of their complex64 grid products."""
    shapes, product = [], positioning._grid_product

    def recording(head, tail, out=None):
        if head.dtype == np.complex64:
            shapes.append(out.shape)
        return product(head, tail, out=out)
    monkeypatch.setattr(positioning, "_grid_product", recording)
    return shapes


@pytest.mark.parametrize("kind", ["snr", "sinr"])
@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_tiles_merge_to_the_reference_values(monkeypatch, ranked_tiles, case, kind):
    region, num_paths, step, trials = BATCH_CASES[case]
    cfg = SearchConfig(coarse_step=step)
    work = positioning._sweep(kind, num_paths, [region], trials, 21, cfg)[1]
    ranked_tiles.clear()
    # 200-element blocks: the 201 x 201 grids take one row per tile and the 81 x 81 grid two,
    # while the 1-axis, 2-axis and 3-axis grids pack 4, 2 and 2 trials into one tile.
    monkeypatch.setattr(util, "_BLOCK_ELEMENTS", 200)
    values, tiled = positioning._sweep(kind, num_paths, [region], trials, 21, cfg)
    assert values[0].tobytes() == reference_trials(kind, num_paths, region, trials, 21, cfg).tobytes()
    rescans = [work.pop("coarse_rescan_rows"), tiled.pop("coarse_rescan_rows")]
    assert all(tiled[name].tobytes() == counts.tobytes() for name, counts in work.items())
    rows = len(region.grid_coords(step)[0]) if region.free_axes else None
    # Each scanned search recomputes between 1 and all of its rows in float64.  How many depends on
    # the float32 maxima, which a one-row complex64 tile (here, on the 201 x 201 grids) rounds apart
    # from a wider one, so the two tilings may differ.
    for counts in rescans:
        assert ((counts >= 1) & (counts <= rows)).all() if rows else not counts.any()
    sizes, spans = {shape[0] for shape in ranked_tiles}, {shape[1] for shape in ranked_tiles}
    # A tile of more than one trial covers every row of the grid.
    assert all(shape[1] == rows for shape in ranked_tiles if shape[0] > 1)
    if case in ("grid-over-block", "L=2", "far-off"):
        assert max(spans) < rows and sizes == {1}
    if case in ("1-axis", "2-axes", "3-axes"):
        assert spans == {rows} and max(sizes) > 1


def test_later_tiles_win_only_when_strictly_larger(monkeypatch, ranked_tiles):
    # One path, 4 x 2 grids of |a_i b_j|^2 in tiles of one row: the first trial peaks at 4 in
    # rows 1 and 3, the second at 4 in row 1, then at 9 in row 3.
    a = np.array([[1, 2, 0.5, 2], [1, 2, 0.5, 3]], dtype=complex)[..., None]
    b = np.array([[1, 0.5], [1, 0.5]], dtype=complex)[..., None]
    level = positioning._level([1.0])
    monkeypatch.setattr(util, "_BLOCK_ELEMENTS", 2)
    channel = [(np.zeros((1, 1, 3)), np.ones((1, 1), dtype=complex))]
    start, peak = [], []
    for t in range(2):  # each trial as a one-trial scan of its own tables
        monkeypatch.setattr(positioning, "_axis_tables", lambda *args: (a[t:t + 1], b[t:t + 1]))
        ranked_tiles.clear()
        (first,), (top,), _ = positioning._coarse(channel, [1.0], Region.square(1.0), [4, 2], 0.25, None)
        assert ranked_tiles == [(1, 1, 2)] * 4
        start.append(int(first))
        peak.append(float(top))
    # The scan keeps the first of the first trial's equal maxima in rows 1 and 3, as the whole
    # map's argmax does.
    whole = level(positioning._power(_grid_product(a, b))).reshape(2, -1)
    assert start == whole.argmax(axis=1).tolist() == [2, 6] and peak == [4, 9]
    assert np.array(peak).tobytes() == whole.max(axis=1).tobytes()


# A 361 x 361 grid (A = 18, step 0.05) takes one-trial tiles of 90 rows, so its last row, 360,
# is a tile alone; each (seed, trial) below has its map's maximum in that row.
@pytest.mark.parametrize("kind, seed, trials, trial", [("snr", 9, 3, 2), ("sinr", 32, 2, 1)])
def test_maximum_in_a_lone_last_row_keeps_the_whole_maps_value(kind, seed, trials, trial):
    region, cfg = Region.square(18.0), SearchConfig(coarse_step=0.05, refine=False)
    coords = region.grid_coords(cfg.coarse_step)
    assert len(coords[0]) == 361 and util._BLOCK_ELEMENTS // 361 == 90
    signal, interference = (sample_stochastic_channel(5, (seed, trial, *s)) for s in ((), (1,)))
    assert reference_position(kind, signal, interference, region, cfg)[0][0] == coords[0][360]
    values = level_trials(kind, 5, [region], trials, seed, cfg)[0]
    assert values.tobytes() == reference_trials(kind, 5, region, trials, seed, cfg).tobytes()


@pytest.mark.parametrize("kind, seed, trials, trial", [("snr", 9, 3, 2), ("sinr", 32, 2, 1)])
def test_a_lone_candidate_row_is_rescanned_alone(kind, seed, trials, trial):
    # The certificate keeps only the row of the map's maximum, a one-row tile: its trial recomputes
    # that one row in float64 and still returns the whole map's value and start, bit for bit.
    region, cfg = Region.square(18.0), SearchConfig(coarse_step=0.05, refine=False)
    values, work = positioning._sweep(kind, 5, [region], trials, seed, cfg)
    assert work["coarse_rescan_rows"][0, trial] == 1
    assert values[0].tobytes() == reference_trials(kind, 5, region, trials, seed, cfg).tobytes()
    channels = draw_channels(kind, 5, trials, seed)
    x, _, _ = positioning._search(channels, [100.0] * len(channels), [region], cfg)
    signal, interference = (sample_stochastic_channel(5, (seed, trial, *s)) for s in ((), (1,)))
    assert x[0, trial].tobytes() == reference_position(kind, signal, interference, region, cfg)[0].tobytes()


def draw_channels(kind, num_paths, trials, seed, scale=1.0):
    """The channels of ``trials`` trials of a sweep of ``kind``, every coefficient times ``scale``."""
    draws = [[_stochastic_paths(num_paths, (seed, t, *s)) for t in range(trials)]
             for s in ([()] if kind == "snr" else [(), (1,)])]
    return [(np.stack([d[0] for d in ds]), scale * np.stack([d[1] for d in ds])) for ds in draws]


# Random maps for the float32 ranking certificate: 1, 2 and 3 free axes, 2 to 300 paths, and the
# far-off square, whose phase tables carry coordinates near 3000.
CERTIFICATE_CASES = {
    "1-axis-L300": (BATCH_CASES["1-axis"][0], 300, 0.05),
    "2-axes-L2": (Region.square(20.0), 2, 0.1),
    "2-axes-L20": (Region.square(5.0), 20, 0.05),
    "2-axes-L300": (Region.square(2.0), 300, 0.1),
    "3-axes-L50": (BATCH_CASES["3-axes"][0], 50, 0.1),
    "far-off-L20": (BATCH_CASES["far-off"][0], 20, 0.25),
}


@pytest.mark.parametrize("kind", ["snr", "sinr"])
@pytest.mark.parametrize("case", sorted(CERTIFICATE_CASES))
def test_ranking_certificate_covers_the_float32_levels(case, kind):
    region, num_paths, step = CERTIFICATE_CASES[case]
    channels = draw_channels(kind, num_paths, 4, 31)
    rhos = [100.0] * len(channels)
    a, b, r = positioning._ranking_errors([c for _, c in channels], rhos)
    level, shape = positioning._level(rhos), (4, len(region.grid_coords(step)[0]), -1)
    tables = [_axis_tables(d, c, region, step) for d, c in channels]
    v64 = level(*[positioning._power(_grid_product(*ts)) for ts in tables]).reshape(shape)
    v32 = level(*[positioning._power(_grid_product(*[t.astype(np.complex64) for t in ts])) for ts in tables])
    assert v32.dtype == np.float32
    v32 = v32.reshape(shape).astype(float)
    assert (v32 != v64).any()  # the float32 levels do round apart
    # A trial whose interference error B is at least 1/2 rescans every row instead.
    certified, a, b = b < 0.5, a[:, None, None], b[:, None, None]
    assert (v64 <= (v32 * (1 + r) + a) / (1 - b))[certified].all()
    assert (v64 >= (v32 * (1 - r) - a) / (1 + b))[certified].all()
    assert positioning._candidates(v32.max(axis=2), *positioning._ranking_errors(
        [c for _, c in channels], rhos))[~certified].all()
    assert certified.any() or (kind, num_paths) == ("sinr", 300)


# (coefficient scale, level): float32 powers that overflow, float32 powers that underflow to 0, a
# level whose SINR interference error B exceeds 1/2, and a level below float32's normal numbers.
# Each rescans every row of its searches but the SNR at level 1e30, whose float32 levels stay
# finite and certified.
EXTREME_CASES = {"scale-1e30": (1e30, 100.0), "scale-1e-30": (1e-30, 100.0), "rho-1e30": (1.0, 1e30),
                 "rho-1e-40": (1.0, 1e-40)}


@pytest.mark.parametrize("refine", [True, False], ids=["refine", "coarse"])
@pytest.mark.parametrize("kind", ["snr", "sinr"])
@pytest.mark.parametrize("case", sorted(EXTREME_CASES))
def test_extreme_coefficients_and_levels_keep_the_reference_values(case, kind, refine):
    (scale, rho), region = EXTREME_CASES[case], BATCH_CASES["2-axes"][0]
    cfg = SearchConfig(coarse_step=0.25, refine=refine)
    channels = draw_channels(kind, 4, 3, 21, scale)
    _, values, work = positioning._search(channels, [rho] * len(channels), [region], cfg)
    assert values[0].tobytes() == reference_trials(kind, 4, region, 3, 21, cfg, rho, scale).tobytes()
    if case != "rho-1e30" or kind == "sinr":
        assert (work["coarse_rescan_rows"] == len(region.grid_coords(0.25)[0])).all()


# (kind, path count, refine): refined SINR sweeps and SNR sweeps of one and two paths, and an
# unrefined SINR sweep.
MEMORY_CASES = {"sinr-5-refine": ("sinr", 5, True), "snr-1-refine": ("snr", 1, True),
                "snr-2-refine": ("snr", 2, True), "sinr-5-coarse": ("sinr", 5, False)}


@pytest.mark.parametrize("case", MEMORY_CASES)
def test_refined_sweep_memory_stays_bounded_on_fine_grids(case):
    # A 1001 x 1001 grid per trial: two whole complex maps would take 32 MB, a tile of 32 rows 0.5 MB.
    kind, num_paths, refine = MEMORY_CASES[case]
    cfg = SearchConfig(coarse_step=0.02, refine=refine)
    positioning._sweep(kind, num_paths, [Region.square(1.0)], 1, 29, cfg)  # numpy.random imports its modules
    tracemalloc.start()
    try:
        positioning._sweep(kind, num_paths, [Region.square(20.0)], 2, 29, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


@pytest.mark.parametrize("kind, num_paths", [("snr", 2), ("snr", 5), ("sinr", 5)])
def test_one_trial_search_memory_stays_bounded_on_fine_grids(kind, num_paths, grid_fields):
    # A 1001 x 1001 grid over many tiles: the search scans tiles as a sweep does, not whole maps.
    signal, interference = (sample_stochastic_channel(num_paths, (29, s)) for s in (0, 1))
    cfg = SearchConfig(coarse_step=0.02)
    search = {"snr": lambda region: max_snr_position(signal, region, cfg),
              "sinr": lambda region: max_sinr_position(signal, interference, region, cfg)}[kind]
    search(Region.square(1.0))  # numpy.random imports its modules
    grid_fields.clear()
    tracemalloc.start()
    try:
        search(Region.square(20.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert grid_fields == [] and peak < 2 * 2 ** 20
