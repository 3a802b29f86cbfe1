import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from masim.channel import (_SPLIT_ERROR, MIN_SPACING, ChannelSpec, Region, channel_gain,
                           direction_from_angles, sample_stochastic_channel)
from masim.mimo import (_capacity_batch, _channel_rows, _greedy, _grid_channel_rows, _grid_near,
                        _initial_ula_placement, _near, _row_replacement_scores, capacity_identity_cov,
                        capacity_waterfilling, greedy_rx_placement, tx_ula)


def explicit_channel_matrix(spec, tx, rx_positions):
    """Entry-by-entry construction straight from the per-path formula."""
    m, n = len(rx_positions), len(tx)
    h = np.zeros((m, n), dtype=complex)
    for i in range(m):
        for j in range(n):
            for rx_dir, tx_dir, coeff in zip(spec.rx_directions, spec.tx_directions,
                                             spec.coefficients):
                h[i, j] += coeff * np.exp(2j * np.pi * (rx_dir @ rx_positions[i])) \
                    * np.exp(2j * np.pi * (tx_dir @ tx[j]))
    return h


def waterfilling_bisection_oracle(singular_values, rho_total):
    """Independent solver: bisect the water level until powers sum to rho."""
    gains = singular_values[singular_values > 1e-12] ** 2
    inv = 1.0 / gains
    lo, hi = inv.min(), inv.min() + rho_total
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.maximum(0.0, mid - inv).sum() > rho_total:
            hi = mid
        else:
            lo = mid
    level = 0.5 * (lo + hi)
    power = np.maximum(0.0, level - inv)
    return float(np.log2(1.0 + power * gains).sum()), power


def random_mimo_spec(num_paths, seed):
    return sample_stochastic_channel(num_paths, seed, include_tx=True)


def test_single_path_rank_one_unit_entries():
    rx_dir = direction_from_angles(0.6, 1.0)
    tx_dir = direction_from_angles(1.1, 4.0)
    spec = ChannelSpec([rx_dir], [1.0], [tx_dir])
    rx = np.array([[0, 0, 0], [0.6, 0, 0], [1.2, 0, 0]], dtype=float)
    h = _channel_rows(spec, tx_ula(4), rx)
    np.testing.assert_allclose(np.abs(h), 1.0, atol=1e-12)
    s = np.linalg.svd(h, compute_uv=False)
    assert s[1] < 1e-12 * s[0]


def test_single_pair_reduces_to_channel_gain():
    spec = random_mimo_spec(5, 77)
    t = np.array([[0.3, 0.1, 0.0]])
    r = np.array([[1.0, -0.4, 0.2]])
    h = _channel_rows(spec, t, r)
    # Fold the tx-side phase of each path into its coefficient.
    folded = ChannelSpec(spec.rx_directions,
                         spec.coefficients * np.exp(2j * np.pi * (spec.tx_directions @ t[0])))
    assert abs(h[0, 0] - channel_gain(folded, r[0])) < 1e-12


def test_matrix_matches_explicit_construction():
    spec = random_mimo_spec(6, 78)
    tx = tx_ula(4)
    rx_positions = np.array([[0, 0, 0], [0.7, 0.2, 0], [0.1, 1.1, 0], [1.5, 1.5, 0]], dtype=float)
    h = _channel_rows(spec, tx, rx_positions)
    oracle = explicit_channel_matrix(spec, tx, rx_positions)
    np.testing.assert_allclose(h, oracle, atol=1e-12)
    np.testing.assert_allclose(np.linalg.svd(h, compute_uv=False),
                               np.linalg.svd(oracle, compute_uv=False), atol=1e-9)


# Candidate grids of the greedy search: a line, a square, a 3-axis box, and the far-off square of
# test_positioning's BATCH_CASES, whose coordinates scale the phase tables' error.
GRID_ROW_REGIONS = {
    "1-axis": (Region(origin=[-1.0, 0.5, 0.0], extents=[2.5, 0.0, 0.0]), 0.1),
    "2-axes": (Region.square(3.0), 0.1),
    "3-axes": (Region(origin=[-0.75, -0.5, -0.25], extents=[1.5, 1.0, 0.5]), 0.25),
    "far-off": (Region(origin=[1000.0, -3000.0, 0.0], extents=[20.0, 20.0, 0.0]), 0.25),
}


@pytest.mark.parametrize("num_tx", (1, 4))
@pytest.mark.parametrize("case", sorted(GRID_ROW_REGIONS))
def test_grid_rows_match_channel_rows_at_the_grid_positions(case, num_tx):
    # The rows from the split phase tables, against one field_response per candidate position,
    # row for row in grid_position's row-major order.
    region, step = GRID_ROW_REGIONS[case]
    coords = region.grid_coords(step)
    candidates = region.grid_position(coords, np.arange(math.prod(c.size for c in coords)))
    scale, tx = max(1.0, np.abs([region.origin, region.upper]).max()), tx_ula(num_tx)
    for seed in range(3):
        spec = random_mimo_spec(15, (36, seed))
        rows = _grid_channel_rows(spec, tx, region, step)
        exact = _channel_rows(spec, tx, candidates)
        assert rows.shape == exact.shape == (len(candidates), num_tx)
        bound = len(region.free_axes) * _SPLIT_ERROR * scale * np.abs(spec.coefficients).sum() * num_tx
        assert np.abs(rows - exact).max() <= bound


def test_spacing_violations_rejected():
    spec, region = random_mimo_spec(2, 79), Region.square(1.0)
    for bad_tx in ([[0, 0, 0], [0.2, 0, 0]], [[0, 0, 0], [np.nan, 0, 0]], [[0, 0, 0], [np.inf, 0, 0]]):
        with pytest.raises(ValueError):
            greedy_rx_placement(spec, region, 1, bad_tx, [1.0], step=0.5)
    with pytest.raises(ValueError, match="departure direction"):
        greedy_rx_placement(ChannelSpec([direction_from_angles(0.1, 0)], [1.0]),
                            region, 1, tx_ula(2), [1.0], step=0.5)


def test_capacity_identity_reference_values():
    assert abs(capacity_identity_cov(np.eye(4, dtype=complex), 4.0) - 4.0) < 1e-12
    assert capacity_identity_cov(np.eye(4, dtype=complex), 0.0) == 0.0
    for h, rho in ((np.eye(4), -1.0), (np.eye(4), np.nan), (np.zeros((4, 0)), 4.0)):
        with pytest.raises(ValueError):
            capacity_identity_cov(h, rho)


# The level rule of every capacity: rho finite and >= 0 (> 0 for water-filling), H finite.
@pytest.mark.parametrize("capacity, h, rho", [
    (capacity_identity_cov, np.eye(2), math.inf),
    (capacity_identity_cov, math.nan * np.eye(2), 1.0),
    (capacity_waterfilling, np.eye(2), math.inf),
    (capacity_waterfilling, np.eye(2), 0.0),
], ids=["identity-inf-rho", "identity-nan-h", "waterfilling-inf-rho", "waterfilling-zero-rho"])
def test_capacities_reject_levels_and_matrices_off_the_rule(capacity, h, rho):
    with pytest.raises(ValueError, match="finite"):
        capacity(h, rho)


@pytest.mark.parametrize("rho", [[1.0], [1.0, 2.0], np.array([1.0, 2.0])], ids=["one-list", "two-list", "array"])
@pytest.mark.parametrize("capacity, name", [(capacity_identity_cov, "rho"), (capacity_waterfilling, "rho_total")])
def test_capacities_take_one_level(capacity, name, rho):
    with pytest.raises(ValueError, match=f"{name} must be one level"):
        capacity(np.eye(2), rho)


def test_capacity_identity_matches_singular_value_formula():
    rng = np.random.default_rng(30)
    for _ in range(10):
        h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = float(rng.uniform(0.1, 50.0))
        c = capacity_identity_cov(h, rho)
        s = np.linalg.svd(h, compute_uv=False)
        oracle = np.log2(1.0 + (rho / 4.0) * s ** 2).sum()
        assert abs(c - oracle) < 1e-9


def test_capacity_identity_matches_singular_values_at_high_snr():
    rng = np.random.default_rng(37)
    h = rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))
    rho = 1e20  # 200 dB
    oracle = math.log2(1.0 + rho * np.linalg.norm(h) ** 2)
    assert abs(capacity_identity_cov(h, rho) - oracle) < 1e-9 * oracle
    h = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    rho = 1e30  # 300 dB
    oracle = np.log2(1.0 + (rho / 4.0) * np.linalg.svd(h, compute_uv=False) ** 2).sum()
    assert abs(capacity_identity_cov(h, rho) - oracle) < 1e-9 * oracle


def test_capacity_identity_exact_for_rank_deficient_h_at_high_snr():
    # One path gives the rank-one 4 x 4 H = c a_r a_t^T, |entries| = |c|, so its one nonzero
    # singular value is 4|c| and the capacity is log2(1 + rho/4 * 16|c|^2).  At 300 dB the
    # rounding of H's entries (singular values near 1e-16) adds under 0.01 bits.
    spec = sample_stochastic_channel(1, (3, 1, 0), include_tx=True)
    h = _channel_rows(spec, tx_ula(4), tx_ula(4))
    for snr_db, atol in ((200.0, 1e-9), (300.0, 0.01)):
        rho = 10.0 ** (snr_db / 10.0)
        exact = math.log2(1.0 + rho / 4.0 * 16.0 * abs(spec.coefficients[0]) ** 2)
        assert capacity_identity_cov(h, rho) == pytest.approx(exact, rel=0.0, abs=atol)


def test_capacity_unitary_invariance():
    rng = np.random.default_rng(31)
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q1, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    q2, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    assert abs(capacity_identity_cov(h, 7.0) - capacity_identity_cov(q1 @ h @ q2, 7.0)) < 1e-9


def test_waterfilling_equal_gains_split_evenly():
    result = capacity_waterfilling(2.0 * np.eye(3, dtype=complex), 6.0)
    np.testing.assert_allclose(result.allocation, 2.0, atol=1e-12)
    assert abs(result.allocation.sum() - 6.0) < 1e-9


def test_waterfilling_single_eigenchannel():
    u = np.array([[1.0], [1j], [-1.0]]) / math.sqrt(3)
    v = np.array([[1.0, 1j]]) / math.sqrt(2)
    h = 2.5 * u @ v  # rank one, singular value 2.5
    result = capacity_waterfilling(h, 3.0)
    assert abs(result.allocation[0] - 3.0) < 1e-9
    assert abs(result.capacity - math.log2(1.0 + 3.0 * 2.5 ** 2)) < 1e-9


def test_waterfilling_matches_bisection_and_dominates_identity():
    rng = np.random.default_rng(32)
    for _ in range(20):
        h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = float(rng.uniform(0.05, 30.0))
        result = capacity_waterfilling(h, rho)
        s = np.linalg.svd(h, compute_uv=False)
        oracle_c, oracle_p = waterfilling_bisection_oracle(s, rho)
        assert abs(result.capacity - oracle_c) < 1e-9
        np.testing.assert_allclose(result.allocation[:oracle_p.size], oracle_p, atol=1e-7)
        assert abs(result.allocation.sum() - rho) < 1e-9
        assert result.capacity >= capacity_identity_cov(h, rho) - 1e-12


def test_waterfilling_kkt_conditions():
    rng = np.random.default_rng(33)
    h = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    result = capacity_waterfilling(h, 0.5)
    gains = result.singular_values ** 2
    active = result.allocation > 0
    levels = result.allocation[active] + 1.0 / gains[active]
    np.testing.assert_allclose(levels, result.water_level, atol=1e-9)
    # Complementary slackness: inactive inverse-gains sit above the water.
    assert (1.0 / gains[~active] >= result.water_level - 1e-12).all()


def test_waterfilling_rejects_rank_zero():
    with pytest.raises(ValueError):
        capacity_waterfilling(np.zeros((3, 3), dtype=complex), 1.0)
    with pytest.raises(ValueError):
        capacity_waterfilling(np.eye(3, dtype=complex), 0.0)


def test_greedy_placement_improves_and_respects_spacing():
    region = Region.square(3.0)
    tx = tx_ula(4)
    for seed in range(5):
        spec = random_mimo_spec(8, (90, seed))
        (positions,), (initial,), (capacity,), (passes,) = greedy_rx_placement(
            spec, region, 4, tx, [10.0], step=0.2)
        assert capacity >= initial - 1e-12
        trace = [initial] + passes
        assert all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))
        assert all(region.contains(r) for r in positions)
        diffs = positions[:, None, :] - positions[None, :, :]
        dist = np.linalg.norm(diffs, axis=2) + 10 * np.eye(4)
        assert dist.min() >= 0.5 - 1e-9


def test_greedy_placement_single_antenna_reaches_grid_maximum():
    # One Rx antenna has no spacing constraint: the first pass moves it to
    # the candidate grid point with the largest capacity.
    region = Region.square(1.0)
    tx = tx_ula(2)
    spec = random_mimo_spec(6, 93)
    _, _, (capacity,), _ = greedy_rx_placement(spec, region, 1, tx, [10.0], step=0.25)
    coords = region.grid_coords(0.25)
    best = max(capacity_identity_cov(_channel_rows(spec, tx, np.array([[x, y, 0.0]])), 10.0)
               for x in coords[0] for y in coords[1])
    assert capacity == pytest.approx(best, rel=1e-12)


def test_greedy_placement_rejects_tiny_region():
    spec = random_mimo_spec(3, 91)
    with pytest.raises(ValueError):
        greedy_rx_placement(spec, Region.square(1.0), 4, tx_ula(4), [10.0])


def test_ma_beats_fpa_more_with_richer_multipath():
    region = Region.square(3.0)
    tx = tx_ula(4)
    gains = {}
    for num_paths in (5, 15):
        g = []
        for seed in range(15):
            spec = random_mimo_spec(num_paths, (92, num_paths, seed))
            _, (initial,), (capacity,), _ = greedy_rx_placement(spec, region, 4, tx, [10.0], step=0.1)
            g.append(capacity - initial)
        assert min(g) >= 0.0
        gains[num_paths] = float(np.mean(g))
    assert gains[15] > gains[5]


def reference_greedy_search(spec, region, num_rx, tx, rho, step):
    """The greedy loop as it was before rank-one scoring: every antenna step copies the
    (C, M, N) candidate batch and computes the capacity of every candidate still far enough
    from the other antennas; at most 10 passes, stopping after one that gains under 1e-6 bits.
    Returns the placement, the final and per-pass capacities and
    the number of steps in which every candidate was too near another antenna."""
    num_tx = len(tx)
    positions = _initial_ula_placement(region, num_rx)
    h = _channel_rows(spec, tx, positions)
    capacity = float(_capacity_batch(h, rho, num_tx))
    coords = region.grid_coords(step)
    candidates = region.grid_position(coords, np.arange(math.prod(c.size for c in coords)))
    rows_cand = _channel_rows(spec, tx, candidates)
    pass_capacities, fully_blocked = [], 0
    for _ in range(10):
        before = capacity
        for m in range(num_rx):
            others = np.delete(positions, m, axis=0)
            gaps = np.linalg.norm(candidates[:, None, :] - others[None, :, :], axis=2)
            ok = gaps.min(axis=1, initial=np.inf) >= MIN_SPACING - 1e-9
            if not ok.any():
                fully_blocked += 1
                continue
            h_batch = np.broadcast_to(h, (int(ok.sum()),) + h.shape).copy()
            h_batch[:, m, :] = rows_cand[ok]
            caps = _capacity_batch(h_batch, rho, num_tx)
            best = int(np.argmax(caps))
            if caps[best] > capacity:
                capacity = float(caps[best])
                idx = np.nonzero(ok)[0][best]
                positions[m] = candidates[idx]
                h[m, :] = rows_cand[idx]
        pass_capacities.append(capacity)
        if capacity - before < 1e-6:
            break
    return positions, capacity, pass_capacities, fully_blocked


def real_rows(rows):
    """Candidate rows (..., C, N) as the scoring takes them: [Re r | Im r], (..., C, 2N)."""
    return np.concatenate((rows.real, rows.imag), axis=-1)


def assert_scores_match_log_det(h, m, rows, spans, rho, rtol, argmax_gap=0.0):
    """Scores each search of ``h`` (S, M, N) with ``rows`` (K, C, N) complex and checks the
    capacities formed from the scores and the log-det against the log-det of every replaced
    matrix, from its singular values: finite, within ``rtol``, and the scores' argmax the oracle's
    wherever its top two capacities differ by more than ``argmax_gap`` relative."""
    num_tx = h.shape[-1]
    a = rho / num_tx
    q, log_det = _row_replacement_scores(h, m, real_rows(rows), a, spans)
    assert q.shape == (len(h), rows.shape[1]) and log_det.shape == (len(h),)
    scores = (np.log1p(a[:, None] * q) + log_det[:, None]) / math.log(2.0)
    assert np.isfinite(scores).all()
    for k, span in spans:
        for s in range(span.start, span.stop):
            batch = np.broadcast_to(h[s], (rows.shape[1],) + h.shape[1:]).copy()
            batch[:, m, :] = rows[k]
            oracle = _capacity_batch(batch, rho[s], num_tx)
            np.testing.assert_allclose(scores[s], oracle, rtol=rtol, atol=0.0)
            top = np.sort(oracle)[-2:]
            if top[1] - top[0] > argmax_gap * abs(top[1]):
                assert int(np.argmax(q[s])) == int(np.argmax(oracle))


@pytest.mark.parametrize("num_tx", (1, 4))
@pytest.mark.parametrize("num_rx", (1, 2, 4, 6))
def test_row_replacement_scores_match_log_det(num_rx, num_tx):
    # One batch of searches on two channels of candidate rows, each search with its own H and
    # SNR, up to 1000 dB, where only the null-space weights keep the scores exact.
    rng = np.random.default_rng((34, num_rx, num_tx))
    snrs_db = np.array([-10.0, 20.0, 100.0, 300.0, 1000.0])
    rho = 10.0 ** (snrs_db / 10.0)
    spans = [(0, slice(0, 2)), (1, slice(2, 5))]
    for _ in range(4):
        draw = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        h, rows = draw(snrs_db.size, num_rx, num_tx), draw(2, 40, num_tx)
        assert_scores_match_log_det(h, int(rng.integers(num_rx)), rows, spans, rho, 1e-10)


@pytest.mark.parametrize("num_paths", (1, 2, 3))
@pytest.mark.parametrize("num_rx", (2, 4))
def test_row_replacement_scores_stay_exact_on_rank_deficient_channels(num_paths, num_rx):
    # With L < N = 4 paths every H and every candidate row lies in the span of L steering
    # vectors, so H_ has singular values at rounding level and a s^2 spans 1e-12 to 1e20.  A
    # gram of the rows against (I + a H_^H H_)^-1 cancels the range once a s^2 swamps 1 and
    # loses the scores, NaN by 200 dB; summing over the singular vectors one by one keeps them.
    tx, region = tx_ula(4), Region.square(3.0)
    coords = region.grid_coords(0.25)
    candidates = region.grid_position(coords, np.arange(math.prod(c.size for c in coords)))
    snrs_db = np.array([20.0, 60.0, 100.0, 150.0, 200.0])
    rho = 10.0 ** (snrs_db / 10.0)
    rng = np.random.default_rng((35, num_paths, num_rx))
    for seed in range(3):
        specs = [random_mimo_spec(num_paths, (35, num_paths, num_rx, seed, k)) for k in range(2)]
        rows = np.stack([_channel_rows(spec, tx, candidates) for spec in specs])
        # Each search's H on its channel, at Rx positions drawn from the candidates.
        h = np.stack([_channel_rows(specs[s // 3], tx, candidates[rng.choice(len(candidates), num_rx)])
                      for s in range(6)])
        spans = [(0, slice(0, 3)), (1, slice(3, 6))]
        level = np.concatenate((rho[:3], rho[2:5]))
        assert_scores_match_log_det(h, int(rng.integers(num_rx)), rows, spans, level, 1e-10, 1e-9)


@pytest.mark.parametrize("case", [
    # (num paths, region, num_rx, num_tx, rho, step, seeds, some step has every candidate blocked)
    (8, Region.square(3.0), 4, 4, 10.0, 0.2, range(4), False),
    (15, Region.square(3.0), 4, 4, 0.1, 0.25, range(2), False),
    (15, Region.square(3.0), 4, 4, 100.0, 0.25, range(2), False),
    (6, Region.square(1.5), 1, 2, 10.0, 0.1, range(3), False),
    (10, Region.square(2.0), 3, 2, 10.0, 0.2, range(3), False),
    (10, Region.square(2.0), 4, 1, 1.0, 0.2, range(2), False),
    # Line of length 1 with three antennas at -0.5, 0, 0.5 and candidates at -0.5, -0.2, 0.1,
    # 0.4: every candidate of the middle antenna is too near one of the others.
    (6, Region([-0.5, 0.0, 0.0], [1.0, 0.0, 0.0]), 3, 2, 10.0, 0.3, range(3), True),
    # A box: each candidate row is the product of three phase tables' rows.
    (10, GRID_ROW_REGIONS["3-axes"][0], 4, 4, 10.0, 0.25, range(3), False),
], ids=["4x4", "4x4-low-snr", "4x4-high-snr", "1-rx", "3x2", "4x1", "all-blocked", "3-axes"])
@pytest.mark.filterwarnings("error")  # a fully blocked step must not take log1p of -inf
def test_greedy_placement_matches_full_capacity_reference(case):
    num_paths, region, num_rx, num_tx, rho, step, seeds, blocked = case
    tx = tx_ula(num_tx)
    blocked_steps = 0
    for seed in seeds:
        spec = random_mimo_spec(num_paths, (94, num_paths, seed))
        positions, capacity, passes, fully_blocked = reference_greedy_search(
            spec, region, num_rx, tx, rho, step)
        alone = greedy_rx_placement(spec, region, num_rx, tx, [rho], step=step)
        # The same search as the middle one of a lockstep batch of three SNRs.
        batch = greedy_rx_placement(spec, region, num_rx, tx, [rho / 10.0, rho, rho * 10.0], step)
        for got_positions, got_passes, got_capacity in (
                (alone[0][0], alone[3][0], alone[2][0]),
                (batch[0][1], batch[3][1], batch[2][1])):
            np.testing.assert_array_equal(got_positions, positions)
            assert len(got_passes) == len(passes)
            np.testing.assert_allclose(got_passes, passes, rtol=1e-12, atol=0.0)
            assert got_capacity == pytest.approx(capacity, rel=1e-12, abs=0.0)
        blocked_steps += fully_blocked
    assert (blocked_steps > 0) == blocked


def assert_stacked_searches_equal_one_search_calls():
    # Four channels, of L = 5 and 15, each at four SNRs in one lockstep call: the searches stop
    # after different numbers of passes, and each result is bit for bit that of the entry called
    # on its channel at its level alone.
    region, tx = Region.square(3.0), tx_ula(4)
    rhos = np.array([10.0 ** (snr_db / 10.0) for snr_db in (-10.0, 0.0, 10.0, 20.0)])
    specs = [random_mimo_spec(num_paths, (96, num_paths, seed)) for num_paths in (5, 15) for seed in range(2)]
    stacked = _greedy(specs, region, 4, tx, rhos, 0.1)
    assert len({len(p) for passes in stacked[3] for p in passes}) > 1
    for spec, *per_level in zip(specs, *stacked):
        for rho, positions, initial, capacity, passes in zip(rhos, *per_level):
            alone = greedy_rx_placement(spec, region, 4, tx, [rho], step=0.1)
            np.testing.assert_array_equal(positions, alone[0][0])
            assert initial == alone[1][0]
            assert capacity == alone[2][0]
            assert passes == alone[3][0]


@pytest.mark.parametrize("coretype", [None, "Haswell", "Sandybridge"],
                         ids=["default", "haswell", "sandybridge"])
def test_stacked_searches_equal_one_search_calls(coretype):
    # In process, and in a fresh process on the OpenBLAS kernels an AVX2-only or an AVX-only
    # host would pick, which round some products apart from the default kernels.
    if coretype is None:
        assert_stacked_searches_equal_one_search_calls()
        return
    here = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype,
               PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)]))
    script = ("import test_mimo\nfrom masim.experiments import _environment\n"
              "test_mimo.assert_stacked_searches_equal_one_search_calls()\nprint(_environment()['blas_core'])")
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split()[-1] in (coretype, "None")  # the kernel asked for, where it can be read


def test_greedy_placement_rejects_bad_tx_positions():
    spec = random_mimo_spec(3, 97)
    for tx in (5.0, [0.0, 0.0, 0.0], [[0.0, 0.0, 0.0], [0.2, 0.0, 0.0]]):
        with pytest.raises(ValueError, match="tx positions|tx antenna positions"):
            greedy_rx_placement(spec, Region.square(2.0), 2, tx, [1.0])


def test_greedy_placement_rejects_bad_rho():
    spec = random_mimo_spec(3, 95)
    for rho in (np.nan, np.inf, -1.0):
        with pytest.raises(ValueError):
            greedy_rx_placement(spec, Region.square(2.0), 2, tx_ula(2), [rho])


@pytest.mark.parametrize("num_rx", [0, -1, 2.0, True, None])
def test_greedy_search_rejects_num_rx_off_the_rule(num_rx):
    with pytest.raises(ValueError, match="num_rx"):
        greedy_rx_placement(random_mimo_spec(3, 98), Region.square(2.0), num_rx, tx_ula(2), [1.0])


@pytest.mark.parametrize("count", [2.5, True, 0, None])
def test_tx_ula_rejects_a_count_off_the_rule(count):
    with pytest.raises(ValueError, match="num_elements must be an integer >= 1"):
        tx_ula(count)


@pytest.mark.parametrize("rhos", [[], np.zeros(0), 10.0, [[1.0, 10.0]]],
                         ids=["empty-list", "empty-array", "scalar", "nested"])
def test_greedy_search_needs_a_sequence_of_levels(rhos):
    with pytest.raises(ValueError, match="rhos"):
        greedy_rx_placement(random_mimo_spec(3, 98), Region.square(2.0), 2, tx_ula(2), rhos)


def test_greedy_search_returns_one_result_per_level():
    region, rhos = Region.square(2.0), [10.0, 1000.0, 0.0]
    spec = random_mimo_spec(6, 99)
    positions, initial, capacity, passes = greedy_rx_placement(spec, region, 3, tx_ula(2), rhos, 0.2)
    assert positions.shape == (3, 3, 3)
    assert initial.shape == capacity.shape == (3,)
    assert len(passes) == 3 and all(len(p) >= 1 for p in passes)
    # Each level has its own search: the capacities grow with the SNR and read 0 at rho = 0.
    assert capacity[0] < capacity[1] and capacity[2] == initial[2] == 0.0


@pytest.mark.parametrize("num_channels", (1, 3), ids=["one-channel", "stacked"])
def test_greedy_search_memory_does_not_grow_with_candidates_squared(num_channels):
    # Region.square(10.0) at step 0.1 holds C = 10,201 candidates: one C x C boolean table would
    # take 99 MiB, while the search's arrays grow with C alone.  Three channels are the block of
    # 10-lambda channels the search stacks under mimo._LOCKSTEP_ELEMENTS.
    specs, tx = [random_mimo_spec(8, (100, k)) for k in range(num_channels)], tx_ula(4)
    rhos = np.array([10.0 ** (snr_db / 10.0) for snr_db in (-10.0, 0.0, 10.0, 20.0)])
    tracemalloc.start()
    try:
        _greedy(specs, Region.square(10.0), 4, tx, rhos, step=0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


STENCIL_REGIONS = {  # off-origin regions, so the grid coordinates carry rounding
    "1-axis": Region([-1.3, 0.0, 0.2], [2.6, 0.0, 0.0]),
    "2-axis": Region([0.7, -2.1, 0.0], [2.0, 1.5, 0.0]),
    "3-axis": Region([-0.45, 0.3, 1.1], [1.0, 0.8, 0.6]),
    "10-lambda": Region.square(10.0),
}
STENCIL_GRIDS = [(name, step) for name in ("1-axis", "2-axis", "3-axis")
                 for step in (0.05, 0.1, 0.125, 0.25, 0.3, 1 / 6, 1 / 14, 1 / 30)] + [("10-lambda", 0.1)]


@pytest.mark.parametrize("name, step", STENCIL_GRIDS, ids=[f"{n}-{s:.4g}" for n, s in STENCIL_GRIDS])
def test_grid_near_windows_equal_near_at_every_grid_point(name, step):
    # The window of _grid_near at grid point b equals _near of the candidates against point b, at
    # every grid point, or at 2,000 sampled ones on a larger grid.  At steps 0.1 and 0.125 some
    # gaps land on MIN_SPACING itself.
    region = STENCIL_REGIONS[name]
    coords = region.grid_coords(step)
    shape = tuple(c.size for c in coords)
    candidates = region.grid_position(coords, np.arange(math.prod(shape)))
    points = np.arange(len(candidates))
    if len(points) > 2000:
        points = np.random.default_rng(len(points)).choice(points, 2000, replace=False)
    grid_near = _grid_near(shape, step)
    assert grid_near.shape == shape + shape
    for b in np.array_split(points, -(-len(points) // 100)):
        windows = grid_near[np.unravel_index(b, shape)].reshape(len(b), -1)
        np.testing.assert_array_equal(windows, _near(candidates, candidates[b]))
    # Not a vacuous match: along the first axis from a corner, the point k - 1 steps away is too
    # near and the point k steps away, at least MIN_SPACING, is not.
    k = math.ceil(MIN_SPACING / step - 1e-6)
    corner = grid_near[(0,) * len(shape)]
    assert corner[(k - 1,) + (0,) * (len(shape) - 1)] and not corner[(k,) + (0,) * (len(shape) - 1)]


def test_waterfilling_rejects_bad_inputs():
    h = np.eye(3, dtype=complex)
    h_nan = h.copy()
    h_nan[1, 2] = np.nan
    for matrix, rho in ((h, np.nan), (np.ones(3, dtype=complex), 1.0), (h_nan, 1.0)):
        with pytest.raises(ValueError):
            capacity_waterfilling(matrix, rho)
