import math
import tracemalloc

import numpy as np
import pytest

import masim.beams as beams
import masim.gainmap as gainmap
from masim.channel import ChannelSpec, Region, direction_from_angles, sample_stochastic_channel
from masim.experiments import run_experiment
from masim.gainmap import DB_FLOOR, evaluate_map
from masim.mimo import greedy_rx_placement, tx_ula
from masim.util import write_csv_atomic, write_json_atomic

# Two paths of equal power and opposite sign: their field cancels exactly at the origin.
FLOORED_PATHS = [{"theta": 0.0, "phi": 0.0, "coeff_re": 1.0, "coeff_im": 0.0},
                 {"theta": 0.7, "phi": 0.3, "coeff_re": -1.0, "coeff_im": 0.0}]


def reference_csv(path, header, rows):
    """The row-at-a-time writer the column writer replaced: ``repr`` for floats."""
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def anchored_map(spec, region, step):
    """The gain map of ``region`` moved to start at the origin: the phase tables give a grid's first
    point exactly, so FLOORED_PATHS cancel there."""
    return evaluate_map(spec, Region(origin=[0.0, 0.0, 0.0], extents=region.extents), step)


def floored_gain_map():
    spec = ChannelSpec([direction_from_angles(0.0, 0.0), direction_from_angles(0.7, 0.3)], [1.0, -1.0])
    gm = anchored_map(spec, Region.square(2.0), 0.25)
    assert 0 < (gm.values == DB_FLOOR).sum() < gm.values.size
    return gm


def gain_map_case(out, monkeypatch):
    monkeypatch.setattr(gainmap, "evaluate_map", anchored_map)
    run_experiment({"kind": "gainmap", "seed": 0, "region_size": 2.0, "step": 0.25, "paths": FLOORED_PATHS},
                   str(out))
    gm = floored_gain_map()
    return [(out / "gain_map.csv", "x,y,gain_db", ((float(x), float(y), float(gm.values[i, j]))
                                                    for i, x in enumerate(gm.coords0)
                                                    for j, y in enumerate(gm.coords1)))]


def pattern_case(out, monkeypatch):
    patterns, array_gain = [], beams.array_gain

    def nulled_pattern(layout, weights, u):
        gain = array_gain(layout, weights, u)
        if np.ndim(u) == 0:  # the summary's gains at u1 and u2
            return gain
        gain[::7] = 0.0
        patterns.append((u, gain))
        return gain

    monkeypatch.setattr(beams, "array_gain", nulled_pattern)
    run_experiment({"kind": "beam", "seed": 0, "num_elements": 4, "objective": "two-beam",
                    "u1": 0.2, "u2": -0.3, "pattern_points": 101}, str(out))
    # The runner samples the FPA pattern, then the MA one.
    return [(out / name, "u,gain_linear,gain_db", (
        (float(u), float(g), float(10.0 * math.log10(g) if g > 0.0 else DB_FLOOR))
        for u, g in zip(*pattern)))
        for name, pattern in zip(["pattern_fpa.csv", "pattern_ma.csv"], patterns, strict=True)]


def scalars_case(out, monkeypatch):
    floats = [-0.0, 5e-324, 1e-05, 1e16, 1.7976931348623157e308, 0.1 + 0.2]
    ints = list(range(-2, 4))
    np_ints = list(np.arange(10, 16, dtype=np.int64))
    strs = ["a", "b", "c", "d", "e", "f"]
    write_csv_atomic(str(out / "new.csv"), "f,i,n,s", (floats, iter(ints), np_ints, strs))
    return [(out / "new.csv", "f,i,n,s", zip(floats, ints, np_ints, strs))]


def one_row_case(out, monkeypatch):
    write_csv_atomic(str(out / "new.csv"), "a,b", ([7], [0.5]))
    return [(out / "new.csv", "a,b", [(7, 0.5)])]


def zero_row_case(out, monkeypatch):
    write_csv_atomic(str(out / "new.csv"), "a,b", ([], []))
    return [(out / "new.csv", "a,b", [])]


def sweep_case(out, monkeypatch):
    cfg = {"kind": "snr", "seed": 4, "path_counts": [1, 3], "region_sizes": [0.0, 0.3, 1.5], "trials": 3,
           "coarse_step": 0.5}
    results = run_experiment(cfg, str(out))["results"]
    return [(out / "snr_sweep.csv", "L,A_lambda,trials,metric_db", (
        (l, a, 3, results[f"L{l}_A{a:g}"]["metric_db"]) for l in cfg["path_counts"] for a in cfg["region_sizes"]))]


def capacity_case(out, monkeypatch):
    cfg = {"kind": "mimo", "seed": 5, "num_tx": 2, "num_rx": 2, "path_counts": [1, 3],
           "snr_db_list": [-5.0, 10.0], "seeds": 2, "region_size": 1.0, "step": 0.25}
    run_experiment(cfg, str(out))
    # Each row's search run alone, which the lockstep searches of a run equal bit for bit.
    searches = {(snr_db, l, k): greedy_rx_placement(
        sample_stochastic_channel(l, (cfg["seed"], l, k), include_tx=True), Region.square(1.0), 2, tx_ula(2),
        [10.0 ** (snr_db / 10.0)], 0.25)
        for snr_db in cfg["snr_db_list"] for l in cfg["path_counts"] for k in range(2)}
    return [(out / "capacity_sweep.csv", "snr_db,L,seed,capacity_fpa,capacity_ma",
             (key + (float(fpa), float(ma)) for key, (_, (fpa,), (ma,), _) in searches.items()))]


@pytest.mark.parametrize("case", [gain_map_case, pattern_case, scalars_case, one_row_case,
                                  zero_row_case, sweep_case, capacity_case])
def test_column_writer_matches_row_writer_bytes(tmp_path, monkeypatch, case):
    for path, header, rows in case(tmp_path, monkeypatch):
        reference_csv(str(tmp_path / "old.csv"), header, rows)
        assert path.read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_unequal_columns_leave_nothing(tmp_path):
    with pytest.raises(ValueError):
        write_csv_atomic(str(tmp_path / "bad.csv"), "a,b", ([1, 2, 3], [1.0, 2.0]))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_json_writer_rejects_non_finite_numbers_and_leaves_nothing(tmp_path, value):
    with pytest.raises(ValueError):
        write_json_atomic(str(tmp_path / "summary.json"), {"results": {"nmse": value}})
    assert list(tmp_path.iterdir()) == []


def test_lazy_column_failure_leaves_nothing(tmp_path):
    def failing_column():
        for i in range(10_000):
            yield i * 0.5
        raise RuntimeError("column failed")

    # The failure comes after several blocks have reached the temp file.
    with pytest.raises(RuntimeError, match="column failed"):
        write_csv_atomic(str(tmp_path / "bad.csv"), "a,b", (range(20_000), failing_column()))
    assert list(tmp_path.iterdir()) == []


def test_writer_streams_in_bounded_blocks(tmp_path):
    path = tmp_path / "big.csv"
    n = 100_000
    tracemalloc.start()
    try:
        write_csv_atomic(str(path), "i,x", (range(n), (i * 0.1 for i in range(n))))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    lines = path.read_text().splitlines()
    assert len(lines) == n + 1 and lines[-1] == f"{n - 1},{(n - 1) * 0.1!r}"
    # A writer that joined the whole file would peak above its size.
    assert peak < path.stat().st_size / 4
