import math
import tracemalloc

import numpy as np
import pytest

from masim.beams import BeamPattern, beam_pattern, steering_vector, uniform_layout, write_pattern_csv
from masim.channel import ChannelSpec, Region, direction_from_angles
from masim.gainmap import DB_FLOOR, evaluate_map, write_gain_map_csv
from masim.mimo import write_capacity_csv
from masim.positioning import write_sweep_csv
from masim.util import write_csv_atomic, write_json_atomic


def reference_csv(path, header, rows):
    """The row-at-a-time writer the column writer replaced: ``repr`` for floats."""
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def floored_gain_map():
    spec = ChannelSpec([direction_from_angles(0.0, 0.0), direction_from_angles(0.7, 0.3)], [1.0, -1.0])
    gm = evaluate_map(spec, Region.square(2.0), 0.25)
    assert 0 < (gm.values == DB_FLOOR).sum() < gm.values.size
    return gm


def nulled_pattern():
    layout = uniform_layout(4, 0.5)
    pattern = beam_pattern(layout, steering_vector(layout, 0.2), 101)
    gain = pattern.gain.copy()
    gain[::7] = 0.0
    return BeamPattern(u=pattern.u, gain=gain)


def gain_map_case(path):
    gm = floored_gain_map()
    write_gain_map_csv(gm, path)
    return "x,y,gain_db", ((float(x), float(y), float(gm.values[i, j]))
                           for i, x in enumerate(gm.coords0) for j, y in enumerate(gm.coords1))


def pattern_case(path):
    pattern = nulled_pattern()
    write_pattern_csv(pattern, path)
    return "u,gain_linear,gain_db", (
        (float(u), float(g), float(10.0 * math.log10(g) if g > 0.0 else DB_FLOOR))
        for u, g in zip(pattern.u, pattern.gain))


def scalars_case(path):
    floats = [-0.0, 5e-324, 1e-05, 1e16, 1.7976931348623157e308, 0.1 + 0.2]
    ints = list(range(-2, 4))
    np_ints = list(np.arange(10, 16, dtype=np.int64))
    strs = ["a", "b", "c", "d", "e", "f"]
    write_csv_atomic(path, "f,i,n,s", (floats, iter(ints), np_ints, strs))
    return "f,i,n,s", zip(floats, ints, np_ints, strs)


def one_row_case(path):
    write_csv_atomic(path, "a,b", ([7], [0.5]))
    return "a,b", [(7, 0.5)]


def zero_row_case(path):
    write_csv_atomic(path, "a,b", ([], []))
    return "a,b", []


def sweep_case(path):
    rows = [(np.int64(5), np.float64(2.5), 20, np.float64(13.1)), (15, 0.1 + 0.2, 3, -0.0)]
    write_sweep_csv(rows, path)
    return "L,A_lambda,trials,metric_db", ((int(l), float(a), int(n), float(m)) for l, a, n, m in rows)


def empty_sweep_case(path):
    write_sweep_csv([], path)
    return "L,A_lambda,trials,metric_db", []


def empty_capacity_case(path):
    write_capacity_csv([], path)
    return "snr_db,L,seed,capacity_fpa,capacity_ma", []


@pytest.mark.parametrize("case", [gain_map_case, pattern_case, scalars_case, one_row_case,
                                  zero_row_case, sweep_case, empty_sweep_case, empty_capacity_case])
def test_column_writer_matches_row_writer_bytes(tmp_path, case):
    header, rows = case(str(tmp_path / "new.csv"))
    reference_csv(str(tmp_path / "old.csv"), header, rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


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
