import csv

import numpy as np
import pytest

from dicap.data import (TrajectoryFormatError, read_trajectory_csv,
                        window_batches, write_curve_csv,
                        write_trajectory_csv)


def test_trajectory_roundtrip(tmp_path):
    gen = np.random.default_rng(0)
    x = gen.standard_normal((50, 1))
    y = gen.standard_normal((50, 2))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, x, y)
    rx, ry = read_trajectory_csv(path)
    assert np.array_equal(rx, x)
    assert np.array_equal(ry, y)


def test_trajectory_batched_write(tmp_path):
    gen = np.random.default_rng(1)
    x = gen.standard_normal((3, 10, 1))
    y = gen.standard_normal((3, 10, 1))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, x, y)
    rx, ry = read_trajectory_csv(path)
    assert rx.shape == (30, 1)
    assert np.array_equal(rx, x.reshape(30, 1))


def test_empty_file_is_an_error(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(TrajectoryFormatError):
        read_trajectory_csv(path)


def test_header_only_is_an_error(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("x0,y0\n")
    with pytest.raises(TrajectoryFormatError, match="no data rows"):
        read_trajectory_csv(path)


def test_bad_header_is_an_error(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(TrajectoryFormatError):
        read_trajectory_csv(path)


def test_malformed_row_reports_row_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x0,y0\n1.0,2.0\n1.0\n")
    with pytest.raises(TrajectoryFormatError, match="row 3"):
        read_trajectory_csv(path)


def test_non_numeric_cell_reports_row_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x0,y0\n1.0,fish\n")
    with pytest.raises(TrajectoryFormatError, match="row 2"):
        read_trajectory_csv(path)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", [0, 1])
def test_non_finite_value_reports_row_number(tmp_path, bad, column):
    rows = [["1.0", "2.0"] for _ in range(5)]
    rows[3][column] = bad
    path = tmp_path / "bad.csv"
    path.write_text("x0,y0\n" + "".join(f"{a},{b}\n" for a, b in rows))
    with pytest.raises(TrajectoryFormatError,
                       match="row 5: non-finite value"):
        read_trajectory_csv(path)


def test_window_batches_disjoint_blocks():
    x = np.arange(24, dtype=float).reshape(24, 1)
    y = -x
    source = window_batches(x, y, batch=2, steps=4)
    bx, by = source(0)
    assert np.array_equal(bx[:, :, 0], [[0, 1, 2, 3], [4, 5, 6, 7]])
    assert np.array_equal(by, -bx)
    bx, _ = source(1)
    assert np.array_equal(bx[:, :, 0], [[8, 9, 10, 11], [12, 13, 14, 15]])
    # six blocks: iteration 2 takes the last two, iteration 3 wraps to the
    # first two
    bx, _ = source(2)
    assert np.array_equal(bx[:, :, 0], [[16, 17, 18, 19], [20, 21, 22, 23]])
    bx, _ = source(3)
    assert np.array_equal(bx[:, :, 0], [[0, 1, 2, 3], [4, 5, 6, 7]])
    # 22 rows are five blocks of 4 and 2 rows that no batch uses; iteration
    # 2 takes the last block and wraps to the first inside the batch
    x = np.arange(44, dtype=float).reshape(22, 2)
    source = window_batches(x, x[:, :1].copy(), batch=2, steps=4)
    for it, blocks in ((0, [0, 1]), (2, [4, 0]), (3, [1, 2]), (5, [0, 1])):
        bx, by = source(it)
        assert bx.shape == (2, 4, 2) and by.shape == (2, 4, 1)
        assert np.array_equal(bx, [x[4 * b:4 * b + 4] for b in blocks])
        assert np.array_equal(by[:, :, 0], bx[:, :, 0])


def test_window_batches_too_few_rows():
    x = np.zeros((10, 1))
    with pytest.raises(ValueError):
        window_batches(x, x, batch=4, steps=8)


def test_curve_roundtrip(tmp_path):
    curve = [(0, 0.1, 0.2, 0.1), (1, 0.15, 0.3, 0.15)]
    path = tmp_path / "curve.csv"
    write_curve_csv(path, curve)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iteration", "d_y", "d_yx", "estimate"]
    assert [[float(v) for v in row] for row in rows[1:]] == [
        [0, 0.1, 0.2, 0.1], [1, 0.15, 0.3, 0.15]]


def test_curve_with_power_column(tmp_path):
    curve = [(0, 0.1, 0.2, 0.1, 0.99)]
    path = tmp_path / "curve.csv"
    write_curve_csv(path, curve)
    assert path.read_text().splitlines()[0].endswith("realized_power")
