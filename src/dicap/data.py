"""Trajectory and curve file formats.

Trajectory CSV: header ``x0..x{dx-1},y0..y{dy-1}``, one time step per row,
a single contiguous realization per file.
"""

import csv
from array import array

import numpy as np


class TrajectoryFormatError(ValueError):
    pass


def write_trajectory_csv(path, x, y):
    """Write paired trajectories; accepts (T, d) or (B, T, d) arrays.

    Batched arrays are concatenated along time (the batch is a set of
    contiguous windows of one realization).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim == 3:
        x = x.reshape(-1, x.shape[-1])
        y = y.reshape(-1, y.shape[-1])
    dx, dy = x.shape[-1], y.shape[-1]
    header = [f"x{i}" for i in range(dx)] + [f"y{i}" for i in range(dy)]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for xr, yr in zip(x, y):
            w.writerow([repr(float(v)) for v in xr]
                       + [repr(float(v)) for v in yr])


def read_trajectory_csv(path):
    """Read a trajectory CSV; returns (x, y) with shape (T, dx)/(T, dy)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TrajectoryFormatError(f"{path}: empty file") from None
        dx = sum(1 for h in header if h.startswith("x"))
        dy = sum(1 for h in header if h.startswith("y"))
        expect = [f"x{i}" for i in range(dx)] + [f"y{i}" for i in range(dy)]
        if dx == 0 or dy == 0 or header != expect:
            raise TrajectoryFormatError(
                f"{path}: header must be x0..x{{dx-1}},y0..y{{dy-1}}, "
                f"got {header}")
        # one flat buffer of doubles, reshaped once: per-row lists of Python
        # floats took many times the memory of the arrays they became
        values = array("d")
        for row_num, row in enumerate(reader, start=2):
            if len(row) != dx + dy:
                raise TrajectoryFormatError(
                    f"{path}: row {row_num}: expected {dx + dy} fields, "
                    f"got {len(row)}")
            try:
                values.extend(map(float, row))
            except ValueError as err:
                raise TrajectoryFormatError(
                    f"{path}: row {row_num}: {err}") from None
    if not values:
        raise TrajectoryFormatError(f"{path}: no data rows")
    table = np.frombuffer(values, dtype=np.float64).reshape(-1, dx + dy)
    return table[:, :dx].copy(), table[:, dx:].copy()


def window_batches(x, y, batch, steps, gen=None):
    """Build a callable producing (B, T, d) batches of contiguous windows.

    With ``gen`` set, each call draws random window starts; otherwise the
    trajectory is cut into disjoint contiguous blocks, cycling by iteration.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = x.shape[0]
    if n < batch * steps:
        raise ValueError(
            f"need at least {batch * steps} rows, file has {n}")
    n_blocks = n // steps

    def source(iteration):
        if gen is not None:
            starts = gen.integers(0, n - steps + 1, size=batch)
        else:
            first = (iteration * batch) % n_blocks
            starts = [((first + j) % n_blocks) * steps for j in range(batch)]
        bx = np.stack([x[s:s + steps] for s in starts])
        by = np.stack([y[s:s + steps] for s in starts])
        return bx, by

    return source


def write_curve_csv(path, curve):
    """Training curve rows (iteration, d_y, d_yx, estimate[, power])."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        header = ["iteration", "d_y", "d_yx", "estimate"]
        if curve and len(curve[0]) == 5:
            header.append("realized_power")
        w.writerow(header)
        for row in curve:
            w.writerow([row[0]] + [repr(float(v)) for v in row[1:]])

