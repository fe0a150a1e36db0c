"""Synthetic binary classification tasks on sparse sign vectors.

Every task lives on inputs x in {-1, 0, +1}^d with one or two nonzero
entries, which makes exhaustive enumeration cheap:

* ``cls``      - 2d points: +e_l labelled +1 and -e_l labelled -1.
* ``1stctrl``  - d points e_l; label -1 on the left half (l <= d/2),
                 +1 on the right half.  Needs d even, d >= 4.
* ``3rdctrl``  - d(d-1) points with +1 at position a and -1 at position
                 b != a; label -1 iff a < b.
* ``parity``   - d points e_l; label +1 iff l is odd (1-based).

Positions are 1-based in all documentation; the arrays inside datasets
are 0-based.  All tasks are linearly separable.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, ShapeError

TASKS = ("cls", "1stctrl", "3rdctrl", "parity")


@dataclass
class Dataset:
    """A task's whole dataset, or a training multiset drawn from it.

    Only the nonzeros are stored: ``positions``/``values`` are (N, m)
    arrays (m = 1 or 2 nonzeros per point, 0-based positions), and ``y``
    holds the labels.  Every margin and error is read from the cached
    distinct columns of the signed design, `distinct`, each standing for
    the points that share it, and every tie tolerance from the cached
    input `mass` of each column.  A sum over the points, such as a loss,
    is a sum over the columns weighted by their counts.
    """

    task: str
    d: int
    positions: np.ndarray
    values: np.ndarray
    y: np.ndarray

    def __len__(self):
        return self.y.shape[0]

    @cached_property
    def distinct(self):
        """The distinct columns of the signed design, C-ordered (m, u)
        arrays of the positions and of the y * x values, one row per
        nonzero slot, and a float count of the points that share each.
        The points of a cls set share their columns in pairs, and a drawn
        set repeats its points.  The columns are in lexicographic order of
        their positions, slot by slot, then of their y * x values."""
        positions, yx = self.positions.T, (self.y[:, None] * self.values).T
        # One int64 key per column orders the columns as a sort of the
        # columns themselves would: the positions in slot order, then the
        # rank of each y * x value among all of them.
        values, ranks = np.unique(yx, return_inverse=True)
        if (self.d * len(values)) ** len(yx) > 2**63:
            raise ShapeError(f"{len(yx)} nonzeros at d = {self.d} with {len(values)} "
                             f"distinct values do not fit one int64 key")
        key = np.zeros(len(self), dtype=np.int64)
        for p in positions:
            key = key * self.d + p
        for r in ranks.reshape(yx.shape):
            key = key * len(values) + r
        _, first, counts = np.unique(key, return_index=True, return_counts=True)
        columns = tuple(np.ascontiguousarray(a[:, first]) for a in (positions, yx))
        return columns, counts.astype(float)

    @cached_property
    def mass(self):
        """The input mass of each distinct column, the sum of its |x|
        entries."""
        return np.abs(self.distinct[0][1]).sum(axis=0)


def _check_task_d(task, d):
    if task not in TASKS:
        raise ConfigError(f"unknown task {task!r}; expected one of {TASKS}")
    if d < 2:
        raise ConfigError(f"d must be at least 2, got {d}")
    if task == "1stctrl" and (d % 2 != 0 or d < 4):
        raise ConfigError(f"task 1stctrl needs an even d >= 4, got {d}")


def whole_dataset(task, d):
    """Enumerate every point of a task at dimension d."""
    _check_task_d(task, d)
    if task == "cls":
        pos = np.repeat(np.arange(d), 2)[:, None]
        val = np.tile([1.0, -1.0], d)[:, None]
        y = np.tile([1, -1], d)
    elif task == "1stctrl":
        pos = np.arange(d)[:, None]
        val = np.ones((d, 1))
        y = np.where(np.arange(1, d + 1) <= d // 2, -1, 1)
    elif task == "parity":
        pos = np.arange(d)[:, None]
        val = np.ones((d, 1))
        y = np.where(np.arange(1, d + 1) % 2 == 1, 1, -1)
    else:  # 3rdctrl
        a, b = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
        keep = a != b
        a, b = a[keep], b[keep]
        pos = np.stack([a, b], axis=1)
        val = np.tile([1.0, -1.0], (a.shape[0], 1))
        y = np.where(a > b, 1, -1)
    return Dataset(task=task, d=d, positions=pos.astype(np.intp),
                   values=val, y=y.astype(np.int64))


def sample_training_set(whole, n, rng):
    """Draw n points uniformly with replacement from a whole dataset."""
    if n < 1:
        raise ConfigError(f"training set size must be >= 1, got {n}")
    idx = rng.integers(0, len(whole), size=n)
    return Dataset(task=whole.task, d=whole.d, positions=whole.positions[idx],
                   values=whole.values[idx], y=whole.y[idx])
