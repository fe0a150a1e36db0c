"""Shift-matrix view of convolutional scoring.

A width-k convolution of x can be written as a matrix product: stack x
and its k-1 left-shifts (zero padded) as the columns of a d x k matrix
A_x, and the conv score of weights (w1, w2) is ``w1 @ A_x.T @ w2``.
Attaching the label gives the signed matrix ``y * A_x``, and averaging
those over a training set yields the single matrix that drives all the
linear training dynamics in `convlin.dynamics`.
"""

import functools

import numpy as np

from .errors import ShapeError

# Tasks for which the training average is provably entrywise
# nonnegative: labels there satisfy y * x = e_l >= 0 for every point.
# (For 1stctrl and parity the left/even positions carry y = -1, so
# y * x has a negative entry and the average is genuinely signed.)
NONNEGATIVE_AVERAGE_TASKS = ("cls",)


# The zero that `shift_matrix` pads x with.
_PAD = np.zeros(1)


@functools.lru_cache(maxsize=16)
def _shift_index(d, k):
    """The read-only (d, k) gather index of `shift_matrix`: entry
    (i, j) is ``min(i + j, d)``, where slot d holds the zero pad."""
    index = np.minimum(np.add.outer(np.arange(d), np.arange(k)), d)
    index.flags.writeable = False
    return index


def shift_matrix(x, k):
    """The d x k matrix whose j-th column is x shifted up by j slots.

    Zero padding at the bottom; entry (i, j) equals ``x[i + j]`` in
    0-based terms.  Requires 1 <= k <= d.  Built as one gather from x
    and one zero through a cached index, so every entry is a copy of an
    entry of x (signed zeros, NaN and infinities included) or +0.0.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ShapeError(f"expected a vector, got shape {x.shape}")
    d = x.shape[0]
    if not 1 <= k <= d:
        raise ShapeError(f"filter width k={k} must satisfy 1 <= k <= d={d}")
    return np.concatenate((x, _PAD)).take(_shift_index(d, k))


def training_average(tr, k):
    """The d x k training average: the mean of ``y * A_x`` over a
    training multiset.

    Because A_x is linear in x, the average equals the shift matrix of
    ``mean(y_i * x_i)``, which is how it is computed.  Raises on an
    empty training set, and enforces entrywise nonnegativity for the
    cls task, where labels equal the sign of the nonzero entry so
    ``y * x`` can never go negative.
    """
    n = len(tr)
    if n == 0:
        raise ValueError("training set is empty")
    # On every task each y * x value is +-1, so each bin is an exact
    # integer sum in any order.
    yx = tr.y[:, None] * tr.values
    mean_vec = np.bincount(tr.positions.ravel(), weights=yx.ravel(), minlength=tr.d)
    mean_vec /= n
    M = shift_matrix(mean_vec, k)
    # Every entry of M is an entry of mean_vec or a zero pad.
    if tr.task in NONNEGATIVE_AVERAGE_TASKS and np.any(mean_vec < 0):
        raise ValueError(f"negative training-average entry on task {tr.task}")
    return M


__all__ = [
    "shift_matrix",
    "training_average",
    "NONNEGATIVE_AVERAGE_TASKS",
]
