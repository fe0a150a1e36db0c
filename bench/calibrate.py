"""Fixed reference loops that track how fast the machine runs right now.

On a shared VM the same request can take twice as long for a few
seconds, and the whole machine can run 1.6x faster or slower from one
minute to the next.  Both show up in a loop that does the same kind of
work as a workload much as in the workload itself.  The loops use no
convlin code, so no change to the program can move them.  There are two
kinds: ``interpreted`` (small-array numpy calls, scalar numpy arithmetic
and plain Python, like the training and SVD workloads) and ``arrays``
(a large random scatter, like the vectorized Monte Carlo).

``scale(kind, ref_s)`` turns a wall-clock duration measured next to a
loop time ``ref_s`` into seconds on the machine at its ``REFERENCE_S``
speed: about the loop's time on the machine the benchmark was defined on
(2 vCPUs of an Intel Xeon, 105 MB L3, Python 3.11.7, numpy 2.4.6).  The
constants only fix the scale; any others would keep the comparisons
between runs the same.
"""

import time

import numpy as np

# Seconds per pass of each loop on the machine the benchmark was defined on.
REFERENCE_S = {"interpreted": 0.005, "arrays": 0.011}

_rng = np.random.default_rng(0)
_POS = _rng.integers(0, 100, (300, 1))
_VALS = np.ones((300, 1))
_Y = np.where(_rng.random(300) < 0.5, -1, 1)
_SYM = _rng.random((5, 5))


def _interpreted():
    """A hinge-like step on small arrays, Jacobi-like rotations on a
    5 x 5 matrix and plain interpreted arithmetic, in about equal parts."""
    c = np.zeros(100)
    for _ in range(50):
        m = _Y * (_VALS * c[_POS]).sum(axis=1)
        act = m < 1.0
        s = np.bincount(_POS[act].ravel(),
                        weights=(_Y[act, None] * _VALS[act]).ravel(), minlength=100)
        c += 1e-3 * s
    A = _SYM + _SYM.T
    for _ in range(12):
        for p in range(4):
            for q in range(p + 1, 5):
                theta = (A[q, q] - A[p, p]) / (2.0 * A[p, q] + 1e-9)
                t = np.sign(theta) / (abs(theta) + np.hypot(1.0, theta))
                cs = 1.0 / np.hypot(1.0, t)
                col_p, col_q = A[:, p].copy(), A[:, q].copy()
                A[:, p] = cs * col_p - t * cs * col_q
                A[:, q] = t * cs * col_p + cs * col_q
                A = (A + A.T) / 2.0
    acc = 0
    for i in range(8_000):
        acc += i * i % 7


def _arrays():
    """A Monte-Carlo scatter of 2000 x 300 random positions into a
    boolean array, the kind of array work the theory estimators do."""
    hits = np.zeros((2000, 102), dtype=bool)
    hits[np.arange(2000)[:, None], _rng.integers(1, 101, size=(2000, 300))] = True
    (hits[:, 5:101] & hits[:, 4:100]).any(axis=1)


def reference_seconds(kind):
    """Wall time of one pass of the ``kind`` loop.  The work is fixed;
    only its speed varies."""
    loop = _interpreted if kind == "interpreted" else _arrays
    t0 = time.perf_counter()
    loop()
    return time.perf_counter() - t0


def scale(kind, ref_s):
    """Factor from wall seconds next to a ``kind`` loop time ``ref_s``
    to reference seconds."""
    return REFERENCE_S[kind] / ref_s
