"""Probability calculators for the generalization analysis.

The limiting error of extreme-hinge conv training on the cls task splits
into two pieces: the chance that the training positions fail a
primitivity condition on the Gram matrix of the training average, and a
coverage term counting test positions farther than k-1 from every
training position (those get margin zero, hence half credit).  This
module has closed forms and Monte-Carlo estimators for both pieces, the
first through its sufficient adjacent-pair condition (whose failure it
also counts exactly, in integer arithmetic), the matching one-layer
closed form, the sample-complexity consequences, and the evenly-spaced
training construction for which the conv advantage provably vanishes.
The adjacent-pair estimator draws its trials in blocks of fixed size, so
its memory does not grow with trials or n.  It marks a row's positions
past the first few only if those hold no pair, and offsets only the
positions it marks.  On the bound-curves grid (d = 100, 10^4 trials at
each of 18 values of n) drawing the positions takes about three quarters
of its time.  Its result and generator state equal those of one draw of
every position, marked in full.

Positions are 1-based throughout this module.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .tasks import Dataset

# Most positions, and most position marks, that one block of trials in
# `estimate_prob_no_adjacent_pair` holds: 256 KB of int32 positions.
DRAW_BLOCK_ELEMENTS = 1 << 16
# Positions per row that the estimator marks before testing for a pair.
_HEAD = 32


def has_adjacent_pair(positions, k, d):
    """Whether some adjacent position pair (i-1, i) with k <= i <= d is
    fully contained in ``positions`` (1-based).

    This is the easy-to-sample sufficient condition for the Gram matrix
    of the training average to be primitive: adjacent columns then share
    support, giving a positive diagonal plus an irreducible pattern.
    """
    s = set(int(p) for p in positions)
    return any(i - 1 in s and i in s for i in range(max(k, 2), d + 1))


def estimate_prob_no_adjacent_pair(d, k, n, trials, rng):
    """Monte-Carlo estimate of the adjacent-pair condition failing.

    Draws n positions uniformly with replacement per trial and reports
    the fraction of trials with no adjacent pair, plus the binomial
    standard error; requires trials >= 100 for a meaningful error bar.
    Trials are drawn and marked in blocks of rows holding at most
    `DRAW_BLOCK_ELEMENTS` positions or marks each, so memory does not
    grow with trials or n.  Consecutive blocks of ``rng.integers``
    continue one stream, so the result equals a single draw of all
    (trials, n) positions bit for bit.

    A block's marks are one flat scatter in which row r's marks start
    at r * (d + 2).  A block marks the first `_HEAD` positions of each
    row and tests for a pair; only the rows with none get their other
    positions marked and tested again.  This is exact: a pair among
    some of a row's positions is a pair among all of them.  The row
    offsets are added only to the slices that get marked, so positions
    that are never marked are never read.  Every position is still
    drawn, so the estimate and the generator state are those of marking
    everything.  Positions are drawn as int32, which holds every d whose
    mark rows fit in memory.  For a range below 2**32 numpy draws int32
    and int64 alike through its 32-bit bounded path, so the values and
    the generator state are those of the default int64 draw, written in
    half the bytes.
    """
    if trials < 100:
        raise ConfigError(f"need at least 100 trials, got {trials}")
    _check_dk(d, k)
    _check_n(n)
    rows = max(1, DRAW_BLOCK_ELEMENTS // max(n, d + 2))
    hits = np.empty((min(rows, trials), d + 2), dtype=bool)
    marks = hits.reshape(-1)
    row_start = np.arange(0, hits.size, d + 2)[:, None]
    lo, head = max(k, 2), min(n, _HEAD)

    def no_pair(marked):
        return ~(marked[:, lo : d + 1] & marked[:, lo - 1 : d]).any(axis=1)

    misses = 0
    for start in range(0, trials, rows):
        block = hits[: min(rows, trials - start)]
        block[:] = False
        starts = row_start[: len(block)]
        pos = rng.integers(1, d + 1, size=(len(block), n), dtype=np.int32)
        marks[pos[:, :head] + starts] = True
        open_rows = no_pair(block)
        if head < n:
            marks[pos[open_rows, head:] + starts[open_rows]] = True
            open_rows = no_pair(block[open_rows])
        misses += int(np.count_nonzero(open_rows))
    p = misses / trials
    se = math.sqrt(p * (1.0 - p) / trials)
    return p, se


@functools.lru_cache(maxsize=64)
def _no_adjacent_pair_coefficients(d, k):
    """Integers c_i such that sum_i c_i * i**n counts the draws of n
    positions with no adjacent pair, for every n >= 0.

    With lo = max(k, 2), N_j, the number of j-subsets of {1..d} without
    a pair, convolves the free positions 1..lo-2 with the path lo-1..d of
    m nodes, which holds C(m - b + 1, b) b-subsets without neighbours.  The draws hitting
    exactly a given j-subset are the surjections onto it, numbered
    sum_i (-1)^(j-i) C(j, i) i^n; collecting powers of i gives c_i.
    """
    lo = max(k, 2)
    free, m = lo - 2, d - lo + 2
    path = [math.comb(m - b + 1, b) for b in range((m + 1) // 2 + 1)]
    subsets = [0] * (free + len(path))
    for a in range(free + 1):
        for b, ways in enumerate(path):
            subsets[a + b] += math.comb(free, a) * ways
    return tuple(
        sum((-1) ** (j - i) * math.comb(j, i) * subsets[j]
            for j in range(i, len(subsets)))
        for i in range(len(subsets)))


def count_draws_without_adjacent_pair(d, k, n):
    """How many of the d**n sequences of n positions in {1..d} contain no
    adjacent pair in the sense of `has_adjacent_pair`.  Exact integer."""
    _check_dk(d, k)
    _check_n(n)
    return sum(c * i ** n for i, c in enumerate(_no_adjacent_pair_coefficients(d, k)))


def prob_no_adjacent_pair_exact(d, k, n):
    """Exact probability that n uniform positions have no adjacent pair.

    The value `estimate_prob_no_adjacent_pair` samples, as one correctly
    rounded division of integers, so it stays accurate far below the
    Monte-Carlo resolution.  Raises `NumericalError` where the true,
    positive value is below the smallest positive double.
    """
    return _exact_from_count(count_draws_without_adjacent_pair(d, k, n), d, k, n)


def _exact_from_count(count, d, k, n):
    """`prob_no_adjacent_pair_exact` from the count of draws without a pair."""
    return _float_quotient(count, d ** n, f"P(no adjacent pair) at d={d}, k={k}, n={n}")


def _float_quotient(num, den, what):
    """num / den for nonnegative integers, refusing to round a positive
    value to 0.0 or to overflow."""
    if den == 0:
        raise NumericalError(f"{what} has a zero denominator")
    try:
        q = num / den
    except OverflowError:
        raise NumericalError(f"{what} exceeds the largest double") from None
    if q == 0.0 and num != 0:
        raise NumericalError(f"{what} is below the smallest positive double")
    return q


def _check_dk(d, k):
    if d < 2:
        raise ConfigError(f"d must be at least 2, got {d}")
    if not 1 <= k <= d:
        raise ConfigError(f"need 1 <= k <= d, got k={k}, d={d}")


def _check_n(n):
    if n < 0:
        raise ConfigError(f"n must be >= 0, got {n}")


def coverage_term_exact(d, k, n):
    """Half the average probability that a position is uncovered.

    For each test position l the chance that all n uniform training
    positions stay at distance >= k is ((d - k - min(k, l, d-l+1) + 1)/d)^n
    (clamped at zero near small d); averaging over l and halving gives
    the exact coverage piece of the error bound.
    """
    _check_dk(d, k)
    _check_n(n)
    l = np.arange(1, d + 1)
    edge = np.minimum(k, np.minimum(l, d - l + 1))
    base = np.clip((d - k - edge + 1) / d, 0.0, None)
    return float(0.5 * np.mean(base ** n))


def coverage_term_approx(d, k, n):
    """Interior approximation 0.5 * ((d - 2k + 1)/d)^n.

    Ignores boundary positions, so it needs d >= 2k - 1 to stay in
    range; above that it upper-bounds every interior position's miss
    probability exactly.
    """
    _check_dk(d, k)
    _check_n(n)
    if d < 2 * k - 1:
        raise ConfigError(f"approximation needs d >= 2k - 1, got d={d}, k={k}")
    return 0.5 * ((d - 2 * k + 1) / d) ** n


def onelayer_error(d, n):
    """Expected one-layer error 0.5 * ((d - 1)/d)^n on cls.

    A trained one-layer model is correct exactly on sampled positions
    and coin-flips the rest, so the error is half the per-position miss
    probability.
    """
    if d < 2:
        raise ConfigError(f"d must be at least 2, got {d}")
    _check_n(n)
    return 0.5 * ((d - 1) / d) ** n


@dataclass
class SampleComplexity:
    """Samples needed to push the conv error bound below epsilon."""

    n_exact: float
    n_limit_per_d: float


def sample_complexity(d, k, epsilon):
    """Solve the coverage approximation for n at a target error.

    ``n_exact`` solves 0.5 * ((d-2k+1)/d)^n = epsilon; ``n_limit_per_d``
    is the large-d limit of n/d, namely log(1/(2 eps)) / (2k - 1).
    Requires 0 < epsilon < 1/2 (the bound starts at 1/2) and
    d - 2k + 1 >= 1 so the denominator is a finite positive log.
    """
    _check_dk(d, k)
    if not 0.0 < epsilon < 0.5:
        raise ConfigError(f"epsilon must lie in (0, 0.5), got {epsilon}")
    if d - 2 * k + 1 < 1:
        raise ConfigError(f"need d - 2k + 1 >= 1, got d={d}, k={k}")
    target = math.log(1.0 / (2.0 * epsilon))
    n_exact = target / (math.log(d) - math.log(d - 2 * k + 1))
    return SampleComplexity(n_exact=n_exact, n_limit_per_d=target / (2 * k - 1))


def sparse_training_set(d, k, n):
    """Evenly spaced cls training points with gaps too wide for width k.

    Positions k, 3k, 5k, ..., all labelled +1.  Any two are at least 2k
    apart, so the k columns of the training average have disjoint
    support, its Gram matrix is I/n, every init is already asymptotic,
    and conv training generalizes no better than one layer.  Requires
    k + (n-1) * 2k <= d.
    """
    _check_dk(d, k)
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    if k + (n - 1) * 2 * k > d:
        raise ConfigError(
            f"n={n} spaced points of width k={k} do not fit in d={d} "
            f"(need k + (n-1)*2k <= d)")
    pos_1b = k + 2 * k * np.arange(n)
    return Dataset(
        task="cls",
        d=d,
        positions=(pos_1b - 1)[:, None].astype(np.intp),
        values=np.ones((n, 1)),
        y=np.ones(n, dtype=np.int64),
    )


@dataclass
class DecompositionReport:
    """Both pieces of the error bound at one (d, k, n), plus context."""

    d: int
    k: int
    n: int
    trials: int
    prob_no_adjacent_pair: float
    prob_stderr: float
    coverage_exact: float
    coverage_approx: float
    onelayer: float
    prob_no_adjacent_pair_exact: float
    piece_ratio: float

    @property
    def upper_bound_sum(self):
        return self.prob_no_adjacent_pair + self.coverage_exact


def decomposition_report(d, k, n, trials, rng):
    """Estimate the two bound pieces and bundle the closed forms.

    ``prob_no_adjacent_pair`` is the Monte-Carlo estimate and
    ``prob_no_adjacent_pair_exact`` the exact value; ``piece_ratio`` is
    the exact value over ``coverage_approx``, taken as the integer
    quotient 2 * count / (d - 2k + 1)^n so neither piece can underflow
    on the way.  Raises `NumericalError` where either exact value falls
    outside the doubles or the approximation is exactly zero (d = 2k - 1,
    n >= 1).  Both quotients share one count of the draws without a pair.
    """
    p, se = estimate_prob_no_adjacent_pair(d, k, n, trials, rng)
    count = count_draws_without_adjacent_pair(d, k, n)
    return DecompositionReport(
        d=d, k=k, n=n, trials=trials,
        prob_no_adjacent_pair=p, prob_stderr=se,
        coverage_exact=coverage_term_exact(d, k, n),
        coverage_approx=coverage_term_approx(d, k, n),
        onelayer=onelayer_error(d, n),
        prob_no_adjacent_pair_exact=_exact_from_count(count, d, k, n),
        piece_ratio=_float_quotient(
            2 * count, (d - 2 * k + 1) ** n,
            f"P(no adjacent pair) / coverage_approx at d={d}, k={k}, n={n}"),
    )
