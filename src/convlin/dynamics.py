"""Closed-form and asymptotic behaviour of extreme-hinge conv training.

With the extreme hinge, the conv updates are linear in the weights and
diagonalize over the SVD ``M = U S V.T`` of the training average: with
growth factors

    lam_plus_i(t)  = (1 + a s_i)^t + (1 - a s_i)^t
    lam_minus_i(t) = (1 + a s_i)^t - (1 - a s_i)^t

the iterates are

    w1(t) = 1/2 V (lam_plus(t)  V.T w1(0) + lam_minus(t) U.T w2(0))
    w2(t) = 1/2 U (lam_minus(t) V.T w1(0) + lam_plus(t)  U.T w2(0))
            + (I - U U.T) w2(0)

`models.xhinge_iterates` evaluates them for extreme-hinge training and
for `closed_form_weights`.  It writes the growth factors as
(1 + a s_i)^t (1 +- r_i^t) with r_i = (1 - a s_i) / (1 + a s_i), through
log1p and expm1, so that neither a tiny a s_i nor one past 2^53 loses
the smaller term.

Only the top singular direction(s) survive normalization as t grows, so
starting from w2(0) = 0 the limiting classifier is the projection of
w1(0) onto the top right space, paired with the matching left vectors:

    w1(inf) = V_m V_m.T w1(0),    w2(inf) = U_m V_m.T w1(0)

where m is the multiplicity of the top singular value.  When m == 1 the
limiting error does not depend on w1(0) at all (up to a null set), so it
can be read off the top singular pair; the degenerate m > 1 case is
averaged over random draws of w1(0) instead.

The draws of a degenerate set are one (draws, k) block from the
generator, which gives the values and leaves the generator state that
as many draws of size k would.  Their limits are scored as one block:
one (draws, d) array of effective weights, one margins gather on the
whole dataset's distinct columns, one tie tolerance per (draw, column)
and one error count, with each row scored exactly as it would be alone.
A single limit is the one-row case of the same scorer,
`models.weight_error`, which counts every whole-dataset error.  Each
draw still decomposes the training average again in
`asymptotic_weights`: the benchmark counts one `thin_svd` per draw, and
passing one decomposition down waits for that count to change.

The Monte-Carlo estimate scores its simple sets in capped blocks too.
Each set draws only from its own child generator, so scoring a simple
set later moves no draw: its sign-fixed top pair becomes one row of a
block of at most ``models.BLOCK_ELEMENTS`` margins, and a full block is
scored in one call.  A degenerate set is scored as soon as it is drawn.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import models
from .errors import NumericalError, StepOverflowError
from .linalg import fix_top_pair_sign, thin_svd
from .shift import training_average
from .tasks import sample_training_set

# Margins within 1e-12 of zero, relative to the weight scale, are
# treated as structural zeros when scoring asymptotic weights.
ZERO_MARGIN_FRAC = 1e-12

# How close (1 + a s_1)^t may get to the float ceiling before the
# closed form refuses to evaluate.
_OVERFLOW_LIMIT = 1e290

# The draws of w1(0) whose mean limiting error scores a degenerate set.
DEFAULT_DEGENERATE_DRAWS = 64


@dataclass
class ClosedFormStep:
    """Weights after t extreme-hinge steps, with the growth factors."""

    t: int
    lambda_plus: np.ndarray
    lambda_minus: np.ndarray
    w1: np.ndarray
    w2: np.ndarray


def closed_form_weights(w1_0, w2_0, mtr, alpha, t):
    """Evaluate the extreme-hinge iterate at step t in closed form, for
    the d x k training average ``mtr``.

    Evaluated through `models.xhinge_iterates`, as extreme-hinge
    training is, it agrees with the step loop for any t and any
    starting point up to a rounding that grows like t ln(1 + alpha s_1).
    Raises StepOverflowError (with the largest safe t attached) when
    the dominant growth factor would overflow.
    """
    if t < 0:
        raise ValueError(f"step count must be >= 0, got {t}")
    w1_0 = np.asarray(w1_0, float)
    dec = thin_svd(mtr)
    top = 1.0 + alpha * dec.sigma[0]
    if t * math.log(top) > math.log(_OVERFLOW_LIMIT):
        max_t = int(math.log(_OVERFLOW_LIMIT) / math.log(top))
        raise StepOverflowError(
            f"step {t} overflows the closed form at alpha={alpha}; "
            f"largest safe step count is {max_t}", max_t=max_t)
    rows, lam_p, lam_m = models.xhinge_iterates(dec, alpha, w1_0,
                                                np.asarray(w2_0, float), [t])
    k = w1_0.shape[0]
    return ClosedFormStep(t=t, lambda_plus=lam_p[0], lambda_minus=lam_m[0],
                          w1=rows[0, :k], w2=rows[0, k:])


@dataclass
class AsymptoticWeights:
    """Normalized limit of extreme-hinge training from (w1_0, 0)."""

    w1: np.ndarray
    w2: np.ndarray
    m: int


def asymptotic_weights(w1_0, mtr):
    """Project an init onto the top singular space of the d x k training
    average ``mtr``.

    Both output vectors have the same norm, ``|V_m.T w1_0|``.
    """
    dec = thin_svd(mtr)
    w1_0 = np.asarray(w1_0, float)
    Vm = dec.V[:, : dec.m]
    coef = Vm.T @ w1_0
    return AsymptoticWeights(w1=Vm @ coef, w2=dec.U[:, : dec.m] @ coef, m=dec.m)


def _tie_scale(aw):
    """The tie tolerance of asymptotic weights per unit of input mass,
    ``ZERO_MARGIN_FRAC * |w1| * |w2|``.  Each norm is np.linalg.norm's
    bit for bit, without its wrapper: the root of the dot product of a
    contiguous copy (a strided dot adds in another order)."""
    w1, w2 = aw.w1.ravel(order="K"), aw.w2.ravel(order="K")
    return ZERO_MARGIN_FRAC * math.sqrt(w1.dot(w1)) * math.sqrt(w2.dot(w2))


def _limit_row(aw):
    """The effective weights and the tie scale of asymptotic weights:
    one row of a block for `models.weight_error`."""
    return models.conv_collapse(aw.w1, aw.w2), _tie_scale(aw)


def _top_pair_weights(dec):
    """The limit of a simple top singular value: its sign-fixed pair."""
    u, v = fix_top_pair_sign(dec).top_pair
    return AsymptoticWeights(w1=v, w2=u, m=1)


def _degenerate_error(whole, mtr, k, rng):
    """Mean limiting error over DEFAULT_DEGENERATE_DRAWS standard-normal
    inits w1(0), drawn as one (draws, k) block and scored as one block."""
    draws = DEFAULT_DEGENERATE_DRAWS
    c = np.empty((draws, whole.d))
    scale = np.empty((draws, 1))
    for i, w1_0 in enumerate(rng.standard_normal((draws, k))):
        # Each draw still decomposes mtr again.
        c[i], scale[i] = _limit_row(asymptotic_weights(w1_0, mtr))
    errors = models.weight_error(c, whole, scale)
    # Added in draw order; np.sum would add pairwise and round apart.
    return float(np.cumsum(errors)[-1]) / draws


def _unit_scaled(w):
    """w times the power of two that brings its max-abs into [0.5, 1):
    an exact scaling, the identity on a zero w."""
    return np.ldexp(w, -np.frexp(np.abs(w).max())[1])


def asymptotic_error(aw, dataset):
    """Whole-dataset error of asymptotic weights, with margins within
    roundoff of zero scored as ties (half credit).  A limit's scale is
    arbitrary, so each layer is scaled by a power of two first: the
    error is that at any ordinary scale, bit for bit, and a tiny init's
    effective weights do not underflow to a tie."""
    aw = AsymptoticWeights(w1=_unit_scaled(aw.w1), w2=_unit_scaled(aw.w2), m=aw.m)
    c, scale = _limit_row(aw)
    return float(models.weight_error(c, dataset, scale))


def asymptotic_error_for_trainset(whole, tr, k, rng):
    """Limiting error for one training set.

    With a simple top singular value the error is evaluated directly on
    the sign-fixed top pair (the init drops out).  A degenerate top
    value falls back to the mean error over DEFAULT_DEGENERATE_DRAWS
    standard-normal draws of w1(0) from ``rng``, the only case that
    reads it.  The draws are one (draws, k) block, which advances the
    rng exactly as that many draws of size k would, and their limits
    are scored as one block.  Returns ``(error, was_degenerate)``.
    """
    mtr = training_average(tr, k)
    dec = thin_svd(mtr)
    if dec.m == 1:
        return asymptotic_error(_top_pair_weights(dec), whole), False
    return _degenerate_error(whole, mtr, k, rng), True


@dataclass
class AsymptoticErrorEstimate:
    mean: float
    stderr: float
    degenerate_fraction: float
    zero_average_resamples: int
    trial_errors: np.ndarray


def asymptotic_error_estimate(whole, n, k, trials, rng):
    """Monte-Carlo mean of the limiting error over random training sets.

    Each trial draws its own training set of size n (from a child rng,
    so the result does not depend on evaluation order).  A trial whose
    training average is identically zero is redrawn and counted; this
    cannot happen on the built-in tasks.  Every set is decomposed once.
    A simple set's limit is held as one row of a block capped at
    ``models.BLOCK_ELEMENTS`` margins, one per distinct column of the
    whole dataset (81 rows on cls at d = 100, whose 200 points share 100
    columns), and a full block, then the rest, is scored in one call;
    each row scores as it would alone.  A degenerate set is scored when
    it is drawn, with one decomposition per draw of w1(0), as in
    `asymptotic_error_for_trainset`.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    errors = np.empty(trials)
    degenerate = 0
    resamples = 0
    # Simple sets wait in a block of at most BLOCK_ELEMENTS margins.
    rows = min(trials, max(1, models.BLOCK_ELEMENTS // len(whole.distinct[1])))
    c = np.empty((rows, whole.d))
    scale = np.empty((rows, 1))
    index = np.empty(rows, dtype=np.intp)
    held = 0
    for i, child in enumerate(rng.spawn(trials)):
        for attempt in range(100):
            tr = sample_training_set(whole, n, child)
            mtr = training_average(tr, k)
            if np.any(mtr):
                break
            resamples += 1
        else:
            raise NumericalError("training average cancelled to zero repeatedly")
        dec = thin_svd(mtr)
        if dec.m > 1:
            errors[i] = _degenerate_error(whole, mtr, k, child)
            degenerate += 1
            continue
        c[held], scale[held] = _limit_row(_top_pair_weights(dec))
        index[held] = i
        held += 1
        if held == rows:
            errors[index] = models.weight_error(c, whole, scale)
            held = 0
    if held:
        errors[index[:held]] = models.weight_error(c[:held], whole, scale[:held])
    stderr = float(errors.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return AsymptoticErrorEstimate(
        mean=float(errors.mean()),
        stderr=stderr,
        degenerate_fraction=degenerate / trials,
        zero_average_resamples=resamples,
        trial_errors=errors,
    )
