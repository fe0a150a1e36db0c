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
one (draws, d) array of effective weights, one margins gather, one tie
tolerance per (draw, point) and one error count, with each row scored
exactly as it would be alone.  A single limit is the one-row case of
the same scorer.  Each draw still decomposes the training average
again in `asymptotic_weights`: the benchmark counts one `thin_svd` per
draw, and passing one decomposition down waits for that count to
change.

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

    Matches iterative training bit-for-bit up to roundoff for any t and
    any starting point.  Raises StepOverflowError (with the largest safe
    t attached) when the dominant growth factor would overflow.
    """
    if t < 0:
        raise ValueError(f"step count must be >= 0, got {t}")
    w1_0 = np.asarray(w1_0, float)
    w2_0 = np.asarray(w2_0, float)
    dec = thin_svd(mtr)
    top = 1.0 + alpha * dec.sigma[0]
    if t * math.log(top) > math.log(_OVERFLOW_LIMIT):
        max_t = int(math.log(_OVERFLOW_LIMIT) / math.log(top))
        raise StepOverflowError(
            f"step {t} overflows the closed form at alpha={alpha}; "
            f"largest safe step count is {max_t}", max_t=max_t)

    grow = (1.0 + alpha * dec.sigma) ** t
    decay = (1.0 - alpha * dec.sigma) ** t
    lam_p = grow + decay
    lam_m = grow - decay

    a = dec.V.T @ w1_0
    c = dec.U.T @ w2_0
    w1_t = 0.5 * dec.V @ (lam_p * a + lam_m * c)
    w2_t = 0.5 * dec.U @ (lam_m * a + lam_p * c) + w2_0 - dec.U @ c
    return ClosedFormStep(t=t, lambda_plus=lam_p, lambda_minus=lam_m,
                          w1=w1_t, w2=w2_t)


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


def _limit_errors(c, scale, dataset):
    """Whole-dataset error of the effective weights c, one (d,) row or a
    (rows, d) block, with every margin of size at most ``scale`` times
    the point's input mass scored as a tie (half credit).  ``scale`` is
    a number for one row and a (rows, 1) column for a block, and every
    row of a block is scored exactly as it would be alone."""
    return models.error_from_margins(models.weight_margins(c, dataset),
                                     zero_tol=scale * dataset.mass)


def _limit_row(aw):
    """The effective weights and the tie scale of asymptotic weights:
    one row of a block for `_limit_errors`."""
    return models.conv_collapse(aw.w1, aw.w2), _tie_scale(aw)


def _top_pair_weights(dec):
    """The limit of a simple top singular value: its sign-fixed pair."""
    u, v = fix_top_pair_sign(dec).top_pair
    return AsymptoticWeights(w1=v, w2=u, m=1)


def _degenerate_error(whole, mtr, k, rng, draws):
    """Mean limiting error over ``draws`` standard-normal inits w1(0),
    drawn as one (draws, k) block and scored as one block."""
    c = np.empty((draws, whole.d))
    scale = np.empty((draws, 1))
    for i, w1_0 in enumerate(rng.standard_normal((draws, k))):
        # Each draw still decomposes mtr again.
        c[i], scale[i] = _limit_row(asymptotic_weights(w1_0, mtr))
    errors = _limit_errors(c, scale, whole)
    # Added in draw order; np.sum would add pairwise and round apart.
    return float(np.cumsum(errors)[-1]) / draws


def asymptotic_error(aw, dataset):
    """Whole-dataset error of asymptotic weights, with margins within
    roundoff of zero scored as ties (half credit)."""
    return float(_limit_errors(*_limit_row(aw), dataset))


def asymptotic_error_for_trainset(whole, tr, k, rng=None,
                                  degenerate_draws=DEFAULT_DEGENERATE_DRAWS):
    """Limiting error for one training set.

    With a simple top singular value the error is evaluated directly on
    the sign-fixed top pair (the init drops out).  A degenerate top
    value falls back to the mean error over ``degenerate_draws``
    standard-normal draws of w1(0), which is why an rng is required in
    that case.  The draws are one (draws, k) block, which advances the
    rng exactly as that many draws of size k would, and their limits
    are scored as one block.  Returns ``(error, was_degenerate)``.
    """
    if degenerate_draws < 1:
        raise ValueError(f"degenerate_draws must be >= 1, got {degenerate_draws}")
    mtr = training_average(tr, k)
    dec = thin_svd(mtr)
    if dec.m == 1:
        return asymptotic_error(_top_pair_weights(dec), whole), False
    if rng is None:
        raise ValueError("degenerate top pair needs an rng for the fallback")
    return _degenerate_error(whole, mtr, k, rng, degenerate_draws), True


@dataclass
class AsymptoticErrorEstimate:
    mean: float
    stderr: float
    degenerate_fraction: float
    zero_average_resamples: int
    trial_errors: np.ndarray


def asymptotic_error_estimate(whole, n, k, trials, rng,
                              degenerate_draws=DEFAULT_DEGENERATE_DRAWS):
    """Monte-Carlo mean of the limiting error over random training sets.

    Each trial draws its own training set of size n (from a child rng,
    so the result does not depend on evaluation order).  A trial whose
    training average is identically zero is redrawn and counted; this
    cannot happen on the built-in tasks.  Every set is decomposed once.
    A simple set's limit is held as one row of a block capped at
    ``models.BLOCK_ELEMENTS`` margins (40 rows on cls at d = 100), and a
    full block, then the rest, is scored in one call; each row scores
    as it would alone.  A degenerate set is scored when it is drawn,
    with one decomposition per draw of w1(0), as in
    `asymptotic_error_for_trainset`.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if degenerate_draws < 1:
        raise ValueError(f"degenerate_draws must be >= 1, got {degenerate_draws}")
    errors = np.empty(trials)
    degenerate = 0
    resamples = 0
    # Simple sets wait in a block of at most BLOCK_ELEMENTS margins.
    rows = min(trials, max(1, models.BLOCK_ELEMENTS // len(whole)))
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
            errors[i] = _degenerate_error(whole, mtr, k, child, degenerate_draws)
            degenerate += 1
            continue
        c[held], scale[held] = _limit_row(_top_pair_weights(dec))
        index[held] = i
        held += 1
        if held == rows:
            errors[index] = _limit_errors(c, scale, whole)
            held = 0
    if held:
        errors[index[:held]] = _limit_errors(c[:held], scale[:held], whole)
    stderr = float(errors.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return AsymptoticErrorEstimate(
        mean=float(errors.mean()),
        stderr=stderr,
        degenerate_fraction=degenerate / trials,
        zero_average_resamples=resamples,
        trial_errors=errors,
    )
