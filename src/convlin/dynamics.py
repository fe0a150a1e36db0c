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

    def as_conv(self):
        return models.ConvWeights(w1=self.w1, w2=self.w2)


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


def _zero_tol(w1, w2, dataset):
    """Per-point tie tolerance, scaled by weight norms and input mass."""
    scale = ZERO_MARGIN_FRAC * np.linalg.norm(w1) * np.linalg.norm(w2)
    return scale * np.abs(dataset.signed[1]).sum(axis=0)


def asymptotic_error(aw, dataset):
    """Whole-dataset error of asymptotic weights, with margins within
    roundoff of zero scored as ties (half credit)."""
    m = models.margins(aw.as_conv(), dataset)
    return float(models.error_from_margins(
        m, zero_tol=_zero_tol(aw.w1, aw.w2, dataset)))


def asymptotic_error_for_trainset(whole, tr, k, rng=None,
                                  degenerate_draws=DEFAULT_DEGENERATE_DRAWS,
                                  mtr=None):
    """Limiting error for one training set.

    With a simple top singular value the error is evaluated directly on
    the sign-fixed top pair (the init drops out).  A degenerate top
    value falls back to a Monte-Carlo average over standard-normal
    draws of w1(0), which is why an rng is required in that case.
    ``mtr`` is the training set's d x k average when the caller has
    already built it.  Returns ``(error, was_degenerate)``.
    """
    if mtr is None:
        mtr = training_average(tr, k)
    dec = thin_svd(mtr)
    if dec.m == 1:
        u, v = fix_top_pair_sign(dec).top_pair
        aw = AsymptoticWeights(w1=v, w2=u, m=1)
        return asymptotic_error(aw, whole), False
    if rng is None:
        raise ValueError("degenerate top pair needs an rng for the fallback")
    total = 0.0
    for _ in range(degenerate_draws):
        aw = asymptotic_weights(rng.standard_normal(k), mtr)
        total += asymptotic_error(aw, whole)
    return total / degenerate_draws, True


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
    cannot happen on the built-in tasks.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    errors = np.empty(trials)
    degenerate = 0
    resamples = 0
    for i, child in enumerate(rng.spawn(trials)):
        for attempt in range(100):
            tr = sample_training_set(whole, n, child)
            mtr = training_average(tr, k)
            if np.any(mtr):
                break
            resamples += 1
        else:
            raise NumericalError("training average cancelled to zero repeatedly")
        err, was_degenerate = asymptotic_error_for_trainset(
            whole, tr, k, rng=child, degenerate_draws=degenerate_draws,
            mtr=mtr)
        errors[i] = err
        degenerate += was_degenerate
    stderr = float(errors.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return AsymptoticErrorEstimate(
        mean=float(errors.mean()),
        stderr=stderr,
        degenerate_fraction=degenerate / trials,
        zero_average_resamples=resamples,
        trial_errors=errors,
    )
