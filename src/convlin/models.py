"""Linear classifiers and full-batch gradient-descent training.

Three parameterizations of the same function class (scores linear in x):

* ``1layer`` - a single weight vector w, score w @ x.
* ``conv``   - width-k filter w1 and output weights w2; the score is
               ``sum_i w2[i] * sum_j w1[j] * x[i + j]`` (zero padded),
               i.e. w2 dotted with the valid-start correlation of x
               against w1.
* ``fc``     - dense first layer W1 (d x d) and output weights w2.

Two losses: the standard hinge ``max(0, 1 - y f)`` with the strict
subgradient (active iff y f < 1), and the extreme hinge ``-y f`` whose
full-batch gradient is constant in the weights, so conv training reduces
to two matrix products with the training average.  Layer updates are
always simultaneous: both gradients are evaluated at the old weights.

Every dataset is scored on the distinct columns of its signed sparse
design, `Dataset.distinct`: the positions and the y * x values of the
nonzeros of the points, each column once, built once per dataset, with
the number of points that share each column.  A whole cls set has 2d
points and d distinct columns, and a drawn cls set of any size at most
d, as every y * x is some e_l.  One counter, `error_from_margins`, gives
every error from the margins and counts of the columns, and one scorer,
`weight_error`, every whole-dataset error of effective weights: those
of `classification_error`, of `train`'s eval set and of the limiting
classifier, whose tie band is a multiple of each column's input mass,
`Dataset.mass`.

One loop in `train` runs every model and loss from the weights it is
handed, drawing nothing, and each supplies only its update.  The loop
holds the current margins of the training set's u distinct columns.
A hinge run stops at a zero loss or at the step budget, an
extreme-hinge run at the step budget.  Until then the loop
calls the update with the active set, and the update advances the
weights and returns the effective weight vectors c and the margins of
the J >= 1 steps it took, as (J, d) and (J, u) arrays, with the weights
after each of those steps, which the loop copies only to record them.
The loop scores the steps in batches of rows, and offers an update no
more steps than the batch has room for, so that an array that holds or
scores a batch passes BLOCK_ELEMENTS only where one row does.  It
scores the losses as one product of the columns' losses with their
counts, the errors as one product of the signs with the counts, the
eval errors as one `weight_error` of the stacked c, and it raises
at the first step whose loss is not finite.

Every hinge update takes blocks of steps.  The active sum s is one
bincount of the active columns' y * x times their counts, a product
made once per run.  While the active set stays the same, s is fixed.  A
one-layer step then adds the same v = (alpha / n) s to w, so the
weights of J steps are one cumulative sum down the rows
[w + v; v; ...; v], and their margins one (J, u) gather.  A conv step
is the extreme-hinge step below with M = `shift.shift_matrix(s, k)` and
rate alpha / n.  The conv and fc updates take their first step directly
and, if it kept the active set, the further steps in closed form: conv
through `xhinge_iterates` on the thin SVD of M, which no single step
computes, and fc as combinations of W1^T w2, W1^T W1 s and s, writing
W1 and w2 once per block.  A block ends at the first row whose active
set differs, and J comes from each margin's crossing of 1, predicted as
if the margins moved linearly with the step count, as only one-layer
margins do; the prediction only sets how much is computed, and the
change test decides every result.  Where the active set keeps changing,
as late in a 3rdctrl run, the conv and fc updates stop testing it, by
one rule: a try that takes fewer than three steps is followed by single
steps without a try, for a wait that doubles with each failed try in a
row, up to MAX_WAIT steps.  A try that succeeds resets the wait to zero.

The conv xhinge update takes a block of steps too.  Its step is linear
in the weights, w1 + alpha M^T w2 and w2 + alpha M w1 with M the
training average, and has no active set, so only the step budget ends a
block.  The update decomposes M once per run and writes a block's
[w1 | w2] rows in the closed form of `convlin.dynamics`, through
`xhinge_iterates`, which `dynamics.closed_form_weights` evaluates too.
A step grows the 2-norm of [w1 | w2] by at most 1 + alpha sigma_1, so a
block of at most floor(ln T / ln(1 + alpha sigma_1)) steps from a start
within T = RENORM_THRESHOLD stays within sqrt(k + d) T^2, far from
overflow; a start past T, which only an init can be, takes one step.
The rescale comes after: the first row whose joint max-abs passes T is
divided by it, and so is every row after it, as the steps are linear,
and the scan goes on from the next row.  Then the block's
effective weights are one stacked `conv_collapse`, the helper that
collapses any conv model, and its margins one gather.  One pair
collapses through np.correlate of w2 with the reversed w1, which is
np.convolve(w2, w1) without that wrapper's checks, and a stack through
one multiply and one add over all its rows per tap.

Training and scoring read the distinct columns alone.  A one-layer
hinge run's weights, snapshots, steps, stops and errors are bit for bit
those of the per-point loop kept as the oracle in the tests.  Every
y * x entry is +-1 and every count an integer, so s is an integer
vector and exact in any summation order.  A point's margin is the sum
of the same at most two signed entries of c, added in the same slot
order, as its column's, so it is its column's margin bit for bit.  A
one-layer block is exact because a cumulative sum adds sequentially,
so each row is the repeated in-place w += v.  An error is exact: the
weighted sum of signs is an integer, and a column's tie band is that of
each of its points, whose |x| entries it shares.  A loss, each column's
loss times its count, rounds otherwise than the loop's sum over the
points, and a conv or fc tensor, a product or a closed form, otherwise
than the loop's steps.  In every run the tests compare, every loss and
every conv and fc weight agree with the loop's within 1e-12 relative,
and a conv or fc run's steps, stops, rescale counts and errors are the
loop's, except where an xhinge row's max-abs lies within a rounding of
RENORM_THRESHOLD.
"""

import math
import sys
from dataclasses import dataclass, fields
from itertools import chain

import numpy as np

from .errors import ConfigError, NumericalError
from .linalg import SpectralDecomposition, thin_svd
from .shift import shift_matrix, training_average

MODELS = ("1layer", "conv", "fc")
LOSSES = ("hinge", "xhinge")
INIT_SCHEMES = ("gaussian", "uniform", "zero")

DEFAULT_ALPHA = 0.1
DEFAULT_B = 0.1

# Joint max-abs weight magnitude beyond which extreme-hinge training
# rescales both layers by a common factor.  Updates are linear, so the
# rescale only changes the overall scale of the trajectory, never the
# direction or any classification.
RENORM_THRESHOLD = 1e100


class _Weights:
    """A model's weights: one dataclass field per tensor, in layer order."""

    def copy(self):
        return type(self)(*(getattr(self, f.name).copy() for f in fields(self)))


@dataclass
class LinearWeights(_Weights):
    w: np.ndarray


@dataclass
class ConvWeights(_Weights):
    w1: np.ndarray
    w2: np.ndarray


@dataclass
class FCWeights(_Weights):
    W1: np.ndarray
    w2: np.ndarray


# Model name -> weights type.
WEIGHT_TYPES = {"1layer": LinearWeights, "conv": ConvWeights, "fc": FCWeights}


@dataclass
class TrainConfig:
    """Training hyperparameters.

    ``alpha`` defaults to DEFAULT_ALPHA; ``init`` is an initialization
    scheme name applied to every weight tensor, or None for the per-loss
    default: gaussian everywhere for hinge, a gaussian filter and a zero
    output layer for xhinge.  Extreme-hinge runs always rescale past
    RENORM_THRESHOLD.
    """

    loss: str = "hinge"
    alpha: float | None = None
    max_steps: int = 100_000
    init: str | None = None
    b: float = DEFAULT_B

    def __post_init__(self):
        if self.loss not in LOSSES:
            raise ConfigError(f"unknown loss {self.loss!r}; expected one of {LOSSES}")
        if self.alpha is None:
            self.alpha = DEFAULT_ALPHA
        if not math.isfinite(self.alpha) or self.alpha <= 0:
            raise ConfigError(f"alpha must be positive and finite, got {self.alpha}")
        if not math.isfinite(self.b) or self.b <= 0:
            raise ConfigError(f"init scale b must be positive and finite, got {self.b}")
        if self.max_steps < 0:
            raise ConfigError(f"max_steps must be >= 0, got {self.max_steps}")
        if self.init is not None and self.init not in INIT_SCHEMES:
            raise ConfigError(
                f"unknown init scheme {self.init!r}; expected one of {INIT_SCHEMES}"
            )
        # A uniform draw on [-b, b] needs its width 2b to be a finite double.
        if self.init == "uniform" and self.b > sys.float_info.max / 2:
            raise ConfigError(f"a uniform init needs b <= {sys.float_info.max / 2!r}, "
                              f"half the largest double, got {self.b}")

    def _schemes(self):
        """The init schemes of the first layer and of the output layer."""
        if self.init is not None:
            return self.init, self.init
        return "gaussian", "zero" if self.loss == "xhinge" else "gaussian"


TRACE_COLUMNS = ("t", "train_loss", "train_err", "test_err")


@dataclass
class TrainTrace:
    """Per-step training record plus the final weights.

    Arrays all have one entry per recorded step (t = 0 is the untrained
    state).  ``test_error`` is NaN-filled when no eval set was supplied.
    ``weights_per_step`` is populated only on request.
    """

    steps: np.ndarray
    train_loss: np.ndarray
    train_error: np.ndarray
    test_error: np.ndarray
    weights: object
    stop_reason: str
    renormalizations: int = 0
    weights_per_step: list | None = None

    @property
    def steps_run(self):
        return int(self.steps[-1])

    def csv_rows(self):
        """One row per recorded step, under TRACE_COLUMNS; a NaN
        ``test_err`` (no eval set) is written as ""."""
        return zip(self.steps.tolist(),
                   map(repr, self.train_loss.tolist()),
                   map(repr, self.train_error.tolist()),
                   ["" if math.isnan(te) else repr(te)
                    for te in self.test_error.tolist()])


def effective_weights(weights):
    """Collapse any model to the equivalent single weight vector c with
    score(x) = c @ x.  For conv, c is the (truncated) convolution of w2
    with w1; for fc it is W1.T @ w2."""
    if isinstance(weights, LinearWeights):
        return weights.w
    if isinstance(weights, ConvWeights):
        return conv_collapse(weights.w1, weights.w2)
    if isinstance(weights, FCWeights):
        return weights.W1.T @ weights.w2
    raise TypeError(f"unsupported weights type {type(weights).__name__}")


def conv_collapse(w1, w2):
    """The effective weights of a conv model: w2 convolved with w1,
    truncated to the input length.  w1 and w2 are one (k,) filter and
    its (d,) output layer, or (rows, k) and (rows, d) stacks of them,
    which give a (rows, d) array.  Each row of a stack agrees with the
    collapse of its own pair within a rounding of each sum, with the
    same entries non-finite, but not always the same non-finite value:
    an entry whose products hold both +inf and -inf is NaN in a stack
    and may be +-inf from the pair's np.correlate.  `error_from_margins`
    counts a NaN margin 0 and a -inf margin 1, so only finite weights
    have one defined error.  No collapse warns of an overflow."""
    if w1.ndim == 1:
        return np.correlate(w2, w1[::-1], "full")[: w2.shape[0]]
    # Entry m adds w1[:, j] * w2[:, m - j] over the taps j <= m to +0.0.
    # Transposed, each tap reads one contiguous block of w2's columns.
    k, d = w1.shape[1], w2.shape[1]
    w2t, ct = w2.T.copy(), np.zeros((d, w2.shape[0]))
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(k):
            ct[j:] += w2t[: d - j] * w1[:, j]
    return ct.T


def _design_margins(c, design):
    """Margins on a signed design of the weight vector c, or of each row
    of a (rows, d) stack c: the sum over slots of yx * c[positions],
    added slot by slot, one margin per column of the design.  A stack
    gives a C-ordered (rows, columns) array."""
    positions, yx = design
    prod = yx * c.take(positions, axis=-1)
    m = prod[..., 0, :]
    for j in range(1, yx.shape[0]):
        m = m + prod[..., j, :]
    return m


def error_from_margins(m, counts, zero_tol=None):
    """Classification error along the last axis of the margins m, where
    margin i stands for counts[i] points, as on `Dataset.distinct`, with
    the half-credit zero rule.

    A negative margin counts 1, a zero margin 1/2, and a positive or NaN
    margin 0.  With ``zero_tol`` given, which may be an array of one
    tolerance per margin, every margin within +-zero_tol counts 1/2.
    The count is one exact sum: with a tie's sign taken as 0 and a NaN
    sign as 1, n - sum(sign m * counts) is the integer 2 * wrong + tied."""
    m = np.asarray(m, dtype=float)
    sign = np.sign(m)
    if zero_tol is not None:
        sign[np.abs(m) <= zero_tol] = 0.0
    np.fmin(sign, 1.0, out=sign)
    n = counts.sum()
    return (n - sign @ counts) / (2 * n)


def weight_error(c, data, tie_scale=None):
    """Whole-dataset error of the effective weights c, a (d,) row or a
    (rows, d) stack, counted over the dataset's distinct columns.  With
    ``tie_scale`` given, a number for a row and a (rows, 1) column for a
    stack, every margin within tie_scale times its column's input mass
    counts as a tie.  Each row of a stack is scored as it would be
    alone."""
    design, counts = data.distinct
    # A sum of at most two finite terms that overflows keeps its sign,
    # so every error read from these margins is still right.
    with np.errstate(over="ignore"):
        m = _design_margins(c, design)
    tol = None if tie_scale is None else tie_scale * data.mass
    return error_from_margins(m, counts, tol)


def classification_error(weights, dataset):
    """Mean error of a model over a dataset (ties count half)."""
    return float(weight_error(effective_weights(weights), dataset))


def init_weights(model, d, k, config, rng):
    """Draw initial weights for a model.

    Tensors are drawn in layer order (filter/first layer, then output),
    one scheme each: gaussian = N(0, b^2) entries, uniform = U[-b, b],
    zero = zeros.
    """
    if model not in MODELS:
        raise ConfigError(f"unknown model {model!r}; expected one of {MODELS}")

    def draw(scheme, shape):
        if scheme == "gaussian":
            return rng.normal(0.0, config.b, size=shape)
        if scheme == "uniform":
            return rng.uniform(-config.b, config.b, size=shape)
        return np.zeros(shape)

    s1, s2 = config._schemes()
    if model == "1layer":
        return LinearWeights(w=draw(s1, (d,)))
    if model == "conv":
        if k is None or not 1 <= k <= d:
            raise ConfigError(f"conv model needs a filter width 1 <= k <= d, got {k}")
        return ConvWeights(w1=draw(s1, (k,)), w2=draw(s2, (d,)))
    return FCWeights(W1=draw(s1, (d, d)), w2=draw(s2, (d,)))


def _active_sum(act, weighted, d):
    """The sum s of y * x over the active points, as a dense d-vector,
    from the distinct columns ``weighted``, whose y * x values are
    multiplied by their counts.  Every weight is an integer, so s is an
    integer vector, the same in any summation order."""
    positions, cyx = weighted
    return np.bincount(positions.ravel(), weights=(cyx * act).ravel(),
                       minlength=d)


def _diverged(model, config, what):
    return NumericalError(f"{model} {config.loss} training diverged at "
                          f"alpha={config.alpha}: {what}")


# Cap on rows x width of the arrays that hold and score a batch of steps.
# The width is that of the widest array a batch holds: d, or k + d for a
# conv row of [w1 | w2], the training set's u distinct signed columns and
# the eval set's.  glibc malloc trims a free heap top past its
# threshold (128 KB by default), so what a batch frees is faulted back in
# by the next: 64 KB arrays take a third of the page faults of 128 KB ones
# (1 << 14) and run faster.
BLOCK_ELEMENTS = 1 << 13


def _state(weights, design):
    """The effective weights and margins of ``weights``, as (1, d) and
    (1, n) arrays, and the 1-tuple of ``weights`` itself, the weights of
    that one step."""
    c = effective_weights(weights)[None]
    return c, _design_margins(c, design), (weights,)


def _block_steps(m, first, steps):
    """The length of a block whose first step moved the margins m to
    ``first`` without changing the active set: it ends at the first step
    at or past the earliest crossing of 1, predicted as if each margin
    kept moving by first - m per step, and at ``steps`` at most."""
    fastest = np.fmax.reduce((first - m) / (1.0 - first))
    if fastest * (steps - 1) > 1.0:
        steps = int(1.0 / fastest) + 2
    return steps


def _held(margins, act):
    """The number of leading rows of the (rows, u) margins whose active
    set is ``act``.  In a block, the rows past the first that differs are
    not steps."""
    changed = ((margins < 1.0) != act).ravel()
    first = changed.argmax()
    return first // len(act) if changed[first] else len(margins)


# The updates, as the module docstring describes them, each of at most
# ``steps`` steps.  The margins are those of the training set's distinct
# columns, ``design``; a hinge update sums the active ones through their
# count-weighted copy, ``weighted``, and a hinge step adds ``scale`` =
# alpha / n times the gradient.

def _linear_hinge(weights, design, weighted, scale):
    d = weights.w.shape[0]

    def update(m, act, steps):
        # Each step adds the same v while the active set stays that of m.
        v = scale * _active_sum(act, weighted, d)
        states = (weights.w + v)[None]
        margins = _design_margins(states, design)
        if steps > 1 and _held(margins, act):
            block = np.empty((_block_steps(m, margins[0], steps), d))
            block[0], block[1:] = states[0], v
            states = block.cumsum(axis=0, out=block)
            margins = _design_margins(states, design)
            rows = _held(margins, act) + 1
            states, margins = states[:rows], margins[:rows]
        weights.w = states[-1]
        return states, margins, map(LinearWeights, states)

    return update


def _decompose(M):
    """The thin SVD of a conv step's matrix M.  An all-zero M, which only
    a hand-built set can give, moves no weight: its singular values are
    zeros, on any orthonormal bases."""
    d, k = M.shape
    if not M.any():
        return SpectralDecomposition(U=np.eye(d, k), sigma=np.zeros(k), V=np.eye(k), m=k)
    return thin_svd(M)


# The most steps a conv or fc hinge run takes one at a time, without a
# block try, after tries that failed.
MAX_WAIT = 64


def _tried_blocks(weights, design, step, extend):
    """A conv or fc hinge update: ``step(act)`` takes one step directly
    and returns what stays fixed while the active set holds, its shift
    matrix or its sum, from which ``extend(m, act, fixed, c, first,
    steps)`` goes on in closed form, as the module docstring describes."""
    # The steps to take one at a time before the next block try, and the
    # wait after the last try, which doubles with each failed try in a row.
    skip = wait = 0

    def update(m, act, steps):
        nonlocal skip, wait
        fixed = step(act)
        c, margins, stepped = _state(weights, design)
        if skip:
            skip -= 1
        elif steps > 1:
            if _held(margins, act):
                c, margins, stepped = extend(m, act, fixed, c, margins[0], steps)
            # A try fails if it takes fewer than three steps.
            skip = wait = 0 if len(c) > 2 else min(2 * wait + 1, MAX_WAIT)
        return c, margins, stepped

    return update


def _conv_hinge(weights, design, weighted, scale):
    d, kw = weights.w2.shape[0], weights.w1.shape[0]

    def step(act):
        M = shift_matrix(_active_sum(act, weighted, d), kw)
        weights.w1, weights.w2 = (weights.w1 + scale * (M.T @ weights.w2),
                                  weights.w2 + scale * (M @ weights.w1))
        return M

    def extend(m, act, M, c, first, steps):
        """The steps from the weights after a first step, whose margins
        ``first`` kept the active set: one [w1 | w2] row per step, the
        first row those weights and the rest in closed form, up to the
        first change of the active set."""
        steps = _block_steps(m, first, steps)
        block = np.empty((steps, kw + d))
        block[0, :kw], block[0, kw:] = weights.w1, weights.w2
        block[1:] = xhinge_iterates(_decompose(M), scale, weights.w1, weights.w2,
                                    np.arange(1, steps))[0]
        w1s, w2s = block[:, :kw], block[:, kw:]
        c = conv_collapse(w1s, w2s)
        margins = _design_margins(c, design)
        rows = _held(margins, act) + 1
        c, margins, w1s, w2s = c[:rows], margins[:rows], w1s[:rows], w2s[:rows]
        weights.w1, weights.w2 = w1s[-1], w2s[-1]
        return c, margins, map(ConvWeights, w1s, w2s)

    return _tried_blocks(weights, design, step, extend)


def _fc_hinge(weights, design, weighted, scale):
    d = weights.w2.shape[0]

    def step(act):
        s = _active_sum(act, weighted, d)
        g_w2 = weights.W1 @ s
        g_W1 = weights.w2[:, None] * s
        g_W1 *= scale
        weights.W1 += g_W1
        weights.w2 += scale * g_w2
        return s

    def extend(m, act, s, c, first, steps):
        """As `_conv_hinge`'s, from the effective weights c of the first
        step (the closed form is derived in test_fc_closed_form)."""
        steps = _block_steps(m, first, steps)
        W1, w2 = weights.W1, weights.w2
        p, root, t = W1 @ s, math.sqrt(s @ s), np.arange(steps)
        lam_p, lam_m = _growth_factors(scale * root, t)
        a = 0.5 * lam_p
        # At s = 0, lam_m / (2 |s|) is 0/0; its limit is t * scale.
        b = lam_m / (2.0 * root) if root else scale * t
        # The sums of a and b over the steps before each row.
        A, B = np.zeros(steps), np.zeros(steps)
        np.cumsum(a[:-1], out=A[1:])
        np.cumsum(b[:-1], out=B[1:])
        ww, wp, pp = w2 @ w2, w2 @ p, p @ p
        gamma = scale * (A * (a * ww + b * wp) + B * (a * wp + b * pp))
        block = np.empty((steps, d))
        block[0] = c[0]
        block[1:] = np.column_stack((a, b, gamma))[1:] @ np.vstack((c[0], W1.T @ p, s))
        margins = _design_margins(block, design)
        rows = min(_held(margins, act) + 1, steps)

        def at(r):
            return FCWeights(W1 + scale * np.outer(A[r] * w2 + B[r] * p, s),
                             a[r] * w2 + b[r] * p)

        last = at(rows - 1)
        weights.W1, weights.w2 = last.W1, last.w2
        return (block[:rows], margins[:rows],
                chain((FCWeights(W1, w2),), map(at, range(1, rows))))

    return _tried_blocks(weights, design, step, extend)


def _growth_factors(x, t):
    """lam_pm = (1 + x)^t +- (1 - x)^t for the rates x >= 0 and step
    counts t >= 0, broadcast together."""
    # lam_pm = (1 + x)^t (1 +- r^t) with r = (1 - x) / (1 + x), without
    # cancellation: ln |r| and 1 - |r|^t through log1p and expm1.
    if np.all(x < 1.0):
        tail = -np.expm1(t * np.log1p(-2.0 * x / (1.0 + x)))
        grow = np.exp(t * np.log1p(x))
        return grow * (2.0 - tail), grow * tail
    # For x > 1, r < 0, so an odd t swaps the two; at x = 1, 0^0 = 1.  The
    # t = 0 fill is the -0.0 that t ln |r| is at t = 0 for x < 1.
    with np.errstate(divide="ignore", invalid="ignore"):
        log_r = np.log1p(-2.0 * np.fmin(x, 1.0) / (1.0 + x))
        tail = -np.expm1(np.where(t > 0, t * log_r, -0.0))
    grow = np.exp(t * np.log1p(x))
    swap = (x > 1.0) & (t % 2 == 1)
    return (grow * np.where(swap, tail, 2.0 - tail),
            grow * np.where(swap, 2.0 - tail, tail))


def xhinge_iterates(dec, alpha, w1, w2, t):
    """The iterate of the conv step w1 + alpha M^T w2, w2 + alpha M w1 in
    closed form (see `convlin.dynamics`) after each of the step counts t
    from (w1, w2), with ``dec`` the thin SVD of M: one [w1 | w2] row per
    step count, and the (len(t), k) growth factors of alpha sigma.  M is
    the training average or, in a conv hinge block, the shift matrix of
    the active sum."""
    t = np.asarray(t, dtype=float)[:, None]
    lam_p, lam_m = _growth_factors(alpha * dec.sigma, t)
    a, b = dec.V.T @ w1, dec.U.T @ w2
    w1s = 0.5 * (lam_p * a + lam_m * b) @ dec.V.T
    w2s = 0.5 * (lam_m * a + lam_p * b) @ dec.U.T + (w2 - dec.U @ b)
    return np.hstack((w1s, w2s)), lam_p, lam_m


def _conv_xhinge(weights, design, alpha, tr, rescales):
    """Also appends the common factor of each renormalization to
    ``rescales``."""
    kw = weights.w1.shape[0]
    dec = _decompose(training_average(tr, kw))
    # The most steps a block takes (see the module docstring).
    rate = math.log1p(alpha * dec.sigma[0])
    most = max(1, int(math.log(RENORM_THRESHOLD) / rate)) if rate else math.inf

    def update(m, act, steps):
        start = max(np.abs(weights.w1).max(), np.abs(weights.w2).max())
        steps = min(steps, 1 if start > RENORM_THRESHOLD else most)
        block = xhinge_iterates(dec, alpha, weights.w1, weights.w2,
                                np.arange(1, steps + 1))[0]
        # The steps are linear: a row that passes the threshold, and every
        # row after it up to the next that does, is divided by its own
        # max-abs before any rescale.
        scale, last = np.ones(steps), 1.0
        for row, top in enumerate(np.abs(block).max(axis=1).tolist()):
            if top / last > RENORM_THRESHOLD:
                rescales.append(top / last)
                scale[row:] = last = top
        block /= scale[:, None]
        w1s, w2s = block[:, :kw], block[:, kw:]
        weights.w1, weights.w2 = w1s[-1], w2s[-1]
        c = conv_collapse(w1s, w2s)
        return c, _design_margins(c, design), map(ConvWeights, w1s, w2s)

    return update


_HINGE_UPDATES = {"1layer": _linear_hinge, "conv": _conv_hinge, "fc": _fc_hinge}


def train(model, tr, config, initial, eval_set=None, record_weights=False):
    """Full-batch gradient descent on a training set from the weights
    ``initial`` (copied, never mutated); training draws nothing.

    With ``eval_set`` given, the whole-dataset error is recorded every
    step.  Returns a TrainTrace.  A hinge run stops at a zero training
    loss ("loss-zero") or else after ``max_steps`` ("step-budget"); an
    extreme-hinge run always takes ``max_steps`` ("fixed-steps").
    Raises NumericalError at the first step whose loss is not finite,
    and when the final weights are not finite.
    """
    if config.loss == "xhinge" and model != "conv":
        raise ConfigError("extreme-hinge training is defined for the conv model")
    weights = initial.copy()
    # The training set is held on its distinct signed columns.
    design, counts = tr.distinct
    n, d = len(tr), tr.d
    rescales = []
    if config.loss == "hinge":
        weighted = design[0], design[1] * counts
        update = _HINGE_UPDATES[model](weights, design, weighted, config.alpha / n)
    else:
        update = _conv_xhinge(weights, design, config.alpha, tr, rescales)
    width = max(d + (weights.w1.shape[0] if model == "conv" else 0), len(counts),
                0 if eval_set is None else len(eval_set.distinct[1]))
    max_rows = max(1, BLOCK_ELEMENTS // width)
    losses, terrs, eerrs = [], [], []
    snaps = [] if record_weights else None
    pending = []  # (effective weights, margins) of the steps not yet scored

    def score():
        """Record the pending steps; raise at the first non-finite loss."""
        cs, ms = zip(*pending)
        pending.clear()
        m = np.concatenate(ms)
        if config.loss == "hinge":
            h = 1.0 - m
            np.maximum(h, 0.0, out=h)
        else:
            h = -m
        loss = (h @ counts) / n
        finite = np.isfinite(loss)
        if not finite.all():
            step = sum(map(len, losses)) + int(finite.argmin())
            raise _diverged(model, config, f"the loss at step {step} is not finite")
        losses.append(loss)
        terrs.append(error_from_margins(m, counts))
        if eval_set is not None:
            eerrs.append(weight_error(np.concatenate(cs), eval_set))

    # A step whose loss is not finite is found when the steps are scored,
    # in order, before any later stop takes effect; the steps past it only
    # compute values that are never recorded, so numpy's overflow warnings
    # would only repeat it.  A margin that does not move predicts its
    # crossing at infinity.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        c, m, stepped = _state(weights, design)
        t, unscored = -1, 0  # the step of the last row of c; the rows pending
        while True:
            pending.append((c, m))
            if snaps is not None:
                snaps.extend(w.copy() for w in stepped)
            t, unscored = t + len(c), unscored + len(c)
            if unscored >= max_rows:
                score()
                unscored = 0
            act = m[-1] < 1.0
            fitted = config.loss == "hinge" and not act.any()  # a zero loss
            if fitted or t == config.max_steps:
                break
            c, m, stepped = update(m[-1], act,
                                   min(max_rows - unscored, config.max_steps - t))
        if unscored:
            score()

    if not all(np.all(np.isfinite(tensor)) for tensor in vars(weights).values()):
        raise _diverged(model, config, f"the weights after step {t} are not finite")

    if config.loss == "xhinge":
        stop_reason = "fixed-steps"
    else:
        stop_reason = "loss-zero" if fitted else "step-budget"
    return TrainTrace(
        steps=np.arange(t + 1),
        train_loss=np.concatenate(losses),
        train_error=np.concatenate(terrs),
        test_error=np.concatenate(eerrs) if eerrs else np.full(t + 1, np.nan),
        weights=weights,
        stop_reason=stop_reason,
        renormalizations=len(rescales),
        weights_per_step=snaps,
    )
