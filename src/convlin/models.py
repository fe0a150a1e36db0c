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

Every dataset is scored through its signed sparse design,
`Dataset.signed`: the positions and the y * x values of each point's
nonzeros, built once per dataset, or through that design's distinct
columns, `Dataset.distinct`, with the number of points that share each
column and each point's column index.  A whole cls set has 2d points
and d distinct columns, and a drawn cls set of any size at most d, as
every y * x is some e_l.  `train` and `classification_error` read the
distinct columns, `margins` every point, and one counter,
`error_from_margins`, gives every error: those of the training loop, of
`classification_error` and of the limiting classifier.

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
scores the losses as row sums of the per-point losses, which a take
through the column index expands from the columns, a chunk of rows at
a time, the errors as one product of the signs with the column counts,
the eval errors from one gather of the stacked c on the eval set's
distinct columns and the same product with its counts, and it raises
at the first step whose loss is not finite.

The fc hinge update takes one step per call; the one-layer and conv
hinge updates take blocks of steps.  The active sum s is one bincount
of the active columns' y * x times their counts, a product made once
per run.  For conv, the output gradient adds the shifted copies of s,
read as a window view of a zero-padded buffer, one lag after another,
and the filter gradient takes one BLAS dot per lag.
While the active set stays the same, s is fixed.  A one-layer step then
adds the same v = (alpha / n) s to w, so the weights of J steps are one
cumulative sum down the rows [w + v; v; ...; v], and their margins one
(J, u) gather.  The block ends at the first row whose active set
differs.  J comes from each margin's predicted crossing of 1, as the
margins move linearly with the step count; the prediction only sets how
much is computed, and the change test decides every result.  Where the
active set changes at every step, as late in a 3rdctrl run, each block
is one step.
A conv step with a fixed s is only the k lag dots, the window sum and
two scaled adds.  The conv update takes its first step in place, as a
single step.  If that step kept the active set, it writes the further
steps as [w1 | w2] rows of one block, each from the row before with the
same lag dots and window sum, then collapses the block with one stacked
`conv_collapse`, gathers its margins once and keeps the rows up to the
first change of the active set.  J comes from the same predicted
crossing, though conv margins do not move linearly.  A single step
allocates no block.  Where the active set keeps changing, the update
stops testing it: a try that takes fewer than three steps is followed
by single steps without a try, for a wait that doubles with each failed
try in a row, up to MAX_WAIT steps.  A try that succeeds resets the
wait to zero.

The conv xhinge update takes a block of steps too.  Its step is linear
in the weights, w1 + alpha M^T w2 and w2 + alpha M w1 with M the
training average, and has no active set, so only the step budget ends a
block.  A block runs that recurrence row by row into one preallocated
array of [w1 | w2] rows.  Each step writes the same two BLAS products
as a single step into one [M^T w2 | M w1] buffer made once per run,
scales it by alpha in place with one multiply and adds it to the
previous row with one add, into the row; a block's first row adds it
to a concatenated copy of the weights.  A row whose joint max-abs
passes RENORM_THRESHOLD is divided by it in place, and the next step
starts from the rescaled row, so a block holds any number of rescales
and no row is computed that is not a step.  Rows are scanned for their
max-abs only past a growth window.  A step multiplies the joint max-abs
by at most g = 1 + alpha * max(max column sum, max row sum) of |M|, so
after a scanned row of max-abs top the next
floor(log(THR / top) / log g) - 1 rows cannot pass the threshold THR
and are not scanned.  g carries a slack for rounding; the window
restarts at each scanned row and ends with the block, and a zero,
infinite or NaN max-abs or an infinite g gives none.  Then the block's
effective weights are one stacked `conv_collapse`, the helper that
collapses any conv model, and its margins one gather.  One pair
collapses through np.correlate of w2 with the reversed w1, which is
np.convolve(w2, w1) without that wrapper's checks.  A stack repeats
np.correlate's own sums for all its rows at once.  With at most
SMALL_KERNEL taps, numpy adds an entry's k products in ascending tap
order from +0.0, and the stack makes each tap one multiply and one add
over all rows.  With more taps, and for the first k - 1 entries at any
k, an entry is one BLAS dot, and a stacked (1, n) @ (n, 1) matmul makes
that same call.

The result is bit for bit that of the per-point, per-lag loop kept as
the oracle in the tests.  Every y * x entry is +-1 and every count an
integer, so s is an integer vector and exact in any summation order.  A
point's margin is the sum of the same at most two signed entries of c,
added in the same slot order, as its column's, so it is its column's
margin bit for bit, and the active set, the crossing prediction and the
change test of a one-layer block see the same values as on every point.
The error sums are exact integers.
Each lag dot is the same BLAS call on the same d - j entries.  A single
zero-padded dot of length d per lag would not be exact: BLAS splits a
length-d dot into blocks differently from a length d - j one.  A
one-layer block is exact because a cumulative sum adds sequentially, so
each row is the repeated in-place w += v.  An xhinge row takes the same
products, the same rescale and the same collapse of the same vectors
as a single step (each entry takes the same product, scale and add),
and a row inside a growth window is one that no rescale could touch.
A conv hinge row takes the same lag dots, window sum, scales and adds
of the same vectors as a single step, and its collapse is
np.correlate's.
The batched losses are exact because the per-point loss array is
C-ordered: take along the last axis builds a new C-ordered (rows, n)
array of each point's loss in point order, so the row sums run along
contiguous rows, each the pairwise sum of one 1-D vector of the values
the per-point loop sums, in a chunk of rows as in the whole batch.  The
row sums of a Fortran-ordered array would add its columns one after
another, a sequential sum, and a sum of each column's loss times its
count rounds differently again.  An error on the distinct columns is
exact: the weighted sum of signs is an integer, exact in any summation
order.
"""

import math
from dataclasses import dataclass, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, NumericalError
from .shift import training_average

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


# numpy's correlate sums a kernel of at most this many taps in ascending
# tap order from +0.0, and a longer one with one BLAS dot per output.  A
# stack repeats those sums, which holds only while numpy's small-kernel
# loop makes each product and add separately (no fused multiply-add).
SMALL_KERNEL = 11


def conv_collapse(w1, w2):
    """The effective weights of a conv model: w2 convolved with w1,
    truncated to the input length.  w1 and w2 are one (k,) filter and
    its (d,) output layer, or (rows, k) and (rows, d) stacks of them,
    which give a (rows, d) array.  Each row of a stack is bit for bit
    that of its own pair, except for which NaN a NaN entry is: numpy's
    ufuncs pick the sign of a NaN of two NaN operands differently in the
    body and the tail of one call.  No collapse warns of an overflow."""
    if w1.ndim == 1:
        return np.correlate(w2, w1[::-1], "full")[: w2.shape[0]]
    # np.correlate's own sums, made for all rows at once.  It reads a
    # contiguous copy of the reversed filter v; a strided one would send
    # its dots through numpy's own loop instead of BLAS.
    (rows, k), d = w1.shape, w2.shape[1]
    v = w1[:, ::-1].copy()
    c = np.zeros((rows, d))
    with np.errstate(over="ignore", invalid="ignore"):
        if k > SMALL_KERNEL:
            # Entry k - 1 + i is one BLAS dot of w2[i:i + k] and v.
            windows = sliding_window_view(w2, k, axis=1)[:, :, None, :]
            np.matmul(windows, v[:, None, :, None], out=c[:, k - 1 :, None, None])
        else:
            # Entry k - 1 + i adds w2[i + n] * v[n] for n = 0, ..., k - 1
            # to +0.0.  Transposed, each tap reads one contiguous block of
            # w2's columns: at k = 5 and 81 rows that runs in half the
            # time of the same sums over row slices.
            w2t, sums = w2.T.copy(), np.zeros((d - k + 1, rows))
            for n, tap in enumerate(v.T):
                sums += w2t[n : n + d - k + 1] * tap
            c[:, k - 1 :] = sums.T
        # Entry m < k - 1 is one BLAS dot of w2[:m + 1] and v[k - 1 - m:],
        # and a stacked (1, m + 1) @ (m + 1, 1) matmul makes that call.
        for m in range(k - 1):
            np.matmul(w2[:, None, : m + 1], v[:, k - 1 - m :, None],
                      out=c[:, m : m + 1, None])
    return c


def margins(weights, data):
    """The margins y * f(x) of a model on every point of a Dataset."""
    return weight_margins(effective_weights(weights), data)


def weight_margins(c, data):
    """The margins y * c @ x on every point of a Dataset of the effective
    weights c, a (d,) row, or of each row of a (rows, d) block c, which
    gives a C-ordered (rows, N) array."""
    # A sum of at most two finite terms that overflows keeps its sign,
    # so every error read from these margins is still right.
    with np.errstate(over="ignore"):
        return _design_margins(c, data.signed)


def _design_margins(c, design):
    """Margins on a signed design of the weight vector c, or of each row
    of a (rows, d) stack c: the sum over slots of yx * c[positions],
    added slot by slot.  A stack gives a C-ordered (rows, N) array."""
    positions, yx = design
    prod = yx * c.take(positions, axis=-1)
    m = prod[..., 0, :]
    for j in range(1, yx.shape[0]):
        m = m + prod[..., j, :]
    return m


def error_from_margins(m, zero_tol=None, counts=None):
    """Classification error along the last axis of the margins m, with
    the half-credit zero rule.

    A negative margin counts 1, a zero margin 1/2, and a positive or NaN
    margin 0.  With ``zero_tol`` given, which may be a per-point array,
    every margin within +-zero_tol counts 1/2.  With ``counts`` given,
    margin i stands for counts[i] points, as on `Dataset.distinct`.  The
    count is one exact sum: with a tie's sign taken as 0 and a NaN sign
    as 1, n - sum(sign m * counts) is the integer 2 * wrong + tied."""
    m = np.asarray(m, dtype=float)
    sign = np.sign(m)
    if zero_tol is not None:
        sign[np.abs(m) <= zero_tol] = 0.0
    np.fmin(sign, 1.0, out=sign)
    if counts is None:
        n, signs = m.shape[-1], sign.sum(axis=-1)
    else:
        n, signs = counts.sum(), sign @ counts
    return (n - signs) / (2 * n)


def classification_error(weights, dataset):
    """Mean error of a model over a dataset (ties count half), counted
    over the dataset's distinct columns."""
    design, counts, _ = dataset.distinct
    with np.errstate(over="ignore"):
        m = _design_margins(effective_weights(weights), design)
    return float(error_from_margins(m, counts=counts))


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
# the eval set's.  The per-point losses, n wide, are summed in chunks of
# BLOCK_ELEMENTS // n rows.  glibc malloc trims a free heap top past its
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


# The updates.  Each advances ``weights`` from the active set ``act`` of
# the margins m and returns the effective weights and margins of the
# steps it took, at most ``steps`` of them (see the module docstring),
# and the weights after each of those steps, which the loop copies to
# record them before the next update.  The margins are those of the
# training set's distinct columns, ``design``; a hinge update sums the
# active ones through their count-weighted copy, ``weighted``, and a
# hinge step adds ``scale`` = alpha / n times the gradient.

def _linear_hinge(weights, design, weighted, scale):
    d = weights.w.shape[0]

    def update(m, act, steps):
        # Each step adds the same v while the active set stays that of m.
        v = scale * _active_sum(act, weighted, d)
        states = (weights.w + v)[None]
        margins = _design_margins(states, design)
        if steps > 1 and not ((margins[0] < 1.0) != act).any():
            # The active set held for a step, so each margin moves by about
            # margins - m per step: the block ends at the first step at or
            # past the earliest predicted crossing of 1.
            fastest = np.fmax.reduce((margins[0] - m) / (1.0 - margins[0]))
            if fastest * (steps - 1) > 1.0:
                steps = int(1.0 / fastest) + 2
            block = np.empty((steps, d))
            block[0], block[1:] = states[0], v
            states = block.cumsum(axis=0, out=block)
            margins = _design_margins(states, design)
            # Rows past the first change of the active set are not steps.
            changed = np.flatnonzero(((margins < 1.0) != act).any(axis=1))
            if changed.size:
                states, margins = states[: changed[0] + 1], margins[: changed[0] + 1]
        weights.w = states[-1]
        return states, margins, map(LinearWeights, states)

    return update


# The most steps a conv hinge run takes one at a time, without a block
# try, after tries that failed.
MAX_WAIT = 64


def _conv_hinge(weights, design, weighted, scale):
    d, kw = weights.w2.shape[0], weights.w1.shape[0]
    # The active sum s sits in a buffer padded with kw - 1 zeros, so row j
    # of the (kw, d) window view is s shifted by j lags.
    s_pad = np.zeros(d + kw - 1)
    shifted = sliding_window_view(s_pad, d)
    # One dot per lag over exactly the d - j overlapping entries (see the
    # module docstring); the w2 views stay valid because w2 is updated in
    # place.
    s_tails = [s_pad[j:d] for j in range(kw)]
    w2_heads = [weights.w2[: d - j] for j in range(kw)]
    # The steps to take one at a time before the next block try, and the
    # wait after the last try, which doubles with each failed try in a row.
    skip = wait = 0

    def extend(m, act, first, steps):
        """The steps from the weights after a first step, whose margins
        ``first`` kept the active set: one [w1 | w2] row per step, up to
        the first change of the active set."""
        # As in the one-layer update, the block ends at the first step at
        # or past the earliest predicted crossing of 1.
        fastest = np.fmax.reduce((first - m) / (1.0 - first))
        if fastest * (steps - 1) > 1.0:
            steps = int(1.0 / fastest) + 2
        block = np.empty((steps, kw + d))
        w1s, w2s = block[:, :kw], block[:, kw:]
        w1s[0], w2s[0] = weights.w1, weights.w2
        # Each row takes a single step's products, scales and adds.
        for w1, w2, w1_out, w2_out in zip(w1s, w2s, w1s[1:], w2s[1:]):
            heads = [w2[: d - j] for j in range(kw)]
            g1 = np.fromiter(map(np.ndarray.dot, s_tails, heads), float, kw)
            g2 = (w1[:, None] * shifted).sum(axis=0)
            np.add(w1, scale * g1, out=w1_out)
            np.add(w2, scale * g2, out=w2_out)
        c = conv_collapse(w1s, w2s)
        margins = _design_margins(c, design)
        # Rows past the first change of the active set are not steps.
        changed = np.flatnonzero(((margins < 1.0) != act).any(axis=1))
        if changed.size:
            rows = changed[0] + 1
            c, margins, w1s, w2s = c[:rows], margins[:rows], w1s[:rows], w2s[:rows]
        weights.w1[:], weights.w2[:] = w1s[-1], w2s[-1]
        return c, margins, map(ConvWeights, w1s, w2s)

    def update(m, act, steps):
        nonlocal skip, wait
        s_pad[:d] = _active_sum(act, weighted, d)
        g1 = np.fromiter(map(np.ndarray.dot, s_tails, w2_heads), float, kw)
        g2 = (weights.w1[:, None] * shifted).sum(axis=0)
        weights.w1 += scale * g1
        weights.w2 += scale * g2
        c, margins, stepped = _state(weights, design)
        if skip:
            skip -= 1
        elif steps > 1:
            if not ((margins[0] < 1.0) != act).any():
                c, margins, stepped = extend(m, act, margins[0], steps)
            # A try fails if it takes fewer than three steps.
            skip = wait = 0 if len(c) > 2 else min(2 * wait + 1, MAX_WAIT)
        return c, margins, stepped

    return update


def _fc_hinge(weights, design, weighted, scale):
    d = weights.w2.shape[0]

    def update(m, act, steps):
        s = _active_sum(act, weighted, d)
        g_W1 = np.outer(weights.w2, s)
        g_w2 = weights.W1 @ s
        weights.W1 += scale * g_W1
        weights.w2 += scale * g_w2
        return _state(weights, design)

    return update


def _conv_xhinge(weights, design, alpha, tr, rescales):
    """Also appends the common factor of each renormalization to
    ``rescales``."""
    kw, d = weights.w1.shape[0], weights.w2.shape[0]
    mtr = training_average(tr, kw)
    mtr_t = mtr.T
    # A step multiplies the joint max-abs of [w1 | w2] by at most
    # g = 1 + alpha * max(max column sum, max row sum) of |M|; the factor
    # 1 + 4 (d + kw) eps covers the rounding of the products and of g.
    abs_m = np.abs(mtr)
    rate = alpha * float(max(abs_m.sum(axis=0).max(), abs_m.sum(axis=1).max()))
    log_g = math.log((1.0 + rate) * (1.0 + 4 * (d + kw) * np.finfo(float).eps))
    # The two products of a step, [M^T w2 | M w1], in one buffer.
    prods = np.empty(kw + d)
    p1, p2 = prods[:kw], prods[kw:]

    def window(top):
        """The number of rows after one of max-abs ``top`` that cannot
        pass RENORM_THRESHOLD, or zero for a zero, infinite or NaN top.
        The log of one ratio, unlike a difference of two logs, is off by
        less than 1/16 row, which the - 1 covers.  A top below 1 counts
        as 1, so the ratio cannot overflow and the window only shortens."""
        if not 0.0 < top < math.inf:
            return 0
        rows = math.log(RENORM_THRESHOLD / max(top, 1.0)) / log_g
        return max(0, int(rows) - 1)

    def update(m, act, steps):
        # Row j of the block is [w1 | w2] after step j, written in place
        # and rescaled in place, so the next step reads the rescaled row.
        # Only the rows past the growth window of the last scanned row are
        # scanned; the window ends with the block.
        block = np.empty((steps, kw + d))
        w1, w2 = weights.w1, weights.w2
        prev = np.concatenate((w1, w2))
        w1s, w2s = block[:, :kw], block[:, kw:]
        skip = 0
        for row, head, tail in zip(block, w1s, w2s):
            mtr_t.dot(w2, out=p1)
            mtr.dot(w1, out=p2)
            np.multiply(prods, alpha, out=prods)
            prev, w1, w2 = np.add(prev, prods, out=row), head, tail
            if skip:
                skip -= 1
                continue
            top = np.abs(row).max()
            if top > RENORM_THRESHOLD:
                row /= top
                rescales.append(top)
                top = np.abs(row).max()
            skip = window(top)
        weights.w1, weights.w2 = w1s[-1], w2s[-1]
        c = conv_collapse(w1s, w2s)
        return c, _design_margins(c, design), map(ConvWeights, w1s, w2s)

    return update


def _point_sums(h, inverse):
    """The sum over the points of each row of the per-column values h,
    expanded to the points through the column index ``inverse``."""
    return h.take(inverse, axis=1).sum(axis=1)


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
    # The training set is held on its distinct signed columns, and so are
    # the eval set's errors counted.
    design, counts, inverse = tr.distinct
    eval_design, eval_counts, _ = (None,) * 3 if eval_set is None else eval_set.distinct
    n, d = len(tr), tr.d
    rescales = []
    if config.loss == "hinge":
        weighted = design[0], design[1] * counts
        update = _HINGE_UPDATES[model](weights, design, weighted, config.alpha / n)
    else:
        update = _conv_xhinge(weights, design, config.alpha, tr, rescales)
    width = max(d + (weights.w1.shape[0] if model == "conv" else 0), design[0].shape[1],
                0 if eval_design is None else eval_design[1].shape[1])
    max_rows = max(1, BLOCK_ELEMENTS // width)
    loss_rows = max(1, BLOCK_ELEMENTS // n)
    losses, terrs, eerrs = [], [], []
    snaps = [] if record_weights else None
    pending = []  # (effective weights, margins) of the steps not yet scored

    def score():
        """Record the pending steps; raise at the first non-finite loss."""
        c = np.concatenate([rows for rows, _ in pending])
        m = np.concatenate([rows for _, rows in pending])
        pending.clear()
        if config.loss == "hinge":
            h = 1.0 - m
            np.maximum(h, 0.0, out=h)
        else:
            h = -m
        # Each point's loss, in point order: the row sums are those of the
        # per-point array (see the module docstring).
        loss = np.concatenate([_point_sums(h[i : i + loss_rows], inverse)
                               for i in range(0, len(h), loss_rows)]) / n
        finite = np.isfinite(loss)
        if not finite.all():
            step = sum(map(len, losses)) + int(finite.argmin())
            raise _diverged(model, config, f"the loss at step {step} is not finite")
        losses.append(loss)
        terrs.append(error_from_margins(m, counts=counts))
        if eval_design is not None:
            eerrs.append(error_from_margins(_design_margins(c, eval_design),
                                            counts=eval_counts))

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
