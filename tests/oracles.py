"""Reference paths the tests check the package against.

Each computes one quantity the slow, literal way: a dense view of a
dataset and a dense forward pass, the signed design of every point,
point-major margins and an error counted with masks, a whole-dataset
error point by point with each point's own input mass, the hinge loss
as a plain mean, the signed shift matrix of one point and the training
average built from it point by point, the conv score and asymptotic
margin through the explicit matrix, a conv model's effective weights
through np.convolve, the limiting error of a degenerate training set
one draw at a time, the limit estimate one training set at a time, the
shift matrix one column at a time, a dataset's distinct columns through
a sort of the columns themselves, and training one step at a time with
the conv gradients one lag at a time.  The package itself stores only
each dataset's nonzeros, computes these through effective weights and
scores every margin and error on the distinct columns of the signed
sparse design, scores a degenerate set's draws and an estimate's simple
sets in blocks, and gathers a shift matrix through one index.  The
traces sidecar is written here row by row through csv.writer.  A
separating weight vector per task, the mean test error and the summary
values of result rows, and training from a drawn init are here too, as
only the tests read them.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from convlin.dynamics import (
    ZERO_MARGIN_FRAC,
    AsymptoticErrorEstimate,
    asymptotic_error_for_trainset,
    asymptotic_weights,
)
from convlin.errors import NumericalError, ShapeError
from convlin.harness import _mean_se
from convlin.models import (
    RENORM_THRESHOLD,
    TRACE_COLUMNS,
    ConvWeights,
    TrainTrace,
    effective_weights,
    init_weights,
    train,
)
from convlin.shift import shift_matrix, training_average
from convlin.tasks import sample_training_set


@dataclass
class DataPoint:
    """One labelled input: dense vector ``x`` and label ``y`` in {-1, +1}."""

    x: np.ndarray
    y: int


def dense(data):
    """The dense (N, d) input matrix of a Dataset."""
    X = np.zeros((len(data), data.d))
    rows = np.repeat(np.arange(len(data)), data.positions.shape[1])
    X[rows, data.positions.ravel()] = data.values.ravel()
    return X


def dense_point(data, i):
    """Point i of a Dataset, with its input as a dense vector."""
    x = np.zeros(data.d)
    x[data.positions[i]] = data.values[i]
    return DataPoint(x=x, y=int(data.y[i]))


def dense_points(data):
    """Every point of a Dataset in order, as dense DataPoints."""
    return (dense_point(data, i) for i in range(len(data)))


def separator_witness(task, d):
    """A weight vector w with y * (w @ x) >= 1 on every point of the task."""
    if task == "cls":
        return np.ones(d)
    if task == "1stctrl":
        w = np.ones(d)
        w[: d // 2] = -1.0
        return w
    if task == "parity":
        w = np.ones(d)
        w[1::2] = -1.0
        return w
    # 3rdctrl: increasing ramp; margins are y * (a - b) = |a - b| >= 1.
    return np.arange(1, d + 1, dtype=float)


def summarize(rows, model=None, loss=None, n=None):
    """Mean and standard error of test_error over matching rows."""
    vals = [r.test_error for r in rows
            if r.test_error is not None
            and (model is None or r.model == model)
            and (loss is None or r.loss == loss)
            and (n is None or r.n == n)]
    if not vals:
        raise ValueError("no matching rows")
    return _mean_se(vals)


def summary_values(result):
    """A run's summary rows, those at trial index ``spec.trials``, as
    {aux_key: float value}."""
    return {r.aux_key: float(r.aux_value) for r in result.rows
            if r.trial == result.spec.trials}


def convolve_collapse(w1, w2):
    """The effective weights of a conv model through np.convolve: w2
    convolved with w1, truncated to the input length."""
    return np.convolve(w2, w1)[: w2.shape[0]]


def oracle_weights(weights):
    """The effective weights of any model, a conv model's through
    `convolve_collapse`."""
    if isinstance(weights, ConvWeights):
        return convolve_collapse(weights.w1, weights.w2)
    return effective_weights(weights)


def forward(weights, x):
    """Score a single dense input."""
    return float(oracle_weights(weights) @ np.asarray(x, dtype=float))


def signed_design(data):
    """The signed design of every point: C-ordered (m, N) arrays of the
    positions and of the y * x values, one row per nonzero slot."""
    return data.positions.T.copy(), (data.y[:, None] * data.values).T.copy()


def point_margins(weights, data):
    """Margins point by point: each point's score, the sum of its
    values times the gathered weights, times its label."""
    c = oracle_weights(weights)
    with np.errstate(over="ignore"):
        return (data.values * c[data.positions]).sum(axis=1) * data.y


def error_rate(m, zero_tol=0.0):
    """Mean error of the margins m: a margin below -zero_tol counts 1,
    one within +-zero_tol counts 1/2, and any other margin 0."""
    m = np.asarray(m, dtype=float)
    wrong = m < -zero_tol
    tied = np.abs(m) <= zero_tol
    return float(np.mean(wrong + 0.5 * tied))


def point_error(weights, data, tie_scale=0.0):
    """Whole-dataset error point by point: each point's margin from
    `point_margins`, a tie band of ``tie_scale`` times the point's own
    input mass, the sum of its |x| entries, and a masked count."""
    mass = np.abs(data.values).sum(axis=1)
    return error_rate(point_margins(weights, data), tie_scale * mass)


def hinge_loss(weights, tr):
    """Mean hinge loss max(0, 1 - y f) over a training set."""
    return float(np.mean(np.maximum(0.0, 1.0 - point_margins(weights, tr))))


def signed_shift_matrix(point, k):
    """``y * A_x`` for a labelled point."""
    return float(point.y) * shift_matrix(point.x, k)


def conv_score_via_matrix(w1, w2, x):
    """Conv score ``w1 @ A_x.T @ w2`` through the explicit matrix."""
    A = shift_matrix(x, len(w1))
    return float(np.asarray(w1) @ (A.T @ np.asarray(w2)))


def signed_average_from_points(points, k):
    """Training average built point by point."""
    pts = list(points)
    if not pts:
        raise ValueError("no points given")
    acc = np.zeros_like(signed_shift_matrix(pts[0], k))
    for p in pts:
        acc += signed_shift_matrix(p, k)
    return acc / len(pts)


def asymptotic_margin(point, aw, k=None):
    """Margin ``w1(inf) @ (y A_x).T @ w2(inf)`` of one labelled point."""
    k = aw.w1.shape[0] if k is None else k
    M = signed_shift_matrix(point, k)
    return float(aw.w1 @ (M.T @ aw.w2))


def asymptotic_error_alone(aw, dataset):
    """Whole-dataset error of one set of asymptotic weights, scored on
    its own and point by point: `point_error` with the tie scale
    ``ZERO_MARGIN_FRAC`` times ``np.linalg.norm`` of each weight
    vector."""
    scale = ZERO_MARGIN_FRAC * np.linalg.norm(aw.w1) * np.linalg.norm(aw.w2)
    return point_error(ConvWeights(aw.w1, aw.w2), dataset, scale)


def degenerate_error_per_draw(whole, mtr, k, rng, draws):
    """Mean limiting error over ``draws`` standard-normal inits w1(0),
    one draw of size k, one limit and one whole-dataset score at a
    time, added in draw order."""
    total = 0.0
    for _ in range(draws):
        aw = asymptotic_weights(rng.standard_normal(k), mtr)
        total += asymptotic_error_alone(aw, whole)
    return total / draws


def estimate_per_set(whole, n, k, trials, rng):
    """`asymptotic_error_estimate` one training set at a time: each
    child rng draws its set, redrawing a zero average, and the set is
    scored on its own through `asymptotic_error_for_trainset`."""
    errors = np.empty(trials)
    degenerate = resamples = 0
    for i, child in enumerate(rng.spawn(trials)):
        for _ in range(100):
            tr = sample_training_set(whole, n, child)
            mtr = training_average(tr, k)
            if np.any(mtr):
                break
            resamples += 1
        else:
            raise NumericalError("training average cancelled to zero repeatedly")
        errors[i], was_degenerate = asymptotic_error_for_trainset(whole, tr, k, rng=child)
        degenerate += was_degenerate
    stderr = float(errors.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return AsymptoticErrorEstimate(
        mean=float(errors.mean()), stderr=stderr,
        degenerate_fraction=degenerate / trials,
        zero_average_resamples=resamples, trial_errors=errors)


def shift_matrix_by_columns(x, k):
    """The d x k shift matrix of x filled one column at a time: column j
    is x[j:] over j zeros."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ShapeError(f"expected a vector, got shape {x.shape}")
    d = x.shape[0]
    if not 1 <= k <= d:
        raise ShapeError(f"filter width k={k} must satisfy 1 <= k <= d={d}")
    A = np.zeros((d, k))
    for j in range(k):
        A[: d - j, j] = x[j:]
    return A


def distinct_by_sort(data):
    """`Dataset.distinct` through ``np.unique(..., axis=1)``, which sorts
    the stacked [positions; y * x] columns of the signed design as one
    structured view."""
    positions, yx = signed_design(data)
    columns, inverse, counts = np.unique(np.concatenate((positions, yx)), axis=1,
                                         return_inverse=True, return_counts=True)
    m = positions.shape[0]
    # numpy 2.0.0 alone gives this inverse a leading axis of length 1.
    return ((columns[:m].astype(np.intp, order="C"), columns[m:].copy()),
            counts.astype(float), inverse.reshape(-1))


def write_traces_csv(traces, path):
    """The traces sidecar of (trial, loss, trace) triples, through
    csv.writer's default dialect: a header, then one row per recorded
    step."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial", "loss", *TRACE_COLUMNS])
        for trial, loss, trace in traces:
            writer.writerows([trial, loss, *row] for row in trace.csv_rows())


def _scalar_active_sum(tr, act):
    """sum over active points of y_i * x_i, as a dense d-vector."""
    w = (tr.y[act, None] * tr.values[act]).ravel()
    return np.bincount(tr.positions[act].ravel(), weights=w, minlength=tr.d)


def _scalar_corr_filter(s, w2, k):
    """(A_s).T @ w2 for the shift matrix of s: out[j] = s[j:] @ w2[:d-j]."""
    d = s.shape[0]
    out = np.empty(k)
    for j in range(k):
        out[j] = s[j:] @ w2[: d - j]
    return out


def _scalar_conv_vec(s, w1):
    """A_s @ w1: out[i] = sum_j w1[j] * s[i + j] (zero padded)."""
    d = s.shape[0]
    out = np.zeros(d)
    for j, cj in enumerate(w1):
        if cj != 0.0:
            out[: d - j] += cj * s[j:]
    return out


def _scalar_hinge_step(model, weights, tr, alpha, m):
    """One hinge step from the margins m; with no active point it
    leaves every weight untouched, down to the sign of a zero."""
    act = m < 1.0
    if not np.any(act):
        return
    s = _scalar_active_sum(tr, act)
    scale = alpha / len(tr)
    if model == "1layer":
        weights.w += scale * s
    elif model == "conv":
        g1 = _scalar_corr_filter(s, weights.w2, weights.w1.shape[0])
        g2 = _scalar_conv_vec(s, weights.w1)
        weights.w1 += scale * g1
        weights.w2 += scale * g2
    else:
        g_W1 = np.outer(weights.w2, s)
        g_w2 = weights.W1 @ s
        weights.W1 += scale * g_W1
        weights.w2 += scale * g_w2


def train_drawn(model, tr, config, rng, k=None, **kwargs):
    """`train` from an init drawn as the experiments draw one,
    ``init_weights(model, tr.d, k, config, rng)``."""
    return train(model, tr, config, init_weights(model, tr.d, k, config, rng),
                 **kwargs)


def scalar_train(model, tr, config, rng, k=None, eval_set=None,
                 initial=None, record_weights=False, renormalize=True,
                 past_fit=False):
    """The reference training loop: point-major margins and masked
    error counts, and the conv gradients one lag at a time.  It stops as
    `train` does, except that ``renormalize=False`` turns off the
    extreme-hinge rescale, which `train` always applies, and
    ``past_fit=True`` runs a hinge run for all ``max_steps`` steps, past
    a zero loss ("fixed-steps"), which `train` never does."""
    weights = initial.copy() if initial is not None else init_weights(
        model, tr.d, k, config, rng)
    mtr = None
    if config.loss == "xhinge":
        mtr = training_average(tr, weights.w1.shape[0])
    stop_at_fit = config.loss == "hinge" and not past_fit
    steps, losses, terrs, eerrs = [], [], [], []
    snaps = [] if record_weights else None
    renorms = 0
    stop_reason = "fixed-steps"
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(config.max_steps + 1):
            m = point_margins(weights, tr)
            if config.loss == "hinge":
                loss = float(np.mean(np.maximum(0.0, 1.0 - m)))
            else:
                loss = float(np.mean(-m))
            if not np.isfinite(loss):
                raise NumericalError(
                    f"{model} {config.loss} training diverged at "
                    f"alpha={config.alpha}: the loss at step {t} is not finite")
            steps.append(t)
            losses.append(loss)
            terrs.append(error_rate(m))
            eerrs.append(error_rate(point_margins(weights, eval_set))
                         if eval_set is not None else np.nan)
            if snaps is not None:
                snaps.append(weights.copy())
            if stop_at_fit and loss == 0.0:
                stop_reason = "loss-zero"
                break
            if t == config.max_steps:
                if stop_at_fit:
                    stop_reason = "step-budget"
                break
            if config.loss == "hinge":
                _scalar_hinge_step(model, weights, tr, config.alpha, m)
            else:
                w1_new = weights.w1 + config.alpha * (mtr.T @ weights.w2)
                w2_new = weights.w2 + config.alpha * (mtr @ weights.w1)
                weights.w1, weights.w2 = w1_new, w2_new
                if renormalize:
                    mx = max(np.max(np.abs(weights.w1)), np.max(np.abs(weights.w2)))
                    if mx > RENORM_THRESHOLD:
                        weights.w1 /= mx
                        weights.w2 /= mx
                        renorms += 1
    if not all(np.all(np.isfinite(tensor)) for tensor in vars(weights).values()):
        raise NumericalError(
            f"{model} {config.loss} training diverged at alpha={config.alpha}: "
            f"the weights after step {steps[-1]} are not finite")
    return TrainTrace(
        steps=np.asarray(steps), train_loss=np.asarray(losses),
        train_error=np.asarray(terrs), test_error=np.asarray(eerrs),
        weights=weights, stop_reason=stop_reason, renormalizations=renorms,
        weights_per_step=snaps)
