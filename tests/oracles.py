"""Reference paths the tests check the package against.

Each computes one quantity the slow, literal way: a dense forward pass,
point-major margins and an error counted with masks, the hinge loss as
a plain mean, the signed shift matrix of one point and the training
average built from it point by point, the conv score and asymptotic
margin through the explicit matrix, and the limiting error of a
degenerate training set one draw at a time.  The package itself
computes these through effective weights and each dataset's signed
sparse design, and scores a degenerate set's draws as one block.
The traces sidecar is written here row by row through csv.writer.
"""

import csv

import numpy as np

from convlin.dynamics import ZERO_MARGIN_FRAC, asymptotic_weights
from convlin.models import (
    TRACE_COLUMNS,
    ConvWeights,
    effective_weights,
    error_from_margins,
    margins,
)
from convlin.shift import shift_matrix


def forward(weights, x):
    """Score a single dense input."""
    return float(effective_weights(weights) @ np.asarray(x, dtype=float))


def point_margins(weights, data):
    """Margins point by point: each point's score, the sum of its
    values times the gathered weights, times its label."""
    c = effective_weights(weights)
    with np.errstate(over="ignore"):
        return (data.values * c[data.positions]).sum(axis=1) * data.y


def error_rate(m, zero_tol=0.0):
    """Mean error of the margins m: a margin below -zero_tol counts 1,
    one within +-zero_tol counts 1/2, and any other margin 0."""
    m = np.asarray(m, dtype=float)
    wrong = m < -zero_tol
    tied = np.abs(m) <= zero_tol
    return float(np.mean(wrong + 0.5 * tied))


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
    its own: its margins, a tie tolerance from ``np.linalg.norm`` of
    each weight vector times each point's input mass recomputed from
    the design, and one error count."""
    tol = (ZERO_MARGIN_FRAC * np.linalg.norm(aw.w1) * np.linalg.norm(aw.w2)
           * np.abs(dataset.signed[1]).sum(axis=0))
    return float(error_from_margins(margins(ConvWeights(aw.w1, aw.w2), dataset),
                                    zero_tol=tol))


def degenerate_error_per_draw(whole, mtr, k, rng, draws):
    """Mean limiting error over ``draws`` standard-normal inits w1(0),
    one draw of size k, one limit and one whole-dataset score at a
    time, added in draw order."""
    total = 0.0
    for _ in range(draws):
        aw = asymptotic_weights(rng.standard_normal(k), mtr)
        total += asymptotic_error_alone(aw, whole)
    return total / draws


def write_traces_csv(traces, path):
    """The traces sidecar of (trial, loss, trace) triples, through
    csv.writer's default dialect: a header, then one row per recorded
    step."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial", "loss", *TRACE_COLUMNS])
        for trial, loss, trace in traces:
            writer.writerows([trial, loss, *row] for row in trace.csv_rows())
