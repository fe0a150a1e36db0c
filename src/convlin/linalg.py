"""Small dense-matrix kernels.

Thin SVD of a tall matrix on LAPACK, with the top-multiplicity count
and the sign convention for the leading singular pair, and the two
classical nonnegative-matrix reachability tests: primitivity, and
irreducibility as primitivity of I + A.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    MultiplicityError,
    ShapeError,
    ZeroMatrixError,
)

# Relative gap under which singular values are considered tied when
# counting the multiplicity of the top one.
REL_TOL = 1e-9


@dataclass
class SpectralDecomposition:
    """Thin SVD ``M = U @ diag(sigma) @ V.T`` of a tall d x k matrix.

    ``sigma`` is sorted descending and ``m`` counts how many leading
    singular values are within ``REL_TOL * sigma[0]`` of the top one
    (the top multiplicity).
    """

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray
    m: int

    @property
    def top_pair(self):
        """Leading singular pair ``(u1, v1)``."""
        return self.U[:, 0], self.V[:, 0]


def thin_svd(M):
    """Thin SVD of a tall d x k matrix on LAPACK.

    Only the rows of M that hold a nonzero are decomposed, and their
    left vectors are scattered back into a zero d x k matrix, so a row
    of M that is exactly zero gives a row of U that is exactly zero in
    every column with a nonzero singular value.  When fewer than k rows
    are nonzero, the missing singular values are zeros and their left
    columns are standard basis vectors on zero rows, so U is always
    d x k with orthonormal columns.

    Raises ShapeError when d < k, ZeroMatrixError for an all-zero M, and
    ConvergenceError when LAPACK fails or M holds a non-finite entry.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got shape {M.shape}")
    d, k = M.shape
    if d < k:
        raise ShapeError(f"matrix must be tall, got shape {M.shape}")
    if k == 0:
        raise ShapeError("matrix must have at least one column")
    nonzero = M.any(axis=1)
    rows = np.flatnonzero(nonzero)
    if rows.size == 0:
        raise ZeroMatrixError("cannot decompose an all-zero matrix")

    r = rows.size
    try:
        Ur, sigma, Vt = np.linalg.svd(M if r == d else M[rows], full_matrices=r < k)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"LAPACK SVD failed: {exc}") from None
    if r == d:
        U = Ur
    else:
        U = np.zeros((d, k))
        U[rows, : min(r, k)] = Ur
        if r < k:
            U[np.flatnonzero(~nonzero)[: k - r], np.arange(r, k)] = 1.0
            sigma = np.concatenate([sigma, np.zeros(k - r)])

    values = sigma.tolist()
    top = values[0]
    if not math.isfinite(top):
        raise ConvergenceError("LAPACK SVD returned a non-finite singular value")
    # The same double operations as on the array; a NaN is never tied.
    tol = REL_TOL * top
    m = sum(top - s <= tol for s in values)
    return SpectralDecomposition(U=U, sigma=sigma, V=Vt.T, m=m)


def fix_top_pair_sign(dec):
    """Resolve the joint sign of the leading singular pair.

    Both columns are flipped together so that ``sum(v1) >= 0``; an exact
    zero sum falls back to making the first nonzero entry of v1
    positive.  Only valid when the top singular value is simple
    (``dec.m == 1``); otherwise MultiplicityError is raised.  Returns
    the input itself when no flip is needed, and otherwise a new
    decomposition with flipped copies of U and V, sharing sigma; the
    input is never modified.
    """
    if dec.m != 1:
        raise MultiplicityError(
            f"top singular value has multiplicity {dec.m}; sign fixing "
            "is only defined for a simple top pair"
        )
    v = dec.V[:, 0]
    total = float(v.sum())
    if total == 0.0:
        nz = v[v != 0.0]
        flip = bool(nz.size) and nz[0] < 0.0
    else:
        flip = total < 0.0
    if not flip:
        return dec
    U, V = dec.U.copy(), dec.V.copy()
    U[:, 0] = -U[:, 0]
    V[:, 0] = -V[:, 0]
    return SpectralDecomposition(U=U, sigma=dec.sigma, V=V, m=dec.m)


def _check_square_nonneg(A):
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if A.shape[0] == 0:
        raise ShapeError("matrix must be at least 1 x 1")
    if np.any(A < 0):
        raise ValueError("matrix must be entrywise nonnegative")
    return A


def is_primitive_bruteforce(A):
    """Whether a nonnegative square matrix is primitive.

    Checks by brute force whether some power ``A**t`` is entrywise
    positive, booleanizing between multiplications so only the zero
    pattern matters.  Powers up to the Wielandt bound (k-1)**2 + 1 are
    tried; if none is positive, no power ever is.
    """
    A = _check_square_nonneg(A)
    k = A.shape[0]
    B = (A > 0).astype(np.int64)
    P = B.copy()
    for _ in range((k - 1) ** 2 + 1):
        if P.all():
            return True
        P = ((P @ B) > 0).astype(np.int64)
    return False


def is_irreducible(A):
    """Whether a nonnegative square matrix is irreducible.

    For k >= 2 this is strong connectivity of the digraph with an edge
    (i, j) whenever ``A[i, j] > 0``, which holds exactly when I + A is
    primitive: (I + A)**(k-1) is a positive combination of I, A, ...,
    A**(k-1), so it is positive iff every node reaches every other in
    at most k - 1 steps.  A 1 x 1 matrix is irreducible iff its entry
    is positive (for every (i, j) some positive power must have a
    positive entry, which for a single node needs a self-loop).
    """
    A = _check_square_nonneg(A)
    if A.shape[0] == 1:
        return bool(A[0, 0] > 0)
    return is_primitive_bruteforce(A + np.eye(A.shape[0]))
