"""Numerical kernels on small dense matrices.

Least squares, minimum-norm and ridge solves with general regularizers, null
spaces and eigenvalue-1 eigenvector extraction. Rank tests, null spaces and
every solve read one SVD of the matrix (``_SVD``; a belief matrix keeps its
own), with the rank cutoff ``tol_rank * s[0]``. ``_SVD.solve`` is the one
solve, for the minimum-norm and the ridge solutions alike, and nothing here
iterates to convergence; a factorization whitened by a regularizer keeps the
Cholesky factor that maps its solutions back. The eigenvalue-1 step
(``_fixed_vectors``) returns plain (kind, vectors, classes), which the judge
and the signal-priors route read; :class:`EigenvalueOneResult` is the one
record of those three fields: a prior family is those fields plus state labels,
and the signal-priors marginal is the record of Qᵀ itself. One
``np.linalg.svd`` of matrix − I decides the step, fixed space and rays alike.
The normal-equation formulas define the values, not the algorithms. Everything
here, and everything the package runs, is numpy. The records here are named
tuples; :class:`Regularizer` is a value, and validates in its constructor.
Every matrix ``_SVD.of`` factorizes, and every target, passes ``core``'s gates
first: an SVD of a matrix with an inf entry may never return.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import DEFAULT_TOLERANCES, RankDeficientError, StructuralError, Tolerances, _Value
from .core import _array, _positive_finite, _same_axis  # the input gates


class NullSpaceBasis(NamedTuple):
    """Orthonormal basis of the right null space of a matrix.

    Each vector is signed so that its largest-magnitude entry is positive, so
    the basis does not depend on the sign an SVD happens to return.
    """

    vectors: tuple[np.ndarray, ...]
    dimension: int

    def as_matrix(self, n: int) -> np.ndarray:
        """Basis as an (n, dimension) matrix; n disambiguates the empty case."""
        if self.dimension == 0:
            return np.zeros((n, 0))
        return np.column_stack(self.vectors)


class _SVD(NamedTuple):
    """One SVD of a matrix: thin, or full when it is wide, so ``vt`` spans the row space.
    The rank cutoff is ``tol_rank * s[0]``: LAPACK returns ``s`` in descending order.
    The pseudoinverse is formed as numpy.linalg.pinv's.
    Given reg = LLᵀ, ``of`` factorizes matrix L⁻ᵀ (rank, null space and pinv are its)
    and keeps L as ``chol``, with which ``solve`` maps back to reg-weighted solutions."""

    u: np.ndarray
    s: np.ndarray
    vt: np.ndarray
    chol: np.ndarray | None = None

    @classmethod
    def of(cls, matrix, reg=None) -> "_SVD":
        matrix = _array(matrix, "matrix", 2)
        chol = None
        if reg is not None:
            reg = reg if isinstance(reg, Regularizer) else Regularizer(reg)
            _same_axis("column", "matrix", matrix.shape[1], "regularizer", reg.matrix.shape[0])
            chol = reg.chol
            matrix = _array(np.linalg.solve(chol, matrix.T).T, "whitened matrix", 2)  # may overflow
        wide = matrix.shape[0] < matrix.shape[1]
        return cls(*np.linalg.svd(matrix, full_matrices=wide), chol)

    def solve(self, targets, tol: Tolerances, lam: float = 0.0) -> np.ndarray:
        """``pinv(tol, lam) @ targets``, mapped back by L⁻ᵀ when the matrix was whitened."""
        x = self.pinv(tol, lam) @ targets
        return x if self.chol is None else np.linalg.solve(self.chol.T, x)

    def rank(self, tol: Tolerances) -> int:
        return int(np.count_nonzero(self.s > tol.rank_cutoff(self.s)))

    def pinv(self, tol: Tolerances, lam: float = 0.0) -> np.ndarray:
        """V diag(s / (s² + lam)) Uᵀ; at lam = 0, 1/s above the rank cutoff and 0 below."""
        if lam:
            factors = self.s / (self.s * self.s + lam)
        else:
            large = self.s > tol.rank_cutoff(self.s)
            factors = np.divide(1.0, self.s, out=np.zeros(self.s.shape), where=large)
        return self.vt[: self.s.size].T @ (factors[:, None] * self.u.T)

    def require_full_rank(self, tol: Tolerances) -> None:
        """Raise what a least-squares operator raises on dependent columns."""
        rank, n_cols = self.rank(tol), self.vt.shape[1]
        if rank < n_cols:
            raise RankDeficientError(
                f"matrix has column rank {rank} < {n_cols}; remove dependent"
                " columns or use the minimum-norm path"
            )

    def null_basis(self, tol: Tolerances) -> NullSpaceBasis:
        rows = self.vt[self.rank(tol) :]
        largest = rows[np.arange(rows.shape[0]), np.abs(rows).argmax(axis=1)]
        rows = rows * np.sign(largest)[:, None]
        return NullSpaceBasis(tuple(rows), rows.shape[0])


class EigenvalueOneResult(NamedTuple):
    """Eigenvalue-1 eigenvectors of a square matrix, simplex-normalized.

    ``kind`` is "unique" (one vector), "family" (one nonnegative ray of the fixed
    space per class; ``classes`` holds each ray's support, in ascending order), or
    "none" (no vectors). The fields are :func:`_fixed_vectors`'s.
    """

    kind: str
    vectors: tuple[np.ndarray, ...]
    classes: tuple[tuple[int, ...], ...]


class Regularizer(_Value):
    """Symmetric positive-definite matrix added (scaled) to the normal equations.

    Its Cholesky factor ``chol`` (reg = LLᵀ; not a field), made once, is the definiteness test.
    """

    _fields = ("matrix",)

    def __init__(self, matrix) -> None:
        m = _array(matrix, "regularizer", 2, square=True)  # an inf passes allclose and Cholesky
        if not np.allclose(m, m.T, atol=DEFAULT_TOLERANCES.tol_match):
            raise StructuralError("regularizer must be symmetric")
        try:
            chol = np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            raise StructuralError("regularizer must be positive definite") from None
        self._store(matrix=m, chol=chol)


def _targets(targets, n_rows: int) -> np.ndarray:
    """The targets of a solve, through the gates: a vector or a matrix with ``n_rows`` rows."""
    targets = _array(targets, "target", (1, 2))
    _same_axis("row", "matrix", n_rows, "target", targets.shape[0])
    return targets


def least_squares_coefficients(
    matrix: np.ndarray, target: np.ndarray, tol: Tolerances = DEFAULT_TOLERANCES
) -> np.ndarray:
    """Coefficients beta minimizing ||target - matrix @ beta||.

    Requires full column rank; rank deficiency raises instead of silently
    picking one of many minimizers.
    """
    operator = regression_operator(matrix, tol)
    return operator @ _targets(target, operator.shape[1])


def regression_operator(matrix: np.ndarray, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """The operator mapping a target vector to its least-squares coefficients.

    Requires full column rank, in which case it equals the pseudoinverse.
    """
    svd = _SVD.of(matrix)
    svd.require_full_rank(tol)
    return svd.pinv(tol)


def min_norm_solution(
    matrix: np.ndarray,
    targets: np.ndarray,
    tol: Tolerances = DEFAULT_TOLERANCES,
    reg=None,
) -> np.ndarray:
    """Minimum-norm least-squares solution X of targets = matrix @ X.

    Always defined; equals the small-penalty limit of the ridge solution.
    With ``reg``, minimizes the reg-weighted norm x.T @ reg @ x per column
    instead of the Euclidean one.
    """
    svd = _SVD.of(matrix, reg)
    return svd.solve(_targets(targets, svd.u.shape[0]), tol)


def ridge_solution_at(
    matrix: np.ndarray,
    targets: np.ndarray,
    lam: float,
    reg=None,
) -> np.ndarray:
    """Ridge solution (matrix.T @ matrix + lam * reg)^-1 matrix.T @ targets, for lam > 0.

    Formed without the normal matrix, as V diag(s / (s² + lam)) Uᵀ targets over the
    SVD U diag(s) Vᵀ of the matrix; ``reg`` (default: the identity) whitens it first.
    """
    lam = _positive_finite(lam, "lam")
    svd = _SVD.of(matrix, reg)
    return svd.solve(_targets(targets, svd.u.shape[0]), DEFAULT_TOLERANCES, lam)


def null_space_basis(matrix: np.ndarray, tol: Tolerances = DEFAULT_TOLERANCES) -> NullSpaceBasis:
    """Orthonormal basis of {v : matrix @ v = 0}; empty when full column rank."""
    return _SVD.of(matrix).null_basis(tol)


def _rays(basis: np.ndarray, tol: Tolerances) -> np.ndarray | None:
    """The k extreme rays of {basis @ c ≥ 0} as rows summing to 1, or None if not k.

    The successive projection algorithm (Gillis and Vavasis 2014) picks k times the row
    of largest norm and projects every row off it. The rays are basis · basis[picks]⁻¹,
    entries within ``tol_entry`` of 0 set to 0; a zero residual, a ray summing to within
    1e-12 of 0, or an entry below -``tol_entry`` after scaling means fewer than k rays.
    """
    rest = basis.copy()
    picks = []
    for _ in range(basis.shape[1]):
        norms = (rest * rest).sum(axis=1)
        pick = int(norms.argmax())
        if norms[pick] == 0.0:
            return None
        picks.append(pick)
        rest -= np.outer(rest @ rest[pick], rest[pick] / norms[pick])
    rays = np.linalg.solve(basis[picks].T, basis.T)  # row j: column j of basis · basis[picks]⁻¹
    rays[np.abs(rays) <= tol.tol_entry] = 0.0
    sums = rays.sum(axis=1)
    if np.abs(sums).min() < 1e-12:
        return None
    rays /= sums[:, None]
    return None if rays.min() < -tol.tol_entry else rays


def _fixed_vectors(matrix: np.ndarray, tol: Tolerances) -> tuple[str, tuple, tuple]:
    """The eigenvalue-1 eigenvectors of a square float matrix, simplex-normalized, as arrays.

    Returns (kind, vectors, classes): "unique" with one vector, "family" with one ray
    per class and the rays' supports, or "none". One SVD of matrix - I decides: its k
    right singular vectors at or below the rank cutoff, floored at ``tol_rank`` (near
    full revelation matrix - I is itself small), span the fixed space. For k ≥ 2 its
    rays (:func:`_rays`), sorted by support, are the family; without k of them the
    least-fixed direction is dropped. At k = 1 the vector is divided by its sum, which
    cancels the SVD's sign; a sum within 1e-12 of zero has no simplex scaling.
    """
    n = matrix.shape[0]
    shifted = matrix.copy()  # C order, so the flat view's every (n + 1)th entry is diagonal
    shifted.reshape(-1)[:: n + 1] -= 1.0
    _, s, vt = np.linalg.svd(shifted, full_matrices=False)
    rank = int(np.count_nonzero(s > max(tol.rank_cutoff(s), tol.tol_rank)))
    for k in range(n - rank, 1, -1):
        rays = _rays(vt[n - k :].T, tol)
        if rays is not None:
            # no two supports are equal (each ray is 1 at its own pick, 0 at the others'),
            # so the sort never compares the rays themselves
            found = sorted((tuple(np.flatnonzero(ray).tolist()), ray) for ray in rays)
            return "family", tuple(ray for _, ray in found), tuple(c for c, _ in found)
    if rank == n:
        return "none", (), ()
    vector = vt[n - 1]
    total = float(vector.sum())
    if abs(total) < 1e-12:
        return "none", (), ()
    return "unique", (vector / total,), ()


def unit_eigenvector_eigenvalue_one(
    matrix: np.ndarray, tol: Tolerances = DEFAULT_TOLERANCES
) -> EigenvalueOneResult:
    """Eigenvectors with eigenvalue 1, normalized so entries sum to 1.

    Found as the null space of (matrix - identity) via one SVD, which gives a
    clean multiplicity test. A one-dimensional space yields kind "unique"; a
    larger one, one ray of that space per class (:func:`_fixed_vectors`); none on
    the simplex yields kind "none": the input was not generated by the model.
    A matrix that is not square, or holds a nan or inf, raises StructuralError.
    """
    return EigenvalueOneResult(*_fixed_vectors(_array(matrix, "matrix", 2, square=True), tol))
