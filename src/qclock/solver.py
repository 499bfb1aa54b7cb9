"""Smallest eigenpair of a cost matrix and the clock state it defines.

Minimizing the quadratic form a^T F a over unit vectors is an eigenvalue
problem: the optimal amplitude vector is the eigenvector of the smallest
eigenvalue of F. F is symmetric Toeplitz and held as its first column, so
no dense matrix is formed: a tridiagonal F goes to LAPACK's tridiagonal
solver, a wider band to Lanczos (ARPACK) on ``CostMatrix.matvec``. The
same matvec checks the residual contract; the sign convention is fixed
last.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .cost import CostFunction, CostMatrix, cost_matrix
from .states import ClockState

RESIDUAL_RTOL = 1e-10
SIGN_TOL = 1e-10

__all__ = [
    "SolverConvergenceError",
    "SignConventionError",
    "EigenPair",
    "smallest_eigenpair",
    "optimal_state",
]


class SolverConvergenceError(RuntimeError):
    """Eigensolver failed to converge or missed the residual contract."""


class SignConventionError(RuntimeError):
    """Eigenvector has genuinely mixed signs after the global sign fix."""


@dataclass(frozen=True, eq=False)
class EigenPair:
    """Smallest eigenvalue with a unit, sign-fixed eigenvector.

    residual_norm is ||F v - lambda v||_2, guaranteed to be at most
    1e-10 times the infinity norm of F.
    """

    eigenvalue: float
    eigenvector: np.ndarray
    residual_norm: float

    def __post_init__(self):
        vec = np.array(self.eigenvector, dtype=float)
        vec.flags.writeable = False
        object.__setattr__(self, "eigenvector", vec)


def _solve_smallest(matrix: CostMatrix):
    dim = matrix.dim
    if dim == 1:
        return float(matrix.column[0]), np.ones(1)
    if matrix.bandwidth <= 1:
        diag, off = matrix.column[:2]
        try:
            values, vectors = scipy.linalg.eigh_tridiagonal(
                np.full(dim, diag), np.full(dim - 1, off), select="i", select_range=(0, 0)
            )
        except scipy.linalg.LinAlgError as exc:
            raise SolverConvergenceError(f"eigensolver did not converge: {exc}") from exc
        return float(values[0]), vectors[:, 0]
    # Imported here: loading scipy.sparse.linalg would add ~30 ms to every CLI start.
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    operator = LinearOperator((dim, dim), matvec=matrix.matvec, dtype=float)
    # Fixed start vector, so the result is deterministic: the positive
    # sine profile, which overlaps the optimum of every built-in cost.
    start = np.sin(np.pi * np.arange(1, dim + 1) / (dim + 1))
    try:
        values, vectors = eigsh(operator, k=1, which="SA", v0=start, tol=0)
    except ArpackNoConvergence as exc:
        raise SolverConvergenceError(f"Lanczos did not converge: {exc}") from exc
    return float(values[0]), vectors[:, 0]


def _inf_norm(column: np.ndarray) -> float:
    """||F||_inf of the symmetric Toeplitz matrix with this first column.

    Row i sums |c_0| + sum_{k=1}^{i} |c_k| + sum_{k=1}^{N-i} |c_k|.
    """
    prefix = np.concatenate(([0.0], np.cumsum(np.abs(column[1:]))))
    return abs(float(column[0])) + float(np.max(prefix + prefix[::-1]))


def smallest_eigenpair(matrix: CostMatrix) -> EigenPair:
    """Smallest eigenvalue and unit eigenvector of a symmetric cost matrix.

    Deterministic for identical input. The returned vector is normalized
    and flipped so its largest-magnitude entry is positive. Non-convergence
    raises ``SolverConvergenceError`` instead of returning a wrong answer.
    Time is O(N) for a tridiagonal matrix and O(N log N) per Lanczos step
    otherwise; memory is O(N).
    """
    eigenvalue, vector = _solve_smallest(matrix)
    vector = vector / np.linalg.norm(vector)
    if vector[np.argmax(np.abs(vector))] < 0.0:
        vector = -vector
    residual = float(np.linalg.norm(matrix.matvec(vector) - eigenvalue * vector))
    scale = _inf_norm(matrix.column) or 1.0
    if residual > RESIDUAL_RTOL * scale:
        raise SolverConvergenceError(
            f"eigenpair residual {residual:.3e} exceeds {RESIDUAL_RTOL:.0e} * ||F||_inf"
        )
    return EigenPair(eigenvalue, vector, residual)


def optimal_state(f: CostFunction, n_ions: int) -> ClockState:
    """Clock state minimizing the mean cost for the given cost function.

    The achieved minimal mean cost equals the smallest eigenvalue, which
    callers can recover via ``smallest_eigenpair(cost_matrix(f, n_ions))``
    or ``mean_cost_bound`` on the returned state. For the built-in costs
    the minimizing eigenvector is entrywise positive, so after the sign
    fix any negative entries beyond roundoff indicate a convention
    violation and are surfaced rather than clamped.
    """
    pair = smallest_eigenpair(cost_matrix(f, n_ions))
    amplitudes = pair.eigenvector
    if float(amplitudes.min()) < -SIGN_TOL:
        raise SignConventionError(
            "minimal eigenvector has mixed signs beyond tolerance; it does not "
            "define a valid amplitude vector under the nonnegativity convention"
        )
    amplitudes = np.maximum(amplitudes, 0.0)
    amplitudes = amplitudes / np.linalg.norm(amplitudes)
    return ClockState(n_ions, amplitudes)
