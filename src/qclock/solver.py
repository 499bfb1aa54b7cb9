"""Smallest eigenpair of a cost matrix and the clock state it defines.

Minimizing the quadratic form a^T F a over unit vectors is an eigenvalue
problem: the optimal amplitude vector is the eigenvector of the smallest
eigenvalue of F. F is symmetric Toeplitz and held as its first column, so
no dense matrix is formed and no library eigensolver is called:

* a tridiagonal F = c0 I + c1 (S + S^T) has the closed-form eigenpair
  lambda = c0 - 2|c1| cos(pi/(N+2)), v_m = sin((m+1) pi/(N+2)), with the
  signs alternating when c1 > 0;
* a wider band goes to a single-vector LOBPCG (Knyazev, SIAM J. Sci.
  Comput. 23, 517 (2001)) that applies ``CostMatrix.matvec`` once per
  step, to the new search direction: F x and F times the previous step
  are carried along as combinations of images (Hetmaniuk & Lehoucq,
  J. Comput. Phys. 218, 324 (2006)), and F x is recomputed once, where
  the residual first meets the contract. It is preconditioned by the
  inverse of a shifted Strang circulant (Chan & Ng, SIAM Rev. 38, 427
  (1996)), which one FFT pair applies. Both transforms have 5-smooth
  lengths: the matvec's circulant has size 2M, M the smallest
  2^a 3^b 5^c >= N + 1, and the preconditioner's the smallest one
  > N + 1, with F's dimension zero-padded to it, so no N + 1 with a large
  prime factor reaches a slow FFT.

F is centrosymmetric, so each eigenvector can be taken symmetric or
skew-symmetric under m -> N - m, and F, the circulant and the iteration
all keep the two classes apart. LOBPCG runs in the symmetric class, and
also in the skew one unless every off-diagonal entry of F is <= 0: then
Perron-Frobenius puts a minimizer among the symmetric vectors, as for
every ``CostFunction``. It iterates until the residual stagnates, so the
vector is exact to roundoff and exactly (skew-)symmetric. The eigenvalue
is the cancellation-free ``CostMatrix.quadratic_form``, the matvec checks
the residual contract, and the sign convention is fixed last.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cost import CostFunction, CostMatrix, _circulant_eigenvalues, _smooth_size, cost_matrix
from .states import ClockState, _dot, _freeze, _record

RESIDUAL_RTOL = 1e-10
SIGN_TOL = 1e-10
# LOBPCG steps per parity class before SolverConvergenceError; the
# built-in costs stagnate after 20-60.
_MAX_ITERATIONS = 300
# A solve that meets the residual contract has stagnated, and stops, once
# its smallest residual has not halved for this many steps.
_STALL_STEPS = 3
# A search direction is dropped when less than this fraction of it is
# orthogonal to the directions before it.
_DROP_TOL = 1e-13

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
        _freeze(self, "eigenvector")


def _tridiagonal_pair(c0: float, c1: float, dim: int):
    """Closed-form smallest eigenpair of c0 I + c1 (S + S^T), S the shift.

    For c1 = 0 the matrix is c0 I and every unit vector is an eigenvector;
    e_0, the lowest energy level, is returned.
    """
    vector = np.zeros(dim)
    if c1 == 0.0:
        vector[0] = 1.0
        return c0, vector
    # c0 - 2|c1| cos(x) with 1 - cos(x) = 2 sin^2(x/2), free of cancellation.
    half_angle = 0.5 * math.pi / (dim + 1)
    eigenvalue = (c0 - 2.0 * abs(c1)) + 4.0 * abs(c1) * math.sin(half_angle) ** 2
    m = np.arange(dim)
    # sin(k pi/(N+2)) = sin((N+2-k) pi/(N+2)): folding k keeps the angle at
    # most pi/2 and makes the vector exactly symmetric.
    vector[:] = np.sin(np.minimum(m + 1, dim - m) * (math.pi / (dim + 1)))
    if c1 > 0.0:
        vector[1::2] *= -1.0
    return eigenvalue, vector


def _strang_preconditioner(column: np.ndarray):
    """(M, r -> P^T (C - sigma I)^{-1} P r), C the Strang circulant of F.

    C has the 5-smooth size M = ``_smooth_size(dim + 1)`` > dim and wraps
    the central band of F's column around: c_k = t_j for j = min(k, M - k)
    if j <= N, else 0. P zero-pads a vector of F's dimension to M, and P^T
    keeps its first dim entries. C's eigenvalues are the real DFT of its
    column, from ``cost._circulant_eigenvalues`` as for F's own embedding;
    sigma lies below the smallest by 1/M of their spread (of 1 if C = c_0 I,
    as when only lags beyond M/2 are nonzero), so C - sigma I, and with it
    the preconditioner, is positive definite and amplifies the low modes of
    the circulant, where F's lowest eigenvectors live. M is never dim
    itself: where dim is 5-smooth, the classical Strang circulant of size
    dim took 1-4 more steps than this padded one (abs and abs_sin_half at
    dim = 512 ... 10000).
    """
    dim = column.size
    size = _smooth_size(dim + 1)
    spectrum = _circulant_eigenvalues(column, size)
    low, high = float(spectrum.min()), float(spectrum.max())
    shifted = spectrum - (low - ((high - low) or 1.0) / size)
    return size, lambda r: np.fft.irfft(np.fft.rfft(r, size) / shifted, size)[:dim]


def _norm(v: np.ndarray) -> float:
    return math.sqrt(_dot(v, v))


def _orthonormal(x: np.ndarray, fx: np.ndarray, pairs: list, matvec):
    """Orthonormal basis of (v, F v) pairs: the unit x and its image F x as
    they are, without their norms, then each given pair by Gram-Schmidt,
    applied twice, dropping numerically dependent vectors; each image takes
    the coefficients of its vector.

    A pair given as (v, None) takes ``matvec`` of its orthonormalized v
    instead. The given pairs' arrays become the basis, updated in place
    through one scratch buffer: at large N a fresh temporary costs more
    than the arithmetic.
    """
    basis = [(x, fx)]
    scratch = np.empty(x.size)
    for v, fv in pairs:
        size = _norm(v)
        for _ in range(2):
            for q, fq in basis:
                coefficient = _dot(q, v)
                v -= np.multiply(coefficient, q, out=scratch)
                if fv is not None:
                    fv -= np.multiply(coefficient, fq, out=scratch)
        norm = _norm(v)
        if norm > _DROP_TOL * size:
            v /= norm
            if fv is None:
                fv = matvec(v)
            else:
                fv /= norm
            basis.append((v, fv))
    return basis


def _residual(x: np.ndarray, fx: np.ndarray):
    """(x.F x, F x - (x.F x) x, its norm) for a unit x and its image F x."""
    rayleigh = _dot(x, fx)
    gradient = fx - rayleigh * x
    return rayleigh, gradient, _norm(gradient)


def _rayleigh_ritz(basis: list[tuple[np.ndarray, np.ndarray]], rayleigh: float):
    """(x, F x, step, F step) of the lowest Ritz vector over an orthonormal
    basis of (v, F v) pairs, step being its part outside the first vector.

    The symmetric Gram matrix takes q_i.F q_j for i <= j, five dot products
    for three pairs, and the given x.F x of the first vector. Each image is
    the same combination of the basis images as its vector of the basis
    vectors. The combinations overwrite the basis but for its first vector,
    which may be the best one so far. They are elementwise sums, not a
    matrix product, which round mirrored entries alike, so x and the step
    stay exactly in their class.
    """
    gram = np.full((len(basis), len(basis)), rayleigh)
    for i, (q, _) in enumerate(basis):
        for j in range(max(i, 1), len(basis)):
            gram[i, j] = gram[j, i] = _dot(q, basis[j][1])
    weights = np.linalg.eigh(gram)[1][:, 0]
    (x, fx), *rest = basis
    step, f_step = np.zeros(x.size), np.zeros(x.size)
    for weight, (v, fv) in zip(weights[1:], rest):
        step += np.multiply(weight, v, out=v)
        f_step += np.multiply(weight, fv, out=fv)
    x = np.multiply(weights[0], x)
    x += step
    fx *= weights[0]
    fx += f_step
    return x, fx, step, f_step


def _lobpcg(matvec, precondition, parity: float, start: np.ndarray, tolerance: float):
    """Lowest unit eigenvector of F among vectors with v[::-1] = parity * v.

    Each step takes the Rayleigh-Ritz minimum over the current vector x,
    the previous step and the projected, preconditioned residual w,
    orthonormalized in that order, and applies ``matvec`` (F) once, to the
    orthonormalized w. F x and F step are carried along as the same
    combinations of images as x and the step (Hetmaniuk & Lehoucq,
    J. Comput. Phys. 218, 324 (2006)). w's image is not: near convergence
    w lies almost in the span of the others, and its image formed by the
    same cancellation would lose the digits a true matvec keeps. F x is a
    true matvec at the start and again the first time the carried residual
    is within ``tolerance``; the steps after that, which only polish x to
    roundoff, carry it. A step takes 18 dot products of length N: 3 for x's
    norm and residual, 10 in ``_orthonormal`` and 5 in ``_rayleigh_ritz``.
    Returns the x with the smallest residual, the number of steps taken and
    that residual: once the residual is at most ``tolerance`` and has
    stagnated, or with ``_MAX_ITERATIONS`` steps when that does not happen.
    """
    def project(v):
        return 0.5 * (v + parity * v[::-1])

    x = project(start)
    fx = matvec(x)
    previous = []
    best_residual, best = math.inf, x
    stalls = 0
    for steps in range(_MAX_ITERATIONS):
        norm = _norm(x)
        x /= norm
        fx /= norm
        rayleigh, gradient, residual = _residual(x, fx)
        if residual <= tolerance < best_residual:
            fx = matvec(x)  # re-anchor the carried image at the contract
            rayleigh, gradient, residual = _residual(x, fx)
        stalls = 0 if residual < 0.5 * best_residual else stalls + 1
        if residual < best_residual:
            best_residual, best = residual, x
        if residual == 0.0 or (best_residual <= tolerance and stalls >= _STALL_STEPS):
            return best, steps, best_residual
        x, fx, step, f_step = _rayleigh_ritz(_orthonormal(
            x, fx, previous + [(project(precondition(gradient)), None)], matvec
        ), rayleigh)
        previous = [(step, f_step)]
    return best, _MAX_ITERATIONS, best_residual


def _solve_smallest(matrix: CostMatrix, scale: float):
    """(eigenvalue, vector, log fields): the solver path, the LOBPCG steps
    per parity class, the matvecs made and, on the LOBPCG path, the
    preconditioner's size.

    A LOBPCG run that does not converge is logged, with its best residual,
    and raises ``SolverConvergenceError``.
    """
    tolerance = RESIDUAL_RTOL * scale
    dim = matrix.dim
    column = matrix.column
    if matrix.bandwidth <= 1:
        fields = {"path": "closed_form", "iterations": (), "matvecs": 0}
        # A 1x1 matrix has no coupling entry: c0 I with c1 = 0.
        return *_tridiagonal_pair(float(column[0]), float(column[1:2].sum()), dim), fields
    size, precondition = _strang_preconditioner(column)
    # Fixed start vectors, so the result is deterministic: the positive
    # sine profile, which overlaps the optimum of every built-in cost, and
    # its skew-symmetric counterpart.
    m = np.arange(dim)
    sine = np.sin(np.pi * (m + 1) / (dim + 1))
    classes = [(1.0, sine)]
    if np.any(column[1:] > 0.0):
        classes.append((-1.0, sine * (2 * m + 1 - dim)))
    matvecs = 0

    def matvec(v):
        nonlocal matvecs
        matvecs += 1
        return matrix.matvec(v)

    vectors, steps = [], []
    for parity, start in classes:
        vector, taken, residual = _lobpcg(matvec, precondition, parity, start, tolerance)
        vectors.append(vector)
        steps.append(taken)
        fields = {"path": "lobpcg", "iterations": tuple(steps), "matvecs": matvecs,
                  "circulant": size}
        if taken == _MAX_ITERATIONS:
            _record("solver", {**fields, "residual_rel": residual / scale})
            raise SolverConvergenceError(
                f"LOBPCG did not converge in {_MAX_ITERATIONS} iterations: "
                f"residual {residual:.3e}, contract {tolerance:.3e}"
            )
    # The lower eigenvalue wins; on a tie the symmetric vector, listed first.
    eigenvalue, vector = min(((matrix.quadratic_form(v), v) for v in vectors), key=lambda p: p[0])
    return eigenvalue, vector, fields


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
    Time is O(N) for a tridiagonal matrix and O(N log N) per LOBPCG step
    otherwise; memory is O(N). One ``solver`` record (``states._record``)
    gives the ``path``, the LOBPCG steps per parity class (``iterations``),
    the number of ``CostMatrix.matvec`` calls, this check's included
    (``matvecs``), on the LOBPCG path the size M of the preconditioner's
    circulant (``circulant``), and residual/||F||_inf (``residual_rel``),
    the best one reached when LOBPCG does not converge.
    """
    scale = _inf_norm(matrix.column) or 1.0
    eigenvalue, vector, fields = _solve_smallest(matrix, scale)
    vector = vector / _norm(vector)
    if vector[np.argmax(np.abs(vector))] < 0.0:
        vector = -vector
    residual = _norm(matrix.matvec(vector) - eigenvalue * vector)
    fields["matvecs"] += 1
    _record("solver", {**fields, "residual_rel": residual / scale})
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
    amplitudes = amplitudes / _norm(amplitudes)
    return ClockState(n_ions, amplitudes)
