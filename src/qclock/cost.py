"""Even 2*pi-periodic cost functions and the quadratic forms they induce.

A cost f(t) = w0 - sum_{k>=1} w_k cos(k t) with w_k >= 0 penalizes the
wrapped deviation of a time estimate from the truth. For this class the
covariant phase-state measurement is optimal and the minimal achievable
mean cost is the quadratic form a^T F a of the amplitude vector with the
symmetric Toeplitz matrix F built here. F is held as its first column,
never as a dense (N+1) x (N+1) array. The form is summed in deficits
r_0 - r_k, which also give the wrapped RMS error, from one FFT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .states import (
    ClockState,
    _check_n_ions,
    _compensated_cumsum,
    _is_integer,
    _root_binomial_weights,
)

CANONICAL_LABELS = ("sin2", "abs", "abs_sin_half", "neg_delta")

__all__ = [
    "CANONICAL_LABELS",
    "CostFunction",
    "CostMatrix",
    "canonical_cost",
    "evaluate_cost",
    "cost_matrix",
    "mean_cost_bound",
    "product_cost_closed_form",
]


@dataclass(frozen=True, eq=False)
class CostFunction:
    """Fourier data (w0, w_1..w_K) of an even 2*pi-periodic cost.

    The constant term w0 may have either sign (the negated delta comb has
    w0 < 0); the oscillating coefficients w_k must be nonnegative.
    """

    w0: float
    coefficients: np.ndarray
    label: str = "custom"

    def __post_init__(self):
        coeffs = np.array(self.coefficients, dtype=float).reshape(-1)
        if coeffs.size and np.any(coeffs < 0.0):
            raise ValueError("cosine coefficients w_k (k >= 1) must be nonnegative")
        coeffs.flags.writeable = False
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "w0", float(self.w0))

    @property
    def order(self) -> int:
        """Truncation order K (index of the last stored coefficient)."""
        return int(self.coefficients.size)


@dataclass(frozen=True, eq=False)
class CostMatrix:
    """Symmetric Toeplitz matrix F_{mm'} = w0 d_{mm'} - w_{|m-m'|}/2.

    Only the first column (w0, -w_1/2, ..., -w_N/2), the symbol of F, is
    stored; ``dim`` and ``bandwidth`` follow from it, and ``matvec``
    applies F without forming it, in O(N) memory and O(N log N) time
    (O(N) when F is tridiagonal).
    """

    column: np.ndarray

    def __post_init__(self):
        column = np.array(self.column, dtype=float)
        if column.ndim != 1 or column.size == 0:
            raise ValueError(f"column must be a nonempty vector, got shape {column.shape}")
        column.flags.writeable = False
        object.__setattr__(self, "column", column)

    @property
    def dim(self) -> int:
        """Dimension N + 1."""
        return int(self.column.size)

    @property
    def bandwidth(self) -> int:
        """Largest k with F_{m, m+k} != 0 (0 for a diagonal matrix)."""
        nonzero = np.flatnonzero(self.column[1:])
        return int(nonzero[-1]) + 1 if nonzero.size else 0

    @property
    def entries(self) -> np.ndarray:
        """The dense (N+1) x (N+1) matrix, built on every access; for checks only."""
        idx = np.arange(self.dim)
        return self.column[np.abs(idx[:, None] - idx)]

    @cached_property
    def _circulant_spectrum(self) -> np.ndarray:
        # F is the leading block of a symmetric circulant of power-of-two
        # size >= 2 dim - 1, whose eigenvalues are the (real) DFT of its column.
        size = 1 << max(2 * self.dim - 2, 1).bit_length()
        embedded = np.zeros(size)
        embedded[: self.dim] = self.column
        embedded[size - self.dim + 1 :] = self.column[:0:-1]
        return np.fft.rfft(embedded).real

    def _vector(self, x: np.ndarray) -> np.ndarray:
        """x as a float vector of dimension ``dim``, else ValueError."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(
                f"dimension mismatch: matrix is {self.dim}-dimensional, "
                f"vector has shape {x.shape}"
            )
        return x

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """F x for a vector of matching dimension.

        O(N) from the two diagonals when the bandwidth is at most 1, else by
        circulant embedding in O(N log N).
        """
        x = self._vector(x)
        if self.bandwidth <= 1:
            out = self.column[0] * x
            if self.bandwidth:
                out[1:] += self.column[1] * x[:-1]
                out[:-1] += self.column[1] * x[1:]
            return out
        spectrum = self._circulant_spectrum
        size = 2 * (spectrum.size - 1)
        return np.fft.irfft(spectrum * np.fft.rfft(x, size), size)[: self.dim]

    def quadratic_form(self, amplitudes: np.ndarray) -> float:
        """a^T F a = s r_0 - 2 sum_k c_k (r_0 - r_k), s = c_0 + 2 sum_k c_k.

        Unlike a . Fa (~1e-16 N relative off at a^T F a ~ 1/N) it does not
        cancel near the bottom of the spectrum; an oscillating a is smoothed
        first by negating its odd entries and the odd lags c_k. A tridiagonal
        F needs only r_0 - r_1 = |diff([0, a, 0])|^2 / 2, summed in O(N).
        """
        a, column = self._vector(amplitudes), self.column
        signs = np.where(np.arange(a.size) % 2, -1.0, 1.0)
        if np.abs(np.diff(a * signs)).sum() < np.abs(np.diff(a)).sum():
            column, a = column * signs, a * signs
        lags = column[1 : self.bandwidth + 1]
        s = math.fsum([column[0], *lags, *lags])
        if lags.size <= 1:
            lag_one = 0.5 * _sum_of_squares(np.diff(a, prepend=0.0, append=0.0))
            coupled = float(lags.sum()) * lag_one
        else:
            coupled = float(column[1:] @ _deficits(a))
        return s * _sum_of_squares(a) - 2.0 * coupled


def _sum_of_squares(x: np.ndarray) -> float:
    """x . x by compensated summation of the rounded squares."""
    return float(_compensated_cumsum(x * x)[-1])


def _autocorrelation(x: np.ndarray) -> np.ndarray:
    """sum_m x_m x_{m+l}, l = 0..len(x)-1, by FFT; lag 0 by _sum_of_squares."""
    size = 1 << (2 * x.size - 2).bit_length()  # >= 2 len(x) - 1: no wrap-around
    out = np.fft.irfft(np.abs(np.fft.rfft(x, size)) ** 2, size)[: x.size]
    out[0] = _sum_of_squares(x)
    return out


def _deficit_steps(a: np.ndarray) -> np.ndarray:
    """r_{k-1} - r_k, k = 1..N+1, for r_k = sum_m a_m a_{m+k} (r_{N+1} = 0).

    With a zero-padded, r_0 - r_k = (1/2) sum_m (a_m - a_{m+k})^2 = (1/2)
    sum_{j<=k} sum_{|l|<j} rho_l, rho the autocorrelation of diff([0, a, 0]).
    """
    rho = _autocorrelation(np.diff(a, prepend=0.0, append=0.0))[:-1]
    rho[1:] *= 2.0
    return 0.5 * _compensated_cumsum(rho)


def _deficits(a: np.ndarray) -> np.ndarray:
    """r_0 - r_k for k = 1..N, to a few eps relative.

    The summed steps are ~eps rho_0 k^1.5 / 4 off (rho_0 = 2 step_1), r_0 - r_k
    by FFT ~eps r_0 off; each lag takes the smaller error.
    """
    steps = _deficit_steps(a)[:-1]
    deficits, r_0 = _compensated_cumsum(steps), _sum_of_squares(a)
    rough = steps[:1] * np.arange(1, steps.size + 1) ** 1.5 >= 2.0 * r_0
    if rough.any():
        deficits[rough] = r_0 - _autocorrelation(a)[1:][rough]
    return deficits


def canonical_cost(label: str, order: int) -> CostFunction:
    """Fourier data of one of the built-in cost functions.

    Parameters
    ----------
    label : str
        One of:

        * ``sin2``: 4 sin^2(t/2) = 2(1 - cos t); w0 = 2, w_1 = 2, rest zero.
        * ``abs``: |t| on the principal branch (-pi, pi]; w0 = pi/2,
          w_k = 4/(pi k^2) for odd k, zero for even k.
        * ``abs_sin_half``: |sin(t/2)|; w0 = 2/pi, w_k = 4/(pi (4k^2 - 1)).
        * ``neg_delta``: negated periodic delta comb; w0 = -1/(2 pi),
          w_k = 1/pi for every k.
    order : int
        Truncation order K >= 1 for the infinite series. The finite
        ``sin2`` series always stores its single coefficient.

    Returns
    -------
    CostFunction
    """
    if not _is_integer(order) or order < 1:
        raise ValueError(f"order must be a positive integer, got {order!r}")
    if label == "sin2":
        return CostFunction(2.0, np.array([2.0]), "sin2")
    k = np.arange(1, order + 1, dtype=float)
    if label == "abs":
        coeffs = np.where(np.arange(1, order + 1) % 2 == 1, 4.0 / (np.pi * k * k), 0.0)
        return CostFunction(np.pi / 2.0, coeffs, "abs")
    if label == "abs_sin_half":
        return CostFunction(2.0 / np.pi, 4.0 / (np.pi * (4.0 * k * k - 1.0)), "abs_sin_half")
    if label == "neg_delta":
        return CostFunction(-1.0 / (2.0 * np.pi), np.full(order, 1.0 / np.pi), "neg_delta")
    raise ValueError(f"unknown cost label {label!r}; expected one of {CANONICAL_LABELS}")


def evaluate_cost(f: CostFunction, t):
    """Truncated series value w0 - sum_k w_k cos(k t); even and 2*pi-periodic.

    Accepts scalars or arrays and broadcasts elementwise. Each term is
    written into one reused buffer, so memory stays at two arrays.
    """
    arr = np.asarray(t, dtype=float)
    value = np.full(arr.shape, f.w0)
    term = np.empty_like(value)
    for k, wk in enumerate(f.coefficients, start=1):
        if wk != 0.0:
            np.multiply(k, arr, out=term)
            np.cos(term, out=term)
            term *= wk
            value -= term
    if value.ndim == 0:
        return float(value)
    return value


def cost_matrix(f: CostFunction, n_ions: int) -> CostMatrix:
    """Cost matrix on the (N+1)-dimensional symmetric subspace.

    Coefficients beyond k = N cannot couple basis states and are dropped,
    so the bandwidth is the largest k <= N with w_k != 0.
    """
    _check_n_ions(n_ions)
    column = np.zeros(n_ions + 1)
    column[0] = f.w0
    order = min(f.order, n_ions)
    column[1 : order + 1] = -0.5 * f.coefficients[:order]
    return CostMatrix(column)


def mean_cost_bound(state: ClockState, f: CostFunction) -> float:
    """Minimal mean cost achievable by any measurement on this state.

    Equals a^T F a / a^T a for ``cost_matrix`` (a is unit only to rounding),
    attained by the covariant measurement. ``CostMatrix.quadratic_form`` sums
    it in the deficits 1 - r_k, as w0 - sum_k w_k r_k would cancel to a
    relative error growing like N^2 for smooth states.
    """
    a = state.amplitudes
    return cost_matrix(f, state.n_ions).quadratic_form(a) / _sum_of_squares(a)


def product_cost_closed_form(n_ions: int) -> float:
    """Exact mean cost of the product state under the 4 sin^2(t/2) penalty.

    Equals 2 [1 - sum_{i=0}^{N-1} sqrt(p_i p_{i+1})] with p_i = C(N, i)/2^N,
    evaluated without cancellation as
    sum_i (sqrt(p_i) - sqrt(p_{i+1}))^2 + p_0 + p_N, where
    sqrt(p_i) - sqrt(p_{i+1}) = sqrt(p_i) (2i+1-N) / ((i+1)(1 + sqrt((N-i)/(i+1)))).
    sqrt(p_i) comes from the running products of ``_root_binomial_weights``:
    no log-binomials cancel, and the cost, which decays like 1/N, keeps its
    digits at every N.
    """
    _check_n_ions(n_ions)
    i = np.arange(n_ions, dtype=float)
    ratio = np.sqrt((n_ions - i) / (i + 1.0))
    root_p = _root_binomial_weights(n_ions)
    steps = root_p[:-1] * (2.0 * i + 1.0 - n_ions) / ((i + 1.0) * (1.0 + ratio))
    return float(steps @ steps + math.ldexp(2.0, -n_ions))  # + p_0 + p_N
