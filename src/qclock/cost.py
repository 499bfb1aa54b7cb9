"""Even 2*pi-periodic cost functions and the quadratic forms they induce.

A cost f(t) = w0 - sum_{k>=1} w_k cos(k t) with w_k >= 0 penalizes the
wrapped deviation of a time estimate from the truth. For this class the
covariant phase-state measurement is optimal and the minimal achievable
mean cost is the quadratic form a^T F a of the amplitude vector with the
symmetric Toeplitz matrix F built here. F is held as its first column,
never as a dense (N+1) x (N+1) array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .states import ClockState, _check_n_ions, _log_factorials

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
    applies F in O(N log N) time and O(N) memory without forming it.
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

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """F x for a vector of matching dimension, by circulant embedding."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(
                f"dimension mismatch: matrix is {self.dim}-dimensional, "
                f"vector has shape {x.shape}"
            )
        spectrum = self._circulant_spectrum
        size = 2 * (spectrum.size - 1)
        return np.fft.irfft(spectrum * np.fft.rfft(x, size), size)[: self.dim]

    def quadratic_form(self, amplitudes: np.ndarray) -> float:
        """a^T F a for an amplitude vector of matching dimension."""
        a = np.asarray(amplitudes, dtype=float)
        return float(a @ self.matvec(a))


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
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
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

    Accepts scalars or arrays and broadcasts elementwise.
    """
    arr = np.asarray(t, dtype=float)
    value = np.full(arr.shape, f.w0)
    for k, wk in enumerate(f.coefficients, start=1):
        if wk != 0.0:
            value -= wk * np.cos(k * arr)
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

    Equals the quadratic form a^T F a of ``cost_matrix`` and is attained by
    the covariant phase-state measurement. With the autocorrelations
    r_k = sum_m a_m a_{m+k} it is w0 - sum_k w_k r_k, evaluated here as

        (w0 - sum_k w_k) + sum_k w_k (1 - r_k),
        1 - r_k = (1/2) [sum_m (a_m - a_{m+k})^2 + sum_{m<k} a_m^2
                         + sum_{m>N-k} a_m^2],

    where every 1 - r_k is a sum of nonnegative terms. For costs with
    f(0) = 0 the constant w0 - sum_k w_k is zero or a small truncation
    tail, whereas w0 - sum_k w_k r_k cancels to a relative error growing
    like N^2 for smooth states.
    """
    order = min(f.order, state.n_ions)
    weights = f.coefficients[:order]
    lags = np.flatnonzero(weights) + 1
    deficits = _one_minus_autocorrelation(state.amplitudes, lags)
    total = math.fsum([f.w0, *(-weights)])
    for weight, deficit in zip(weights[lags - 1], deficits):
        total += weight * deficit
    return float(total)


def _one_minus_autocorrelation(a: np.ndarray, lags: np.ndarray) -> np.ndarray:
    """1 - r_k for unit-norm amplitudes a at each lag k in 1..N.

    Each value is (1/2) [sum_m (a_m - a_{m+k})^2 + sum_{m<k} a_m^2
    + sum_{m>N-k} a_m^2], a sum of nonnegative terms, so it keeps its
    relative precision where r_k is close to 1.
    """
    squares = a * a
    head = np.cumsum(squares)  # head[k-1] = sum_{m<k} a_m^2
    tail = np.cumsum(squares[::-1])  # tail[k-1] = sum_{m>N-k} a_m^2
    out = np.empty(len(lags))
    for i, k in enumerate(lags):
        diff = a[:-k] - a[k:]
        out[i] = 0.5 * (float(diff @ diff) + head[k - 1] + tail[k - 1])
    return out


def product_cost_closed_form(n_ions: int) -> float:
    """Exact mean cost of the product state under the 4 sin^2(t/2) penalty.

    Equals 2 [1 - sum_{i=0}^{N-1} sqrt(p_i p_{i+1})] with p_i = C(N, i)/2^N,
    evaluated without cancellation as
    sum_i (sqrt(p_i) - sqrt(p_{i+1}))^2 + p_0 + p_N, where
    sqrt(p_i) - sqrt(p_{i+1}) = sqrt(p_i) (2i+1-N) / ((i+1)(1 + sqrt((N-i)/(i+1)))).
    The binomials are taken in the log domain; the cost decays like 1/N.
    """
    _check_n_ions(n_ions)
    log_fact = _log_factorials(n_ions)
    log_binom = log_fact[-1] - (log_fact + log_fact[::-1])
    root_p = np.exp(0.5 * log_binom - 0.5 * n_ions * np.log(2.0))
    i = np.arange(n_ions, dtype=float)
    ratio = np.sqrt((n_ions - i) / (i + 1.0))
    steps = root_p[:-1] * (2.0 * i + 1.0 - n_ions) / ((i + 1.0) * (1.0 + ratio))
    return float(steps @ steps + math.ldexp(2.0, -n_ions))  # + p_0 + p_N
