"""Even 2*pi-periodic cost functions and the quadratic forms they induce.

A cost f(t) = w0 - sum_{k>=1} w_k cos(k t) with w_k >= 0 penalizes the
wrapped deviation of a time estimate from the truth. For this class the
covariant phase-state measurement is optimal and the minimal achievable
mean cost is the quadratic form a^T F a of the amplitude vector with the
symmetric banded matrix F built here.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Symmetric (N+1) x (N+1) matrix F_{mm'} = w0 d_{mm'} - w_{|m-m'|}/2."""

    dim: int
    entries: np.ndarray
    bandwidth: int

    def __post_init__(self):
        entries = np.array(self.entries, dtype=float)
        if entries.shape != (self.dim, self.dim):
            raise ValueError(f"entries must be {self.dim} x {self.dim}")
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)

    def quadratic_form(self, amplitudes: np.ndarray) -> float:
        """a^T F a for an amplitude vector of matching dimension."""
        a = np.asarray(amplitudes, dtype=float)
        if a.shape != (self.dim,):
            raise ValueError(
                f"dimension mismatch: matrix is {self.dim}-dimensional, "
                f"vector has shape {a.shape}"
            )
        return float(a @ self.entries @ a)


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

    Coefficients beyond k = N cannot couple basis states and are dropped;
    the recorded bandwidth is the largest k <= N with w_k != 0.
    """
    _check_n_ions(n_ions)
    dim = n_ions + 1
    coeffs = f.coefficients[: min(f.order, n_ions)]
    entries = np.zeros((dim, dim))
    np.fill_diagonal(entries, f.w0)
    bandwidth = 0
    for k, wk in enumerate(coeffs, start=1):
        if wk != 0.0:
            idx = np.arange(dim - k)
            entries[idx, idx + k] = -0.5 * wk
            entries[idx + k, idx] = -0.5 * wk
            bandwidth = k
    return CostMatrix(dim, entries, bandwidth)


def mean_cost_bound(state: ClockState, f: CostFunction) -> float:
    """Minimal mean cost achievable by any measurement on this state.

    Computed as the direct banded sum
    w0 - (1/2) sum_k w_k sum_{|m-m'|=k} a_m a_{m'},
    which coincides with the quadratic form of ``cost_matrix`` and is
    attained by the covariant phase-state measurement.
    """
    a = state.amplitudes
    total = f.w0
    k_max = min(f.order, state.n_ions)
    for k in range(1, k_max + 1):
        wk = f.coefficients[k - 1]
        if wk != 0.0:
            # (1/2) * w_k * (2 sum_m a_m a_{m+k})
            total -= wk * float(a[: -k] @ a[k:])
    return float(total)


def product_cost_closed_form(n_ions: int) -> float:
    """Exact mean cost of the product state under the 4 sin^2(t/2) penalty.

    Evaluates 2 [1 - 2^{-N} sum_{i=0}^{N-1} sqrt(C(N,i) C(N,i+1))] with
    log-domain binomials; decays like 1/N for large N.
    """
    _check_n_ions(n_ions)
    log_fact = _log_factorials(n_ions)
    # C(N, i) and C(N, i+1) for i = 0..N-1
    log_binom_i = log_fact[-1] - log_fact[:-1] - log_fact[:0:-1]
    log_binom_i1 = log_fact[-1] - log_fact[1:] - log_fact[-2::-1]
    terms = np.exp(0.5 * (log_binom_i + log_binom_i1) - n_ions * np.log(2.0))
    return float(2.0 * (1.0 - terms.sum()))
