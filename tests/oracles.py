"""Independent reference implementations used to pin expected test values.

These deliberately avoid the code paths they check: exact integer
binomials instead of log-gamma, a terminating cosine series instead of
quadrature, direct complex sums instead of FFTs, and LDL-inertia
bisection instead of an eigensolver.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import scipy.linalg


def exact_binomial_amplitudes(n: int) -> np.ndarray:
    """Amplitudes sqrt(C(N, m) / 2^N) from exact integer arithmetic."""
    return np.array(
        [math.sqrt(float(Fraction(math.comb(n, m), 2**n))) for m in range(n + 1)]
    )


def wrapped_rms_series(amplitudes) -> float:
    """Terminating cosine-series form of the wrapped RMS error.

    wrap(T)^2 has Fourier cosine coefficients 4 (-1)^k / k^2 and the
    outcome kernel only carries frequencies up to N, so the series stops
    at k = N; no quadrature is involved.
    """
    a = np.asarray(amplitudes, dtype=float)
    total = np.pi**2 / 3.0
    for k in range(1, a.size):
        total += (2.0 * (-1.0) ** k / k**2) * 2.0 * float(a[:-k] @ a[k:])
    return math.sqrt(total)


def wrapped_rms_series_mp(amplitudes, dps: int = 50) -> float:
    """``wrapped_rms_series`` in mpmath arithmetic at ``dps`` decimal digits.

    The float amplitudes convert exactly and the value is that of the state
    they represent, a / |a|: (|a|^2 pi^2/3 + 4 sum_k (-1)^k r_k / k^2) / |a|^2.
    Taking |a|^2 = 1 instead would shift Delta_t^2 by (1 - |a|^2) pi^2/3, a
    few 1e-16 absolute, which at Delta_t ~ 1/N is ~1e-10 relative at
    N = 2048. The only error left is the rounding of the final value.
    """
    with mpmath.workdps(dps):
        a = [mpmath.mpf(float(x)) for x in amplitudes]
        norm_sq = mpmath.fdot(a, a)
        total = norm_sq * mpmath.pi**2 / 3
        for k in range(1, len(a)):
            total += 4 * (-1) ** k * mpmath.fdot(a[:-k], a[k:]) / k**2
        return float(mpmath.sqrt(total / norm_sq))


def rayleigh_quotient_mp(amplitudes, w0: float, coefficients, dps: int = 40) -> float:
    """a^T F a / a^T a for the cost matrix of (w0, w_1..w_K), in mpmath.

    The float inputs convert exactly, so the only error left is the
    rounding of the final value.
    """
    with mpmath.workdps(dps):
        a = [mpmath.mpf(float(x)) for x in amplitudes]
        norm_sq = mpmath.fdot(a, a)
        total = mpmath.mpf(float(w0)) * norm_sq
        for k, wk in enumerate(coefficients[: len(a) - 1], start=1):
            if wk != 0.0:
                total -= mpmath.mpf(float(wk)) * mpmath.fdot(a[:-k], a[k:])
        return float(total / norm_sq)


def product_cost_mp(n: int, dps: int = 40) -> float:
    """2 [1 - 2^-N sum_i sqrt(C(N, i) C(N, i+1))] from exact binomials in mpmath."""
    with mpmath.workdps(dps):
        overlap = mpmath.fsum(
            mpmath.sqrt(math.comb(n, i) * math.comb(n, i + 1)) for i in range(n)
        )
        return float(2 * (1 - overlap / mpmath.mpf(2) ** n))


def outcome_probs_direct(amplitudes, t: float) -> np.ndarray:
    """Born probabilities from a direct complex double sum (no FFT)."""
    dim = len(amplitudes)
    probs = []
    for j in range(dim):
        t_j = 2.0 * math.pi * j / dim
        amp = 0j
        for m in range(dim):
            angle = m * (t - t_j)
            amp += amplitudes[m] * complex(math.cos(angle), -math.sin(angle))
        probs.append(abs(amp) ** 2 / dim)
    return np.array(probs)


def _eigenvalues_below(matrix: np.ndarray, shift: float) -> int:
    """Count eigenvalues below a shift via the inertia of an LDL^T factor."""
    dim = matrix.shape[0]
    d = scipy.linalg.ldl(matrix - shift * np.eye(dim))[1]
    count = 0
    i = 0
    while i < dim:
        if i + 1 < dim and d[i, i + 1] != 0.0:
            det = d[i, i] * d[i + 1, i + 1] - d[i, i + 1] * d[i + 1, i]
            if det < 0.0:
                count += 1
            elif d[i, i] + d[i + 1, i + 1] < 0.0:
                count += 2
            i += 2
        else:
            if d[i, i] < 0.0:
                count += 1
            i += 1
    return count


def smallest_eigenvalue_bisection(matrix: np.ndarray, tol: float = 1e-12) -> float:
    """Bracket the smallest eigenvalue by bisection on the inertia count."""
    bound = float(np.linalg.norm(matrix, np.inf)) + 1.0
    lo, hi = -bound, bound
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _eigenvalues_below(matrix, mid) >= 1:
            hi = mid
        else:
            lo = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def random_clock_amplitudes(rng, dim: int) -> np.ndarray:
    """Random valid amplitude vector: nonnegative entries, unit norm."""
    a = np.abs(rng.standard_normal(dim))
    return a / np.linalg.norm(a)
