"""Independent reference implementations used to pin expected test values.

These deliberately avoid the code paths they check: exact integer
binomials instead of log-gamma, a terminating cosine series instead of
quadrature, direct complex sums instead of FFTs, exact big-integer
autocorrelations, LDL-inertia bisection instead of an eigensolver,
LAPACK's dense eigenpair refined in mpmath instead of an iterative one,
and states and kernels from their closed forms instead of the library's
builders. ``tests/test_cli.py`` checks every field of the golden CLI
outputs against them.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import scipy.linalg
from scipy.stats import chi2


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


def _correlation_coefficients(x: list[int], y: list[int]) -> list[int]:
    """sum_m x_{m+k} y_m for k = 0..len-1, for nonnegative integers, exactly.

    Kronecker substitution: both sequences are packed into big integers
    with slots wide enough that no sum carries, so one big-integer product
    holds every correlation; coefficient N + k of x(z) y_rev(z) is lag k.
    """
    size = len(x)
    slot = (2 * max(max(x), max(y), 1).bit_length() + size.bit_length() + 7) // 8
    packed_x = int.from_bytes(b"".join(v.to_bytes(slot, "little") for v in x), "little")
    packed_y = int.from_bytes(b"".join(v.to_bytes(slot, "little") for v in reversed(y)), "little")
    raw = (packed_x * packed_y).to_bytes(slot * (2 * size), "little")
    return [
        int.from_bytes(raw[slot * j : slot * (j + 1)], "little")
        for j in range(size - 1, 2 * size - 1)
    ]


def _exact_autocorrelations(amplitudes) -> list[int]:
    """Integers R_k = 4^s r_k, r_k = sum_m a_m a_{m+k}, for some shift s.

    Each float is an integer over a power of two, so a = A / 2^s with
    integer A; R is the exact autocorrelation of A, from its positive and
    negative parts.
    """
    ratios = [float(v).as_integer_ratio() for v in amplitudes]
    shift = max(den.bit_length() - 1 for _, den in ratios)
    scaled = [num << (shift - den.bit_length() + 1) for num, den in ratios]
    plus = [max(v, 0) for v in scaled]
    minus = [max(-v, 0) for v in scaled]
    sums = [0] * len(scaled)
    for x, y, sign in ((plus, plus, 1), (minus, minus, 1), (plus, minus, -1), (minus, plus, -1)):
        if any(x) and any(y):
            for k, value in enumerate(_correlation_coefficients(x, y)):
                sums[k] += sign * value
    return sums


def exact_deficits(amplitudes) -> np.ndarray:
    """r_0 - r_k for k = 1..N, each correctly rounded.

    R_k = 4^s r_k with 4^s = R_0 / r_0, and r_0 = sum_m a_m^2 is exact as a
    fraction, so r_0 - r_k = (R_0 - R_k) r_0 / R_0 in rational arithmetic.
    """
    sums = _exact_autocorrelations(amplitudes)
    norm_sq = sum(Fraction(float(v)) ** 2 for v in amplitudes)
    return np.array([float(Fraction(sums[0] - r, sums[0]) * norm_sq) for r in sums[1:]])


def rayleigh_quotient_mp(amplitudes, w0: float, coefficients, dps: int = 40) -> float:
    """a^T F a / a^T a for the cost matrix of (w0, w_1..w_K), in mpmath.

    The float inputs convert exactly and the autocorrelations r_k are exact
    integers (``_exact_autocorrelations``), so the only errors left are the
    dps-digit weighted sum and the rounding of the final value. One
    big-integer product replaces the O(N^2) mpmath dot products.
    """
    sums = _exact_autocorrelations(amplitudes)
    with mpmath.workdps(dps):
        terms = [mpmath.mpf(float(w0)) * sums[0]]
        for k, wk in enumerate(coefficients[: len(sums) - 1], start=1):
            if wk != 0.0:
                terms.append(-mpmath.mpf(float(wk)) * sums[k])
        return float(mpmath.fsum(terms) / sums[0])


def dense_toeplitz(column) -> np.ndarray:
    """The dense symmetric Toeplitz matrix T_{mm'} = column[|m - m'|].

    ``CostMatrix`` stores only this first column; the (N+1) x (N+1) matrix
    exists only here, for the dense checks the tests make.
    """
    return scipy.linalg.toeplitz(np.asarray(column, dtype=float))


def smallest_eigenpair_mp(entries: np.ndarray, dps: int = 40, steps: int = 3):
    """Smallest eigenpair of a symmetric matrix to ``dps`` digits.

    LAPACK's dense ``eigh`` gives the start. Each Newton step on
    F v = lam v, v.v = 1 takes the residual in mpmath and solves the
    bordered correction system [[F - lam, -v], [-v^T, 0]] in floats, so it
    multiplies the error by ~cond * 1e-16. (mpmath's own ``eigsy`` agrees,
    but takes ~60 s at dimension 121.) Returns the eigenvalue and the
    unit eigenvector, with its largest entry positive, as floats, and the
    final residual ||F v - lam v||_2 in mpmath, which certifies them.
    """
    values, vectors = np.linalg.eigh(entries)
    dim = len(values)
    with mpmath.workdps(dps):
        rows = [[mpmath.mpf(float(x)) for x in row] for row in entries]
        vector = [mpmath.mpf(float(x)) for x in vectors[:, 0]]
        value = mpmath.mpf(float(values[0]))

        def residual():
            return [mpmath.fdot(row, vector) - value * v for row, v in zip(rows, vector)]

        for _ in range(steps):
            bordered = np.zeros((dim + 1, dim + 1))
            bordered[:dim, :dim] = entries - float(value) * np.eye(dim)
            bordered[:dim, dim] = bordered[dim, :dim] = [-float(v) for v in vector]
            rhs = [-float(r) for r in residual()]
            rhs.append(float((mpmath.fdot(vector, vector) - 1) / 2))
            correction = np.linalg.solve(bordered, rhs)
            vector = [v + float(dv) for v, dv in zip(vector, correction[:dim])]
            value += float(correction[dim])
        final = residual()
        norm = mpmath.sqrt(mpmath.fdot(vector, vector))
        sign = 1 if max(vector, key=abs) > 0 else -1
        unit = np.array([float(sign * v / norm) for v in vector])
        return float(value), unit, mpmath.sqrt(mpmath.fdot(final, final))


def _binomial_weights_mp(n: int) -> list:
    """p_i = C(N, i)/2^N, i = 0..N, at the caller's mpmath precision.

    From the recurrence p_{i+1} = p_i (N - i)/(i + 1) from p_0 = 2^-N, so no
    big binomial is formed; each step rounds at 10^-dps.
    """
    weights = [mpmath.mpf(2) ** -n]
    for i in range(n):
        weights.append(weights[-1] * (n - i) / (i + 1))
    return weights


def product_cost_mp(n: int, dps: int = 40) -> float:
    """2 [1 - sum_i sqrt(p_i p_{i+1})] for p_i = C(N, i)/2^N, in mpmath.

    The rounding of the p_i lies far below the 1/N the cancellation leaves.
    """
    with mpmath.workdps(dps):
        p = _binomial_weights_mp(n)
        return float(2 * (1 - mpmath.fsum(mpmath.sqrt(a * b) for a, b in zip(p, p[1:]))))


def product_amplitudes_mp(n: int, dps: int = 40) -> np.ndarray:
    """Product-state amplitudes sqrt(C(N, m)/2^N), each rounded once to float."""
    with mpmath.workdps(dps):
        return np.array([float(mpmath.sqrt(p)) for p in _binomial_weights_mp(n)])


def sine_state_amplitudes_mp(n: int, dps: int = 40) -> np.ndarray:
    """The sin2 optimum a_m = sin(pi (m+1)/(N+2)) / norm, each rounded once to float."""
    with mpmath.workdps(dps):
        sines = [mpmath.sin(mpmath.pi * (m + 1) / (n + 2)) for m in range(n + 1)]
        norm = mpmath.sqrt(mpmath.fdot(sines, sines))
        return np.array([float(v / norm) for v in sines])


def energy_moments_mp(amplitudes, dps: int = 40) -> tuple[float, float]:
    """Mean and spread of the energy m in the state a / |a|, in mpmath."""
    with mpmath.workdps(dps):
        weights = [mpmath.mpf(float(x)) ** 2 for x in amplitudes]
        norm_sq = mpmath.fsum(weights)
        mean = mpmath.fsum(m * w for m, w in enumerate(weights)) / norm_sq
        variance = mpmath.fsum((m - mean) ** 2 * w for m, w in enumerate(weights)) / norm_sq
        return float(mean), float(mpmath.sqrt(variance))


def _kernel_mp(amplitudes, t):
    """K(t) = |sum_m a_m e^{i m t}|^2 / ((N+1) |a|^2) at an mpmath time t."""
    a = [mpmath.mpf(float(x)) for x in amplitudes]
    amplitude = mpmath.fsum(am * mpmath.expj(m * t) for m, am in enumerate(a))
    return abs(amplitude) ** 2 / (len(a) * mpmath.fdot(a, a))


def _information_sum_mp(dim: int, kernel_values, grid_size: int) -> float:
    """log2(N+1) + ((N+1)/G) sum_g K_g log2 K_g, zero K_g contributing zero."""
    total = mpmath.fsum(k * mpmath.log(k, 2) for k in kernel_values if k > 0)
    return float(mpmath.log(dim, 2) + dim * total / grid_size)


def mutual_information_mp(amplitudes, grid_size: int, dps: int = 30) -> float:
    """Mutual information (bits) on G nodes t_g = 2 pi g / G, by direct sums in mpmath."""
    with mpmath.workdps(dps):
        kernel = [_kernel_mp(amplitudes, 2 * mpmath.pi * g / grid_size) for g in range(grid_size)]
        return _information_sum_mp(len(amplitudes), kernel, grid_size)


def phase_mutual_information_mp(n: int, grid_size: int, dps: int = 30) -> float:
    """``mutual_information_mp`` of the phase state from its Fejer kernel.

    K(T) = sin^2((N+1) T/2) / ((N+1)^2 sin^2(T/2)), K(0) = 1, in closed form:
    no amplitude and no sum over levels enters.
    """
    dim = n + 1
    with mpmath.workdps(dps):
        half = [mpmath.pi * g / grid_size for g in range(1, grid_size)]
        kernel = [mpmath.sin(dim * h) ** 2 / (dim**2 * mpmath.sin(h) ** 2) for h in half]
        return _information_sum_mp(dim, [mpmath.mpf(1)] + kernel, grid_size)


def posterior_mp(amplitudes, outcome: int, grid_size: int, dps: int = 30):
    """Grid t_g = 2 pi g / G, offsets wrap(t_g - t_j) in (-pi, pi] and the
    posterior density (N+1) K(t_g - t_j) / (2 pi), each rounded once.

    The offset 2 pi (g/G - j/(N+1)) is wrapped as an exact fraction of a turn.
    """
    dim = len(amplitudes)
    t, offset, density = [], [], []
    with mpmath.workdps(dps):
        for g in range(grid_size):
            turns = Fraction(g, grid_size) - Fraction(outcome, dim)
            turns -= math.ceil(turns - Fraction(1, 2))
            x = 2 * mpmath.pi * mpmath.mpf(turns.numerator) / turns.denominator
            t.append(float(2 * mpmath.pi * g / grid_size))
            offset.append(float(x))
            density.append(float(dim * _kernel_mp(amplitudes, x) / (2 * mpmath.pi)))
    return np.array(t), np.array(offset), np.array(density)


def cost_at_outcome_mp(w0: float, coefficients, outcome: int, dim: int, t: float,
                       dps: int = 40) -> float:
    """w0 - sum_k w_k cos(k x) at the exact error x = 2 pi outcome / dim - t.

    The float t converts exactly; the error is not rounded to a float first.
    cos(k x) comes from the Chebyshev recurrence, whose error grows like
    k^2 10^-dps at worst.
    """
    with mpmath.workdps(dps):
        x = 2 * mpmath.pi * outcome / dim - mpmath.mpf(float(t))
        twice_cos = 2 * mpmath.cos(x)
        before, current, total = mpmath.mpf(1), twice_cos / 2, mpmath.mpf(w0)
        for wk in coefficients:
            total -= float(wk) * current
            before, current = current, twice_cos * current - before
        return float(total)


def phase_posterior_mp(n: int, offset: int, grid_size: int, dps: int = 30) -> float:
    """Phase-state posterior density at T = 2 pi offset / (G (N+1)), in mpmath.

    sin^2((N+1) T/2) / (2 pi (N+1) sin^2(T/2)), with T/2 = pi offset / (G (N+1))
    formed from the exact integers; offset 0 takes the limit (N+1)/(2 pi).
    """
    dim = n + 1
    with mpmath.workdps(dps):
        if offset == 0:
            return float(dim / (2 * mpmath.pi))
        half = mpmath.pi * offset / (grid_size * dim)
        return float(mpmath.sin(dim * half) ** 2 / (2 * mpmath.pi * dim * mpmath.sin(half) ** 2))


def sine_state_posterior_mp(n: int, offset: int, grid_size: int, dps: int = 30) -> float:
    """Posterior density of a_m ~ sin(pi (m+1)/(N+2)) at T = 2 pi offset / (G (N+1)).

    sin^2(theta) sin^2((N+2) x) / (4 pi (N+2) sin^2(x) sin^2(y)), theta =
    pi/(N+2), x = (T - theta)/2 = pi p / (2 G (N+1)(N+2)) and y likewise with
    q, for the exact integers p, q = 2 offset (N+2) -+ G (N+1). T = +-theta
    (p or q = 0) take the limit (N+2)/(4 pi).
    """
    top, period = n + 2, grid_size * (n + 1)
    p, q = 2 * offset * top - period, 2 * offset * top + period
    with mpmath.workdps(dps):
        if p == 0 or q == 0:
            return float(top / (4 * mpmath.pi))
        x = mpmath.pi * p / (2 * period * top)
        y = mpmath.pi * q / (2 * period * top)
        numerator = mpmath.sin(mpmath.pi / top) ** 2 * mpmath.sin(top * x) ** 2
        return float(numerator / (4 * mpmath.pi * top * mpmath.sin(x) ** 2 * mpmath.sin(y) ** 2))


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


def is_five_smooth(n: int) -> bool:
    """True when the positive integer n has no prime factor above 5."""
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


def wrapped_error_bin_probabilities(amplitudes, edges) -> np.ndarray:
    """Exact probability of each wrapped-error bin [e_i, e_{i+1}) in [-pi, pi].

    The covariant measurement's error T has density (1/2pi)(1 + 2 sum_k
    rho_k cos kT), rho_k = r_k / r_0 with r_k = sum_m a_m a_{m+k} summed
    directly, so the bin [a, b) holds (1/2pi)[(b - a) + 2 sum_{k=1}^{N}
    rho_k (sin kb - sin ka) / k].
    """
    a = np.asarray(amplitudes, dtype=float)
    r = np.correlate(a, a, "full")[a.size - 1 :]
    k = np.arange(1, a.size)
    edges = np.asarray(edges, dtype=float)
    antiderivative = edges + 2.0 * np.sin(np.outer(edges, k)) @ (r[1:] / (r[0] * k))
    return np.diff(antiderivative) / (2.0 * np.pi)


def wrapped_error_bin_probabilities_mp(amplitudes, edges, dps: int = 30) -> np.ndarray:
    """``wrapped_error_bin_probabilities`` in mpmath at ``dps`` decimal digits."""
    with mpmath.workdps(dps):
        a = [mpmath.mpf(float(x)) for x in amplitudes]
        rho = [mpmath.fdot(a[: len(a) - k], a[k:]) / mpmath.fdot(a, a) for k in range(len(a))]

        def antiderivative(e):
            e = mpmath.mpf(float(e))
            return e + 2 * mpmath.fsum(rho[k] * mpmath.sin(k * e) / k for k in range(1, len(a)))

        values = [antiderivative(e) for e in edges]
        return np.array([float((hi - lo) / (2 * mpmath.pi)) for lo, hi in zip(values, values[1:])])


def wrapped_error_moments(amplitudes) -> tuple[float, float]:
    """E[T^2] and E[T^4] of the covariant measurement's wrapped error T.

    T in [-pi, pi] has density (1/2pi)(1 + 2 sum_k rho_k cos kT), rho_k =
    r_k / r_0 with r_k = sum_m a_m a_{m+k} summed directly, so E[cos kT] =
    rho_k. On [-pi, pi], T^2 = pi^2/3 + sum_k (-1)^k (4/k^2) cos kT and
    T^4 = pi^4/5 + sum_k (-1)^k (8 pi^2/k^2 - 48/k^4) cos kT, so

        E[T^2] = pi^2/3 + sum_{k=1}^{N} (-1)^k (4/k^2) rho_k,
        E[T^4] = pi^4/5 + sum_{k=1}^{N} (-1)^k (8 pi^2/k^2 - 48/k^4) rho_k.
    """
    a = np.asarray(amplitudes, dtype=float)
    r = np.correlate(a, a, "full")[a.size - 1 :]
    k = np.arange(1, a.size, dtype=float)
    signed_rho = np.where(np.arange(1, a.size) % 2, -1.0, 1.0) * r[1:] / r[0]
    second = np.pi**2 / 3.0 + math.fsum(4.0 / k**2 * signed_rho)
    fourth = np.pi**4 / 5.0 + math.fsum((8.0 * np.pi**2 / k**2 - 48.0 / k**4) * signed_rho)
    return second, fourth


def wrapped_error_moment_mp(amplitudes, power: int, dps: int = 30) -> float:
    """E[T^power] of the wrapped error, by mpmath quadrature of its density.

    T has density |sum_m a_m e^{imT}|^2 / (2pi |a|^2) on [-pi, pi]; the
    integrand T^power times that trigonometric polynomial is integrated by
    ``mpmath.quad`` on the two halves of the period.
    """
    with mpmath.workdps(dps):
        a = [mpmath.mpf(float(x)) for x in amplitudes]
        norm_sq = mpmath.fdot(a, a)

        def integrand(t):
            amplitude = mpmath.fsum(am * mpmath.expj(m * t) for m, am in enumerate(a))
            return t**power * abs(amplitude) ** 2

        total = mpmath.quad(integrand, [-mpmath.pi, 0, mpmath.pi])
        return float(total / (2 * mpmath.pi * norm_sq))


def cost_second_moment_mp(w0: float, coefficients, amplitudes, dps: int = 30) -> float:
    """E[f(T)^2] under the covariant measurement, by mpmath quadrature.

    f(T) = w0 - sum_k w_k cos kT and T has density |sum_m a_m e^{imT}|^2 /
    (2pi |a|^2) on [-pi, pi]; the integrand is a trigonometric polynomial,
    integrated by ``mpmath.quad`` on the two halves of the period.
    """
    with mpmath.workdps(dps):
        a = [mpmath.mpf(float(x)) for x in amplitudes]
        w = [mpmath.mpf(float(x)) for x in coefficients]
        norm_sq = mpmath.fdot(a, a)

        def integrand(t):
            f = w0 - mpmath.fsum(wk * mpmath.cos((k + 1) * t) for k, wk in enumerate(w))
            amplitude = mpmath.fsum(am * mpmath.expj(m * t) for m, am in enumerate(a))
            return f * f * abs(amplitude) ** 2

        total = mpmath.quad(integrand, [-mpmath.pi, 0, mpmath.pi])
        return float(total / (2 * mpmath.pi * norm_sq))


def bernstein_band(samples, variance, width, alpha=1e-6):
    """Half-width that a mean of i.i.d. draws leaves with probability <= alpha.

    Bernstein's inequality for draws within ``width`` of their mean
    (Boucheron, Lugosi & Massart 2013, thm 2.10): it holds whatever the
    draws' tails, by theorem, not by normality.
    """
    log_term = math.log(2.0 / alpha)
    linear = width * log_term / 3.0
    return (linear + math.sqrt(linear**2 + 2.0 * samples * variance * log_term)) / samples


def _pooled(observed, expected, minimum=5.0):
    """Sums of adjacent bins, pooled left to right until each expects ``minimum``."""
    groups, observed_sum, expected_sum = [], 0, 0.0
    for count, probability in zip(observed, expected):
        observed_sum, expected_sum = observed_sum + count, expected_sum + probability
        if expected_sum >= minimum:
            groups.append([observed_sum, expected_sum])
            observed_sum, expected_sum = 0, 0.0
    groups[-1][0] += observed_sum
    groups[-1][1] += expected_sum
    return np.array(groups).T


def g_test_p_value(counts, law) -> float:
    """p-value of a G-test of histogram ``counts`` against bin probabilities ``law``.

    Bins are pooled to >= 5 expected counts; G = 2 sum O log(O / E) is
    chi-squared on (pooled bins - 1) degrees of freedom.
    """
    counts = np.asarray(counts)
    observed, expected = _pooled(counts, counts.sum() * np.asarray(law))
    nonzero = observed > 0
    g = 2.0 * np.sum(observed[nonzero] * np.log(observed[nonzero] / expected[nonzero]))
    return float(chi2.sf(g, observed.size - 1))
