"""Statistics of the covariant phase-state measurement.

The measurement projects onto the N+1 orthonormal time translates of the
uniform superposition, with outcome j attached to the estimate
t_j = 2*pi*j/(N+1). Outcome probabilities are

    P(t_j | t) = K(t - t_j),    K(T) = |sum_m a_m exp(-i m T)|^2 / (N + 1),

so every statistic is an integral of the one kernel K (covariance). This
module computes outcome distributions, Bayesian posteriors on the uniform
prior, mean costs, the wrapped RMS time error, and the mutual information.

The RMS error is an exact terminating series, summed in 1 - r_k so that it
does not cancel at large N. The posterior, the mutual information and the
direct mean cost sample K on a uniform grid over [0, 2*pi) by one
zero-padded FFT and use the periodic trapezoid rule, exact for
trigonometric polynomials of degree below the node count. Outcome
distributions read K on the N+1 outcomes, shifted by t. One transform,
``_shifted_fft`` (the FFT of c_k exp(i k delta), one row per shift), gives
every value of K, the costs on the mean-cost grid, and the sampler's CDF
and cost tables at 22 offsets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cost import CostFunction, _deficit_steps, _sum_of_squares, mean_cost_bound
from .states import ClockState, _check_n_ions, _is_integer

TWO_PI = 2.0 * np.pi
_BOOLE_START = 64
_GENOCCHI = (1.0, 1.0, 0.0, -1.0, 0.0, 3.0, 0.0, -17.0, 0.0, 155.0, 0.0, -2073.0)
_LCM = math.lcm(*(k * k for k in range(1, _BOOLE_START)))
# sum_{s<=k<64} (-1)^(k-s) / k^2 for s = 1..64, as correctly rounded int / int
_HEADS = [
    sum((-1) ** (k - s) * (_LCM // k**2) for k in range(s, _BOOLE_START)) / _LCM
    for s in range(1, _BOOLE_START + 1)
]

__all__ = [
    "OutcomeDistribution",
    "PosteriorGrid",
    "EstimationReport",
    "measurement_times",
    "wrap_angle",
    "outcome_distribution",
    "posterior",
    "phase_state_posterior_closed_form",
    "optimal_state_posterior_closed_form",
    "mean_cost_direct",
    "circular_rms_error",
    "mutual_information_bits",
    "mutual_information_nats",
    "estimation_report",
]


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """Probabilities of the N+1 measurement outcomes at a given true time."""

    n_ions: int
    true_time: float
    probabilities: np.ndarray

    def __post_init__(self):
        probs = np.array(self.probabilities, dtype=float)
        if probs.shape != (self.n_ions + 1,):
            raise ValueError(f"expected {self.n_ions + 1} probabilities")
        if not (np.isfinite(probs).all() and (probs >= 0.0).all()):
            raise ValueError("outcome probabilities must be finite and nonnegative")
        total = float(probs.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"outcome probabilities sum to {total}, not 1")
        probs.flags.writeable = False
        object.__setattr__(self, "probabilities", probs)


@dataclass(frozen=True, eq=False)
class PosteriorGrid:
    """Posterior density (1/radian) over true time, sampled on [0, 2*pi)."""

    outcome_index: int
    grid: np.ndarray
    density: np.ndarray

    def __post_init__(self):
        grid = np.array(self.grid, dtype=float)
        density = np.array(self.density, dtype=float)
        if grid.shape != density.shape or grid.ndim != 1:
            raise ValueError("grid and density must be 1-d arrays of equal length")
        finite = np.isfinite(grid).all() and np.isfinite(density).all()
        if not (finite and (density >= 0.0).all()):
            raise ValueError("posterior grid and density must be finite, density nonnegative")
        integral = float(density.sum() * (TWO_PI / density.size))
        if abs(integral - 1.0) > 1e-8:
            raise ValueError(f"posterior integrates to {integral}, not 1")
        grid.flags.writeable = False
        density.flags.writeable = False
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "density", density)


@dataclass(frozen=True)
class EstimationReport:
    """Mean cost, wrapped RMS error, and mutual information for one state."""

    mean_cost: float
    circular_rms_error: float
    mutual_information_bits: float

    def __post_init__(self):
        # The wrapped error is pointwise at most pi. The RMS of a uniform
        # guess, pi/sqrt(3), is NOT a ceiling: states locked to a fast
        # subperiod (e.g. weight on levels 0 and N only) can exceed it.
        if not 0.0 <= self.circular_rms_error <= np.pi + 1e-9:
            raise ValueError(
                f"circular RMS error {self.circular_rms_error} outside [0, pi]"
            )
        if self.mutual_information_bits < -1e-9:
            raise ValueError("mutual information must be nonnegative")


def measurement_times(n_ions: int) -> np.ndarray:
    """Estimates t_j = 2*pi*j/(N+1) attached to the N+1 outcomes."""
    _check_n_ions(n_ions)
    return TWO_PI * np.arange(n_ions + 1) / (n_ions + 1)


def wrap_angle(x):
    """Wrap a time difference to (-pi, pi]; the boundary maps to +pi."""
    wrapped = np.pi - np.mod(np.pi - np.asarray(x, dtype=float), TWO_PI)
    # np.mod rounds a tiny negative remainder up to 2*pi itself, giving -pi
    wrapped = np.where(wrapped == -np.pi, np.pi, wrapped)
    return float(wrapped) if wrapped.ndim == 0 else wrapped


def _shifted_fft(coefficients: np.ndarray, size: int, shift: float | np.ndarray) -> np.ndarray:
    """Size-point FFT of c_k exp(i k shift), one row per shift; size >= len(c).

    Only the c_k from the first to the last nonzero one get a phase: the
    amplitudes of a binomial state underflow to 0 beyond ~sqrt(N) levels.
    """
    nonzero = np.flatnonzero(coefficients)
    lo, hi = (nonzero[0], nonzero[-1] + 1) if nonzero.size else (0, 0)
    series = np.zeros(np.shape(shift) + (size,), dtype=complex)
    span = series[..., lo:hi]
    np.multiply.outer(shift, np.arange(lo, hi), out=span.imag)
    np.exp(span, out=span)
    span *= coefficients[lo:hi]
    return np.fft.fft(series)


def _kernel_on_grid(amplitudes: np.ndarray, grid_size: int, shift=0.0) -> np.ndarray:
    """K(2*pi*g/G - shift), g = 0..G-1, one row per shift; needs G >= N+1."""
    amp = _shifted_fft(amplitudes, grid_size, shift)
    return (amp.real**2 + amp.imag**2) / amplitudes.size


def outcome_distribution(state: ClockState, t: float) -> OutcomeDistribution:
    """Born-rule outcome probabilities P(t_j | t) for a true time t.

    Any finite t is reduced into [0, 2*pi). Shifting t by 2*pi/(N+1) cyclically
    shifts the probabilities by one outcome.
    """
    if not math.isfinite(t):
        raise ValueError(f"true time must be finite, got {t}")
    # np.mod rounds a tiny negative t up to 2*pi itself; % takes that to 0
    reduced = float(np.mod(t, TWO_PI)) % TWO_PI
    probs = _kernel_on_grid(state.amplitudes, state.dim, reduced)
    return OutcomeDistribution(state.n_ions, reduced, probs)


def _uniform_grid(grid_size: int) -> np.ndarray:
    return np.linspace(0.0, TWO_PI, grid_size, endpoint=False)


def _check_grid(grid_size: int, minimum: int) -> None:
    if not _is_integer(grid_size) or grid_size < minimum:
        raise ValueError(f"grid_size must be an integer >= {minimum}, got {grid_size!r}")


def _check_outcome(outcome_index: int, dim: int) -> None:
    if not _is_integer(outcome_index) or not 0 <= outcome_index < dim:
        raise ValueError(
            f"outcome_index must be an integer in 0..{dim - 1}, got {outcome_index!r}"
        )


def posterior(state: ClockState, outcome_index: int, grid_size: int) -> PosteriorGrid:
    """Posterior density of the true time given one observed outcome.

    With a uniform prior, P(t | t_j) is proportional to P(t_j | t); the
    normalization is recomputed on the grid by the periodic trapezoid
    rule (exact here, since P(t_j | t) is a degree-N trigonometric
    polynomial and the grid resolves it).
    """
    dim = state.dim
    _check_outcome(outcome_index, dim)
    _check_grid(grid_size, 4 * dim)
    t_j = measurement_times(state.n_ions)[outcome_index]
    weight = _kernel_on_grid(state.amplitudes, grid_size, t_j)
    density = weight / (weight.sum() * (TWO_PI / grid_size))
    return PosteriorGrid(outcome_index, _uniform_grid(grid_size), density)


def _grid_offsets(n_ions: int, outcome_index: int, grid_size: int) -> np.ndarray:
    """Integers nu = g (N+1) - j G, wrapped into (-G(N+1)/2, G(N+1)/2], g = 0..G-1.

    Node g sits at t_g - t_j = 2 pi nu / (G (N+1)), so phases read from nu are exact.
    """
    _check_n_ions(n_ions)
    dim = n_ions + 1
    _check_outcome(outcome_index, dim)
    _check_grid(grid_size, 4 * dim)
    period = grid_size * dim
    half = period // 2  # the arange is half - nu = half + j G - g (N+1), before the mod
    start = half + outcome_index * grid_size
    return half - np.arange(start, start - period, -dim, dtype=np.int64) % period


def phase_state_posterior_closed_form(
    n_ions: int, outcome_index: int, grid_size: int
) -> PosteriorGrid:
    """Closed-form posterior of the uniform-superposition state.

    The density is the Fejer-type kernel

        sin^2((N+1) T / 2) / (2 pi (N+1) sin^2(T / 2)),    T = t - t_j,

    on the exact integer offsets of the nodes, with the limit (N+1)/(2 pi)
    at T = 0. First zeros sit at T = +-2*pi/(N+1), so the central peak is
    one outcome spacing wide on each side.
    """
    nu = _grid_offsets(n_ions, outcome_index, grid_size)
    dim, half = n_ions + 1, grid_size // 2
    wave = np.sin(np.pi * ((nu + half) % grid_size - half) / grid_size)
    ends = np.sin(np.pi * nu / (grid_size * dim))
    ratio = np.divide(wave, ends, out=np.full(grid_size, float(dim)), where=nu != 0)
    return PosteriorGrid(outcome_index, _uniform_grid(grid_size), ratio**2 / (TWO_PI * dim))


def optimal_state_posterior_closed_form(
    n_ions: int, outcome_index: int, grid_size: int
) -> PosteriorGrid:
    """Closed-form posterior of the sin^2 optimum, a_m ~ sin(pi (m+1)/(N+2)).

    Summing the geometric series of the sine state gives the density

        sin^2(theta) sin^2((N+2) x) / (4 pi (N+2) sin^2(x) sin^2(y)),

    theta = pi/(N+2), x = (T - theta)/2, y = (T + theta)/2, T = t - t_j, on
    the exact integer offsets of the nodes. It integrates to 1 and takes the
    limit (N+2)/(4 pi) at T = +-theta. Its first zeros are at T = +-3 theta;
    the tails fall off like 1/(N^3 T^4) up to T near pi.
    """
    nu = _grid_offsets(n_ions, outcome_index, grid_size)
    dim, top = n_ions + 1, n_ions + 2
    period = grid_size * dim
    # (N+2) x = pi (s - G(N+1)/2) / (G(N+1)) for s = nu (N+2) mod G(N+1),
    # reduced without forming nu (N+2), which can pass 2^63
    wave = np.sin(np.pi * ((dim * (nu % grid_size) + nu) % period - period / 2) / period)
    # 2 nu (N+2) is exact in float wherever it is within 2^53 of +-G(N+1)
    twice, scale = 2.0 * top * nu, 2.0 * period * top
    ends = np.sin(np.pi * (twice - period) / scale) * np.sin(np.pi * (twice + period) / scale)
    limit = np.full(grid_size, float(top))
    ratio = np.divide(math.sin(np.pi / top) * wave, ends, out=limit, where=np.abs(twice) != period)
    return PosteriorGrid(outcome_index, _uniform_grid(grid_size), ratio**2 / (4.0 * np.pi * top))


def mean_cost_direct(state: ClockState, f: CostFunction, grid_size: int | None = None) -> float:
    """Mean cost of the covariant measurement computed from its statistics.

    Evaluates sum_j integral P(t_j | t) f(t_j - t) dt / (2 pi), equal to
    (N+1)/(2 pi) integral K(T) f(T) dT, by the periodic trapezoid rule.
    K f is a trigonometric polynomial of degree N + K, so the default grid
    of 8 (N + K) nodes makes the quadrature exact up to roundoff; the value
    then matches ``mean_cost_bound`` because the measurement attains it.
    """
    minimum = 8 * (state.n_ions + max(f.order, 1))
    if grid_size is None:
        grid_size = minimum
    _check_grid(grid_size, minimum)
    kernel = _kernel_on_grid(state.amplitudes, grid_size)
    costs = f.w0 - _shifted_fft(np.pad(f.coefficients, (1, 0)), grid_size, 0.0).real
    return float(state.dim * (kernel @ costs) / grid_size)


def circular_rms_error(state: ClockState) -> float:
    """Wrapped RMS deviation of the estimate from the true time.

    Delta_t = sqrt( sum_j integral P(t_j | t) wrap(t_j - t)^2 dt / (2 pi) ),
    with wrap mapping to (-pi, pi]. wrap(T)^2 has cosine coefficients
    4 (-1)^k / k^2 and K stops at frequency N, so Delta_t^2 is exactly
    pi^2/3 + 4 sum_{k=1}^{N} (-1)^k r_k / k^2, r_k = sum_m a_m a_{m+k}.
    As pi^2/3 = 4 sum_{k>=1} (-1)^(k+1) / k^2, summing by parts gives

        Delta_t^2 = 4 sum_{k=1}^{N+1} (-1)^(k+1) S(k) (r_{k-1} - r_k) / r_0,

    S(x) = sum_{j>=0} (-1)^j / (x+j)^2 (Euler-Boole), steps from
    ``cost._deficit_steps`` and r_0 = a . a. Near the optimum the terms fall
    off like 1/k; the pi^2/3 form loses ~N^2 eps relative and a sum over
    (r_0 - r_k) / k^2 ~sqrt(N) eps.
    """
    a = state.amplitudes
    terms = _deficit_steps(a) * _alternating_inverse_squares(np.arange(1, a.size + 1))
    terms[1::2] *= -1.0
    return math.sqrt(4.0 * math.fsum(terms) / _sum_of_squares(a))


def _alternating_inverse_squares(start: np.ndarray) -> np.ndarray:
    """S = sum_{k>=start} (-1)^(k-start) / k^2 for each start >= 1, to roundoff.

    Terms below x = max(start, 64) come from ``_HEADS``. The rest is
    sum_{j>=0} (-1)^j f(x+j) = f(x)/(1 + e^D) for f = 1/x^2, whose
    Euler-Boole expansion sum_n G_n / (2 x^(n+2)) has Genocchi-number
    coefficients; the first omitted term is below 1e-15 relative at x = 64.
    """
    start = np.asarray(start)
    x = np.maximum(start, _BOOLE_START).astype(float)
    series = 0.0
    for coefficient in reversed(_GENOCCHI):
        series = series / x + coefficient
    series *= 0.5 / (x * x)
    head = np.take(_HEADS, np.minimum(start, _BOOLE_START) - 1)
    return head + np.where((x - start) % 2, -series, series)


def mutual_information_bits(state: ClockState, grid_size: int | None = None) -> float:
    """Mutual information (bits) between the true time and the outcome.

    Covariance makes the marginal outcome distribution uniform, so

        I = log2(N+1) + ((N+1)/2 pi) integral K(T) log2 K(T) dT,

    with zero-probability terms contributing zero. Bounded above by
    log2(N+1), the information capacity of the N+1 outcomes.
    """
    dim = state.dim
    minimum = 16 * dim
    if grid_size is None:
        grid_size = minimum
    _check_grid(grid_size, minimum)
    kernel = _kernel_on_grid(state.amplitudes, grid_size)
    positive = kernel[kernel > 0.0]
    return float(np.log2(dim) + dim * np.sum(positive * np.log2(positive)) / grid_size)


def mutual_information_nats(state: ClockState, grid_size: int | None = None) -> float:
    """Mutual information in natural-log units (nats)."""
    return mutual_information_bits(state, grid_size) * math.log(2.0)


def estimation_report(state: ClockState, f: CostFunction) -> EstimationReport:
    """Analytic summary of a state: minimal mean cost, RMS error, information."""
    info = mutual_information_bits(state)
    if info > np.log2(state.dim) + 1e-9:
        raise ValueError("mutual information exceeds the log2(N+1) capacity bound")
    return EstimationReport(
        mean_cost=mean_cost_bound(state, f),
        circular_rms_error=circular_rms_error(state),
        mutual_information_bits=info,
    )
