"""Clock states on the symmetric subspace of N two-level systems.

The (N+1)-dimensional energy basis |m>, m = 0..N, carries E_m = m
(hbar = 1, which also fixes the unit of time). States are immutable value
objects: real nonnegative amplitude vectors of unit Euclidean norm.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

NORM_TOL = 1e-12
_LOG = logging.getLogger("qclock")

__all__ = [
    "ClockState",
    "EnergyStats",
    "product_state",
    "phase_state",
    "max_energy_spread_state",
    "energy_stats",
]


@dataclass(frozen=True, eq=False)
class ClockState:
    """Pure state sum_m a_m |m> with real amplitudes a_m >= 0 of unit norm.

    Attributes
    ----------
    n_ions : int
        Number N of two-level systems; the state lives in dimension N + 1.
    amplitudes : numpy.ndarray
        Real amplitudes (a_0, ..., a_N); read-only after construction.
    """

    n_ions: int
    amplitudes: np.ndarray

    def __post_init__(self):
        _check_n_ions(self.n_ions)
        amps = _freeze(self, "amplitudes")
        if amps.ndim != 1 or amps.size != self.n_ions + 1:
            raise ValueError(
                f"expected {self.n_ions + 1} amplitudes for N={self.n_ions}, "
                f"got shape {amps.shape}"
            )
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite")
        if np.any(amps < 0.0):
            raise ValueError("amplitudes must be nonnegative (fixed phase convention)")
        norm_sq = _dot(amps, amps)
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValueError(f"amplitudes not normalized: sum of squares = {norm_sq}")

    @property
    def dim(self) -> int:
        """Dimension N + 1 of the symmetric subspace."""
        return self.n_ions + 1


@dataclass(frozen=True)
class EnergyStats:
    """First two energy moments of a clock state plus the resolution floor 1/N."""

    mean_energy: float
    energy_stddev: float
    resolution_bound: float


def _freeze(obj, name: str, dtype=float) -> np.ndarray:
    """Store a read-only ``dtype`` copy of array field ``name`` on a frozen dataclass."""
    array = np.array(getattr(obj, name), dtype=dtype)
    array.flags.writeable = False
    object.__setattr__(obj, name, array)
    return array


def _record(layer: str, fields: dict) -> None:
    """The one DEBUG record of a layer on the ``qclock`` logger.

    Its message is ``layer: name=value ...`` in the order of ``fields``,
    which are the record's ``args``; it is built only when DEBUG is on.
    """
    if _LOG.isEnabledFor(logging.DEBUG):
        _LOG.debug(f"{layer}: " + " ".join(f"{name}=%({name})s" for name in fields), fields)


def _is_integer(value) -> bool:
    """A Python or NumPy integer; ``bool`` is not one, as NumPy shapes reject it."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_n_ions(n_ions: int) -> None:
    """The one check of an ion count: an integer N >= 1."""
    if not _is_integer(n_ions) or n_ions < 1:
        raise ValueError(f"n_ions must be a positive integer, got {n_ions!r}")


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    """x . y as the pairwise sum of the rounded products x_i y_i.

    Every dot product and norm of the library is this one sum; only
    ``cost._sum_of_squares`` compensates, where the quadratic form needs it.
    Pairwise summation errs by O(eps log N) where a recursive sum errs by
    O(eps N) (Higham, SIAM J. Sci. Comput. 14, 783 (1993)), and it calls no
    BLAS, whose dot splits its sum by the thread count: the bits do not
    depend on that count.
    """
    return float(np.multiply(x, y).sum())


def _compensated_cumsum(x: np.ndarray) -> np.ndarray:
    """Prefix sums of x with each step's exact rounding error (TwoSum) added back."""
    total = np.cumsum(x)
    before, term, after = total[:-1], x[1:], total[1:]
    added = after - before
    errors = (before - (after - added)) + (term - added)
    total[1:] += np.cumsum(errors)
    return total


def _root_binomial_weights(n: int) -> np.ndarray:
    """sqrt(C(N, i) / 2^N) for i = 0..N, exactly symmetric in i <-> N - i.

    The upper half is the running product of the ratios
    sqrt((N - i) / (i + 1)) from the middle outwards, mirrored onto the
    lower half and scaled to unit norm. No large binomial is formed and no
    log-binomials cancel, so the entries keep their digits at any N.
    """
    i = np.arange((n + 1) // 2, n, dtype=float)
    upper = np.cumprod(np.concatenate(([1.0], np.sqrt((n - i) / (i + 1.0)))))
    weights = np.concatenate((upper[::-1], upper[1 - n % 2 :]))
    return weights * math.sqrt(1.0 / _dot(weights, weights))


def product_state(n_ions: int) -> ClockState:
    """State obtained by preparing every ion in (|0> + |1>)/sqrt(2).

    On the symmetric subspace the amplitudes are square roots of binomial
    weights, a_m = sqrt(C(N, m)) / 2^(N/2), built as running products of
    their ratios (C(N, N/2) overflows direct floating-point paths near
    N ~ 1030).

    Parameters
    ----------
    n_ions : int
        Number of ions N >= 1.

    Returns
    -------
    ClockState
    """
    _check_n_ions(n_ions)
    return ClockState(n_ions, _root_binomial_weights(n_ions))


def phase_state(n_ions: int) -> ClockState:
    """Uniform superposition of all energy levels, a_m = 1/sqrt(N+1).

    Its time translates at t_j = 2*pi*j/(N+1) form the orthonormal basis
    measured by the covariant measurement.
    """
    _check_n_ions(n_ions)
    amps = np.full(n_ions + 1, 1.0 / np.sqrt(n_ions + 1))
    return ClockState(n_ions, amps)


def max_energy_spread_state(n_ions: int) -> ClockState:
    """Equal superposition of the extreme levels, (|0> + |N>)/sqrt(2).

    Maximizes the energy spread (stddev N/2) over all states of N ions.
    """
    _check_n_ions(n_ions)
    amps = np.zeros(n_ions + 1)
    amps[0] = amps[-1] = 1.0 / np.sqrt(2.0)
    return ClockState(n_ions, amps)


def energy_stats(state: ClockState) -> EnergyStats:
    """Mean energy, energy spread, and the time-resolution bound 1/N.

    With E_m = m the mean is sum_m m a_m^2 and the spread is
    sqrt(sum_m (m - mean)^2 a_m^2), each divided by sum_m a_m^2, so they
    are the moments of the normalised state. All three sums are
    compensated, and the mean is within an ulp of the exact normalised
    one. The centred form does not cancel (E[m^2] - mean^2 is ~eps N^2
    off), and an energy eigenstate reports an exact zero spread.
    """
    weights = state.amplitudes**2
    m = np.arange(state.dim, dtype=float)
    norm_sq = _compensated_cumsum(weights)[-1]
    mean = float(_compensated_cumsum(m * weights)[-1] / norm_sq)
    variance = float(_compensated_cumsum((m - mean) ** 2 * weights)[-1] / norm_sq)
    return EnergyStats(mean, math.sqrt(variance), 1.0 / int(state.n_ions))
