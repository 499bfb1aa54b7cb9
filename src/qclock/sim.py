"""Seeded Monte Carlo clock runs and analytic scans over the ion count.

The simulator draws true times uniformly, samples outcomes from the exact
Born-rule distribution by inverse CDF, and aggregates empirical cost and
error statistics. Randomness comes from the counter-based Philox generator
keyed by the configured seed: sample i consumes row i of a (samples, 2)
uniform block laid out in fixed counter order, so results are bitwise
reproducible.

Outcomes are drawn in blocks of max(1, 2**18 // (N+1)) samples on a thread
pool of min(os.cpu_count(), blocks) workers; each block writes only its
slice of one per-sample outcome array, so the results do not depend on the
block size or the worker count. Memory is O(samples + workers * block)
rather than O(samples * (N+1)). Costs, wrapped errors and every aggregate
are computed in the calling thread over the whole per-sample arrays.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cost import CANONICAL_LABELS, canonical_cost, evaluate_cost
from .measurement import (
    estimation_report,
    measurement_times,
    wrap_angle,
    _outcome_prob_matrix,
)
from .solver import SolverConvergenceError, optimal_state
from .states import ClockState, max_energy_spread_state, phase_state, product_state

KINDS = ("product", "phase", "optimal", "max_spread")
DEFAULT_HISTOGRAM_BINS = 101
PHASE_MATCH_TOL = 1e-9
# Outcome probabilities per sampler block; bounds each worker's memory.
_BLOCK_ENTRIES = 2**18

__all__ = [
    "KINDS",
    "SimConfig",
    "SimResult",
    "ScanRow",
    "state_for",
    "run_simulation",
    "scan_n",
]


def state_for(kind: str, n_ions: int, cost_label: str | None = None) -> ClockState:
    """Build a clock state by kind name.

    ``optimal`` requires a cost label. The extra ``basis`` kind (all weight
    on the middle energy level) is a diagnostic: it carries no time
    information at all.
    """
    if kind == "product":
        return product_state(n_ions)
    if kind == "phase":
        return phase_state(n_ions)
    if kind == "max_spread":
        return max_energy_spread_state(n_ions)
    if kind == "optimal":
        if cost_label is None:
            raise ValueError("state kind 'optimal' requires a cost label")
        return optimal_state(canonical_cost(cost_label, max(1, n_ions)), n_ions)
    if kind == "basis":
        amplitudes = np.zeros(n_ions + 1)
        amplitudes[n_ions // 2] = 1.0
        return ClockState(n_ions, amplitudes)
    raise ValueError(f"unknown state kind {kind!r}; expected one of {KINDS}")


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo run description; identical configs give identical results."""

    state_kind: str
    n_ions: int
    cost_label: str
    samples: int
    seed: int

    def __post_init__(self):
        if self.state_kind not in KINDS:
            raise ValueError(f"state_kind must be one of {KINDS}, got {self.state_kind!r}")
        if self.n_ions < 1:
            raise ValueError(f"n_ions must be >= 1, got {self.n_ions}")
        if self.cost_label not in CANONICAL_LABELS:
            raise ValueError(f"cost_label must be one of {CANONICAL_LABELS}")
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")


@dataclass(frozen=True, eq=False)
class SimResult:
    """Aggregated Monte Carlo statistics plus the wrapped-error histogram."""

    empirical_mean_cost: float
    empirical_delta_t: float
    standard_error_cost: float
    histogram: np.ndarray
    bin_edges: np.ndarray

    def __post_init__(self):
        counts = np.array(self.histogram, dtype=np.int64)
        edges = np.array(self.bin_edges, dtype=float)
        counts.flags.writeable = False
        edges.flags.writeable = False
        object.__setattr__(self, "histogram", counts)
        object.__setattr__(self, "bin_edges", edges)


def _sample_outcomes(
    amplitudes: np.ndarray, true_times: np.ndarray, uniforms: np.ndarray
) -> np.ndarray:
    """Inverse-CDF outcome of each sample, computed in blocks on a thread pool.

    Each block counts u > cumsum(P(t_j | t)) in ascending outcome order and
    writes only its own slice of the result, so the outcomes do not depend
    on the block size or the worker count.
    """
    n_ions = amplitudes.size - 1
    rows = max(1, _BLOCK_ENTRIES // amplitudes.size)
    outcomes = np.empty(true_times.size, dtype=np.intp)

    def fill(lo: int) -> None:
        hi = lo + rows
        cumulative = np.cumsum(_outcome_prob_matrix(amplitudes, true_times[lo:hi]), axis=1)
        counts = np.count_nonzero(uniforms[lo:hi, None] > cumulative, axis=1)
        outcomes[lo:hi] = np.minimum(counts, n_ions)

    starts = range(0, true_times.size, rows)
    workers = min(os.cpu_count() or 1, len(starts))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for _ in pool.map(fill, starts):
            pass
    return outcomes


def run_simulation(config: SimConfig, bins: int = DEFAULT_HISTOGRAM_BINS) -> SimResult:
    """Simulate clock runs and aggregate the empirical statistics.

    Per sample: draw t uniformly on [0, 2*pi), draw the outcome by inverse
    CDF in ascending outcome order, then record the cost f(t_j - t) and the
    wrapped error t_j - t. The default 101 bins are odd so one bin straddles
    zero error; the histogram mass always equals the sample count.
    """
    state = state_for(config.state_kind, config.n_ions, config.cost_label)
    cost_fn = canonical_cost(config.cost_label, max(1, config.n_ions))
    rng = np.random.Generator(np.random.Philox(key=config.seed))
    draws = rng.random((config.samples, 2))
    true_times = 2.0 * np.pi * draws[:, 0]

    outcomes = _sample_outcomes(state.amplitudes, true_times, draws[:, 1])
    estimates = measurement_times(config.n_ions)[outcomes]

    errors = wrap_angle(estimates - true_times)
    costs = evaluate_cost(cost_fn, estimates - true_times)
    costs = np.atleast_1d(costs)

    mean_cost = float(costs.mean())
    delta_t = float(np.sqrt(np.mean(errors**2)))
    if config.samples > 1:
        standard_error = float(costs.std(ddof=1) / np.sqrt(config.samples))
    else:
        standard_error = 0.0

    counts, edges = np.histogram(errors, bins=bins, range=(-np.pi, np.pi))
    if int(counts.sum()) != config.samples:
        raise RuntimeError("histogram lost samples; wrapped errors out of range")
    return SimResult(mean_cost, delta_t, standard_error, counts, edges)


@dataclass(frozen=True)
class ScanRow:
    """One (N, kind) row of an analytic scan; error is set on solver failure."""

    n_ions: int
    kind: str
    mean_cost: float | None
    delta_t: float | None
    mutual_information_bits: float | None
    matches_phase_state: bool | None
    error: str | None = None


def scan_n(kinds, cost_label: str, n_values) -> list[ScanRow]:
    """Analytic table of mean cost, RMS error, and information per (N, kind).

    No sampling is involved; rows are deterministic. A solver failure is
    recorded in the affected row instead of aborting the scan. The
    ``matches_phase_state`` flag marks amplitude vectors that coincide with
    the uniform superposition to within 1e-9.
    """
    kinds = list(kinds)
    n_values = list(n_values)
    if not n_values:
        raise ValueError("n_values must be nonempty")
    if not kinds:
        raise ValueError("kinds must be nonempty")
    for kind in kinds:
        if kind not in KINDS:
            raise ValueError(f"unknown state kind {kind!r}; expected one of {KINDS}")
    for n in n_values:
        if n < 1:
            raise ValueError(f"every N must be >= 1, got {n}")
    if cost_label not in CANONICAL_LABELS:
        raise ValueError(f"cost_label must be one of {CANONICAL_LABELS}")

    rows: list[ScanRow] = []
    for n in n_values:
        cost_fn = canonical_cost(cost_label, max(1, n))
        uniform = 1.0 / np.sqrt(n + 1)
        for kind in kinds:
            try:
                state = state_for(kind, n, cost_label)
                report = estimation_report(state, cost_fn)
            except SolverConvergenceError as exc:
                rows.append(ScanRow(n, kind, None, None, None, None, str(exc)))
                continue
            matches = bool(np.max(np.abs(state.amplitudes - uniform)) <= PHASE_MATCH_TOL)
            rows.append(
                ScanRow(
                    n,
                    kind,
                    report.mean_cost,
                    report.circular_rms_error,
                    report.mutual_information_bits,
                    matches,
                )
            )
    return rows
