"""State kinds, seeded Monte Carlo clock runs and analytic scans over N.

One private table, ``_STATE_KINDS``, holds every fact about the named
state kinds: how to build each one, whether it needs a cost label, and
whether it is a diagnostic that only ``state_for`` (and the CLI's
``mutinfo``) offers. ``KINDS``, ``state_for``, ``SimConfig``, ``scan_n``
and the CLI's choices all read it, and ``_check_kind`` is the one check
of a kind name.

The simulator draws true times uniformly, samples outcomes from the exact
Born-rule distribution by inverse CDF, and aggregates empirical cost and
error statistics. Randomness comes from the counter-based Philox generator
keyed by the configured seed: sample i consumes row i of a (samples, 2)
uniform block laid out in fixed counter order, and a block of samples
skips to its first row by advancing the counter, so results are bitwise
reproducible.

Covariance, P(t_j | t) = K(t - t_j), means only the lattice error matters:
for a true time t = s h + delta, h = 2*pi/(N+1) and delta in [0, h), the
outcome j = s + m (mod N+1) has m distributed as P(t_m | delta) whatever s
is, and its error t_j - t is m h - delta modulo 2*pi. So a sample draws
only delta/h = frac((N+1) d) from the first uniform d of its row, and m by
inverse CDF from the second, u: m = #{k : Q_k(delta) < u}, capped at N, for
the partial sums Q_k = sum_{i<=k} P(t_i | delta). One table of Q at 22
Chebyshev offsets, built once per run from the outcome kernel, serves every
sample: a sample costs O(log N) interpolations of 22 terms, not an
(N+1)-entry Born row. The m equal the outcomes of the Born-row ``cumsum``
at true time delta except where u lies within roundoff (~1e-13) of a CDF
step. The cost of the error m h - delta is likewise a trigonometric
polynomial of degree <= N in delta, so a second table, of the cost at the
same offsets for each of the N+1 lattice errors, gives it with the same 22
interpolation weights instead of a K-term cosine series per sample.

Samples run in blocks of 2**16 // 22 on a thread pool of
min(os.cpu_count(), blocks) workers. A block does the whole per-sample
pipeline: it draws its own rows of the Philox block, samples lattice
errors and costs, wraps the errors and bins them into its own histogram,
whose counts are added. Only the costs and wrapped errors, which the mean, RMS and
standard error reduce over, are kept for every sample: 16 bytes each, and
one 8-byte temporary per sample while a reduction runs. So memory is
24 * samples + O(N + workers * block) bytes at its peak, and no per-sample
array grows with N. Each block writes only its own slices, so the results
do not depend on the block size or the worker count. One DEBUG record on
the ``qclock`` logger gives the sample, block and worker counts and the
seconds spent building the tables and sampling.
"""

from __future__ import annotations

import logging
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .cost import CANONICAL_LABELS, CostFunction, canonical_cost
from .measurement import (
    TWO_PI,
    estimation_report,
    wrap_angle,
    _kernel_on_grid,
    _shifted_fft,
)
from .solver import SolverConvergenceError, optimal_state
from .states import (
    ClockState,
    _check_n_ions,
    _compensated_cumsum,
    _is_integer,
    max_energy_spread_state,
    phase_state,
    product_state,
)

DEFAULT_HISTOGRAM_BINS = 101
PHASE_MATCH_TOL = 1e-9
# Interpolation weights per sampler block; bounds each worker's memory.
_BLOCK_ENTRIES = 2**16
# Chebyshev nodes per outcome spacing h = 2*pi/(N+1). Each CDF piece Q_k is a
# trigonometric polynomial of degree <= N in delta in [0, h]; mapped to
# [-1, 1] its top frequency is N*pi/(N+1) < pi, so interpolation in d
# second-kind Chebyshev points errs by <~ pi^d / (2^(d-1) d!), 4e-17 at
# d = 22, for every N.
_NODE_COUNT = 22
_NODES = np.cos(np.pi * np.arange(_NODE_COUNT) / (_NODE_COUNT - 1))
_BARYCENTRIC = np.where(np.arange(_NODE_COUNT) % 2, -1.0, 1.0)
_BARYCENTRIC[[0, -1]] *= 0.5
_LOG = logging.getLogger("qclock")

__all__ = [
    "KINDS",
    "SimConfig",
    "SimResult",
    "ScanRow",
    "state_for",
    "run_simulation",
    "scan_n",
]


class _Kind(NamedTuple):
    """How to build one state kind from (N, cost label), and who may ask for it."""

    build: Callable[[int, str | None], ClockState]
    needs_cost: bool = False
    diagnostic: bool = False


def _basis_state(n_ions: int, cost_label: str | None) -> ClockState:
    amplitudes = np.zeros(n_ions + 1)
    amplitudes[n_ions // 2] = 1.0
    return ClockState(n_ions, amplitudes)


# The builders name their functions at call time, as module globals, so a
# monkeypatched or traced ``optimal_state`` is the one that runs.
_STATE_KINDS = {
    "product": _Kind(lambda n, cost: product_state(n)),
    "phase": _Kind(lambda n, cost: phase_state(n)),
    "optimal": _Kind(
        lambda n, cost: optimal_state(canonical_cost(cost, n), n), needs_cost=True
    ),
    "max_spread": _Kind(lambda n, cost: max_energy_spread_state(n)),
    "basis": _Kind(_basis_state, diagnostic=True),
}
KINDS = tuple(kind for kind, entry in _STATE_KINDS.items() if not entry.diagnostic)


def _check_kind(kind: str, diagnostic: bool = False) -> _Kind:
    """Table entry of ``kind``; diagnostic kinds only when ``diagnostic`` is set."""
    allowed = tuple(_STATE_KINDS) if diagnostic else KINDS
    if kind not in allowed:
        raise ValueError(f"unknown kind {kind!r}; expected one of {allowed}")
    return _STATE_KINDS[kind]


def state_for(kind: str, n_ions: int, cost_label: str | None = None) -> ClockState:
    """Build a clock state by kind name.

    ``optimal`` requires a cost label. The extra ``basis`` kind (all weight
    on the middle energy level) is a diagnostic: it carries no time
    information at all.
    """
    entry = _check_kind(kind, diagnostic=True)
    if entry.needs_cost and cost_label is None:
        raise ValueError(f"state kind {kind!r} requires a cost label")
    _check_n_ions(n_ions)
    return entry.build(n_ions, cost_label)


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo run description; identical configs give identical results."""

    state_kind: str
    n_ions: int
    cost_label: str
    samples: int
    seed: int

    def __post_init__(self):
        _check_kind(self.state_kind)
        _check_n_ions(self.n_ions)
        if self.cost_label not in CANONICAL_LABELS:
            raise ValueError(f"cost_label must be one of {CANONICAL_LABELS}")
        if not _is_integer(self.samples) or self.samples < 1:
            raise ValueError(f"samples must be a positive integer, got {self.samples!r}")
        if not _is_integer(self.seed) or not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")


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


def _node_offsets(dim: int) -> np.ndarray:
    """The Chebyshev nodes mapped to offsets delta in [0, 2*pi/dim]."""
    return (np.pi / dim) * (1.0 + _NODES)


def _cdf_table(amplitudes: np.ndarray) -> np.ndarray:
    """Outcome CDF at the Chebyshev nodes of one outcome spacing, one period.

    Row k holds Q_k(delta) = sum_{m<=k} P(t_m | delta) at the nodes delta
    in [0, 2*pi/(N+1)], the ``cumsum`` of ``_kernel_on_grid`` on the
    outcomes at each node: the CDF of the lattice error m at offset delta.
    """
    offsets = _node_offsets(amplitudes.size)
    return np.cumsum(_kernel_on_grid(amplitudes, amplitudes.size, offsets), axis=1).T


def _barycentric_weights(x: np.ndarray) -> np.ndarray:
    """w with p(x) = w . p(_NODES) for every polynomial p of degree < d.

    The second barycentric formula, stable at Chebyshev points; an x that
    lands on a node gets that node's unit vector.
    """
    gaps = np.subtract.outer(x, _NODES)
    weights = np.empty_like(gaps)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(_BARYCENTRIC, gaps, out=weights)
        total = np.einsum("ij->i", weights)
        weights /= total[:, None]
    on_node = np.isinf(total)
    weights[on_node] = gaps[on_node] == 0.0
    return weights


def _cost_table(cost_fn: CostFunction, dim: int) -> np.ndarray:
    """Cost f(m h - delta) for m = 0..N (rows) at the Chebyshev offsets delta.

    Every cosine sum sum_k c_k cos(k (m h - delta)) over the nodes delta in
    [0, h], h = 2*pi/(N+1), is Re FFT_m(c_k e^{i k delta}), a row of
    ``_shifted_fft`` per node, exact for K <= N since no frequency aliases.
    f is summed in two forms and each entry keeps the one with the smaller
    error bound (only real parts are kept, no complex (22, N+1) block):
    w0 - sum_k w_k cos(k x), ~eps W off for W = sum_k w_k, and
    (w0 - W) + (1 - cos x) E(x), ~eps (1 - cos x) E(0) off, where
    E(x) = sum_k w_k (1 - cos k x) / (1 - cos x) = e_0 + 2 sum_k e_k cos(k x)
    with e_k = sum_{j>k} (j - k) w_j >= 0 and E(0) = sum_k k^2 w_k. Near
    x = 0 the second does not cancel; the first loses ~eps W / f there,
    1e-8 relative for the sin2 cost at N = 300.
    """
    w = cost_fn.coefficients
    offsets = _node_offsets(dim)
    direct = cost_fn.w0 - _shifted_fft(np.pad(w, (1, 0)), dim, offsets).real
    # e_{k-1} - e_k = sum_{j>=k} w_j: two compensated suffix sums
    e = _compensated_cumsum(_compensated_cumsum(w[::-1]))[::-1]
    e[1:] *= 2.0
    m = np.arange(dim)
    lattice = np.where(2 * m > dim, m - dim, m) * (TWO_PI / dim)
    versine = 2.0 * np.sin(0.5 * (lattice - offsets[:, None])) ** 2
    near = math.fsum([cost_fn.w0, *-w]) + versine * _shifted_fft(e, dim, offsets).real
    curvature = float(np.arange(1.0, w.size + 1.0) ** 2 @ w)
    return np.ascontiguousarray(np.where(versine * curvature < w.sum(), near, direct).T)


def _outcome_sampler(
    amplitudes: np.ndarray, cost_fn: CostFunction
) -> Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """The block kernel: (fractions, uniforms) -> (m, costs), tables built once.

    A sample at the offset delta = fraction * h, h = 2*pi/(N+1), interpolates
    the rows Q_k of ``_cdf_table`` at delta with d barycentric weights and
    bisects for m = #{k : Q_k(delta) < u}, capped at N, in ceil(log2(N+2))
    table gathers: m is the outcome at the true time delta, and the lattice
    error of an outcome at any true time s h + delta. Its error m h - delta
    is row m of ``_cost_table``, so the same weights give its cost from d
    terms, not K cosines. Each sample depends only on its own (fraction, u),
    so the kernel gives the same errors and costs however the samples are
    split into blocks.
    """
    n_ions = amplitudes.size - 1
    table = _cdf_table(amplitudes)
    cost_table = _cost_table(cost_fn, amplitudes.size)
    steps = [1 << k for k in reversed(range(amplitudes.size.bit_length()))]

    def sample(fractions: np.ndarray, uniforms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        weights = _barycentric_weights(2.0 * fractions - 1.0)
        count = np.zeros(fractions.size, dtype=np.intp)
        for step in steps:
            row = np.minimum(count + step, amplitudes.size) - 1
            count += step * (np.einsum("ij,ij->i", table[row], weights) < uniforms)
        m = np.minimum(count, n_ions)
        return m, np.einsum("ij,ij->i", cost_table[m], weights)

    return sample


def _philox_rows(seed: int, lo: int, hi: int) -> np.ndarray:
    """Rows lo:hi of the (samples, 2) uniform block that Philox keyed by seed draws.

    Philox yields four 64-bit words per counter step and a row takes two, so
    row lo starts lo // 2 steps in, two words further on when lo is odd.
    """
    bit_generator = np.random.Philox(key=seed)
    bit_generator.advance(lo // 2)
    if lo % 2:
        bit_generator.random_raw(2)
    return np.random.Generator(bit_generator).random((hi - lo, 2))


def run_simulation(config: SimConfig) -> SimResult:
    """Simulate clock runs and aggregate the empirical statistics.

    Per sample: draw the true time's offset delta in one outcome spacing h
    from the first uniform of its row, as delta/h = frac((N+1) d) (t = 2*pi d
    would put it there), draw the lattice error m by inverse CDF from the
    second, then record the cost f(m h - delta), read from the sampler's
    cost table, and the wrapped error m h - delta. Each block of samples
    runs that whole pipeline on a worker: it draws its own rows of the
    Philox block, samples, wraps and bins its errors. Only the costs and
    wrapped errors, 16 B per sample, outlive a block. The 101 histogram bins
    are odd so one bin straddles zero error; the histogram mass always
    equals the sample count.
    """
    state = state_for(config.state_kind, config.n_ions, config.cost_label)
    cost_fn = canonical_cost(config.cost_label, config.n_ions)
    started = time.perf_counter()
    sample = _outcome_sampler(state.amplitudes, cost_fn)
    built = time.perf_counter()
    spacing = TWO_PI / (config.n_ions + 1)
    costs = np.empty(config.samples)
    errors = np.empty(config.samples)
    edges = np.linspace(-np.pi, np.pi, DEFAULT_HISTOGRAM_BINS + 1)
    rows = max(1, _BLOCK_ENTRIES // _NODE_COUNT)

    def run_block(lo: int) -> np.ndarray:
        hi = min(lo + rows, config.samples)
        draws = _philox_rows(config.seed, lo, hi)
        # t = 2*pi d = s h + delta with delta = fraction * h; s drops out
        scaled = draws[:, 0] * (config.n_ions + 1)
        fractions = scaled - np.floor(scaled)
        m, costs[lo:hi] = sample(fractions, draws[:, 1])
        errors[lo:hi] = wrap_angle(spacing * (m - fractions))
        return np.histogram(errors[lo:hi], bins=edges)[0]

    starts = range(0, config.samples, rows)
    workers = min(os.cpu_count() or 1, len(starts))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        counts = sum(pool.map(run_block, starts))
    _LOG.debug(
        "sampler: samples=%(samples)d block_rows=%(block_rows)d blocks=%(blocks)d"
        " workers=%(workers)d table_s=%(table_s).6f sampling_s=%(sampling_s).6f",
        {
            "samples": config.samples,
            "block_rows": rows,
            "blocks": len(starts),
            "workers": workers,
            "table_s": built - started,
            "sampling_s": time.perf_counter() - built,
        },
    )

    mean_cost = float(costs.mean())
    delta_t = float(np.sqrt(np.mean(errors**2)))
    if config.samples > 1:
        standard_error = float(costs.std(ddof=1) / np.sqrt(config.samples))
    else:
        standard_error = 0.0

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
        _check_kind(kind)
    for n in n_values:
        _check_n_ions(n)

    rows: list[ScanRow] = []
    for n in n_values:
        # raises on an unknown cost label before any state is built
        cost_fn = canonical_cost(cost_label, n)
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
