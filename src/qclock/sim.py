"""State kinds, seeded Monte Carlo clock runs and analytic scans over N.

One private table, ``_STATE_KINDS``, holds every fact about the named
state kinds: how to build each one, whether it needs a cost label, and
whether it is a diagnostic that only ``state_for`` (and the CLI's
``mutinfo``) offers. ``KINDS``, ``state_for``, ``SimConfig``, ``scan_n``
and the CLI's choices all read it, and ``_check_kind`` is the one check
of a kind name.

The simulator draws true times uniformly, samples outcomes from the exact
Born-rule distribution by inverse CDF, and aggregates empirical cost and
error statistics. Randomness comes from one counter-based Philox stream
keyed by the configured seed and read in order: sample i consumes row i of
the (samples, 2) uniform block that one ``random((samples, 2))`` call would
draw, so results are bitwise reproducible.

Covariance, P(t_j | t) = K(t - t_j), means only the lattice error matters:
for a true time t = s h + delta, h = 2*pi/(N+1) and delta in [0, h), the
outcome j = s + m (mod N+1) has m distributed as P(t_m | delta) whatever s
is, and its error t_j - t is m h - delta modulo 2*pi. So a sample draws
only delta/h = frac((N+1) d) from the first uniform d of its row, and m by
inverse CDF from the second, u: m = #{k : Q_k(delta) < u}, capped at N, for
the partial sums Q_k = sum_{i<=k} P(t_i | delta). One table of Q at 22
Chebyshev offsets, built once per run from the outcome kernel, serves every
sample, with a guide table (Chen & Asau's cutpoints) of a likely m per node
and level of u: a sample costs two interpolations of 22 terms that confirm
its guide start, and a bisection of ceil(log2(N+2)) interpolations only when
they do not, so O(1) table reads expected and O(log N) at worst, not an
(N+1)-entry Born row. The m equal the outcomes of the Born-row ``cumsum``
at true time delta except where u lies within roundoff (~1e-13) of a CDF
step. The cost of the error m h - delta is likewise a trigonometric
polynomial of degree <= N in delta, so a second table, of the cost at the
same offsets for each of the N+1 lattice errors, gives it with the same 22
interpolation weights instead of a K-term cosine series per sample. That
table is ``measurement._cost_on_grid``, the cancellation-free cost
evaluator that ``mean_cost_direct`` also reads.

Samples run in blocks of 2**16 // 22, one after another, in one kernel
buffer of two (block, 22) planes. A block draws the next rows of the Philox
stream, samples its lattice errors and costs, and adds its wrapped errors
to the 101 histogram counts. Only the costs and squared errors, which the
mean, RMS and standard error reduce over, are kept for every sample:
16 bytes each. The squares are freed once their mean is taken, before the
standard error's one 8-byte temporary per sample. So memory is
16 * samples + 440 (N+1) bytes of tables + O(block) at its peak, and no
per-sample array grows with N. Each block writes only its own slices and
adds exact integer counts, so the results do not depend on the block
size. One ``sampler`` record (``states._record``) gives the sample and
block counts, the samples whose guide start was bisected (``fallbacks``),
and the seconds spent building the tables and sampling.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .cost import CANONICAL_LABELS, CostFunction, canonical_cost
from .measurement import TWO_PI, estimation_report, wrap_angle, _cost_on_grid, _kernel_on_grid
from .solver import SolverConvergenceError, optimal_state
from .states import (
    ClockState,
    _check_n_ions,
    _freeze,
    _is_integer,
    _record,
    max_energy_spread_state,
    phase_state,
    product_state,
)

DEFAULT_HISTOGRAM_BINS = 101
PHASE_MATCH_TOL = 1e-9
# Interpolation weights per sampler block; bounds the kernel buffer.
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
        _freeze(self, "histogram", np.int64)
        _freeze(self, "bin_edges")


def _node_offsets(dim: int) -> np.ndarray:
    """The Chebyshev nodes mapped to offsets delta in [0, 2*pi/dim]."""
    return (np.pi / dim) * (1.0 + _NODES)


def _cdf_table(amplitudes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Outcome CDF at the Chebyshev nodes of one outcome spacing, and its guide.

    Row k of the C-contiguous (N+1, d) table holds Q_k(delta) = sum_{m<=k}
    P(t_m | delta) at the nodes delta in [0, 2*pi/(N+1)], the ``cumsum`` of
    ``_kernel_on_grid`` on the outcomes at each node: the CDF of the lattice
    error m at offset delta. Row j of the (d, N+1) int32 guide holds
    min(#{k : Q_k(node_j) < (c + 1/2)/(N+1)}, N) for c = 0..N, the outcome
    that the middle uniform of level c draws at node j: a start that is
    checked once, not searched from, misses least from the middle of its
    level (the least uniform of a level lies on a CDF step whenever the
    steps fall on level edges, as for a uniform law).
    """
    dim = amplitudes.size
    cdf = np.cumsum(_kernel_on_grid(amplitudes, dim, _node_offsets(dim)), axis=1)
    levels = (np.arange(dim) + 0.5) / dim
    guide = np.empty(cdf.shape, dtype=np.int32)
    for node_cdf, node_guide in zip(cdf, guide):
        np.minimum(np.searchsorted(node_cdf, levels), dim - 1, out=node_guide)
    return np.ascontiguousarray(cdf.T), guide


def _barycentric_weights(x: np.ndarray, work: np.ndarray) -> np.ndarray:
    """w with p(x) = w . p(_NODES) for every polynomial p of degree < d.

    The second barycentric formula, stable at Chebyshev points; an x that
    lands on a node gets that node's unit vector. The gaps x - _NODES and
    the weights are written to the first and second plane of ``work``, a
    (2, >= x.size, d) buffer.
    """
    gaps, weights = work[:, : x.size]
    np.subtract(x[:, None], _NODES, out=gaps)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(_BARYCENTRIC, gaps, out=weights)
        total = np.einsum("ij->i", weights)
        weights /= total[:, None]
    on_node = np.isinf(total)
    weights[on_node] = gaps[on_node] == 0.0
    return weights


def _interpolate(
    table: np.ndarray, rows: np.ndarray, weights: np.ndarray, gathered: np.ndarray
) -> np.ndarray:
    """Row rows[i] of an (N+1, d) node table at sample i's offset.

    The rows are gathered into ``gathered``, a (rows.size, d) buffer, and
    dotted with the sample's weights; ``clip`` maps a row -1 to row 0.
    """
    np.take(table, rows, axis=0, out=gathered, mode="clip")
    return np.einsum("ij,ij->i", gathered, weights)


def _bisect(
    table: np.ndarray, weights: np.ndarray, uniforms: np.ndarray, gathered: np.ndarray
) -> np.ndarray:
    """m = #{k : Q_k(delta) < u}, capped at N, in ceil(log2(N+2)) interpolations.

    Each step interpolates one row per sample and halves the remaining
    range; ``gathered`` is an (uniforms.size, d) buffer.
    """
    size = table.shape[0]
    count = np.zeros(uniforms.size, dtype=np.intp)
    for step in [1 << k for k in reversed(range(size.bit_length()))]:
        row = np.minimum(count + step, size) - 1
        count += step * (_interpolate(table, row, weights, gathered) < uniforms)
    return np.minimum(count, size - 1)


def _outcome_sampler(
    amplitudes: np.ndarray, cost_fn: CostFunction
) -> Callable[..., tuple[np.ndarray, np.ndarray, int]]:
    """The block kernel: (fractions, uniforms) -> (m, costs, fallbacks), tables built once.

    A sample at the offset delta = fraction * h, h = 2*pi/(N+1), interpolates
    the rows Q_k of ``_cdf_table`` at delta with d barycentric weights and
    draws m = #{k : Q_k(delta) < u}, capped at N: m is the outcome at the
    true time delta, and the lattice error of an outcome at any true time
    s h + delta. It starts at the guide entry of the nearest node and of
    the level floor(u (N+1)) and keeps that start when two interpolations,
    Q_{m-1}(delta) < u <= Q_m(delta), confirm it (the first is skipped at
    m = 0 and the second at m = N). The interpolated Q_k increase with k
    except within roundoff of a CDF step, so a confirmed start is the m that
    bisection finds; the rest, the ``fallbacks`` (a few per cent of the
    samples), are bisected in ceil(log2(N+2)) interpolations. So a sample
    costs O(1) table reads expected and O(log N) at worst. Its error
    m h - delta is row m of the cost table, ``measurement._cost_on_grid``
    on the N+1 lattice at the same offsets, so the same weights give its
    cost from d terms, not K cosines. The CDF and cost tables take
    8 d = 176 bytes per level each and the guide 4 d = 88. Each sample
    depends only on its own (fraction, u), so the kernel gives the same
    errors and costs however the samples are split into blocks. ``work``
    is a (2, >= fractions.size, d) float buffer that the kernel overwrites.
    """
    dim = amplitudes.size
    # The cost build's transforms peak higher, so it runs before the CDF
    # and the guide are held.
    cost_table = np.ascontiguousarray(_cost_on_grid(cost_fn, dim, _node_offsets(dim)).T)
    table, guide = _cdf_table(amplitudes)

    def sample(fractions: np.ndarray, uniforms: np.ndarray, work: np.ndarray):
        x = 2.0 * fractions - 1.0
        weights = _barycentric_weights(x, work)
        gathered = work[0, : fractions.size]
        node = np.rint(np.arccos(x) * ((_NODE_COUNT - 1) / np.pi)).astype(np.intp)
        level = (uniforms * dim).astype(np.intp)
        # Any start in [0, N] is safe: the check below decides.
        m = np.take(guide, node * dim + level, mode="clip").astype(np.intp)
        below = _interpolate(table, m - 1, weights, gathered)
        above = _interpolate(table, m, weights, gathered)
        missed = np.flatnonzero(
            ((m > 0) & (below >= uniforms)) | ((m < dim - 1) & (above < uniforms))
        )
        m[missed] = _bisect(table, weights[missed], uniforms[missed], gathered[: missed.size])
        return m, _interpolate(cost_table, m, weights, gathered), missed.size

    return sample


def run_simulation(config: SimConfig) -> SimResult:
    """Simulate clock runs and aggregate the empirical statistics.

    Per sample: draw the true time's offset delta in one outcome spacing h
    from the first uniform of its row, as delta/h = frac((N+1) d) (t = 2*pi d
    would put it there), draw the lattice error m by inverse CDF from the
    second, then record the cost f(m h - delta), read from the sampler's
    cost table, and the wrapped error m h - delta. Blocks of samples run
    that pipeline in turn, in one kernel buffer, each drawing the next rows
    of the one Philox stream and binning its wrapped errors. Only the costs
    and squared errors, 16 B per sample, outlive a block. The 101 histogram
    bins are odd so one bin straddles zero error; the histogram mass always
    equals the sample count.
    """
    state = state_for(config.state_kind, config.n_ions, config.cost_label)
    cost_fn = canonical_cost(config.cost_label, config.n_ions)
    started = time.perf_counter()
    sample = _outcome_sampler(state.amplitudes, cost_fn)
    built = time.perf_counter()
    spacing = TWO_PI / (config.n_ions + 1)
    costs = np.empty(config.samples)
    squares = np.empty(config.samples)
    edges = np.linspace(-np.pi, np.pi, DEFAULT_HISTOGRAM_BINS + 1)
    counts = np.zeros(DEFAULT_HISTOGRAM_BINS, dtype=np.int64)
    rows = max(1, _BLOCK_ENTRIES // _NODE_COUNT)
    starts = range(0, config.samples, rows)
    # One buffer for every block: fresh arrays made cold `simulate` 25-45 % slower.
    work = np.empty((2, rows, _NODE_COUNT))
    rng = np.random.Generator(np.random.Philox(key=config.seed))
    fallbacks = 0
    for lo in starts:
        hi = min(lo + rows, config.samples)
        draws = rng.random((hi - lo, 2))
        # t = 2*pi d = s h + delta with delta = fraction * h; s drops out
        scaled = draws[:, 0] * (config.n_ions + 1)
        fractions = scaled - np.floor(scaled)
        m, costs[lo:hi], missed = sample(fractions, draws[:, 1], work)
        errors = wrap_angle(spacing * (m - fractions))
        counts += np.histogram(errors, bins=edges)[0]
        np.square(errors, out=squares[lo:hi])
        fallbacks += missed
    _record("sampler", {
        "samples": config.samples,
        "block_rows": rows,
        "blocks": len(starts),
        "fallbacks": fallbacks,
        "table_s": built - started,
        "sampling_s": time.perf_counter() - built,
    })

    mean_cost = float(costs.mean())
    delta_t = float(np.sqrt(squares.mean()))
    del squares  # before costs.std's temporary
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
