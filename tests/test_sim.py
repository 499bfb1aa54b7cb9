import logging
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qclock import (
    KINDS,
    CostMatrix,
    SimConfig,
    canonical_cost,
    circular_rms_error,
    cost_matrix,
    evaluate_cost,
    mean_cost_bound,
    phase_state,
    run_simulation,
    scan_n,
    smallest_eigenpair,
    state_for,
)
from qclock import cli
from qclock.cost import CANONICAL_LABELS, _smooth_size
from qclock.measurement import _cost_on_grid, _kernel_on_grid, measurement_times
from qclock.sim import DEFAULT_HISTOGRAM_BINS
from qclock.solver import SolverConvergenceError
import qclock.sim as sim_module

from oracles import (
    bernstein_band,
    cost_at_outcome_mp,
    cost_second_moment_mp,
    g_test_p_value,
    random_clock_amplitudes,
    wrapped_error_bin_probabilities,
    wrapped_error_bin_probabilities_mp,
    wrapped_error_moment_mp,
    wrapped_error_moments,
)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig("phase", 20, "sin2", 0, 0)  # samples
    with pytest.raises(ValueError):
        SimConfig("phase", 0, "sin2", 10, 0)  # n_ions
    with pytest.raises(ValueError):
        SimConfig("spiral", 20, "sin2", 10, 0)  # kind
    with pytest.raises(ValueError):
        SimConfig("phase", 20, "quartic", 10, 0)  # cost label
    with pytest.raises(ValueError):
        SimConfig("phase", 20, "sin2", 10, -1)  # seed
    with pytest.raises(ValueError):
        SimConfig("phase", 20, "sin2", 10, 2**64)  # seed
    with pytest.raises(ValueError):
        SimConfig("phase", 5, "sin2", 1000, 1.5)  # non-integral seed
    with pytest.raises(ValueError):
        SimConfig("phase", 5, "sin2", 10.5, 0)  # non-integral samples
    with pytest.raises(ValueError):
        SimConfig("phase", 5, "sin2", True, 0)  # bool samples
    with pytest.raises(ValueError):
        SimConfig("phase", 5.0, "sin2", 10, 0)  # float n_ions
    # Python and NumPy integers are both accepted
    SimConfig("phase", np.int64(5), "sin2", np.int32(10), np.uint64(2**64 - 1))


def test_state_for_validation():
    with pytest.raises(ValueError):
        state_for("optimal", 5)  # missing cost label
    with pytest.raises(ValueError):
        state_for("spiral", 5)
    basis = state_for("basis", 8)
    assert basis.amplitudes[4] == 1.0


def test_single_sample_run_is_deterministic():
    config = SimConfig("phase", 6, "sin2", 1, 1234)
    first = run_simulation(config)
    second = run_simulation(config)
    assert first.empirical_mean_cost == second.empirical_mean_cost
    assert first.empirical_delta_t == second.empirical_delta_t
    assert first.standard_error_cost == 0.0
    assert np.array_equal(first.histogram, second.histogram)


def test_runs_are_bitwise_reproducible():
    config = SimConfig("product", 12, "abs", 5000, 987654321)
    first = run_simulation(config)
    second = run_simulation(config)
    assert first.empirical_mean_cost == second.empirical_mean_cost
    assert first.empirical_delta_t == second.empirical_delta_t
    assert first.standard_error_cost == second.standard_error_cost
    assert np.array_equal(first.histogram, second.histogram)
    assert np.array_equal(first.bin_edges, second.bin_edges)


def test_histogram_mass_and_binning():
    config = SimConfig("phase", 10, "sin2", 2000, 7)
    result = run_simulation(config)
    assert int(result.histogram.sum()) == 2000
    assert result.histogram.size == 101
    edges = result.bin_edges
    assert abs(edges[0] + np.pi) <= 1e-12 and abs(edges[-1] - np.pi) <= 1e-12
    middle = result.histogram.size // 2
    assert edges[middle] < 0.0 < edges[middle + 1]  # one bin straddles zero


def test_errors_outside_the_histogram_raise(monkeypatch):
    monkeypatch.setattr(sim_module, "wrap_angle", lambda x: np.full_like(x, np.nan))
    with pytest.raises(RuntimeError, match="^histogram lost samples; wrapped errors out of range$"):
        run_simulation(SimConfig("phase", 10, "sin2", 2000, 7))


# (kind, N, cost, samples, seed), then float.hex of the mean cost, delta_t
# and standard error, then the histogram counts (a dict holds only the
# nonzero bins). Re-pinned when the sampler drew the lattice error m at the
# offset delta instead of the outcome at the true time: the same law, but a
# given uniform now picks another outcome. Each mean cost lies within 5
# standard errors of ``mean_cost_bound``.
GOLDEN_RUNS = [
    (
        ("optimal", 300, "sin2", 20000, 1),
        ("0x1.b9e1fe58f2711p-14", "0x1.5058d19dd269fp-7", "0x1.f6b8f4a0de657p-20"),
        {48: 2, 49: 57, 50: 19896, 51: 44, 52: 1},
    ),
    (
        ("product", 200, "abs", 20000, 2),
        ("0x1.cee30d273eec5p-5", "0x1.221d124155482p-4", "0x1.3c9f5938cbf0fp-12"),
        {45: 1, 46: 14, 47: 242, 48: 1609, 49: 4637, 50: 6806, 51: 4769, 52: 1622, 53: 275,
        54: 25},
    ),
    (
        ("max_spread", 33, "abs_sin_half", 5000, 11),
        ("0x1.43c4ae694c901p-1", "0x1.cf6f0fbb5fa8fp+0", "0x1.202bdb4bf343ap-8"),
        [30, 86, 41, 24, 85, 36, 15, 76, 48, 20, 86, 52, 11, 82, 61, 7, 87, 53, 11, 86, 57,
        9, 82, 51, 7, 80, 57, 13, 66, 70, 6, 65, 88, 10, 70, 96, 14, 51, 79, 18, 42, 90, 15,
        47, 93, 23, 34, 87, 27, 35, 86, 37, 28, 82, 50, 22, 107, 44, 14, 87, 49, 15, 82, 43,
        12, 75, 50, 8, 89, 70, 8, 76, 49, 6, 56, 63, 5, 59, 65, 8, 71, 75, 12, 60, 82, 13,
        40, 92, 16, 49, 87, 11, 38, 92, 22, 39, 92, 28, 31, 102, 24],
    ),
    (
        ("phase", 1, "sin2", 3000, 5),
        ("0x1.ff2266ae2f8f6p-1", "0x1.21d5dc57df30dp+0", "0x1.27d285ac0b66fp-6"),
        [1, 1, 0, 0, 1, 2, 3, 1, 3, 5, 8, 5, 10, 8, 13, 19, 11, 14, 21, 23, 8, 22, 24, 33,
        32, 33, 40, 39, 34, 46, 38, 39, 50, 40, 45, 66, 49, 48, 49, 53, 63, 54, 55, 52, 51,
        53, 55, 67, 49, 60, 67, 48, 64, 59, 56, 60, 65, 60, 50, 43, 63, 47, 60, 58, 38, 50,
        48, 39, 32, 41, 43, 29, 39, 27, 33, 32, 22, 33, 24, 28, 17, 15, 23, 13, 15, 11, 9,
        9, 8, 5, 3, 4, 7, 1, 3, 2, 0, 1, 0, 0, 0],
    ),
    (
        ("phase", 17, "neg_delta", 4000, 2**63 + 12345),
        ("-0x1.6f2b629b68968p+1", "0x1.7b72851def88dp-2", "0x1.21c24ad344f30p-5"),
        [0, 1, 0, 1, 2, 0, 1, 1, 0, 0, 0, 1, 1, 2, 4, 1, 0, 0, 2, 2, 2, 0, 0, 0, 4, 5, 0, 0,
        0, 2, 4, 5, 3, 1, 1, 7, 15, 14, 3, 0, 5, 25, 48, 16, 8, 16, 92, 263, 493, 679, 697,
        609, 438, 241, 83, 8, 2, 19, 32, 34, 12, 0, 1, 14, 11, 10, 1, 0, 3, 4, 11, 3, 0, 2,
        0, 2, 5, 1, 0, 0, 4, 3, 0, 0, 0, 1, 1, 3, 2, 0, 0, 0, 1, 3, 0, 0, 1, 2, 1, 5, 0],
    ),
]


@pytest.mark.parametrize("config, scalars, counts", GOLDEN_RUNS)
def test_run_simulation_golden_outputs(config, scalars, counts):
    result = run_simulation(SimConfig(*config))
    observed = (
        result.empirical_mean_cost.hex(),
        result.empirical_delta_t.hex(),
        result.standard_error_cost.hex(),
    )
    assert observed == scalars
    kind, n_ions, label, _, _ = config
    bound = mean_cost_bound(state_for(kind, n_ions, label), canonical_cost(label, n_ions))
    assert abs(result.empirical_mean_cost - bound) <= 5.0 * result.standard_error_cost
    if isinstance(counts, dict):
        expected = np.zeros(DEFAULT_HISTOGRAM_BINS, dtype=np.int64)
        expected[list(counts)] = list(counts.values())
    else:
        expected = np.array(counts)
    assert result.histogram.tolist() == expected.tolist()


def _squared_cost_column(f, n_ions):
    """First column of the Toeplitz matrix of f^2, for ``CostMatrix``.

    f's two-sided cosine coefficients are w0 at lag 0 and -w_k/2 at lags
    +-k; f^2's are their self-convolution, cut at lag N because the outcome
    kernel carries no higher frequency. For sin2 the column is (6, -4, 1).
    """
    phi = np.concatenate([-0.5 * f.coefficients[::-1], [f.w0], -0.5 * f.coefficients])
    lags = np.convolve(phi, phi)[2 * f.order :][: n_ions + 1]
    return np.concatenate([lags, np.zeros(n_ions + 1 - lags.size)])


def _exact_cost_moments(state, f):
    """E[f] and E[f^2] of a state's cost under the covariant measurement."""
    a = state.amplitudes
    second = CostMatrix(_squared_cost_column(f, state.n_ions)).quadratic_form(a) / (a @ a)
    return mean_cost_bound(state, f), second


@pytest.mark.parametrize("label", CANONICAL_LABELS)
@pytest.mark.parametrize("kind, n_ions", [("product", 5), ("optimal", 3), ("max_spread", 6),
                                          ("phase", 8)])
def test_exact_cost_second_moment_matches_mpmath_quadrature(label, kind, n_ions):
    state, f = state_for(kind, n_ions, label), canonical_cost(label, n_ions)
    _, second = _exact_cost_moments(state, f)
    reference = cost_second_moment_mp(f.w0, f.coefficients, state.amplitudes)
    assert second == pytest.approx(reference, rel=1e-14)


def test_sin2_squared_cost_column():
    column = _squared_cost_column(canonical_cost("sin2", 6), 6)
    assert column.tolist() == [6.0, -4.0, 1.0, 0.0, 0.0, 0.0, 0.0]


@pytest.mark.parametrize("config", [config for config, _, _ in GOLDEN_RUNS])
def test_golden_means_lie_in_the_bernstein_band(config):
    # Costs lie within 2 sum_k w_k of their mean. For sin2 the band is
    # loose (range 4, mean ~1e-4); it holds by theorem.
    kind, n_ions, label, samples, _ = config
    f = canonical_cost(label, n_ions)
    mean, second = _exact_cost_moments(state_for(kind, n_ions, label), f)
    band = bernstein_band(samples, second - mean**2, 2.0 * f.coefficients.sum())
    result = run_simulation(SimConfig(*config))
    assert abs(result.empirical_mean_cost - mean) <= band


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_wrapped_error_moments_match_mpmath_quadrature(n_ions, seed):
    amplitudes = random_clock_amplitudes(np.random.default_rng(seed), n_ions + 1)
    second, fourth = wrapped_error_moments(amplitudes)
    assert abs(second - wrapped_error_moment_mp(amplitudes, 2)) <= 1e-14
    assert abs(fourth - wrapped_error_moment_mp(amplitudes, 4)) <= 1e-13


@pytest.mark.parametrize("config", [config for config, _, _ in GOLDEN_RUNS])
def test_wrapped_error_second_moment_is_the_squared_rms_error(config):
    # The series starts at pi^2/3 and cancels down to Delta_t^2: a few eps
    # of pi^2/3 absolute, 1.1e-15 at the optimum for N = 300.
    state = state_for(*config[:3])
    second, _ = wrapped_error_moments(state.amplitudes)
    assert abs(second - circular_rms_error(state) ** 2) <= 1e-14


@pytest.mark.parametrize("config", [config for config, _, _ in GOLDEN_RUNS])
def test_golden_delta_t_lies_in_the_bernstein_band(config):
    # empirical_delta_t^2 is the mean of the squared wrapped errors, which
    # lie in [0, pi^2]; their variance is E[T^4] - E[T^2]^2. The pins sit
    # 3.1e-6, 1.7e-5, 1.1e-2, 8.1e-3 and 1.7e-2 from E[T^2], in bands of
    # 4.8e-3, 4.8e-3, 0.23, 0.17 and 0.079.
    kind, n_ions, label, samples, _ = config
    second, fourth = wrapped_error_moments(state_for(kind, n_ions, label).amplitudes)
    band = bernstein_band(samples, fourth - second**2, np.pi**2)
    result = run_simulation(SimConfig(*config))
    assert abs(result.empirical_delta_t**2 - second) <= band


@pytest.mark.parametrize("config", [config for config, _, _ in GOLDEN_RUNS])
def test_golden_histograms_pass_a_g_test_against_the_exact_law(config):
    # Bins pooled to >= 5 expected counts; the pins read p = 0.37, 0.48,
    # 0.87, 0.74 and 0.23 on 2, 8, 100, 86 and 44 degrees of freedom.
    kind, n_ions, label, _, _ = config
    result = run_simulation(SimConfig(*config))
    law = wrapped_error_bin_probabilities(
        state_for(kind, n_ions, label).amplitudes, result.bin_edges
    )
    assert g_test_p_value(result.histogram, law) >= 1e-6


@pytest.mark.parametrize("kind, n_ions", [("optimal", 300), ("max_spread", 33), ("phase", 1),
                                          ("product", 200)])
def test_wrapped_error_bin_law_sums_to_one(kind, n_ions):
    edges = np.linspace(-np.pi, np.pi, DEFAULT_HISTOGRAM_BINS + 1)
    law = wrapped_error_bin_probabilities(state_for(kind, n_ions, "sin2").amplitudes, edges)
    assert abs(law.sum() - 1.0) <= 1e-14


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.integers(2, 40))
def test_wrapped_error_bin_law_matches_mpmath(n_ions, seed, bins):
    rng = np.random.default_rng(seed)
    amplitudes = random_clock_amplitudes(rng, n_ions + 1)
    edges = np.concatenate([[-np.pi], np.sort(rng.uniform(-np.pi, np.pi, bins - 1)), [np.pi]])
    law = wrapped_error_bin_probabilities(amplitudes, edges)
    assert abs(law.sum() - 1.0) <= 1e-14
    assert np.max(np.abs(law - wrapped_error_bin_probabilities_mp(amplitudes, edges))) <= 1e-14


def _work(samples):
    """A sampler kernel buffer for ``samples`` draws: two (samples, d) planes."""
    return np.empty((2, samples, sim_module._NODE_COUNT))


def _sampler_record(caplog, config):
    """The fields of the sampler's one DEBUG record for a run of ``config``."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="qclock"):
        run_simulation(config)
    (record,) = [r for r in caplog.records if r.getMessage().startswith("sampler:")]
    return record.args


@pytest.mark.parametrize("config", [config for config, _, _ in GOLDEN_RUNS])
def test_guide_starts_hold_for_most_samples(caplog, config):
    # The guide's start is confirmed by two interpolations; only the rest
    # pay for a bisection. max_spread's K oscillates at frequency N, so its
    # CDF moves one outcome per h/N of offset, and a start read at the
    # nearest of 22 nodes misses for 36% of its samples (measured).
    fields = _sampler_record(caplog, SimConfig(*config))
    share = 0.4 if config[0] == "max_spread" else 0.1
    assert fields["fallbacks"] <= share * config[3]


@pytest.mark.parametrize("config", [config for config, _, _ in GOLDEN_RUNS])
def test_sampler_costs_match_mpmath_series(config):
    # The first 256 samples of each golden run: the tabulated cost against
    # the truncated series at the exact error 2 pi m/(N+1) - t, t = fraction
    # * h, with at most twice the error of the series summed at the rounded
    # float error.
    kind, n_ions, label, samples, seed = config
    f = canonical_cost(label, n_ions)
    draws = np.random.Generator(np.random.Philox(key=seed)).random((samples, 2))[:256]
    fractions = np.modf(draws[:, 0] * (n_ions + 1))[0]
    times = fractions * (2.0 * np.pi / (n_ions + 1))
    amplitudes = state_for(kind, n_ions, label).amplitudes
    sample = sim_module._outcome_sampler(amplitudes, f)
    m, costs, _ = sample(fractions, draws[:, 1], _work(fractions.size))
    reference = np.array([
        cost_at_outcome_mp(f.w0, f.coefficients, j, n_ions + 1, t)
        for j, t in zip(m.tolist(), times)
    ])
    direct = evaluate_cost(f, measurement_times(n_ions)[m] - times)
    scale = abs(f.w0) + f.coefficients.sum()
    allowed = 2.0 * np.max(np.abs(direct - reference)) + 4.0 * np.finfo(float).eps * scale
    assert np.max(np.abs(costs - reference)) <= allowed


@pytest.mark.parametrize("label", ["abs", "abs_sin_half", "neg_delta", "sin2"])
def test_cost_table_matches_mpmath_series(label):
    # The sampler's table: rows next to zero error, where w0 - sum_k w_k
    # cos(k x) cancels, and far from it, where the factored form would lose
    # ~eps K^2 (neg_delta). Then two grids at shift 0: G = 8 (N + K), whose
    # nodes g = 1, 2 next to zero error keep their relative digits (the
    # first form alone left sin2 4e-12 off there), and the grid that
    # mean_cost_direct reads, _smooth_size(N + K + 1): 625 nodes for abs,
    # abs_sin_half and neg_delta, 320 for sin2, all within 0.64 eps * scale.
    # Its g = 1, 2 are not checked relative: neg_delta reads 4.2 eps there.
    n_ions = 300
    f = canonical_cost(label, n_ions)
    scale = abs(f.w0) + f.coefficients.sum()
    eps = np.finfo(float).eps
    offsets = (np.pi / (n_ions + 1)) * (1.0 + sim_module._NODES)
    rows = [0, 1, n_ions // 3, n_ions]
    table = _cost_on_grid(f, n_ions + 1, offsets)[:, rows].T
    reference = np.array([
        [cost_at_outcome_mp(f.w0, f.coefficients, m, n_ions + 1, delta) for delta in offsets]
        for m in rows
    ])
    assert np.max(np.abs(table - reference)) <= 4.0 * eps * scale
    for grid_size in (_smooth_size(n_ions + 1 + f.order), 8 * (n_ions + f.order)):
        nodes = [0, 1, 2, grid_size // 3, grid_size // 2, grid_size - 1]
        costs = _cost_on_grid(f, grid_size)[nodes]
        reference = np.array([
            cost_at_outcome_mp(f.w0, f.coefficients, g, grid_size, 0.0) for g in nodes
        ])
        assert np.max(np.abs(costs - reference)) <= 4.0 * eps * scale
    assert np.all(np.abs(costs[1:3] - reference[1:3]) <= 4.0 * eps * np.abs(reference[1:3]))


def test_sampler_mean_cost_keeps_its_digits_where_the_cost_is_small():
    # The sin2 optimum at N = 10^4 has errors ~1e-4 and costs ~1e-7, where
    # w0 - w_1 cos(x) cancels; a cost table of that form alone puts the mean
    # ~2e-9 relative off, the cosine series at each float error ~4e-12.
    n_ions = 10**4
    f = canonical_cost("sin2", n_ions)
    draws = np.random.Generator(np.random.Philox(key=3)).random((2000, 2))
    fractions = np.modf(draws[:, 0] * (n_ions + 1))[0]
    times = fractions * (2.0 * np.pi / (n_ions + 1))
    amplitudes = state_for("optimal", n_ions, "sin2").amplitudes
    sample = sim_module._outcome_sampler(amplitudes, f)
    m, costs, _ = sample(fractions, draws[:, 1], _work(fractions.size))
    reference = np.mean([
        cost_at_outcome_mp(f.w0, f.coefficients, j, n_ions + 1, t)
        for j, t in zip(m.tolist(), times)
    ])
    assert abs(costs.mean() - reference) <= 1e-13 * reference


def _result_fields(result):
    return (
        result.empirical_mean_cost.hex(),
        result.empirical_delta_t.hex(),
        result.standard_error_cost.hex(),
        result.histogram.tolist(),
        result.bin_edges.tolist(),
    )


# Odd row counts split a Philox counter step (four words, two rows) between
# blocks; each seed starts the stream at a different key.
@pytest.mark.parametrize("rows", [1, 2, 3, 7, 13, 4096])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_results_do_not_depend_on_blocking(monkeypatch, rows, seed):
    config = SimConfig("optimal", 40, "abs", 3000, seed)
    expected = _result_fields(run_simulation(config))
    monkeypatch.setattr(sim_module, "_BLOCK_ENTRIES", rows * 41)
    assert _result_fields(run_simulation(config)) == expected


def test_simulation_memory_is_bounded():
    # The unblocked sampler held two (samples x (N+1)) float arrays, 80 MB each.
    config = SimConfig("phase", 1000, "sin2", 10**4, 8)
    tracemalloc.start()
    try:
        run_simulation(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2**20


def test_million_sample_run_holds_two_sample_arrays():
    # Drawing the whole (samples, 2) block up front and keeping outcomes,
    # estimates and their temporaries peaked at 68.7 MB; the costs and the
    # wrapped errors alone are 16 MB.
    config = SimConfig("optimal", 300, "sin2", 10**6, 1)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        run_simulation(config)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20
    assert elapsed <= 2.0


def test_sampler_logs_one_debug_record(caplog, capsys):
    argv = ["simulate", "--kind", "phase", "--n", "8", "--cost", "sin2",
            "--samples", "7000", "--seed", "4"]
    assert cli.main(argv) == 0
    quiet = capsys.readouterr().out
    assert not caplog.records
    with caplog.at_level(logging.DEBUG, logger="qclock"):
        assert cli.main(argv) == 0
    assert capsys.readouterr().out == quiet
    (record,) = caplog.records
    assert record.name == "qclock" and record.levelno == logging.DEBUG
    fields = record.args
    rows = sim_module._BLOCK_ENTRIES // sim_module._NODE_COUNT
    assert (fields["samples"], fields["block_rows"]) == (7000, rows)
    assert fields["blocks"] == -(-7000 // rows)
    assert fields["table_s"] >= 0.0 and fields["sampling_s"] > 0.0
    assert "sampler: samples=7000" in record.getMessage()
    # the samples whose guide start failed its check, counted by the kernel
    draws = np.random.Generator(np.random.Philox(key=4)).random((7000, 2))
    fractions = np.modf(draws[:, 0] * 9)[0]
    sample = sim_module._outcome_sampler(phase_state(8).amplitudes, canonical_cost("sin2", 8))
    fallbacks = sample(fractions, draws[:, 1], _work(fractions.size))[2]
    assert 0 < fields["fallbacks"] == fallbacks < 7000
    assert f"fallbacks={fallbacks} " in record.getMessage()


def _row_cdfs(amplitudes, times):
    """Ascending CDF of each time's full Born row, in bounded chunks."""
    return np.concatenate(
        [np.cumsum(_kernel_on_grid(amplitudes, amplitudes.size, times[lo : lo + 256]), axis=1)
         for lo in range(0, times.size, 256)]
    )


def _reference_outcomes(amplitudes, times, uniforms):
    """#{j : u > cumsum(P(t_j | t))_j}, capped at N: the Born-row sampler."""
    counts = np.count_nonzero(uniforms[:, None] > _row_cdfs(amplitudes, times), axis=1)
    return np.minimum(counts, amplitudes.size - 1)


@pytest.mark.parametrize("n_ions", [1, 2, 7, 40, 301, 1000])
@pytest.mark.parametrize("cost", ["sin2", "abs"])
@pytest.mark.parametrize("kind", KINDS)
def test_sampler_matches_born_row_inverse_cdf(kind, cost, n_ions):
    # The lattice error m at offset delta is the outcome at true time delta.
    amplitudes = state_for(kind, n_ions, cost).amplitudes
    rng = np.random.default_rng([n_ions, KINDS.index(kind), len(cost)])
    fractions = rng.random(3000)
    uniforms = rng.random(3000)
    times = fractions * (2.0 * np.pi / (n_ions + 1))
    sample = sim_module._outcome_sampler(amplitudes, canonical_cost(cost, n_ions))
    observed, _, _ = sample(fractions, uniforms, _work(fractions.size))
    assert observed.tolist() == _reference_outcomes(amplitudes, times, uniforms).tolist()


@pytest.mark.parametrize("n_ions", [1, 40, 301, 2000])
@pytest.mark.parametrize("kind", ["max_spread", "optimal"])
def test_interpolated_cdf_matches_born_row_cumsum(kind, n_ions):
    # The rows of the Chebyshev table interpolated at delta = fraction * h
    # are the CDF of the Born row at true time delta.
    amplitudes = state_for(kind, n_ions, "sin2").amplitudes
    fractions = np.random.default_rng(n_ions).random(200)
    times = fractions * (2.0 * np.pi / (n_ions + 1))
    weights = sim_module._barycentric_weights(2.0 * fractions - 1.0, _work(fractions.size))
    interpolated = weights @ sim_module._cdf_table(amplitudes)[0].T
    assert np.max(np.abs(interpolated - _row_cdfs(amplitudes, times))) <= 1e-12


def test_barycentric_weights_on_a_node_are_its_unit_vector():
    weights = sim_module._barycentric_weights(np.array([-1.0, 1.0, 0.3]), _work(3))
    assert weights[0].tolist() == np.eye(weights.shape[1])[-1].tolist()
    assert weights[1].tolist() == np.eye(weights.shape[1])[0].tolist()
    assert np.isfinite(weights).all()
    assert weights[2].sum() == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("n_ions", [1, 2, 7, 64, 300])
@pytest.mark.parametrize("kind", ["phase", "max_spread", "optimal"])
def test_sampler_edge_times(kind, n_ions):
    # Offsets on the outcome grid (delta = 0), just below one spacing, and
    # on each Chebyshev node, where the weights are a unit vector.
    amplitudes = state_for(kind, n_ions, "abs").amplitudes
    edges = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], 0.5 * (1.0 + sim_module._NODES)])
    fractions = np.repeat(edges, 20)
    times = fractions * (2.0 * np.pi / (n_ions + 1))
    uniforms = np.random.default_rng(n_ions).random(times.size)
    sample = sim_module._outcome_sampler(amplitudes, canonical_cost("abs", n_ions))
    observed, _, _ = sample(fractions, uniforms, _work(fractions.size))
    assert observed.tolist() == _reference_outcomes(amplitudes, times, uniforms).tolist()


def _bisected_draws(amplitudes, cost_fn, fractions, uniforms):
    """Every sample bisected: the reference (m, costs) of the guided kernel."""
    dim = amplitudes.size
    table, _ = sim_module._cdf_table(amplitudes)
    weights = sim_module._barycentric_weights(2.0 * fractions - 1.0, _work(fractions.size))
    m = sim_module._bisect(table, weights, uniforms, np.empty_like(weights))
    offsets = sim_module._node_offsets(dim)
    cost_table = np.ascontiguousarray(_cost_on_grid(cost_fn, dim, offsets).T)
    return m, np.einsum("ij,ij->i", cost_table[m], weights)


def _edge_draws(amplitudes, seed):
    """Every pairing of edge and random fractions with edge and random uniforms.

    Fractions 0, nextafter(1, 0) and the 22 node fractions; uniforms 0,
    nextafter(1, 0) and tabulated values Q_k(node_j), which a sample at
    node j meets exactly (12 of the 22 node fractions map back onto their
    node in floats) or to roundoff.
    """
    rng = np.random.default_rng(seed)
    below_one = np.nextafter(1.0, 0.0)
    tabulated = sim_module._cdf_table(amplitudes)[0].ravel()
    fractions = np.concatenate(
        [[0.0, below_one], 0.5 * (1.0 + sim_module._NODES), rng.random(100)]
    )
    uniforms = np.concatenate(
        [[0.0, below_one], rng.choice(tabulated[tabulated < 1.0], 40), rng.random(100)]
    )
    fractions, uniforms = np.meshgrid(fractions, uniforms)
    return fractions.ravel(), uniforms.ravel()


@st.composite
def sampler_cases(draw):
    n = draw(st.integers(1, 400))
    raw = draw(st.lists(st.floats(-1.0, 1.0), min_size=n + 1, max_size=n + 1))
    amplitudes = np.array(raw)
    norm = np.linalg.norm(amplitudes)
    if norm < 1e-3:
        amplitudes = np.ones(n + 1)
        norm = np.sqrt(n + 1)
    return amplitudes / norm, draw(st.sampled_from(CANONICAL_LABELS)), draw(st.integers(0, 2**32))


# The phase state's CDF is flat to roundoff away from its peak, at offsets
# next to 0 and h, where interpolated rows can fall out of order.
@example(case=(phase_state(1).amplitudes, "sin2", 0))
@example(case=(phase_state(17).amplitudes, "neg_delta", 1))
@example(case=(phase_state(400).amplitudes, "abs", 2))
@settings(max_examples=30, deadline=None)
@given(case=sampler_cases())
def test_guided_draws_equal_bisected_draws(case):
    amplitudes, label, seed = case
    cost_fn = canonical_cost(label, amplitudes.size - 1)
    fractions, uniforms = _edge_draws(amplitudes, seed)
    sample = sim_module._outcome_sampler(amplitudes, cost_fn)
    m, costs, _ = sample(fractions, uniforms, _work(fractions.size))
    expected_m, expected_costs = _bisected_draws(amplitudes, cost_fn, fractions, uniforms)
    assert m.tolist() == expected_m.tolist()
    assert costs.tobytes() == expected_costs.tobytes()


@pytest.mark.parametrize("start", ["zero", "top"])
@pytest.mark.parametrize("config", [config for config, _, _ in GOLDEN_RUNS])
def test_forced_fallbacks_give_the_same_draws(monkeypatch, config, start):
    # A guide of all 0 or all N confirms only the samples whose m it names;
    # every other sample is bisected, to the same m and cost.
    kind, n_ions, label, samples, seed = config
    amplitudes = state_for(kind, n_ions, label).amplitudes
    cost_fn = canonical_cost(label, n_ions)
    draws = np.random.Generator(np.random.Philox(key=seed)).random((samples, 2))
    fractions = np.modf(draws[:, 0] * (n_ions + 1))[0]
    sample = sim_module._outcome_sampler(amplitudes, cost_fn)
    m, costs, _ = sample(fractions, draws[:, 1], _work(fractions.size))
    pinned = 0 if start == "zero" else n_ions
    cdf_table = sim_module._cdf_table

    def pinned_guide(amplitudes):
        table, guide = cdf_table(amplitudes)
        return table, np.full_like(guide, pinned)

    monkeypatch.setattr(sim_module, "_cdf_table", pinned_guide)
    sample = sim_module._outcome_sampler(amplitudes, cost_fn)
    forced_m, forced_costs, fallbacks = sample(fractions, draws[:, 1], _work(fractions.size))
    assert forced_m.tolist() == m.tolist()
    assert forced_costs.tobytes() == costs.tobytes()
    assert fallbacks == np.count_nonzero(m != pinned)


def test_sampler_tables_take_440_bytes_per_level():
    # CDF and cost tables 176 B per level each, the guide 88 B. Built after
    # the cost table, the CDF and the guide add nothing to the build's peak,
    # 2.4x the tables (the table pair without a guide peaked at 3.5x).
    n_ions = 10**5
    amplitudes = state_for("product", n_ions).amplitudes
    cost_fn = canonical_cost("sin2", n_ions)
    tracemalloc.start()
    try:
        sample = sim_module._outcome_sampler(amplitudes, cost_fn)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(
        cell.cell_contents.nbytes
        for cell in sample.__closure__
        if isinstance(cell.cell_contents, np.ndarray)
    )
    assert held <= 440 * (n_ions + 1)
    assert peak <= 3 * held


def test_sampler_reaches_the_asymptotic_cost_at_n_1e5():
    # The Born-row sampler, O(N log N) per sample, took ~110 s on 2 vCPUs.
    n_ions = 10**5
    start = time.perf_counter()
    result = run_simulation(SimConfig("optimal", n_ions, "sin2", 10**4, 17))
    elapsed = time.perf_counter() - start
    target = 2.0 - 2.0 * np.cos(np.pi / (n_ions + 2))
    assert abs(result.empirical_mean_cost - target) <= 5.0 * result.standard_error_cost
    assert elapsed <= 5.0


def test_abs_monte_carlo_at_n_1e5_matches_the_bound():
    # With a 10^5-term cosine series per sample this run took ~17 s.
    n_ions = 10**5
    start = time.perf_counter()
    result = run_simulation(SimConfig("product", n_ions, "abs", 10**4, 19))
    elapsed = time.perf_counter() - start
    target = mean_cost_bound(state_for("product", n_ions), canonical_cost("abs", n_ions))
    assert abs(result.empirical_mean_cost - target) <= 5.0 * result.standard_error_cost
    assert elapsed <= 3.0


def test_phase_state_monte_carlo_matches_analytic_cost():
    result = run_simulation(SimConfig("phase", 20, "sin2", 10**5, 42))
    assert abs(result.empirical_mean_cost - 2.0 / 21.0) <= 4.0 * result.standard_error_cost


def test_optimal_state_monte_carlo_matches_eigenvalue():
    result = run_simulation(SimConfig("optimal", 20, "sin2", 20000, 3))
    target = smallest_eigenpair(cost_matrix(canonical_cost("sin2", 1), 20)).eigenvalue
    assert abs(result.empirical_mean_cost - target) <= 4.0 * result.standard_error_cost


def test_two_sigma_coverage_over_twenty_seeds():
    analytic = 2.0 / 21.0
    inside = 0
    for seed in range(20):
        result = run_simulation(SimConfig("phase", 20, "sin2", 10**5, seed))
        if abs(result.empirical_mean_cost - analytic) <= 2.0 * result.standard_error_cost:
            inside += 1
    assert inside >= 17


def test_phase_state_empirical_error_exceeds_optimal():
    phase = run_simulation(SimConfig("phase", 20, "sin2", 10**5, 5))
    optimal = run_simulation(SimConfig("optimal", 20, "sin2", 10**5, 5))
    assert phase.empirical_delta_t**2 > optimal.empirical_delta_t**2


def test_scan_validation():
    with pytest.raises(ValueError):
        scan_n(["phase"], "sin2", [])
    with pytest.raises(ValueError):
        scan_n(["phase"], "sin2", [0, 3])
    with pytest.raises(ValueError):
        scan_n(["spiral"], "sin2", [3])
    with pytest.raises(ValueError):
        scan_n([], "sin2", [3])
    with pytest.raises(ValueError):
        scan_n(["phase"], "quartic", [3])


def test_scan_phase_costs_follow_closed_form():
    rows = scan_n(["phase"], "sin2", [3, 7, 15])
    assert [row.mean_cost for row in rows] == pytest.approx([0.5, 0.25, 0.125], abs=1e-12)
    assert all(row.matches_phase_state for row in rows)
    assert all(row.error is None for row in rows)


def test_scan_optimal_equals_product_at_n2():
    rows = {row.kind: row for row in scan_n(["product", "phase", "optimal"], "sin2", [2])}
    assert rows["optimal"].mean_cost == pytest.approx(rows["product"].mean_cost, abs=1e-12)
    assert rows["optimal"].delta_t == pytest.approx(rows["product"].delta_t, abs=1e-9)
    assert rows["optimal"].mutual_information_bits == pytest.approx(
        rows["product"].mutual_information_bits, abs=1e-9
    )


def test_scan_optimal_cost_quarters_when_n_doubles():
    rows = {row.n_ions: row for row in scan_n(["optimal"], "sin2", [31, 63])}
    ratio = rows[31].mean_cost / rows[63].mean_cost
    assert abs(ratio - 4.0) <= 0.4


def test_scan_flags_neg_delta_optimum_as_phase_state():
    (row,) = scan_n(["optimal"], "neg_delta", [5])
    assert row.matches_phase_state
    assert row.mean_cost == pytest.approx(-6.0 / (2.0 * np.pi), abs=1e-9)


def test_scan_reports_solver_failure_per_row(monkeypatch):
    def failing_state_for(kind, n_ions, cost_label=None):
        if kind == "optimal":
            raise SolverConvergenceError("synthetic failure")
        return state_for(kind, n_ions, cost_label)

    monkeypatch.setattr(sim_module, "state_for", failing_state_for)
    rows = scan_n(["phase", "optimal"], "sin2", [4])
    by_kind = {row.kind: row for row in rows}
    assert by_kind["phase"].error is None
    assert by_kind["phase"].mean_cost == pytest.approx(0.4, abs=1e-12)
    assert by_kind["optimal"].error == "synthetic failure"
    assert by_kind["optimal"].mean_cost is None


def test_scan_row_values_match_direct_computation():
    (row,) = scan_n(["product"], "sin2", [8])
    state = state_for("product", 8)
    assert row.mean_cost == pytest.approx(
        mean_cost_bound(state, canonical_cost("sin2", 1)), abs=1e-12
    )
    assert not row.matches_phase_state
    assert row.n_ions == 8 and row.kind == "product"


def test_scan_phase_match_tolerance():
    rows = scan_n(["phase"], "abs", [6])
    assert rows[0].matches_phase_state
    assert np.allclose(phase_state(6).amplitudes, 1.0 / np.sqrt(7.0))
