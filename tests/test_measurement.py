import math
import time

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qclock import (
    ClockState,
    OutcomeDistribution,
    PosteriorGrid,
    canonical_cost,
    circular_rms_error,
    energy_stats,
    estimation_report,
    max_energy_spread_state,
    mean_cost_bound,
    mean_cost_direct,
    measurement_times,
    mutual_information_bits,
    mutual_information_nats,
    optimal_state_posterior_closed_form,
    outcome_distribution,
    phase_state,
    phase_state_posterior_closed_form,
    posterior,
    product_cost_closed_form,
    product_state,
    state_for,
    wrap_angle,
)
from qclock.measurement import _alternating_inverse_squares, _kernel_on_grid

from oracles import (
    outcome_probs_direct,
    random_clock_amplitudes,
    rayleigh_quotient_mp,
    wrapped_rms_series,
    wrapped_rms_series_mp,
)

TWO_PI = 2.0 * np.pi
SIN2 = canonical_cost("sin2", 1)


def sine_profile_state(n):
    m = np.arange(n + 1)
    a = np.sin(np.pi * (m + 0.5) / (n + 1))
    return ClockState(n, a / np.linalg.norm(a))


def test_wrap_angle_conventions():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(np.pi) == np.pi
    assert wrap_angle(-np.pi) == np.pi  # boundary maps to +pi
    assert abs(wrap_angle(3.0 * np.pi) - np.pi) <= 1e-12
    assert abs(wrap_angle(np.pi + 0.1) - (-np.pi + 0.1)) <= 1e-12
    np.testing.assert_allclose(
        wrap_angle(np.array([0.3, -0.3, TWO_PI + 0.3])), [0.3, -0.3, 0.3], atol=1e-12
    )


@example(x=float(np.nextafter(np.pi, 4.0)))
@example(x=np.pi)
@example(x=-np.pi)
@example(x=3.0 * np.pi)
@example(x=-3.0 * np.pi)
@settings(max_examples=300, deadline=None)
@given(x=st.floats(-1e12, 1e12))
def test_wrap_angle_stays_in_half_open_interval(x):
    wrapped = wrap_angle(x)
    assert -np.pi < wrapped <= np.pi
    assert -np.pi < wrap_angle(np.array([x]))[0] <= np.pi


def test_measurement_times():
    np.testing.assert_allclose(
        measurement_times(2), [0.0, TWO_PI / 3.0, 2.0 * TWO_PI / 3.0], atol=1e-15
    )


def test_phase_state_at_zero_hits_outcome_zero():
    dist = outcome_distribution(phase_state(8), 0.0)
    assert abs(dist.probabilities[0] - 1.0) <= 1e-12
    assert np.all(dist.probabilities[1:] <= 1e-12)


def test_phase_state_outcomes_match_dirichlet_formula():
    dist = outcome_distribution(phase_state(2), np.pi / 3.0)
    for j in range(3):
        t_j = np.pi / 3.0 - TWO_PI * j / 3.0
        expected = (1.0 - np.cos(3.0 * t_j)) / (9.0 * (1.0 - np.cos(t_j)))
        assert abs(dist.probabilities[j] - expected) <= 1e-12


def test_energy_eigenstate_outcomes_are_uniform():
    amplitudes = np.zeros(5)
    amplitudes[2] = 1.0
    state = ClockState(4, amplitudes)
    for t in (0.0, 0.7, 3.9):
        dist = outcome_distribution(state, t)
        np.testing.assert_allclose(dist.probabilities, np.full(5, 0.2), atol=1e-13)


def test_outcome_distribution_matches_direct_sum_oracle():
    rng = np.random.default_rng(13)
    for n in range(1, 7):
        states = [phase_state(n), product_state(n)] + [
            ClockState(n, random_clock_amplitudes(rng, n + 1)) for _ in range(3)
        ]
        for state in states:
            for t in rng.uniform(0.0, TWO_PI, size=4):
                dist = outcome_distribution(state, float(t))
                oracle = outcome_probs_direct(state.amplitudes, float(t))
                np.testing.assert_allclose(dist.probabilities, oracle, rtol=0, atol=1e-12)


@pytest.mark.parametrize("t", [-1e-20, -5e-324, -0.0, -TWO_PI])
def test_outcome_distribution_reduces_time_below_two_pi(t):
    dist = outcome_distribution(phase_state(4), t)
    assert dist.true_time == 0.0
    np.testing.assert_array_equal(
        dist.probabilities, outcome_distribution(phase_state(4), 0.0).probabilities
    )


def test_covariance_cyclic_shift():
    rng = np.random.default_rng(17)
    for n in (3, 8):
        state = ClockState(n, random_clock_amplitudes(rng, n + 1))
        for t in rng.uniform(0.0, TWO_PI, size=5):
            base = outcome_distribution(state, float(t)).probabilities
            shifted = outcome_distribution(state, float(t) + TWO_PI / (n + 1)).probabilities
            np.testing.assert_allclose(shifted, np.roll(base, 1), rtol=0, atol=1e-12)


def test_completeness_over_random_times():
    rng = np.random.default_rng(19)
    state = product_state(12)
    for t in rng.uniform(-10.0, 10.0, size=100):
        dist = outcome_distribution(state, float(t))
        assert abs(dist.probabilities.sum() - 1.0) <= 1e-12


@st.composite
def amplitudes_and_times(draw):
    n = draw(st.integers(1, 64))
    raw = draw(st.lists(st.floats(-1.0, 1.0), min_size=n + 1, max_size=n + 1))
    a = np.array(raw)
    norm = np.linalg.norm(a)
    if norm < 1e-3:
        a = np.ones(n + 1)
        norm = np.sqrt(n + 1)
    times = draw(
        st.lists(st.floats(0.0, TWO_PI, exclude_max=True), min_size=1, max_size=4)
    )
    return a / norm, np.array(times)


def _uniform_case(dim):
    return np.full(dim, 1.0 / np.sqrt(dim)), np.array([0.0, 1.0, 6.28])


# N + 1 prime (61, 2), a perfect square (64) and neither (65).
@example(case=_uniform_case(61))
@example(case=_uniform_case(2))
@example(case=_uniform_case(64))
@example(case=_uniform_case(65))
@settings(max_examples=60, deadline=None)
@given(case=amplitudes_and_times())
def test_outcome_kernel_matches_direct_sum(case):
    amplitudes, times = case
    rows = _kernel_on_grid(amplitudes, amplitudes.size, times)
    for t, row in zip(times, rows):
        oracle = outcome_probs_direct(amplitudes, float(t))
        np.testing.assert_allclose(row, oracle, rtol=0, atol=1e-12)
        assert abs(row.sum() - 1.0) <= 1e-12


@pytest.mark.parametrize("grid_factor", [1, 16])
@pytest.mark.parametrize("dim", [2, 3, 64, 301, 4097])
def test_batched_kernel_rows_equal_scalar_shift_calls(dim, grid_factor):
    # Posteriors and the sampler's tables read the same numbers only if a
    # row of a batched call is bitwise the call with that shift alone.
    rng = np.random.default_rng(dim)
    amplitudes = random_clock_amplitudes(rng, dim)
    shifts = np.concatenate([[0.0, np.pi], rng.uniform(0.0, TWO_PI, 20)])
    rows = _kernel_on_grid(amplitudes, grid_factor * dim, shifts)
    assert rows.shape == (shifts.size, grid_factor * dim)
    for shift, row in zip(shifts, rows):
        single = _kernel_on_grid(amplitudes, grid_factor * dim, float(shift))
        assert row.tobytes() == single.tobytes()


@pytest.mark.parametrize("t", [float("inf"), float("-inf"), float("nan")])
def test_outcome_distribution_rejects_non_finite_time(t):
    with pytest.raises(ValueError):
        outcome_distribution(phase_state(4), t)


def test_validators_reject_non_finite_arrays():
    with pytest.raises(ValueError):
        OutcomeDistribution(4, 0.0, np.full(5, np.nan))
    grid = np.linspace(0.0, TWO_PI, 8, endpoint=False)
    density = np.full(8, 1.0 / TWO_PI)
    density[3] = np.nan
    with pytest.raises(ValueError):
        PosteriorGrid(0, grid, density)
    grid[2] = np.inf
    with pytest.raises(ValueError):
        PosteriorGrid(0, grid, np.full(8, 1.0 / TWO_PI))


def test_posterior_matches_direct_sum_off_lattice_grid():
    # 45 nodes is not a multiple of N+1 = 7, so no t_j lies on the grid
    rng = np.random.default_rng(31)
    n, grid_size = 6, 45
    grid = TWO_PI * np.arange(grid_size) / grid_size
    for state in (product_state(n), ClockState(n, random_clock_amplitudes(rng, n + 1))):
        probs = np.array([outcome_probs_direct(state.amplitudes, t) for t in grid])
        for j in range(n + 1):
            expected = probs[:, j] / (probs[:, j].sum() * TWO_PI / grid_size)
            post = posterior(state, j, grid_size)
            np.testing.assert_allclose(post.grid, grid, rtol=0, atol=1e-15)
            assert np.max(np.abs(post.density - expected)) <= 1e-12 * expected.max()


def test_posterior_rejects_coarse_grid_and_bad_outcome():
    with pytest.raises(ValueError):
        posterior(phase_state(10), 0, 43)  # needs >= 44
    with pytest.raises(ValueError):
        posterior(phase_state(10), 11, 64)
    with pytest.raises(ValueError):
        phase_state_posterior_closed_form(10, 0, 43)
    with pytest.raises(ValueError):
        optimal_state_posterior_closed_form(10, 0, 43)


def test_phase_posterior_peak_and_zeros():
    n, j, grid_size = 20, 10, 420  # grid multiple of N+1 puts t_j on the grid
    post = posterior(phase_state(n), j, grid_size)
    t_j = measurement_times(n)[j]
    peak_index = int(np.argmin(np.abs(post.grid - t_j)))
    assert abs(post.density[peak_index] - (n + 1) / TWO_PI) <= 1e-10
    for k in range(1, n + 1):
        other = (t_j + TWO_PI * k / (n + 1)) % TWO_PI
        idx = int(np.argmin(np.abs(post.grid - other)))
        assert post.density[idx] <= 1e-10


def test_phase_posterior_matches_closed_form():
    n, j, grid_size = 20, 10, 420
    born = posterior(phase_state(n), j, grid_size)
    closed = phase_state_posterior_closed_form(n, j, grid_size)
    assert np.max(np.abs(born.density - closed.density)) <= 1e-8
    h = TWO_PI / grid_size
    assert abs(closed.density.sum() * h - 1.0) <= 1e-8


def test_phase_closed_form_peak_is_patched_limit():
    closed = phase_state_posterior_closed_form(20, 0, 420)
    assert abs(closed.density[0] - 21.0 / TWO_PI) <= 1e-12


def test_optimal_closed_form_zeros_and_patch():
    n, grid_size = 20, 840  # step pi/420 puts 3*pi/(N+1) = pi/7 on the grid
    closed = optimal_state_posterior_closed_form(n, 0, grid_size)
    offsets = wrap_angle(closed.grid)
    first_zero = int(np.argmin(np.abs(offsets - 3.0 * np.pi / (n + 1))))
    assert closed.density[first_zero] <= 1e-12 * closed.density.max()
    patched = int(np.argmin(np.abs(offsets - np.pi / (n + 1))))
    assert closed.density[patched] > 0.1 * closed.density.max()
    h = TWO_PI / grid_size
    assert abs(closed.density.sum() * h - 1.0) <= 1e-6


def test_sine_profile_posterior_equals_closed_form_exactly():
    # The closed-form kernel is the exact posterior of the sine-profile
    # state; Born rule and kernel must agree to machine precision.
    n, j, grid_size = 20, 10, 840
    born = posterior(sine_profile_state(n), j, grid_size)
    closed = optimal_state_posterior_closed_form(n, j, grid_size)
    assert np.max(np.abs(born.density - closed.density)) <= 1e-10


@pytest.mark.parametrize("n,tolerance", [(20, 0.05), (50, 0.02)])
def test_optimal_posterior_near_closed_form(n, tolerance):
    # The kernel describes the sine profile, which approximates the true
    # optimum; at N = 20 the peak mismatch is ~4% of the peak, shrinking
    # with N (below 2% by N = 50).
    j = n // 2
    grid_size = 40 * (n + 1)
    born = posterior(state_for("optimal", n, "sin2"), j, grid_size)
    closed = optimal_state_posterior_closed_form(n, j, grid_size)
    offsets = wrap_angle(born.grid - measurement_times(n)[j])
    beta = np.pi / (n + 1)
    away = np.abs(np.abs(offsets) - beta) > 0.05
    sup = np.max(np.abs(born.density - closed.density)[away])
    assert sup <= tolerance * closed.density.max()


def test_optimal_closed_form_prefactor_matches_cubic_law():
    # numeric normalization stays within 2% of pi / (4 (N+1)^3) at N = 20
    n, grid_size = 20, 840
    closed = optimal_state_posterior_closed_form(n, 0, grid_size)
    offsets = wrap_angle(closed.grid)
    beta = np.pi / (n + 1)
    kernel_peak = (n + 1) ** 2 / (4.0 * np.sin(0.5 * beta) ** 2)  # patched value at +-beta
    calibrated_prefactor = closed.density[int(np.argmin(np.abs(offsets - beta)))] / kernel_peak
    assert abs(calibrated_prefactor - np.pi / (4.0 * (n + 1) ** 3)) <= 0.02 * np.pi / (
        4.0 * (n + 1) ** 3
    )


def _tail_window_mean(n, lo, hi, grid_size=4096):
    post = optimal_state_posterior_closed_form(n, 0, max(grid_size, 4 * (n + 1)))
    offsets = np.abs(wrap_angle(post.grid))
    window = (offsets >= lo) & (offsets <= hi)
    return float(post.density[window].mean())


def test_optimal_posterior_tail_exponents():
    # window-averaged tails follow ~ 1/(N^3 T^4) between the central peak
    # and T near pi; pointwise checks are meaningless because the kernel
    # oscillates through zeros (and vanishes identically at T = pi for
    # even N), so the law is pinned through log-log slope fits.
    centers = np.array([0.55, 0.8, 1.15, 1.65])
    means = [_tail_window_mean(20, c / 1.2, c * 1.2) for c in centers]
    t_slope = np.polyfit(np.log(centers), np.log(means), 1)[0]
    assert abs(t_slope + 4.0) <= 0.8
    sizes = np.array([10, 20, 40])
    means_n = [_tail_window_mean(int(nn), 0.8, 1.2) for nn in sizes]
    n_slope = np.polyfit(np.log(sizes), np.log(means_n), 1)[0]
    assert abs(n_slope + 3.0) <= 0.6


def test_mean_cost_direct_phase_state():
    for n in (2, 20):
        assert abs(mean_cost_direct(phase_state(n), SIN2) - 2.0 / (n + 1)) <= 1e-9


def test_mean_cost_direct_product_state_matches_closed_form():
    assert abs(
        mean_cost_direct(product_state(20), SIN2) - product_cost_closed_form(20)
    ) <= 1e-9


def test_mean_cost_direct_optimal_state_matches_eigenvalue():
    from qclock import cost_matrix, smallest_eigenpair

    state = state_for("optimal", 20, "sin2")
    pair = smallest_eigenpair(cost_matrix(SIN2, 20))
    assert abs(mean_cost_direct(state, SIN2) - pair.eigenvalue) <= 1e-9


def test_mean_cost_direct_saturates_bound_for_all_combinations():
    for label in ("sin2", "abs", "neg_delta"):
        f = canonical_cost(label, 20)
        for kind in ("product", "phase", "optimal", "max_spread"):
            state = state_for(kind, 20, label)
            assert abs(mean_cost_direct(state, f) - mean_cost_bound(state, f)) <= 1e-9


def test_mean_cost_direct_rejects_coarse_grid():
    with pytest.raises(ValueError):
        mean_cost_direct(phase_state(10), SIN2, grid_size=80)


def test_circular_rms_error_matches_series_oracle():
    rng = np.random.default_rng(29)
    for n in (4, 16):
        states = [
            phase_state(n),
            product_state(n),
            max_energy_spread_state(n),
            ClockState(n, random_clock_amplitudes(rng, n + 1)),
        ]
        for state in states:
            value = circular_rms_error(state)
            oracle = wrapped_rms_series(state.amplitudes)
            assert abs(value - oracle) <= 1e-8
    for n in (256, 512):
        for kind in ("phase", "product", "optimal"):
            state = state_for(kind, n, "sin2")
            exact = wrapped_rms_series_mp(state.amplitudes)
            assert abs(circular_rms_error(state) - exact) <= 1e-10 * exact


@pytest.mark.parametrize("start", [1, 2, 3, 63, 64, 65, 1025, 10**4])
def test_alternating_inverse_squares_matches_mpmath(start):
    with mpmath.workdps(30):
        exact = float(mpmath.nsum(lambda j: (-1) ** j / (start + j) ** 2, [0, mpmath.inf]))
    assert abs(_alternating_inverse_squares(start) - exact) <= 1e-15 * exact


@pytest.mark.parametrize("n", [1024, 2048])
def test_circular_rms_error_optimal_large_n_matches_mpmath(n):
    state = state_for("optimal", n, "sin2")
    exact = wrapped_rms_series_mp(state.amplitudes)
    assert abs(circular_rms_error(state) - exact) <= 1e-13 * exact


def test_alternating_inverse_squares_of_an_array_matches_each_start():
    starts = np.array([1, 2, 3, 62, 63, 64, 65, 1025, 10**4])
    values = _alternating_inverse_squares(starts)
    assert values.shape == starts.shape
    for start, value in zip(starts, values):
        assert value == _alternating_inverse_squares(int(start))


def test_scan_optimal_sin2_n5_delta_t_within_one_ulp():
    # the n=5 optimal row of the scan golden output
    state = state_for("optimal", 5, "sin2")
    exact = wrapped_rms_series_mp(state.amplitudes)
    assert abs(circular_rms_error(state) - exact) <= math.ulp(exact)


@pytest.mark.parametrize("n", [*range(1, 13), 64, 256])
def test_rms_error_and_mean_cost_within_3_ulp_of_mpmath(n):
    for kind in ("product", "phase", "optimal", "max_spread"):
        for label in ("sin2", "abs"):
            f = canonical_cost(label, n)
            state = state_for(kind, n, label)
            cost = rayleigh_quotient_mp(state.amplitudes, f.w0, f.coefficients)
            assert abs(mean_cost_bound(state, f) - cost) <= 3 * math.ulp(cost)
            delta_t = wrapped_rms_series_mp(state.amplitudes)
            assert abs(circular_rms_error(state) - delta_t) <= 3 * math.ulp(delta_t)


def test_optimal_rms_error_approaches_the_heisenberg_limit_at_n_1e5():
    # (N+1) Delta_t / pi -> 1 from below with a 1/N correction whose
    # coefficient settles. A form that loses ~N^2 eps relative, like
    # pi^2/3 + 4 sum (-1)^k r_k / k^2, would move that coefficient by ~0.1.
    start = time.perf_counter()
    ratios = {}
    for n in (10**3, 10**4, 10**5):
        ratios[n] = (n + 1) * circular_rms_error(state_for("optimal", n, "sin2")) / np.pi
    elapsed = time.perf_counter() - start
    assert ratios[10**3] < ratios[10**4] < ratios[10**5] < 1.0
    slopes = {n: n * (1.0 - ratios[n]) for n in (10**4, 10**5)}
    assert abs(slopes[10**4] - slopes[10**5]) <= 2e-4
    assert elapsed < 1.0


def test_phase_state_error_scales_as_inverse_sqrt_n():
    values = {n: circular_rms_error(phase_state(n)) * np.sqrt(n) for n in (16, 64, 256)}
    assert values[16] < values[64] < values[256]  # monotone toward 2 sqrt(ln 2)
    for value in values.values():
        assert 1.5 <= value <= 1.7


def test_optimal_state_error_scales_as_inverse_n():
    for n in (32, 64):
        delta_t = circular_rms_error(state_for("optimal", n, "sin2"))
        assert delta_t <= 1.5 * np.pi / (n + 1)


def test_fundamental_bounds_for_canonical_states():
    for n in (4, 16, 64):
        for kind in ("product", "phase", "optimal", "max_spread"):
            state = state_for(kind, n, "sin2")
            delta_t = circular_rms_error(state)
            spread = energy_stats(state).energy_stddev
            assert delta_t * spread >= 0.5 - 1e-9
            assert delta_t >= 1.0 / n - 1e-12
            assert delta_t <= np.pi + 1e-9  # pointwise ceiling of the wrapped error


def test_max_spread_even_n_exceeds_uniform_rms():
    # weight on levels 0 and N only evolves with period 2 pi / N; for even
    # N the wrapped RMS against the covariant estimates lands slightly
    # ABOVE the uniform-guess value pi/sqrt(3)
    delta_t = circular_rms_error(max_energy_spread_state(4))
    assert delta_t > np.pi / np.sqrt(3.0)
    assert abs(delta_t - wrapped_rms_series(max_energy_spread_state(4).amplitudes)) <= 1e-8


def test_mutual_information_basis_state_is_zero():
    amplitudes = np.zeros(9)
    amplitudes[4] = 1.0
    assert abs(mutual_information_bits(ClockState(8, amplitudes))) <= 1e-12


def test_mutual_information_bounded_by_capacity():
    for n in (4, 16, 64):
        for kind in ("product", "phase", "optimal", "max_spread"):
            info = mutual_information_bits(state_for(kind, n, "sin2"))
            assert -1e-12 <= info <= np.log2(n + 1) + 1e-9


def test_max_spread_information_is_constant():
    # (1 - ln 2)/ln 2 bits independently of N
    expected = (1.0 - np.log(2.0)) / np.log(2.0)
    for n in (4, 16, 64):
        info = mutual_information_bits(max_energy_spread_state(n))
        assert abs(info - expected) <= 5e-3


def test_phase_state_information_gains_one_bit_per_doubling():
    info = {n: mutual_information_bits(phase_state(n)) for n in (16, 32, 64, 128)}
    for n in (16, 32, 64):
        assert abs(info[2 * n] - info[n] - 1.0) <= 0.25


def test_product_state_information_gains_one_bit_per_quadrupling():
    info = {n: mutual_information_bits(product_state(n)) for n in (16, 32, 64, 128)}
    for n in (16, 32):
        assert abs(info[4 * n] - info[n] - 1.0) <= 0.35


def test_mutual_information_matches_direct_double_sum():
    rng = np.random.default_rng(37)
    for n in range(1, 9):
        grid_size = 16 * (n + 1)
        for amplitudes in (
            phase_state(n).amplitudes,
            product_state(n).amplitudes,
            random_clock_amplitudes(rng, n + 1),
        ):
            total = 0.0
            for g in range(grid_size):
                probs = outcome_probs_direct(amplitudes, TWO_PI * g / grid_size)
                probs = probs[probs > 0.0]
                total += float(np.sum(probs * np.log2(probs)))
            expected = np.log2(n + 1) + total / grid_size
            info = mutual_information_bits(ClockState(n, amplitudes))
            assert abs(info - expected) <= 1e-12


def test_mutual_information_nats_conversion():
    state = phase_state(16)
    assert abs(
        mutual_information_nats(state) - mutual_information_bits(state) * np.log(2.0)
    ) <= 1e-12


def test_mutual_information_rejects_coarse_grid():
    with pytest.raises(ValueError):
        mutual_information_bits(phase_state(10), grid_size=100)


def test_estimation_report_fields():
    report = estimation_report(phase_state(8), SIN2)
    assert abs(report.mean_cost - 2.0 / 9.0) <= 1e-12
    assert abs(report.circular_rms_error - wrapped_rms_series(phase_state(8).amplitudes)) <= 1e-8
    assert 0.0 <= report.mutual_information_bits <= np.log2(9.0)
