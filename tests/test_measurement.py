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
from qclock.measurement import (
    EstimationReport,
    _alternating_inverse_squares,
    _grid_offsets,
    _kernel_on_grid,
)
import qclock.measurement as measurement_module

from oracles import (
    outcome_probs_direct,
    phase_posterior_mp,
    random_clock_amplitudes,
    rayleigh_quotient_mp,
    sine_state_posterior_mp,
    wrapped_rms_series,
    wrapped_rms_series_mp,
)

TWO_PI = 2.0 * np.pi
SIN2 = canonical_cost("sin2", 1)


def sine_profile_state(n, shift, period):
    # a_m ~ sin(pi (m + shift) / period), normalised
    a = np.sin(np.pi * (np.arange(n + 1) + shift) / period)
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


def test_validators_reject_wrong_shapes_and_mass():
    with pytest.raises(ValueError, match="^expected 5 probabilities$"):
        OutcomeDistribution(4, 0.0, np.full(4, 0.25))
    with pytest.raises(ValueError, match="^outcome probabilities sum to 0.9, not 1$"):
        OutcomeDistribution(1, 0.0, np.array([0.45, 0.45]))
    grid = np.linspace(0.0, TWO_PI, 8, endpoint=False)
    with pytest.raises(ValueError, match="^grid and density must be 1-d arrays of equal length$"):
        PosteriorGrid(0, grid, np.full(7, 1.0 / TWO_PI))
    with pytest.raises(ValueError, match="^posterior integrates to 2.0, not 1$"):
        PosteriorGrid(0, grid, np.full(8, 2.0 / TWO_PI))


def test_estimation_report_rejects_values_outside_their_bounds(monkeypatch):
    with pytest.raises(ValueError, match=r"^circular RMS error 3.5 outside \[0, pi\]$"):
        EstimationReport(0.1, 3.5, 1.0)
    with pytest.raises(ValueError, match="^mutual information must be nonnegative$"):
        EstimationReport(0.1, 1.0, -0.1)
    # N = 3 carries at most log2(4) = 2 bits
    monkeypatch.setattr(measurement_module, "mutual_information_bits", lambda state: 2.1)
    with pytest.raises(ValueError, match=r"^mutual information exceeds the log2\(N\+1\) capacity"):
        estimation_report(phase_state(3), canonical_cost("sin2", 3))


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
    # G = 2 (N+2)(N+1) puts T = +-theta and +-3 theta, theta = pi/(N+2), on
    # the grid: the removable points take their limit, the zeros are exact
    n, grid_size = 20, 924
    closed = optimal_state_posterior_closed_form(n, 0, grid_size)
    offsets = _grid_offsets(n, 0, grid_size)
    for k in (-3, 3):
        assert closed.density[offsets == k * (n + 1) ** 2] == 0.0
    limit = (n + 2) / (4.0 * np.pi)
    for k in (-1, 1):
        assert abs(closed.density[offsets == k * (n + 1) ** 2] - limit) <= 2.0 * np.spacing(limit)
    h = TWO_PI / grid_size
    assert abs(closed.density.sum() * h - 1.0) <= 1e-14


@pytest.mark.parametrize("n", [20, 50, 1000])
def test_optimal_posterior_equals_closed_form_exactly(n):
    # The closed form is the kernel of the sin2 optimum, the sine state;
    # Born rule and kernel agree to the FFT posterior's own roundoff.
    j = n // 2
    grid_size = 40 * (n + 1)
    born = posterior(state_for("optimal", n, "sin2"), j, grid_size)
    closed = optimal_state_posterior_closed_form(n, j, grid_size)
    assert np.max(np.abs(born.density - closed.density)) <= 1e-13 * closed.density.max()


def test_sine_profile_posterior_equals_closed_form_exactly():
    # The sine state a_m ~ sin(pi (m+1)/(N+2)), built here by hand rather
    # than by the eigensolver, has the closed form as its exact posterior.
    n, j, grid_size = 20, 10, 840
    born = posterior(sine_profile_state(n, 1.0, n + 2), j, grid_size)
    closed = optimal_state_posterior_closed_form(n, j, grid_size)
    assert np.max(np.abs(born.density - closed.density)) <= 1e-13 * closed.density.max()


@pytest.mark.parametrize("n,tolerance", [(20, 0.05), (50, 0.02)])
def test_optimal_posterior_near_closed_form(n, tolerance):
    # The half-integer profile a_m ~ sin(pi (m+1/2)/(N+1)) approximates the
    # sin2 optimum: its posterior misses the optimum's closed form by ~4% of
    # the peak at N = 20, shrinking with N (below 2% by N = 50).
    j = n // 2
    grid_size = 40 * (n + 1)
    born = posterior(sine_profile_state(n, 0.5, n + 1), j, grid_size)
    closed = optimal_state_posterior_closed_form(n, j, grid_size)
    sup = np.max(np.abs(born.density - closed.density))
    assert sup <= tolerance * closed.density.max()


def test_optimal_closed_form_prefactor_matches_cubic_law():
    # At T = 0, x = -theta/2 and y = theta/2, so the peak is
    # sin^2(theta) / (4 pi (N+2) sin^4(theta/2)) = cot^2(theta/2) / (pi (N+2)).
    # Its prefactor sin^2(theta)/(4 pi (N+2)) is within 2% of pi/(4 (N+2)^3)
    # at N = 20; pi/(4 (N+1)^3) misses it by 13%.
    n, grid_size = 20, 924
    theta = np.pi / (n + 2)
    closed = optimal_state_posterior_closed_form(n, 0, grid_size)
    peak = 1.0 / (np.tan(theta / 2.0) ** 2 * np.pi * (n + 2))
    assert closed.density.max() == closed.density[0]
    assert abs(closed.density[0] - peak) <= 4.0 * np.spacing(peak)
    prefactor = closed.density[0] * np.sin(theta / 2.0) ** 4
    cubic = np.pi / (4.0 * (n + 2) ** 3)
    assert abs(prefactor - cubic) <= 0.02 * cubic


@pytest.mark.parametrize("n", [3, 20])
def test_closed_form_oracles_match_direct_sums(n):
    # The mpmath closed forms against K = |sum_m a_m exp(-i m T)|^2 / (N+1),
    # density (N+1) K / (2 pi), summed directly, removable points included
    grid_size = 4 * (n + 2)
    period = grid_size * (n + 1)
    with mpmath.workdps(30):
        sine = [mpmath.sin(mpmath.pi * (m + 1) / (n + 2)) for m in range(n + 1)]
        sine_norm = mpmath.fsum(a * a for a in sine)
        for offset in range(-period // 2 + n + 1, period // 2 + 1, n + 1):
            t = 2 * mpmath.pi * offset / period
            phases = [mpmath.expj(-m * t) for m in range(n + 1)]
            phase_direct = abs(mpmath.fsum(phases)) ** 2 / (2 * mpmath.pi * (n + 1))
            sine_direct = abs(mpmath.fdot(sine, phases)) ** 2 / (2 * mpmath.pi * sine_norm)
            for oracle, direct in (
                (phase_posterior_mp, phase_direct), (sine_state_posterior_mp, sine_direct)
            ):
                assert math.isclose(
                    oracle(n, offset, grid_size), float(direct), rel_tol=2**-52, abs_tol=1e-25
                )


@pytest.mark.parametrize("n", [20, 10**3, 10**5])
def test_closed_forms_within_4_eps_of_peak_against_mpmath(n):
    # G = 4 (N+2) puts theta = pi/(N+2) at the integer offset 2 (N+1); test
    # the nodes on and next to 0, +-theta, +-3 theta and pi, and random ones
    grid_size = 4 * (n + 2)
    offsets = _grid_offsets(n, 0, grid_size)
    half = grid_size * (n + 1) // 2
    marks = [k * 2 * (n + 1) for k in (0, -1, 1, -3, 3)] + [half]
    steps = [mark + step * (n + 1) for mark in marks for step in (-1, 0, 1)]
    near = [half - (half - offset) % (2 * half) for offset in steps]
    structured = np.flatnonzero(np.isin(offsets, near))
    assert structured.size == len(set(near))
    rng = np.random.default_rng(n)
    nodes = np.union1d(structured, rng.choice(grid_size, 40, replace=False))
    for closed_form, oracle in (
        (phase_state_posterior_closed_form, phase_posterior_mp),
        (optimal_state_posterior_closed_form, sine_state_posterior_mp),
    ):
        density = closed_form(n, 0, grid_size).density
        peak = oracle(n, 0, grid_size)
        for g in nodes:
            reference = oracle(n, int(offsets[g]), grid_size)
            assert abs(density[g] - reference) <= 4.0 * np.finfo(float).eps * peak


@st.composite
def grid_offset_cases(draw):
    n = draw(st.integers(1, 10**6))
    grid_size = draw(st.integers(4 * (n + 1), 16 * (n + 1)))
    outcome = draw(st.integers(0, n))
    nodes = draw(st.lists(st.integers(0, grid_size - 1), min_size=1, max_size=20))
    return n, outcome, grid_size, nodes


@settings(max_examples=20, deadline=None)
@example((10**6, 10**6, 16 * (10**6 + 1), [0, 1, 8 * (10**6 + 1), 16 * (10**6 + 1) - 1]))
@given(grid_offset_cases())
def test_grid_offsets_match_integer_arithmetic(case):
    n, outcome, grid_size, nodes = case
    period = grid_size * (n + 1)
    offsets = _grid_offsets(n, outcome, grid_size)
    assert offsets.dtype == np.int64 and offsets.shape == (grid_size,)
    for g in nodes:
        # t_g - t_j = 2 pi (g/G - j/(N+1)) = 2 pi (g (N+1) - j G) / period
        nu = (g * (n + 1) - outcome * grid_size) % period
        if 2 * nu > period:
            nu -= period
        assert int(offsets[g]) == nu


@st.composite
def closed_form_grids(draw):
    n = draw(st.integers(1, 300))
    grid_size = draw(st.integers(4 * (n + 1), 16 * (n + 1)))
    return n, draw(st.integers(0, n)), grid_size


@settings(max_examples=40, deadline=None)
@given(closed_form_grids())
def test_closed_forms_within_8_eps_of_peak_on_random_grids(case):
    # Every node within 3 theta of the peak, theta = pi/(N+2): |T| <= 3 theta
    # is 2 |nu| (N+2) <= 3 G (N+1). The worst seen over 4000 draws was 6.2
    # eps (sine state) and 4.1 eps (phase state).
    n, outcome, grid_size = case
    offsets = _grid_offsets(n, outcome, grid_size)
    nodes = np.flatnonzero(2 * np.abs(offsets) * (n + 2) <= 3 * grid_size * (n + 1))
    for closed_form, oracle in (
        (phase_state_posterior_closed_form, phase_posterior_mp),
        (optimal_state_posterior_closed_form, sine_state_posterior_mp),
    ):
        density = closed_form(n, outcome, grid_size).density
        peak = oracle(n, 0, grid_size)
        for g in nodes:
            reference = oracle(n, int(offsets[g]), grid_size)
            assert abs(density[g] - reference) <= 8.0 * np.finfo(float).eps * peak


@pytest.mark.parametrize("extra", [0, 7])
@pytest.mark.parametrize("n", [10**3, 10**4, 10**5])
def test_posterior_phases_from_integers_match_closed_form(n, extra):
    # exp(i k t_j) from the residue k j mod (N+1): the float k t_j put the
    # phase state's posterior 7e-14 / 3e-13 / 1.4e-12 of the peak off at
    # N = 10^3 / 10^4 / 10^5, outcome N - 3
    grid_size = 16 * (n + 1) + extra
    born = posterior(phase_state(n), n - 3, grid_size).density
    closed = phase_state_posterior_closed_form(n, n - 3, grid_size).density
    assert np.max(np.abs(born - closed)) <= 1e-14 * closed.max()


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
    for n in (20, 2000):
        for label in ("sin2", "abs", "abs_sin_half", "neg_delta"):
            f = canonical_cost(label, n)
            for kind in ("product", "phase", "optimal", "max_spread"):
                state = state_for(kind, n, label)
                assert abs(mean_cost_direct(state, f) - mean_cost_bound(state, f)) <= 1e-9


@pytest.mark.parametrize("n,tolerance", [(10**3, 1e-14), (10**4, 1e-14), (10**5, 1e-13)])
def test_mean_cost_direct_of_sin2_optimum_matches_mpmath(n, tolerance):
    # The sin2 optimum's mean cost is 2 - 2 cos(pi/(N+2)), ~1e-9 at N = 10^5,
    # where the costs summed as w0 - w1 cos x alone put it 2e-8 relative off.
    state = state_for("optimal", n, "sin2")
    with mpmath.workdps(40):
        exact = float(2 - 2 * mpmath.cos(mpmath.pi / (n + 2)))
    direct = mean_cost_direct(state, canonical_cost("sin2", n))
    assert abs(direct - exact) <= tolerance * exact


def test_mean_cost_direct_is_exact_on_its_grid():
    # K f has degree N + K, so the trapezoid rule on _smooth_size(N + K + 1)
    # nodes is exact: only roundoff of the scale |w0| + sum_k w_k remains.
    cases = [
        (state_for(kind, n, label), canonical_cost(label, n))
        for n in (1, 2, 7, 33, 64, 300, 1023, 4096)
        for label in ("sin2", "abs", "abs_sin_half", "neg_delta")
        for kind in ("product", "phase", "optimal", "max_spread")
    ]
    cases.append((phase_state(10), canonical_cost("abs", 256)))  # K > N
    for state, f in cases:
        scale = abs(f.w0) + f.coefficients.sum()
        error = abs(mean_cost_direct(state, f) - mean_cost_bound(state, f))
        assert error <= 10.0 * np.finfo(float).eps * scale, (state.n_ions, f.label)


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


def test_mutual_information_of_basis_states_is_not_negative():
    # The grid sum is a Kullback-Leibler divergence, >= 0 by Gibbs'
    # inequality; rounded, it fell to -7.1e-15 for some N.
    for n in range(1, 1025):
        assert mutual_information_bits(state_for("basis", n)) >= 0.0
    for n in (2, 100, 1000):
        amplitudes = np.zeros(n + 1)
        amplitudes[0] = 1.0
        assert mutual_information_bits(ClockState(n, amplitudes)) >= 0.0


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=65).filter(any))
def test_mutual_information_lies_between_zero_and_capacity(weights):
    amplitudes = np.array(weights) / max(weights)  # no squares underflow to 0
    amplitudes /= math.sqrt(math.fsum(amplitudes**2))
    info = mutual_information_bits(ClockState(amplitudes.size - 1, amplitudes))
    assert 0.0 <= info <= np.log2(amplitudes.size)


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
