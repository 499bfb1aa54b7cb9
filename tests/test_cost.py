import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from qclock import (
    CANONICAL_LABELS,
    ClockState,
    CostFunction,
    CostMatrix,
    canonical_cost,
    cost_matrix,
    evaluate_cost,
    mean_cost_bound,
    optimal_state,
    phase_state,
    product_cost_closed_form,
    product_state,
    smallest_eigenpair,
    state_for,
)
from qclock.cost import _deficits, _smooth_size
import qclock.cost as cost_module
from qclock.measurement import _cost_on_grid
from qclock.sim import _node_offsets

from oracles import (
    cost_at_outcome_mp,
    dense_toeplitz,
    exact_deficits,
    is_five_smooth,
    product_cost_mp,
    random_clock_amplitudes,
    rayleigh_quotient_mp,
)

SIN2 = canonical_cost("sin2", 1)


def test_sin2_fourier_data():
    f = canonical_cost("sin2", 7)
    assert f.w0 == 2.0
    np.testing.assert_array_equal(f.coefficients, [2.0])


def test_abs_fourier_data():
    f = canonical_cost("abs", 4)
    assert abs(f.w0 - np.pi / 2.0) <= 1e-15
    expected = [4.0 / np.pi, 0.0, 4.0 / (9.0 * np.pi), 0.0]
    np.testing.assert_allclose(f.coefficients, expected, rtol=0, atol=1e-15)


@pytest.mark.parametrize("label,fn", [("abs", abs), ("abs_sin_half", lambda t: abs(math.sin(t / 2.0)))])
def test_infinite_series_coefficients_match_quadrature_oracle(label, fn):
    # w_k = -(1/pi) * integral of f(t) cos(k t) over (-pi, pi]; w0 is the mean
    f = canonical_cost(label, 7)
    w0_ref = quad(fn, -np.pi, np.pi, limit=200)[0] / (2.0 * np.pi)
    assert abs(f.w0 - w0_ref) <= 1e-9
    for k in range(1, 8):
        ref = -quad(lambda t: fn(t) * math.cos(k * t), -np.pi, np.pi, limit=200)[0] / np.pi
        assert abs(f.coefficients[k - 1] - ref) <= 1e-9


def test_neg_delta_fourier_data_and_unit_mass():
    f = canonical_cost("neg_delta", 3)
    assert abs(f.w0 + 1.0 / (2.0 * np.pi)) <= 1e-15
    np.testing.assert_allclose(f.coefficients, np.full(3, 1.0 / np.pi), rtol=0, atol=1e-15)
    # every truncation of the negated delta comb integrates to -1 over a period
    for order in (1, 3, 10):
        g = canonical_cost("neg_delta", order)
        integral = quad(lambda t: evaluate_cost(g, t), 0.0, 2.0 * np.pi, limit=400)[0]
        assert abs(integral + 1.0) <= 1e-8


def test_invalid_cost_construction():
    with pytest.raises(ValueError):
        canonical_cost("sin2", 0)
    with pytest.raises(ValueError):
        canonical_cost("quartic", 4)
    with pytest.raises(ValueError):
        CostFunction(1.0, np.array([0.5, -0.1]))
    # negative constant term is allowed (negated delta comb has one)
    CostFunction(-1.0, np.array([0.5]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "build",
    [
        lambda bad: CostFunction(bad, np.array([1.0, 0.5])),
        lambda bad: CostFunction(1.0, np.array([1.0, bad])),
        lambda bad: CostMatrix(np.array([1.0, bad, 0.5])),
    ],
    ids=["w0", "coefficient", "column"],
)
def test_non_finite_cost_data_is_rejected(build, bad):
    # A NaN cost made mean_cost_bound return nan, and a NaN column ran all
    # of LOBPCG's steps before the solver failed.
    with pytest.raises(ValueError, match="finite"):
        build(bad)


@pytest.mark.parametrize("column", [np.ones((2, 2)), np.array([])], ids=["2-d", "empty"])
def test_cost_matrix_rejects_a_column_that_is_not_a_nonempty_vector(column):
    with pytest.raises(ValueError, match=r"column must be a nonempty vector, got shape"):
        CostMatrix(column)


def test_evaluate_cost_sin2_values():
    assert abs(evaluate_cost(SIN2, np.pi) - 4.0) <= 1e-15
    assert abs(evaluate_cost(SIN2, 0.0)) <= 1e-15
    t = np.linspace(-7.0, 7.0, 101)
    np.testing.assert_allclose(
        evaluate_cost(SIN2, t), 4.0 * np.sin(t / 2.0) ** 2, rtol=0, atol=1e-12
    )


@pytest.mark.parametrize(
    "label,order", [("sin2", 1), ("abs", 64), ("abs_sin_half", 64), ("neg_delta", 64)]
)
def test_evaluate_cost_keeps_relative_digits_near_zero_error(label, order):
    # The optimal clock resolves time to ~pi/(N+1), so costs are read at
    # errors down to 1e-8, where w0 - sum_k w_k cos(k t) alone cancels:
    # 2 - 2 cos(1e-8) rounds to 0.0.
    f = canonical_cost(label, order)
    for t in (1e-8, -1e-8, 1e-6, 1e-4, 1e-2, 0.5, 1.5, 3.0):
        exact = cost_at_outcome_mp(f.w0, f.coefficients, 0, 1, -t, dps=40)
        assert abs(evaluate_cost(f, t) - exact) <= 1e-14 * abs(exact), t


@pytest.mark.parametrize("label", CANONICAL_LABELS)
def test_evaluate_cost_agrees_with_the_sampler_cost_table(label):
    # Both sum f by cost._cost_forms, one by K-term loops and one by FFT, at
    # the same points x = lattice - delta: within 4 eps of the series each
    # everywhere, and to a few eps of f in rows 0 and 1, next to zero error.
    n_ions = 33
    dim = n_ions + 1
    f = canonical_cost(label, n_ions)
    offsets = _node_offsets(dim)
    g = np.arange(dim)
    lattice = np.where(2 * g > dim, g - dim, g) * (2.0 * np.pi / dim)
    x = np.subtract.outer(lattice, offsets).T
    table = _cost_on_grid(f, dim, offsets)
    values = evaluate_cost(f, x)
    eps = np.finfo(float).eps
    scale = abs(f.w0) + f.coefficients.sum()
    gap = np.abs(values - table)
    assert np.all(gap <= 8.0 * eps * scale)
    assert np.all(gap[:, :2] <= 16.0 * eps * np.abs(values[:, :2]))


def test_evaluate_cost_abs_truncation_error():
    f = canonical_cost("abs", 64)
    assert abs(evaluate_cost(f, np.pi / 2.0) - np.pi / 2.0) <= 2e-2


@pytest.mark.parametrize("label", CANONICAL_LABELS)
def test_evaluate_cost_even_and_periodic(label):
    f = canonical_cost(label, 16)
    t = np.linspace(0.0, 2.0 * np.pi, 1000, endpoint=False)
    np.testing.assert_allclose(evaluate_cost(f, t), evaluate_cost(f, -t), rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        evaluate_cost(f, t), evaluate_cost(f, t + 2.0 * np.pi), rtol=0, atol=1e-12
    )


def test_cost_matrix_sin2_n2():
    matrix = cost_matrix(SIN2, 2)
    expected = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
    np.testing.assert_array_equal(dense_toeplitz(matrix.column), expected)
    assert matrix.bandwidth == 1
    assert matrix.dim == 3


def test_cost_matrix_neg_delta_is_constant():
    matrix = cost_matrix(canonical_cost("neg_delta", 2), 2)
    np.testing.assert_allclose(
        dense_toeplitz(matrix.column), np.full((3, 3), -1.0 / (2.0 * np.pi)), rtol=0, atol=1e-15
    )
    assert matrix.bandwidth == 2


def test_cost_matrix_ignores_coefficients_beyond_n():
    padded = CostFunction(2.0, np.concatenate([[2.0], np.zeros(39)]))
    np.testing.assert_array_equal(
        dense_toeplitz(cost_matrix(SIN2, 5).column), dense_toeplitz(cost_matrix(padded, 5).column)
    )
    assert cost_matrix(canonical_cost("neg_delta", 40), 5).bandwidth == 5


@pytest.mark.parametrize("label", CANONICAL_LABELS)
def test_cost_matrix_is_exactly_symmetric(label):
    entries = dense_toeplitz(cost_matrix(canonical_cost(label, 12), 12).column)
    assert np.array_equal(entries, entries.T)


def test_mean_cost_bound_equals_quadratic_form():
    rng = np.random.default_rng(11)
    for n in (1, 5, 20):
        states = [product_state(n), phase_state(n)] + [
            ClockState(n, random_clock_amplitudes(rng, n + 1)) for _ in range(5)
        ]
        for label in CANONICAL_LABELS:
            f = canonical_cost(label, n)
            matrix = cost_matrix(f, n)
            for state in states:
                # the FFT product a . Fa shares no code with the deficit form
                direct = state.amplitudes @ matrix.matvec(state.amplitudes)
                assert abs(matrix.quadratic_form(state.amplitudes) - direct) <= 1e-12
                assert abs(mean_cost_bound(state, f) - direct) <= 1e-12


def test_matvec_matches_dense_product():
    rng = np.random.default_rng(13)
    for dim in (1, 2, 3, 8, 33, 128, 257):
        matrix = CostMatrix(rng.standard_normal(dim))
        x = rng.standard_normal(dim)
        scale = np.abs(matrix.column).sum() * np.abs(x).max()
        np.testing.assert_allclose(
            matrix.matvec(x), dense_toeplitz(matrix.column) @ x, rtol=0, atol=1e-13 * scale
        )


@pytest.mark.parametrize("bandwidth", [0, 1])
def test_banded_matvec_matches_dense_product(bandwidth):
    rng = np.random.default_rng(bandwidth)
    for dim in (1, 2, 3, 8, 257):
        column = np.zeros(dim)
        column[: bandwidth + 1] = rng.standard_normal(bandwidth + 1)[:dim]
        matrix = CostMatrix(column)
        x = rng.standard_normal(dim)
        scale = np.abs(matrix.column).sum() * np.abs(x).max()
        np.testing.assert_allclose(
            matrix.matvec(x), dense_toeplitz(matrix.column) @ x, rtol=0, atol=1e-15 * scale
        )
        assert "_circulant_spectrum" not in vars(matrix)


@example(n=1)
@example(n=3001)
@example(n=10**6)
@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 10**6))
def test_smooth_size_is_the_next_five_smooth_integer(n):
    size = _smooth_size(n)
    assert size >= n and is_five_smooth(size)
    assert not any(is_five_smooth(k) for k in range(n, size))


@pytest.mark.parametrize("dim", [101, 487, 1009, 1025])
def test_wide_matvec_matches_dense_product_off_smooth_sizes(dim):
    # Primes, or just above a smooth size (1025 = 1024 + 1), where the
    # circulant is padded furthest.
    rng = np.random.default_rng(dim)
    matrix = CostMatrix(rng.standard_normal(dim))
    for _ in range(3):
        x = rng.standard_normal(dim)
        scale = np.abs(matrix.column).sum() * np.abs(x).max()
        np.testing.assert_allclose(
            matrix.matvec(x), dense_toeplitz(matrix.column) @ x, rtol=0, atol=1e-13 * scale
        )
    assert vars(matrix)["_circulant_spectrum"].size == _smooth_size(dim) + 1


@pytest.mark.parametrize("dim", [1, 2, 3, 7, 64, 101, 1000, 1009])
def test_circulant_eigenvalues_of_the_embedding_are_its_explicit_dft(dim):
    # The wrapped column min(k, size - k) at size 2M is the explicit
    # embedding (column, zeros, reversed column): the same array, the same bits.
    rng = np.random.default_rng(dim)
    column = rng.standard_normal(dim)
    size = 2 * _smooth_size(dim)
    embedded = np.zeros(size)
    embedded[:dim] = column
    embedded[size - dim + 1 :] = column[:0:-1]
    expected = np.fft.rfft(embedded).real
    assert cost_module._circulant_eigenvalues(column, size).tobytes() == expected.tobytes()
    assert CostMatrix(column)._circulant_spectrum.tobytes() == expected.tobytes()


def test_tridiagonal_eigenpair_builds_no_circulant_spectrum():
    matrix = cost_matrix(SIN2, 10**5)
    smallest_eigenpair(matrix)
    assert "_circulant_spectrum" not in vars(matrix)


def test_tridiagonal_quadratic_form_matches_the_deficit_fft(monkeypatch):
    # The O(N) lag-one form against the FFT of every deficit, which a
    # bandwidth reported as the full dimension forces; smooth, random and
    # alternating vectors, so both sides of the sign smoothing are taken.
    rng = np.random.default_rng(31)
    cases = []
    for dim in (3, 4, 9, 64, 257, 1000):
        vectors = [
            random_clock_amplitudes(rng, dim),
            rng.standard_normal(dim),
            phase_state(dim - 1).amplitudes * (-1.0) ** np.arange(dim),
        ]
        for a in vectors:
            column = np.zeros(dim)
            column[:2] = rng.standard_normal(2)
            cases.append((CostMatrix(column), a))
            cases.append((CostMatrix(column[:1].tolist() + [0.0] * (dim - 1)), a))
    banded = [matrix.quadratic_form(a) for matrix, a in cases]
    monkeypatch.setattr(CostMatrix, "bandwidth", property(lambda self: self.dim))
    via_fft = [matrix.quadratic_form(a) for matrix, a in cases]
    for fast, reference in zip(banded, via_fft):
        assert abs(fast - reference) <= np.spacing(abs(reference))


@pytest.mark.parametrize("kind", ["optimal", "phase"])
def test_tridiagonal_quadratic_form_matches_mpmath_without_an_fft(monkeypatch, kind):
    n = 10**4
    state = state_for(kind, n, "sin2")
    reference = rayleigh_quotient_mp(state.amplitudes, SIN2.w0, SIN2.coefficients)

    def no_fft(a):
        raise AssertionError("a tridiagonal form summed every deficit")

    monkeypatch.setattr(cost_module, "_deficits", no_fft)
    assert abs(mean_cost_bound(state, SIN2) - reference) <= 1e-13 * abs(reference)


def test_quadratic_form_dimension_mismatch():
    with pytest.raises(ValueError):
        cost_matrix(SIN2, 3).quadratic_form(np.ones(3))


@pytest.mark.parametrize(
    "label,n", [("sin2", 2000), ("sin2", 10**4), ("abs_sin_half", 300), ("abs", 500)]
)
def test_mean_cost_bound_matches_mpmath_rayleigh_quotient(label, n):
    # the optimal sin2 cost is ~pi^2/N^2, where w0 - sum_k w_k r_k cancels
    f = canonical_cost(label, n)
    state = optimal_state(f, n)
    reference = rayleigh_quotient_mp(state.amplitudes, f.w0, f.coefficients)
    assert abs(mean_cost_bound(state, f) - reference) <= 1e-13 * abs(reference)


def test_quadratic_form_matches_mpmath_off_the_unit_sphere_and_oscillating():
    n = 999
    f = canonical_cost("abs", n)
    v = optimal_state(f, n).amplitudes
    # Negating the odd lags turns the optimum into the alternating (-1)^m v,
    # which quadratic_form has to flip back before it sums the deficits.
    signs = (-1.0) ** np.arange(n + 1)
    flipped = CostMatrix(cost_matrix(f, n).column * signs)
    alternating = smallest_eigenpair(flipped).eigenvector
    assert alternating[0] * alternating[1] < 0.0
    cases = [
        (cost_matrix(f, n), 3.0 * v, f.coefficients),
        (flipped, alternating, f.coefficients * signs[1:]),
    ]
    for matrix, a, coefficients in cases:
        reference = rayleigh_quotient_mp(a, f.w0, coefficients) * float(a @ a)
        assert abs(matrix.quadratic_form(a) - reference) <= 1e-13 * abs(reference)


@st.composite
def deficit_amplitudes(draw):
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        return random_clock_amplitudes(rng, draw(st.integers(2, 200)))
    kind = draw(st.sampled_from(["product", "phase", "optimal"]))
    label = draw(st.sampled_from(["sin2", "abs"]))
    return state_for(kind, draw(st.integers(1, 256)), label).amplitudes


@example(a=state_for("product", 256, "sin2").amplitudes)
@example(a=state_for("phase", 256, "sin2").amplitudes)
@example(a=state_for("optimal", 256, "sin2").amplitudes)
@settings(max_examples=60, deadline=None)
@given(a=deficit_amplitudes())
def test_deficits_match_exact_autocorrelations(a):
    exact = exact_deficits(a)
    deficits = _deficits(a)
    assert deficits.shape == exact.shape
    assert np.all(np.abs(deficits - exact) <= 1e-14 * exact)


@pytest.mark.parametrize("n", [1, 2, 20, 100])
def test_phase_state_sin2_cost(n):
    assert abs(mean_cost_bound(phase_state(n), SIN2) - 2.0 / (n + 1)) <= 1e-12


def test_product_state_sin2_cost_n2():
    assert abs(mean_cost_bound(product_state(2), SIN2) - (2.0 - np.sqrt(2.0))) <= 1e-12


@pytest.mark.parametrize("n", [2, 20])
def test_phase_state_neg_delta_cost(n):
    f = canonical_cost("neg_delta", n)
    expected = -(n + 1) / (2.0 * np.pi)
    assert abs(mean_cost_bound(phase_state(n), f) - expected) <= 1e-12


def test_product_cost_closed_form_small_n():
    assert abs(product_cost_closed_form(1) - 1.0) <= 1e-15
    assert abs(product_cost_closed_form(2) - (2.0 - np.sqrt(2.0))) <= 1e-14


def test_product_cost_closed_form_inverse_n_scaling():
    assert 0.9 <= 400 * product_cost_closed_form(400) <= 1.1


def test_product_cost_closed_form_matches_bound_up_to_512():
    for n in range(1, 513):
        closed = product_cost_closed_form(n)
        bound = mean_cost_bound(product_state(n), SIN2)
        assert abs(closed - bound) <= 1e-10


@pytest.mark.parametrize("n", [1000, 3000])
def test_product_cost_closed_form_matches_mpmath(n):
    reference = product_cost_mp(n)
    assert abs(product_cost_closed_form(n) - reference) <= 1e-11 * reference


@pytest.mark.parametrize("n", [10**4, 10**5])
def test_product_cost_closed_form_keeps_its_digits_at_large_n(n):
    # Log-binomials from lgamma lost digits linearly in N: 1.1e-11 and
    # 1.4e-10 relative at these N.
    reference = product_cost_mp(n)
    assert abs(product_cost_closed_form(n) - reference) <= 4.0 * np.spacing(reference)


@pytest.mark.parametrize("n", [50, 1000])
def test_product_cost_oracle_matches_exact_binomials(n):
    with mpmath.workdps(40):
        overlap = mpmath.fsum(
            mpmath.sqrt(math.comb(n, i) * math.comb(n, i + 1)) for i in range(n)
        )
        exact = float(2 * (1 - overlap / mpmath.mpf(2) ** n))
    assert product_cost_mp(n) == exact


def test_sin2_cost_respects_resolution_floor():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(1, 33))
        state = ClockState(n, random_clock_amplitudes(rng, n + 1))
        assert mean_cost_bound(state, SIN2) >= 1.0 / n**2 - 1e-12
