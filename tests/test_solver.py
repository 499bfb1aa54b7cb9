import logging
import math
import tracemalloc

import numpy as np
import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qclock import (
    CostFunction,
    CostMatrix,
    SignConventionError,
    SolverConvergenceError,
    canonical_cost,
    cost_matrix,
    mean_cost_bound,
    phase_state,
    product_state,
    optimal_state,
    smallest_eigenpair,
)
from qclock import cli
from qclock import solver as solver_module

from oracles import (
    dense_toeplitz,
    is_five_smooth,
    rayleigh_quotient_mp,
    smallest_eigenpair_mp,
    smallest_eigenvalue_bisection,
)

SIN2 = canonical_cost("sin2", 1)


def exact_sin2_eigenvalue(n):
    # tridiagonal Toeplitz spectrum: 2 - 2 cos(k pi / (N + 2)), k = 1 smallest
    return 2.0 - 2.0 * np.cos(np.pi / (n + 2))


def exact_sin2_eigenvector(n):
    m = np.arange(n + 1)
    v = np.sin(np.pi * (m + 1) / (n + 2))
    return v / np.linalg.norm(v)


def test_sin2_n2_closed_form_pair():
    pair = smallest_eigenpair(cost_matrix(SIN2, 2))
    assert abs(pair.eigenvalue - (2.0 - np.sqrt(2.0))) <= 1e-12
    np.testing.assert_allclose(
        pair.eigenvector, [0.5, 1.0 / np.sqrt(2.0), 0.5], rtol=0, atol=1e-10
    )


def test_constant_matrix_pair():
    matrix = cost_matrix(canonical_cost("neg_delta", 2), 2)
    pair = smallest_eigenpair(matrix)
    assert abs(pair.eigenvalue + 3.0 / (2.0 * np.pi)) <= 1e-12
    np.testing.assert_allclose(
        pair.eigenvector, np.full(3, 1.0 / np.sqrt(3.0)), rtol=0, atol=1e-10
    )


def test_identity_matrix_degenerate_spectrum():
    identity = CostFunction(1.0, np.array([]))
    pair = smallest_eigenpair(cost_matrix(identity, 4))
    assert abs(pair.eigenvalue - 1.0) <= 1e-12
    assert abs(np.linalg.norm(pair.eigenvector) - 1.0) <= 1e-12
    assert pair.residual_norm <= 1e-10  # ||F||_inf = 1


def test_dim_one_matrix():
    pair = smallest_eigenpair(CostMatrix(np.array([3.5])))
    assert pair.eigenvalue == 3.5
    np.testing.assert_array_equal(pair.eigenvector, [1.0])


def test_dim_one_matrix_takes_the_closed_form_path(caplog):
    with caplog.at_level(logging.DEBUG, logger="qclock"):
        smallest_eigenpair(CostMatrix(np.array([3.5])))
    (record,) = caplog.records
    assert (record.args["path"], record.args["matvecs"]) == ("closed_form", 1)


def test_missed_residual_contract_raises(monkeypatch):
    solve = solver_module._solve_smallest

    def shifted(matrix, scale):
        eigenvalue, vector, fields = solve(matrix, scale)
        return eigenvalue + 1.0, vector, fields

    monkeypatch.setattr(solver_module, "_solve_smallest", shifted)
    with pytest.raises(
        SolverConvergenceError, match=r"^eigenpair residual .* exceeds 1e-10 \* \|\|F\|\|_inf$"
    ):
        smallest_eigenpair(cost_matrix(SIN2, 8))


@pytest.mark.parametrize("n", list(range(1, 41)) + [100, 256, 512])
def test_sin2_eigenvalue_matches_toeplitz_closed_form(n):
    pair = smallest_eigenpair(cost_matrix(SIN2, n))
    assert abs(pair.eigenvalue - exact_sin2_eigenvalue(n)) <= 1e-9
    overlap = abs(float(pair.eigenvector @ exact_sin2_eigenvector(n)))
    assert overlap >= 1.0 - 1e-9


def test_residual_contract_reported():
    for n in (2, 20, 100):
        matrix = cost_matrix(SIN2, n)
        pair = smallest_eigenpair(matrix)
        recomputed = np.linalg.norm(
            dense_toeplitz(matrix.column) @ pair.eigenvector - pair.eigenvalue * pair.eigenvector
        )
        assert abs(pair.residual_norm - recomputed) <= 1e-15
        assert pair.residual_norm <= 1e-10 * np.linalg.norm(dense_toeplitz(matrix.column), np.inf)


def test_lobpcg_path_agrees_with_dense():
    f = CostFunction(3.0, np.array([1.0, 0.5, 0.25]))
    matrix = cost_matrix(f, 40)  # bandwidth 3 takes the LOBPCG path
    pair = smallest_eigenpair(matrix)
    dense_values = np.linalg.eigvalsh(dense_toeplitz(matrix.column))
    assert abs(pair.eigenvalue - dense_values[0]) <= 1e-10


@pytest.mark.parametrize("n", [2, 3, 5])
def test_lobpcg_lag_two_cost_agrees_with_dense(n):
    # At N = 2 the only coupling lies beyond dim/2: a Strang circulant of
    # size dim = 3 would drop it, and the padded one of size 4 keeps it.
    matrix = cost_matrix(CostFunction(1.0, np.array([0.0, 1.0])), n)
    pair = smallest_eigenpair(matrix)
    assert abs(pair.eigenvalue - np.linalg.eigvalsh(dense_toeplitz(matrix.column))[0]) <= 1e-14


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 120), st.integers(0, 2**32 - 1))
def test_random_column_is_solved_or_refused(dim, seed):
    # Any symmetric Toeplitz matrix, not only a cost's: a tiny spectral gap
    # may exhaust the steps, and then the solver must say so.
    matrix = CostMatrix(np.random.default_rng(seed).uniform(-1.0, 1.0, dim))
    try:
        pair = smallest_eigenpair(matrix)
    except SolverConvergenceError:
        return
    scale = solver_module._inf_norm(matrix.column)
    dense_value = np.linalg.eigvalsh(dense_toeplitz(matrix.column))[0]
    assert abs(pair.eigenvalue - dense_value) <= 1e-12 * scale
    assert pair.residual_norm <= solver_module.RESIDUAL_RTOL * scale
    vector = pair.eigenvector
    assert np.array_equal(vector, vector[::-1]) or np.array_equal(vector, -vector[::-1])


def test_eigenvalue_matches_inertia_bisection_oracle():
    rng = np.random.default_rng(31)
    for dim in range(2, 9):
        n = dim - 1
        matrices = [
            cost_matrix(canonical_cost(label, max(1, n)), n)
            for label in ("sin2", "abs", "abs_sin_half", "neg_delta")
        ]
        for _ in range(3):
            matrices.append(CostMatrix(rng.standard_normal(dim)))
        for matrix in matrices:
            pair = smallest_eigenpair(matrix)
            oracle = smallest_eigenvalue_bisection(dense_toeplitz(matrix.column))
            assert abs(pair.eigenvalue - oracle) <= 1e-9


@pytest.mark.parametrize("n", [3, 9, 32, 100, 257, 1000])
@pytest.mark.parametrize("label", ["abs", "abs_sin_half", "neg_delta"])
def test_lanczos_eigenvalue_matches_dense(label, n):
    # The name predates the LOBPCG solver; it is kept so the 18 test ids stay stable.
    matrix = cost_matrix(canonical_cost(label, n), n)
    assert matrix.bandwidth >= 2
    pair = smallest_eigenpair(matrix)
    dense = np.linalg.eigvalsh(dense_toeplitz(matrix.column))[0]
    assert abs(pair.eigenvalue - dense) <= 1e-12 * abs(dense)


@pytest.mark.parametrize("label", ["sin2", "abs"])
def test_optimal_state_memory_is_linear_in_n(label):
    # the dense cost matrix alone would take 4001^2 * 8 bytes = 128 MB
    f = canonical_cost(label, 4000)
    tracemalloc.start()
    try:
        optimal_state(f, 4000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


def test_lobpcg_non_convergence_raises(capsys, monkeypatch):
    monkeypatch.setattr(solver_module, "_MAX_ITERATIONS", 1)
    with pytest.raises(SolverConvergenceError):
        smallest_eigenpair(cost_matrix(canonical_cost("abs", 10), 10))
    assert cli.main(["state", "--kind", "optimal", "--cost", "abs", "--n", "10"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: LOBPCG did not converge")
    assert err.count("\n") == 1


def test_failed_solve_logs_one_debug_record(caplog, monkeypatch):
    monkeypatch.setattr(solver_module, "_MAX_ITERATIONS", 1)
    matrix = cost_matrix(canonical_cost("abs", 10), 10)
    with caplog.at_level(logging.DEBUG, logger="qclock"):
        with pytest.raises(SolverConvergenceError) as raised:
            smallest_eigenpair(matrix)
    (record,) = caplog.records
    assert record.name == "qclock" and record.levelno == logging.DEBUG
    fields = record.args
    # abs runs only the symmetric class, which stops after its one step
    assert (fields["path"], fields["iterations"]) == ("lobpcg", (1,))
    residual = fields["residual_rel"] * solver_module._inf_norm(matrix.column)
    assert fields["residual_rel"] > solver_module.RESIDUAL_RTOL
    assert f"residual {residual:.3e}" in str(raised.value)
    assert "solver: path=lobpcg iterations=(1,)" in record.getMessage()


@pytest.mark.parametrize("cost, path", [("abs", "lobpcg"), ("sin2", "closed_form")])
def test_solver_logs_one_debug_record(caplog, capsys, cost, path):
    argv = ["state", "--kind", "optimal", "--cost", cost, "--n", "30"]
    assert cli.main(argv) == 0
    quiet = capsys.readouterr().out
    assert not caplog.records
    with caplog.at_level(logging.DEBUG, logger="qclock"):
        assert cli.main(argv) == 0
    assert capsys.readouterr().out == quiet
    (record,) = caplog.records
    assert record.name == "qclock" and record.levelno == logging.DEBUG
    fields = record.args
    assert fields["path"] == path
    # abs has no positive off-diagonal entry, so only the symmetric class runs
    assert len(fields["iterations"]) == (path == "lobpcg")
    assert all(0 < steps < solver_module._MAX_ITERATIONS for steps in fields["iterations"])
    assert 0.0 <= fields["residual_rel"] <= solver_module.RESIDUAL_RTOL
    assert f"solver: path={path}" in record.getMessage()


def test_lobpcg_debug_record_names_a_smooth_circulant(caplog):
    n = 100  # N + 1 = 101 is prime
    with caplog.at_level(logging.DEBUG, logger="qclock"):
        smallest_eigenpair(cost_matrix(canonical_cost("abs", n), n))
        smallest_eigenpair(cost_matrix(SIN2, n))
    lobpcg, closed_form = (record.args for record in caplog.records)
    size = lobpcg["circulant"]
    assert size >= n + 1 and is_five_smooth(size)
    assert f"circulant={size}" in caplog.records[0].getMessage()
    assert "circulant" not in closed_form
    assert "circulant" not in caplog.records[1].getMessage()


def test_debug_record_counts_every_matvec(caplog, monkeypatch):
    calls = []
    matvec = CostMatrix.matvec

    def counted(self, x):
        calls.append(x.size)
        return matvec(self, x)

    monkeypatch.setattr(CostMatrix, "matvec", counted)
    costs = [("abs", 100), ("abs", 3000), ("abs", 10**4), ("abs_sin_half", 130),
             ("neg_delta", 1008), ("sin2", 30)]
    # A random column has positive off-diagonals, so both parity classes run.
    skew = CostMatrix(np.random.default_rng(5).standard_normal(60))
    for matrix in [cost_matrix(canonical_cost(label, n), n) for label, n in costs] + [skew]:
        calls.clear()
        with caplog.at_level(logging.DEBUG, logger="qclock"):
            smallest_eigenpair(matrix)
        fields = caplog.records[-1].args
        assert fields["matvecs"] == len(calls) > 0
        assert f"matvecs={len(calls)}" in caplog.records[-1].getMessage()
        if fields["path"] == "lobpcg":
            # Per parity class, one matvec at the start, one per step and one
            # where the residual meets the contract; then the final check.
            steps, classes = sum(fields["iterations"]), len(fields["iterations"])
            assert len(calls) <= steps + 2 * classes + 1
    assert len(fields["iterations"]) == 2


def test_carried_residual_matches_true_residual_at_every_exit(monkeypatch):
    # LOBPCG carries F x as a combination of images after its one re-anchoring
    # matvec; the stall test and the choice of best vector read the residual
    # of that carried image, so it must not drift from the true one.
    lobpcg, exits = solver_module._lobpcg, []

    def recorded(*args):
        exits.append(lobpcg(*args))
        return exits[-1]

    monkeypatch.setattr(solver_module, "_lobpcg", recorded)
    rng = np.random.default_rng(17)
    matrices = [cost_matrix(canonical_cost(label, n), n)
                for label in ("abs", "abs_sin_half", "neg_delta") for n in (6, 100, 1000, 10**4)]
    matrices += [CostMatrix(rng.uniform(-1.0, 1.0, dim)) for dim in (3, 20, 61, 120)]
    for matrix in matrices:
        exits.clear()
        smallest_eigenpair(matrix)
        scale = solver_module._inf_norm(matrix.column)
        for x, _, carried in exits:
            fx = matrix.matvec(x)
            true = np.linalg.norm(fx - (x @ fx) * x)
            assert abs(carried - true) <= 1e-14 * scale
    assert len(exits) == 2  # the last random column ran both parity classes


def sign_fixed(vector):
    return vector if vector[np.argmax(np.abs(vector))] > 0 else -vector


def test_tridiagonal_positive_coupling_gives_alternating_vector(monkeypatch):
    n = 7
    column = np.zeros(n + 1)
    column[:2] = (2.0, 0.75)
    matrix = CostMatrix(column)
    pair = smallest_eigenpair(matrix)
    m = np.arange(n + 1)
    expected = sign_fixed((-1.0) ** m * exact_sin2_eigenvector(n))
    np.testing.assert_allclose(pair.eigenvector, expected, rtol=0, atol=1e-15)
    assert abs(pair.eigenvalue - np.linalg.eigvalsh(dense_toeplitz(matrix.column))[0]) <= 1e-15
    # No CostFunction has c1 > 0, so feed the matrix to optimal_state directly.
    monkeypatch.setattr(solver_module, "cost_matrix", lambda f, n_ions: matrix)
    with pytest.raises(SignConventionError):
        optimal_state(SIN2, n)


def test_diagonal_matrix_returns_lowest_level():
    pair = smallest_eigenpair(CostMatrix(np.array([3.0, 0.0, 0.0, 0.0])))
    assert pair.eigenvalue == 3.0
    np.testing.assert_array_equal(pair.eigenvector, [1.0, 0.0, 0.0, 0.0])


def test_sin2_eigenvalue_large_n_matches_mpmath():
    n = 10**4
    pair = smallest_eigenpair(cost_matrix(SIN2, n))
    with mpmath.workdps(40):
        exact = 2 - 2 * mpmath.cos(mpmath.pi / (n + 2))
        assert abs(pair.eigenvalue - exact) <= 1e-15 * exact


@pytest.mark.parametrize("n", [6, 40, 120])
def test_abs_optimum_matches_mpmath_eigenvector(n):
    matrix = cost_matrix(canonical_cost("abs", n), n)
    value, vector, residual = smallest_eigenpair_mp(dense_toeplitz(matrix.column))
    assert residual <= 1e-30
    pair = smallest_eigenpair(matrix)
    assert np.max(np.abs(pair.eigenvector - vector)) <= 1e-14
    assert abs(pair.eigenvalue - value) <= 1e-14 * value
    np.testing.assert_array_equal(pair.eigenvector, pair.eigenvector[::-1])


@pytest.mark.parametrize("n", [100, 130])
@pytest.mark.parametrize("label", ["abs", "abs_sin_half"])
def test_optimum_at_prime_dimension_matches_mpmath_eigenvector(label, n):
    # N + 1 = 101 and 131 are prime, so both circulants are zero-padded.
    matrix = cost_matrix(canonical_cost(label, n), n)
    value, vector, residual = smallest_eigenpair_mp(dense_toeplitz(matrix.column))
    assert residual <= 1e-30
    pair = smallest_eigenpair(matrix)
    assert np.max(np.abs(pair.eigenvector - vector)) <= 1e-14
    assert abs(pair.eigenvalue - value) <= 1e-14 * value
    np.testing.assert_array_equal(pair.eigenvector, pair.eigenvector[::-1])


@pytest.mark.parametrize("label", ["abs", "abs_sin_half", "neg_delta"])
def test_eigenvalue_at_prime_dimension_1009_matches_dense(label):
    n = 1008
    matrix = cost_matrix(canonical_cost(label, n), n)
    pair = smallest_eigenpair(matrix)
    # LAPACK's eigenvalue itself can be 2.6e-12 relative off (abs, one BLAS
    # thread). The long-double Rayleigh quotient of its eigenvector is not:
    # its error is quadratic in the vector's.
    dense = dense_toeplitz(matrix.column)
    vector = np.linalg.eigh(dense)[1][:, 0].astype(np.longdouble)
    reference = float(vector @ (dense.astype(np.longdouble) @ vector) / (vector @ vector))
    assert abs(pair.eigenvalue - reference) <= 1e-12 * abs(reference)


@pytest.mark.parametrize("n", [6, 17, 64])
@pytest.mark.parametrize("label", ["abs", "abs_sin_half", "neg_delta"])
def test_optimum_is_within_one_eps_of_mpmath(label, n):
    matrix = cost_matrix(canonical_cost(label, n), n)
    _, vector, _ = smallest_eigenpair_mp(dense_toeplitz(matrix.column))
    pair = smallest_eigenpair(matrix)
    assert np.max(np.abs(pair.eigenvector - vector)) <= np.finfo(float).eps


def test_mpmath_eigenpair_oracle_agrees_with_eigsy():
    entries = dense_toeplitz(cost_matrix(canonical_cost("abs", 6), 6).column)
    value, vector, _ = smallest_eigenpair_mp(entries)
    with mpmath.workdps(40):
        values, vectors = mpmath.eigsy(mpmath.matrix(entries.tolist()))
        index = min(range(len(entries)), key=lambda j: values[j])
        reference = sign_fixed(np.array([float(vectors[k, index]) for k in range(len(entries))]))
        assert abs(value - values[index]) <= 1e-16 * abs(values[index])
    assert np.max(np.abs(vector - reference)) <= 1e-16


def test_abs_optimum_large_n_eigenvalue_is_its_rayleigh_quotient():
    n = 10**4
    f = canonical_cost("abs", n)
    matrix = cost_matrix(f, n)
    pair = smallest_eigenpair(matrix)
    scale = solver_module._inf_norm(matrix.column)
    assert pair.residual_norm <= solver_module.RESIDUAL_RTOL * scale
    reference = rayleigh_quotient_mp(pair.eigenvector, f.w0, f.coefficients)
    assert abs(pair.eigenvalue - reference) <= 1e-13 * reference


@pytest.mark.parametrize("n", [9, 99, 999])
def test_skew_symmetric_optimum_is_found(n):
    # Flipping the sign of every odd lag keeps the spectrum and turns the
    # symmetric optimum v into (-1)^m v, which is skew-symmetric at odd N.
    matrix = cost_matrix(canonical_cost("abs", n), n)
    flipped = CostMatrix(matrix.column * (-1.0) ** np.arange(n + 1))
    pair = smallest_eigenpair(matrix)
    flipped_pair = smallest_eigenpair(flipped)
    assert abs(flipped_pair.eigenvalue - pair.eigenvalue) <= 1e-12 * pair.eigenvalue
    expected = sign_fixed((-1.0) ** np.arange(n + 1) * pair.eigenvector)
    assert np.max(np.abs(flipped_pair.eigenvector - expected)) <= 1e-12
    scale = np.linalg.norm(dense_toeplitz(flipped.column), np.inf)
    assert flipped_pair.residual_norm <= solver_module.RESIDUAL_RTOL * scale


def test_variational_property():
    matrix = cost_matrix(SIN2, 20)
    pair = smallest_eigenpair(matrix)
    rng = np.random.default_rng(5)
    for _ in range(100):
        u = rng.standard_normal(21)
        u /= np.linalg.norm(u)
        assert float(u @ dense_toeplitz(matrix.column) @ u) >= pair.eigenvalue - 1e-10


@pytest.mark.parametrize("n,threshold", [(20, 0.9985), (21, 0.999), (50, 0.999), (200, 0.999)])
def test_overlap_with_approximate_sine_profile(n, threshold):
    # The half-integer sine profile is an approximation to the true
    # eigenvector; the overlap crosses 0.999 at N = 21 (N = 20 gives
    # 0.99896) and grows monotonically afterwards.
    pair = smallest_eigenpair(cost_matrix(SIN2, n))
    m = np.arange(n + 1)
    profile = np.sin(np.pi * (m + 0.5) / (n + 1))
    profile /= np.linalg.norm(profile)
    assert abs(float(pair.eigenvector @ profile)) >= threshold


def test_optimal_state_sin2_n2_equals_product_state():
    state = optimal_state(SIN2, 2)
    np.testing.assert_allclose(
        state.amplitudes, [0.5, 1.0 / np.sqrt(2.0), 0.5], rtol=0, atol=1e-10
    )
    np.testing.assert_allclose(
        state.amplitudes, product_state(2).amplitudes, rtol=0, atol=1e-10
    )
    assert abs(mean_cost_bound(state, SIN2) - (2.0 - np.sqrt(2.0))) <= 1e-12


def test_optimal_state_sin2_n20_cost_near_asymptote():
    state = optimal_state(SIN2, 20)
    achieved = mean_cost_bound(state, SIN2)
    target = np.pi**2 / 21**2
    assert abs(achieved - target) <= 0.15 * target
    pair = smallest_eigenpair(cost_matrix(SIN2, 20))
    assert abs(achieved - pair.eigenvalue) <= 1e-12


def test_optimal_state_sin2_large_n_is_sine_state():
    n = 10**4
    state = optimal_state(SIN2, n)
    m = np.arange(n + 1)
    sine = np.sqrt(2.0 / (n + 2)) * np.sin(np.pi * (m + 1) / (n + 2))
    assert np.linalg.norm(state.amplitudes - sine) <= 1e-9


def test_optimal_state_neg_delta_is_phase_state():
    state = optimal_state(canonical_cost("neg_delta", 20), 20)
    np.testing.assert_allclose(
        state.amplitudes, phase_state(20).amplitudes, rtol=0, atol=1e-10
    )


def test_neg_delta_large_n_eigenvalue_matches_closed_form():
    # F is the constant -1/(2 pi); its eigenvalue -(N+1)/(2 pi) comes out of
    # a sum of ~N^2/2 equal terms, which must not lose N eps.
    n = 10**4
    pair = smallest_eigenpair(cost_matrix(canonical_cost("neg_delta", n), n))
    exact = (n + 1) / (2.0 * np.pi)
    assert abs(pair.eigenvalue + exact) <= 1e-14 * exact


def test_neg_delta_optimum_is_normalized_at_large_n():
    # np.linalg.norm's dot left this eigenvector 1e-12 off unit norm, which
    # the ClockState check rejected.
    n = 2_097_147
    amplitudes = optimal_state(canonical_cost("neg_delta", n), n).amplitudes
    assert abs(math.fsum(amplitudes**2) - 1.0) <= 1e-14


def test_solver_deterministic():
    first = smallest_eigenpair(cost_matrix(SIN2, 50))
    second = smallest_eigenpair(cost_matrix(SIN2, 50))
    assert first.eigenvalue == second.eigenvalue
    assert np.array_equal(first.eigenvector, second.eigenvector)
