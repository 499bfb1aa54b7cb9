import numpy as np
import pytest

from qclock import (
    ClockState,
    energy_stats,
    max_energy_spread_state,
    phase_state,
    product_state,
)

from oracles import (
    exact_binomial_amplitudes,
    product_amplitudes_mp,
    random_clock_amplitudes,
)

SQRT2_INV = 1.0 / np.sqrt(2.0)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 64, 200, 512])
def test_constructors_are_normalized_and_nonnegative(n):
    for state in (product_state(n), phase_state(n), max_energy_spread_state(n)):
        assert abs(float(state.amplitudes @ state.amplitudes) - 1.0) <= 1e-12
        assert np.all(state.amplitudes >= 0.0)
        assert state.dim == n + 1


def test_product_state_small_n_values():
    np.testing.assert_allclose(
        product_state(1).amplitudes, [SQRT2_INV, SQRT2_INV], rtol=0, atol=1e-15
    )
    # binomials C(2, m) = 1, 2, 1 normalized
    np.testing.assert_allclose(
        product_state(2).amplitudes, [0.5, SQRT2_INV, 0.5], rtol=0, atol=1e-15
    )


@pytest.mark.parametrize("n", [5, 17, 200])
def test_product_state_matches_exact_binomial_oracle(n):
    np.testing.assert_allclose(
        product_state(n).amplitudes,
        exact_binomial_amplitudes(n),
        rtol=0,
        atol=1e-13,
    )


@pytest.mark.parametrize("n", [10**4, 10**5])
def test_product_state_keeps_its_digits_at_large_n(n):
    # lgamma log-binomials were 7.7e-12 and 7.7e-11 of the peak off here
    reference = product_amplitudes_mp(n)
    error = np.abs(product_state(n).amplitudes - reference).max()
    assert error <= 8.0 * np.spacing(reference.max())


@pytest.mark.parametrize("n", [3, 10, 101, 512])
def test_product_state_amplitudes_exactly_symmetric(n):
    a = product_state(n).amplitudes
    assert np.array_equal(a, a[::-1])


def test_phase_state_values():
    np.testing.assert_allclose(
        phase_state(2).amplitudes, np.full(3, 1.0 / np.sqrt(3.0)), rtol=0, atol=1e-15
    )
    a20 = phase_state(20).amplitudes
    assert a20.size == 21
    np.testing.assert_allclose(a20, np.full(21, 1.0 / np.sqrt(21.0)), rtol=0, atol=1e-15)
    np.testing.assert_allclose(
        phase_state(1).amplitudes, product_state(1).amplitudes, rtol=0, atol=1e-15
    )


def test_max_energy_spread_state_values():
    expected = np.zeros(5)
    expected[0] = expected[4] = SQRT2_INV
    np.testing.assert_allclose(
        max_energy_spread_state(4).amplitudes, expected, rtol=0, atol=1e-15
    )
    np.testing.assert_allclose(
        max_energy_spread_state(1).amplitudes, phase_state(1).amplitudes, rtol=0, atol=1e-15
    )


@pytest.mark.parametrize("n", [1, 4, 25, 100])
def test_product_state_energy_spread(n):
    stats = energy_stats(product_state(n))
    assert abs(stats.energy_stddev - np.sqrt(n) / 2.0) <= 1e-12
    assert abs(stats.mean_energy - n / 2.0) <= 1e-12
    assert stats.resolution_bound == 1.0 / n


@pytest.mark.parametrize("n", [10**5, 10**6])
def test_product_state_energy_spread_keeps_its_digits_at_large_n(n):
    # E[m^2] - mean^2 was 1.9e-11 and 1.2e-10 relative off here
    stats = energy_stats(product_state(n))
    expected = np.sqrt(n) / 2.0
    assert abs(stats.energy_stddev - expected) <= 4.0 * np.spacing(expected)
    assert all(type(value) is float for value in vars(stats).values())


@pytest.mark.parametrize("n", [2, 4, 31])
def test_max_spread_state_energy_spread(n):
    stats = energy_stats(max_energy_spread_state(n))
    assert abs(stats.energy_stddev - n / 2.0) <= 1e-12


def test_energy_eigenstate_has_zero_spread():
    amplitudes = np.zeros(6)
    amplitudes[3] = 1.0
    stats = energy_stats(ClockState(5, amplitudes))
    assert stats.energy_stddev == 0.0
    assert stats.mean_energy == 3.0


def test_energy_spread_bounded_by_half_n():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 17))
        state = ClockState(n, random_clock_amplitudes(rng, n + 1))
        stats = energy_stats(state)
        assert stats.energy_stddev <= n / 2.0 + 1e-12
        assert 0.0 <= stats.mean_energy <= n


def test_invalid_states_rejected():
    with pytest.raises(ValueError):
        product_state(0)
    with pytest.raises(ValueError):
        phase_state(0)
    with pytest.raises(ValueError):
        max_energy_spread_state(-1)
    with pytest.raises(ValueError):
        ClockState(2, np.array([1.0, 0.0]))  # wrong length
    with pytest.raises(ValueError):
        ClockState(2.0, np.array([0.0, 1.0, 0.0]))  # float n_ions
    with pytest.raises(ValueError):
        ClockState(1, np.array([1.0, -0.1]))  # negative amplitude
    with pytest.raises(ValueError):
        ClockState(1, np.array([1.0, 1.0]))  # unnormalized


def test_amplitudes_are_immutable():
    state = phase_state(3)
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0
