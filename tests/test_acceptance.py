"""End-to-end acceptance suite: one check per numbered criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or on
failure) and asserts at the stated tolerance.
"""

import time

import numpy as np

from qclock import (
    ClockState,
    canonical_cost,
    circular_rms_error,
    cli,
    cost_matrix,
    energy_stats,
    mean_cost_bound,
    mean_cost_direct,
    measurement_times,
    mutual_information_bits,
    optimal_state,
    outcome_distribution,
    phase_state,
    phase_state_posterior_closed_form,
    posterior,
    product_cost_closed_form,
    product_state,
    run_simulation,
    smallest_eigenpair,
    state_for,
    wrap_angle,
    SimConfig,
)

from oracles import (
    dense_toeplitz,
    outcome_probs_direct,
    random_clock_amplitudes,
    smallest_eigenvalue_bisection,
)

TWO_PI = 2.0 * np.pi
SIN2 = canonical_cost("sin2", 1)


def _report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def test_criterion_01_phase_state_cost_exact():
    start = time.perf_counter()
    worst = max(
        abs(mean_cost_bound(phase_state(n), SIN2) - 2.0 / (n + 1))
        for n in range(1, 257)
    )
    elapsed = time.perf_counter() - start
    _report(
        "criterion 1: phase-state cost = 2/(N+1) within 1e-10, N <= 256",
        worst <= 1e-10 and elapsed < 5.0,
        f"worst error {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_optimal_cost_scaling():
    start = time.perf_counter()
    worst_exact = 0.0
    worst_rel = 0.0
    for n in range(1, 513):
        value = smallest_eigenpair(cost_matrix(SIN2, n)).eigenvalue
        worst_exact = max(worst_exact, abs(value - (2.0 - 2.0 * np.cos(np.pi / (n + 2)))))
        if n >= 64:
            approx = np.pi**2 / (n + 1) ** 2
            worst_rel = max(worst_rel, abs(value - approx) / approx)
    elapsed = time.perf_counter() - start
    _report(
        "criterion 2: smallest eigenvalue matches 2-2cos(pi/(N+2)) and pi^2/(N+1)^2",
        worst_exact <= 1e-9 and worst_rel <= 0.05 and elapsed < 60.0,
        f"exact err {worst_exact:.2e}, rel err {worst_rel:.3f}, {elapsed:.2f}s",
    )


def test_criterion_03_product_cost_inverse_n():
    scaled = 512 * product_cost_closed_form(512)
    _report(
        "criterion 3: N * product cost in [0.9, 1.1] at N = 512",
        0.9 <= scaled <= 1.1,
        f"N*cost = {scaled:.6f}",
    )


def test_criterion_04_delta_cost_optimum_is_phase_state():
    worst_amp = 0.0
    worst_val = 0.0
    for n in (2, 20, 100):
        f = canonical_cost("neg_delta", n)
        state = optimal_state(f, n)
        worst_amp = max(
            worst_amp, float(np.max(np.abs(state.amplitudes - phase_state(n).amplitudes)))
        )
        value = smallest_eigenpair(cost_matrix(f, n)).eigenvalue
        expected = -(n + 1) / TWO_PI
        worst_val = max(worst_val, abs(value - expected) / abs(expected))
    _report(
        "criterion 4: delta-cost optimum is the phase state, eigenvalue -(N+1)/(2pi)",
        worst_amp <= 1e-9 and worst_val <= 1e-9,
        f"amplitude err {worst_amp:.2e}, eigenvalue rel err {worst_val:.2e}",
    )


def test_criterion_05_bound_saturated_for_all_combinations():
    worst = 0.0
    for label in ("sin2", "abs", "neg_delta"):
        f = canonical_cost(label, 20)
        for kind in ("product", "phase", "optimal", "max_spread"):
            state = state_for(kind, 20, label)
            worst = max(worst, abs(mean_cost_direct(state, f) - mean_cost_bound(state, f)))
    _report(
        "criterion 5: measured mean cost equals the bound for 12 state/cost pairs",
        worst <= 1e-9,
        f"worst gap {worst:.2e}",
    )


def test_criterion_06_phase_posterior_identities():
    n, j, grid_size = 20, 10, 420
    born = posterior(phase_state(n), j, grid_size)
    closed = phase_state_posterior_closed_form(n, j, grid_size)
    sup = float(np.max(np.abs(born.density - closed.density)))
    t_j = measurement_times(n)[j]
    peak = born.density[int(np.argmin(np.abs(born.grid - t_j)))]
    peak_err = abs(peak - (n + 1) / TWO_PI)
    zero_worst = 0.0
    for k in range(1, n + 1):
        other = (t_j + TWO_PI * k / (n + 1)) % TWO_PI
        idx = int(np.argmin(np.abs(born.grid - other)))
        zero_worst = max(zero_worst, float(born.density[idx]))
    _report(
        "criterion 6: phase posterior matches kernel, peak (N+1)/(2pi), zeros on grid",
        sup <= 1e-8 and peak_err <= 1e-10 and zero_worst <= 1e-10,
        f"sup {sup:.1e}, peak err {peak_err:.1e}, zero magnitude {zero_worst:.1e}",
    )


def _cli_posterior_profile(capsys, kind):
    argv = [
        "posterior", "--kind", kind, "--n", "20", "--outcome", "10",
        "--grid", "840", "--cost", "sin2",
    ]
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == 0
    offsets, density = [], []
    header_seen = False
    for line in out.splitlines():
        if line.startswith("#"):
            continue
        if not header_seen:
            header_seen = True
            continue
        _, off, dens = line.split(",")
        offsets.append(float(off))
        density.append(float(dens))
    return np.array(offsets), np.array(density)


def test_criterion_07_posterior_curve_ordering(capsys):
    curves = {kind: _cli_posterior_profile(capsys, kind) for kind in ("product", "phase", "optimal")}

    def half_width(kind):
        offsets, density = curves[kind]
        above = offsets[density >= density.max() / 2.0]
        return above.max() - above.min()

    def window_mean(kind, lo, hi):
        offsets, density = curves[kind]
        sel = (np.abs(offsets) >= lo) & (np.abs(offsets) <= hi)
        return float(density[sel].mean())

    widths_ordered = half_width("product") > half_width("optimal") > half_width("phase")
    near_pi = {k: window_mean(k, np.pi - 0.3, np.pi) for k in curves}
    tails_ordered = near_pi["product"] < near_pi["optimal"] < near_pi["phase"]
    factor_ok = all(
        5.0 * window_mean("optimal", lo, hi) <= window_mean("phase", lo, hi)
        for (lo, hi) in [(np.pi / 2, 3 * np.pi / 4), (3 * np.pi / 4, np.pi)]
    )
    _report(
        "criterion 7: posterior widths product>optimal>phase, tails ordered, factor 5",
        widths_ordered and tails_ordered and factor_ok,
        f"widths p/o/f = {half_width('product'):.3f}/{half_width('optimal'):.3f}/"
        f"{half_width('phase'):.3f}, near-pi means {near_pi['product']:.1e}/"
        f"{near_pi['optimal']:.1e}/{near_pi['phase']:.1e}",
    )


def test_criterion_08_fundamental_bounds():
    worst_product = np.inf
    worst_resolution = np.inf
    worst_info_excess = -np.inf
    for n in (4, 16, 64):
        for kind in ("product", "phase", "optimal", "max_spread"):
            state = state_for(kind, n, "sin2")
            delta_t = circular_rms_error(state)
            spread = energy_stats(state).energy_stddev
            worst_product = min(worst_product, delta_t * spread)
            worst_resolution = min(worst_resolution, delta_t * n)
            worst_info_excess = max(
                worst_info_excess, mutual_information_bits(state) - np.log2(n + 1)
            )
    _report(
        "criterion 8: dt*dE >= 1/2, dt >= 1/N, information <= log2(N+1)",
        worst_product >= 0.5 - 1e-9
        and worst_resolution >= 1.0 - 1e-9
        and worst_info_excess <= 1e-9,
        f"min dt*dE {worst_product:.6f}, min dt*N {worst_resolution:.3f}, "
        f"max info excess {worst_info_excess:.1e}",
    )


def test_criterion_09_information_scaling():
    start = time.perf_counter()
    phase_info = {n: mutual_information_bits(phase_state(n)) for n in (16, 32, 64)}
    product_info = {n: mutual_information_bits(product_state(n)) for n in (16, 32, 64, 128)}
    phase_ok = all(abs(phase_info[2 * n] - phase_info[n] - 1.0) <= 0.25 for n in (16, 32))
    product_ok = all(
        abs(product_info[4 * n] - product_info[n] - 1.0) <= 0.35 for n in (16, 32)
    )
    elapsed = time.perf_counter() - start
    _report(
        "criterion 9: +1 bit per doubling (phase) / per quadrupling (product)",
        phase_ok and product_ok and elapsed < 120.0,
        f"phase diffs {phase_info[32]-phase_info[16]:.3f}, {phase_info[64]-phase_info[32]:.3f}; "
        f"product diffs {product_info[64]-product_info[16]:.3f}, "
        f"{product_info[128]-product_info[32]:.3f}; {elapsed:.1f}s",
    )


def test_criterion_10_monte_carlo_validation():
    start = time.perf_counter()
    config = SimConfig("phase", 20, "sin2", 10**5, 42)
    first = run_simulation(config)
    second = run_simulation(config)
    elapsed = time.perf_counter() - start
    deviation = abs(first.empirical_mean_cost - 2.0 / 21.0)
    reproducible = (
        first.empirical_mean_cost == second.empirical_mean_cost
        and first.empirical_delta_t == second.empirical_delta_t
        and np.array_equal(first.histogram, second.histogram)
    )
    _report(
        "criterion 10: Monte Carlo within 4 SE of 2/21 and bitwise reproducible",
        deviation <= 4.0 * first.standard_error_cost and reproducible and elapsed < 30.0,
        f"deviation {deviation:.2e} vs 4SE {4 * first.standard_error_cost:.2e}, {elapsed:.1f}s",
    )


def test_criterion_11_oracle_suite():
    rng = np.random.default_rng(101)
    worst_eigen = 0.0
    for dim in range(2, 9):
        n = dim - 1
        candidates = [
            cost_matrix(canonical_cost(label, max(1, n)), n)
            for label in ("sin2", "abs", "neg_delta")
        ]
        for matrix in candidates:
            value = smallest_eigenpair(matrix).eigenvalue
            oracle = smallest_eigenvalue_bisection(dense_toeplitz(matrix.column))
            worst_eigen = max(worst_eigen, abs(value - oracle))
    worst_outcome = 0.0
    for n in range(1, 7):
        state = ClockState(n, random_clock_amplitudes(rng, n + 1))
        for t in rng.uniform(0.0, TWO_PI, size=5):
            probs = outcome_distribution(state, float(t)).probabilities
            oracle = outcome_probs_direct(state.amplitudes, float(t))
            worst_outcome = max(worst_outcome, float(np.max(np.abs(probs - oracle))))
    _report(
        "criterion 11: bisection eigen-oracle (1e-9) and complex-sum outcome oracle (1e-12)",
        worst_eigen <= 1e-9 and worst_outcome <= 1e-12,
        f"eigen gap {worst_eigen:.2e}, outcome gap {worst_outcome:.2e}",
    )
