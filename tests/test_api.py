import qclock

PUBLIC_NAMES = [
    "CANONICAL_LABELS", "ClockState", "CostFunction", "CostMatrix", "EigenPair",
    "EnergyStats", "EstimationReport", "KINDS", "OutcomeDistribution",
    "PosteriorGrid", "ScanRow", "SignConventionError", "SimConfig", "SimResult",
    "SolverConvergenceError", "canonical_cost", "circular_rms_error",
    "cost_matrix", "energy_stats", "estimation_report", "evaluate_cost",
    "max_energy_spread_state", "mean_cost_bound", "mean_cost_direct",
    "measurement_times", "mutual_information_bits", "mutual_information_nats",
    "optimal_state", "optimal_state_posterior_closed_form",
    "outcome_distribution", "phase_state", "phase_state_posterior_closed_form",
    "posterior", "product_cost_closed_form", "product_state", "run_simulation",
    "scan_n", "smallest_eigenpair", "state_for", "wrap_angle",
]


def test_public_surface_is_pinned():
    # a refactor must change the public API on purpose, not by accident
    assert sorted(qclock.__all__) == PUBLIC_NAMES
    assert all(hasattr(qclock, name) for name in PUBLIC_NAMES)
    assert qclock.KINDS == ("product", "phase", "optimal", "max_spread")
