import numpy as np
import pytest

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


STATE = qclock.phase_state(4)
SIN2 = qclock.canonical_cost("sin2", 1)

# One integer argument of each call, with a valid value; floats and bools
# standing for it must raise ValueError, not be rounded or reach NumPy.
INTEGER_ARGUMENTS = {
    "canonical_cost-order": (lambda v: qclock.canonical_cost("abs", v), 3),
    "posterior-outcome": (lambda v: qclock.posterior(STATE, v, 80), 1),
    "posterior-grid": (lambda v: qclock.posterior(STATE, 1, v), 80),
    "phase_closed_form-outcome": (
        lambda v: qclock.phase_state_posterior_closed_form(4, v, 80), 1),
    "optimal_closed_form-grid": (
        lambda v: qclock.optimal_state_posterior_closed_form(4, 0, v), 80),
    "mutual_information-grid": (lambda v: qclock.mutual_information_bits(STATE, v), 80),
}


@pytest.mark.parametrize("name", INTEGER_ARGUMENTS)
@pytest.mark.parametrize("cast", [float, lambda v: v + 0.5, np.float64, bool],
                         ids=["float", "fraction", "float64", "bool"])
def test_integer_arguments_reject_other_types(name, cast):
    call, valid = INTEGER_ARGUMENTS[name]
    call(valid)
    call(np.int64(valid))
    with pytest.raises(ValueError, match="integer"):
        call(cast(valid))
