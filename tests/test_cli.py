import argparse
import difflib
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qclock import canonical_cost, cli, cost_matrix
from qclock.cost import CANONICAL_LABELS
import qclock.measurement as measurement_module
import qclock.sim as sim_module
from qclock.sim import DEFAULT_HISTOGRAM_BINS, ScanRow
from qclock.solver import SignConventionError

from oracles import (
    bernstein_band,
    cost_second_moment_mp,
    dense_toeplitz,
    energy_moments_mp,
    g_test_p_value,
    mutual_information_mp,
    phase_mutual_information_mp,
    posterior_mp,
    product_amplitudes_mp,
    rayleigh_quotient_mp,
    sine_state_amplitudes_mp,
    smallest_eigenpair_mp,
    wrapped_error_bin_probabilities,
    wrapped_error_moments,
    wrapped_rms_series_mp,
)


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    meta = {}
    rows = []
    header = None
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


def test_state_phase_csv(capsys):
    code, out, _ = run_cli(capsys, ["state", "--kind", "phase", "--n", "2"])
    assert code == 0
    meta, header, rows = parse_csv(out)
    assert meta["schema_version"] == "1"
    assert header == ["m", "amplitude"]
    assert [row[1] for row in rows] == ["0.57735026919"] * 3
    assert meta["mean_cost"] == "0.666666666667"


def test_state_optimal_csv(capsys):
    code, out, _ = run_cli(
        capsys, ["state", "--kind", "optimal", "--n", "2", "--cost", "sin2"]
    )
    assert code == 0
    _, _, rows = parse_csv(out)
    assert [row[1] for row in rows] == ["0.5", "0.707106781187", "0.5"]


def test_state_optimal_requires_cost(capsys):
    code, out, err = run_cli(capsys, ["state", "--kind", "optimal", "--n", "2"])
    assert code == 2
    assert out == ""
    assert "--cost" in err


@pytest.mark.parametrize("command", ["posterior", "mutinfo"])
def test_optimal_requires_cost_everywhere(capsys, command):
    code, out, err = run_cli(capsys, [command, "--kind", "optimal", "--n", "4"])
    assert code == 2
    assert out == ""
    assert "--cost" in err


def test_omitted_cost_is_not_echoed(capsys):
    code, out, _ = run_cli(capsys, ["posterior", "--kind", "phase", "--n", "4"])
    assert code == 0
    meta, _, _ = parse_csv(out)
    assert meta["command"] == "posterior kind=phase n=4 outcome=0 grid=80"
    code, out, _ = run_cli(capsys, ["mutinfo", "--kind", "phase", "--n", "4"])
    assert code == 0
    assert json.loads(out)["args"] == {"kind": "phase", "n": 4}


def test_state_json_format(capsys):
    code, out, _ = run_cli(
        capsys, ["state", "--kind", "phase", "--n", "4", "--format", "json"]
    )
    assert code == 0
    record = json.loads(out)
    assert record["schema_version"] == "1"
    assert record["command"] == "state"
    np.testing.assert_allclose(record["payload"]["amplitudes"], np.full(5, 0.2**0.5))
    assert record["payload"]["mean_cost"] == pytest.approx(0.4)


def test_invalid_kind_exits_2(capsys):
    code, _, _ = run_cli(capsys, ["state", "--kind", "spiral", "--n", "2"])
    assert code == 2


def test_invalid_n_exits_2(capsys):
    code, _, _ = run_cli(capsys, ["state", "--kind", "phase", "--n", "0"])
    assert code == 2


def test_non_integer_n_names_the_rule_not_the_parser(capsys):
    code, _, err = run_cli(capsys, ["state", "--kind", "phase", "--n", "2.0"])
    assert code == 2
    assert "argument --n: must be a positive integer, got 2.0" in err
    assert "_positive_int" not in err


@pytest.mark.parametrize("value", [str(2**40 + 1), str(10**20)])
@pytest.mark.parametrize("argv, option", [
    (["state", "--kind", "phase", "--n", "{}"], "--n"),
    (["mutinfo", "--kind", "phase", "--n", "{}"], "--n"),
    (["posterior", "--kind", "phase", "--n", "2", "--grid", "{}"], "--grid"),
    (["simulate", "--kind", "phase", "--n", "4", "--cost", "sin2", "--samples", "{}"],
     "--samples"),
    (["scan", "--kinds", "phase", "--cost", "sin2", "--n", "{0}:{0}"], "invalid range"),
], ids=["state", "mutinfo", "posterior", "simulate", "scan"])
def test_oversized_counts_exit_2_without_a_traceback(capsys, argv, option, value):
    # Each of these ended in a traceback at 10**20; parsing now stops them.
    code, out, err = run_cli(capsys, [arg.format(value) for arg in argv])
    assert (code, out) == (2, "")
    assert "2**40" in err and option in err
    assert "Traceback" not in err


def test_non_integer_seed_names_the_rule_not_the_parser(capsys):
    argv = ["simulate", "--kind", "phase", "--n", "4", "--cost", "sin2",
            "--samples", "10", "--seed", "x"]
    code, _, err = run_cli(capsys, argv)
    assert code == 2
    assert "argument --seed: seed must fit in 64 unsigned bits" in err
    assert "_seed_int" not in err


def test_posterior_peak_and_zero(capsys):
    code, out, _ = run_cli(
        capsys,
        ["posterior", "--kind", "phase", "--n", "20", "--outcome", "10", "--grid", "420"],
    )
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == ["t", "offset", "density"]
    offsets = np.array([float(row[1]) for row in rows])
    density = np.array([float(row[2]) for row in rows])
    peak = density[np.argmin(np.abs(offsets))]
    assert abs(peak - 21.0 / (2.0 * np.pi)) <= 1e-9
    spacing = 2.0 * np.pi / 21.0
    zero_idx = np.argmin(np.abs(offsets - spacing))
    assert density[zero_idx] <= 1e-10


def test_posterior_width_ordering(capsys):
    def half_width(kind):
        argv = ["posterior", "--kind", kind, "--n", "20", "--outcome", "10",
                "--grid", "840", "--cost", "sin2"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        _, _, rows = parse_csv(out)
        offsets = np.array([float(row[1]) for row in rows])
        density = np.array([float(row[2]) for row in rows])
        above = offsets[density >= density.max() / 2.0]
        return above.max() - above.min()

    assert half_width("product") > half_width("phase")


def test_posterior_rejects_coarse_grid(capsys):
    code, _, err = run_cli(
        capsys, ["posterior", "--kind", "phase", "--n", "20", "--grid", "20"]
    )
    assert code == 2
    assert "--grid" in err


def test_posterior_takes_every_grid_of_n_plus_1_nodes(capsys):
    # the trapezoid rule normalises the degree-N posterior exactly on N+1 nodes
    argv = ["posterior", "--kind", "phase", "--n", "5", "--grid"]
    code, out, _ = run_cli(capsys, [*argv, "6"])
    assert code == 0
    assert len(parse_csv(out)[2]) == 6
    assert run_cli(capsys, [*argv, "5"]) == (2, "", "error: --grid must be at least 6 for n=5\n")


def test_posterior_rejects_bad_outcome(capsys):
    code, _, _ = run_cli(
        capsys, ["posterior", "--kind", "phase", "--n", "4", "--outcome", "9"]
    )
    assert code == 2


def test_scan_phase_costs(capsys):
    code, out, _ = run_cli(
        capsys, ["scan", "--kinds", "phase", "--cost", "sin2", "--n", "3:15"]
    )
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header[0] == "n" and header[2] == "mean_cost"
    for row in rows:
        n = int(row[0])
        assert float(row[2]) == pytest.approx(2.0 / (n + 1), abs=1e-10)


def test_scan_neg_delta_flags_phase_state(capsys):
    code, out, _ = run_cli(
        capsys, ["scan", "--kinds", "optimal", "--cost", "neg_delta", "--n", "5:5"]
    )
    assert code == 0
    _, header, rows = parse_csv(out)
    flag_column = header.index("matches_phase_state")
    assert rows[0][flag_column] == "true"


def test_scan_invalid_range(capsys):
    code, _, err = run_cli(
        capsys, ["scan", "--kinds", "phase", "--cost", "sin2", "--n", "5:1"]
    )
    assert code == 2
    assert "range" in err


@pytest.mark.parametrize("text, message", [
    ("5", "invalid range '5'; expected a:b or a:b:step"),
    ("a:b", "invalid range 'a:b': invalid literal for int() with base 10: 'a'"),
], ids=["one-part", "not-integers"])
def test_scan_range_needs_two_or_three_integers(capsys, text, message):
    argv = ["scan", "--kinds", "phase", "--cost", "sin2", "--n", text]
    assert run_cli(capsys, argv) == (2, "", f"error: {message}\n")


def test_scan_invalid_kind(capsys):
    code, _, _ = run_cli(
        capsys, ["scan", "--kinds", "phase,spiral", "--cost", "sin2", "--n", "2:3"]
    )
    assert code == 2


def test_scan_solver_failure_exits_3(capsys, monkeypatch):
    def fake_scan(kinds, cost, n_values):
        return [ScanRow(5, "optimal", None, None, None, None, "did not converge")]

    monkeypatch.setattr(cli, "scan_n", fake_scan)
    argv = ["scan", "--kinds", "optimal", "--cost", "sin2", "--n", "5:5"]
    outputs = {}
    for fmt in ("csv", "json"):
        code, outputs[fmt], err = run_cli(capsys, argv + ["--format", fmt])
        assert code == 3
        assert err == "error: one or more scan rows failed to converge\n"
    # the failed row is still emitted, with empty cells / nulls
    assert outputs["csv"].splitlines()[-1] == "5,optimal,,,,,did not converge"
    assert json.loads(outputs["json"])["payload"] == [
        {"n": 5, "kind": "optimal", "mean_cost": None, "delta_t": None,
         "mutual_information_bits": None, "matches_phase_state": None,
         "error": "did not converge"}
    ]


def test_sign_convention_error_exits_3(capsys, monkeypatch):
    def mixed_signs(f, n_ions):
        raise SignConventionError("minimal eigenvector has mixed signs")

    monkeypatch.setattr(sim_module, "optimal_state", mixed_signs)
    code, out, err = run_cli(
        capsys, ["state", "--kind", "optimal", "--cost", "sin2", "--n", "6"]
    )
    assert code == 3
    assert out == ""
    assert err == "error: minimal eigenvector has mixed signs\n"


def test_memory_error_exits_3(capsys, monkeypatch):
    def out_of_memory(config):
        raise MemoryError()

    monkeypatch.setattr(cli, "run_simulation", out_of_memory)
    code, out, err = run_cli(
        capsys,
        ["simulate", "--kind", "phase", "--n", "4", "--cost", "sin2", "--samples", "10"],
    )
    assert code == 3
    assert out == ""
    assert err == "error: MemoryError\n"


def test_lost_histogram_samples_exit_3(capsys, monkeypatch):
    # the sampler's own check raises a bare RuntimeError
    monkeypatch.setattr(sim_module, "wrap_angle", lambda x: np.full_like(x, np.nan))
    code, out, err = run_cli(
        capsys,
        ["simulate", "--kind", "phase", "--n", "4", "--cost", "sin2", "--samples", "10"],
    )
    assert (code, out) == (3, "")
    assert err.splitlines()[-1].startswith("error: histogram lost samples")


def test_library_value_error_exits_3(capsys, monkeypatch):
    # a self-check on a computed value raises ValueError after parsing
    monkeypatch.setattr(measurement_module, "mutual_information_bits", lambda state: 99.0)
    code, out, err = run_cli(capsys, ["scan", "--kinds", "phase", "--cost", "sin2", "--n", "4:4"])
    assert (code, out) == (3, "")
    assert err == "error: mutual information exceeds the log2(N+1) capacity bound\n"


def test_simulate_json_deterministic(capsys):
    argv = ["simulate", "--kind", "phase", "--n", "8", "--cost", "sin2",
            "--samples", "2000", "--seed", "11"]
    code1, out1, _ = run_cli(capsys, argv)
    code2, out2, _ = run_cli(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical
    record = json.loads(out1)
    assert record["schema_version"] == "1"
    assert sum(record["payload"]["histogram"]["counts"]) == 2000


def test_simulate_matches_analytic(capsys):
    code, out, _ = run_cli(
        capsys,
        ["simulate", "--kind", "phase", "--n", "20", "--cost", "sin2",
         "--samples", "20000", "--seed", "42"],
    )
    assert code == 0
    payload = json.loads(out)["payload"]
    deviation = abs(payload["empirical_mean_cost"] - 2.0 / 21.0)
    assert deviation <= 4.0 * payload["standard_error_cost"]


def test_simulate_rejects_zero_samples(capsys):
    code, _, _ = run_cli(
        capsys,
        ["simulate", "--kind", "phase", "--n", "8", "--cost", "sin2",
         "--samples", "0"],
    )
    assert code == 2


def test_simulate_csv_format(capsys):
    code, out, _ = run_cli(
        capsys,
        ["simulate", "--kind", "phase", "--n", "4", "--cost", "sin2",
         "--samples", "100", "--format", "csv"],
    )
    assert code == 0
    meta, header, rows = parse_csv(out)
    assert header == ["bin_left", "bin_right", "count"]
    assert sum(int(row[2]) for row in rows) == 100
    assert "empirical_mean_cost" in meta


def test_mutinfo_basis_state_is_zero(capsys):
    code, out, _ = run_cli(capsys, ["mutinfo", "--kind", "basis", "--n", "10"])
    assert code == 0
    payload = json.loads(out)["payload"]
    assert abs(payload["bits"]) <= 1e-12
    assert payload["holevo_bound_bits"] == pytest.approx(np.log2(11.0))


def test_mutinfo_of_basis_state_prints_zero_not_a_negative_roundoff(capsys):
    code, out, _ = run_cli(capsys, ["mutinfo", "--kind", "basis", "--n", "2"])
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["bits"] == 0.0 and payload["nats"] == 0.0
    assert '"bits": 0.0,' in out and '"nats": 0.0,' in out


def test_mutinfo_phase_doubling(capsys):
    values = {}
    for n in (31, 63):
        code, out, _ = run_cli(capsys, ["mutinfo", "--kind", "phase", "--n", str(n)])
        assert code == 0
        values[n] = json.loads(out)["payload"]
    assert abs(values[63]["bits"] - values[31]["bits"] - 1.0) <= 0.25
    for n, payload in values.items():
        assert payload["bits"] <= np.log2(n + 1) + 1e-9
        assert payload["nats"] == pytest.approx(payload["bits"] * np.log(2.0))


def test_csv_uses_lf_line_endings_and_12_digits(capsys):
    _, out, _ = run_cli(capsys, ["state", "--kind", "phase", "--n", "2"])
    assert "\r" not in out
    assert "0.57735026919" in out  # 12 significant digits, trailing zeros trimmed


def test_column_writer_prints_what_fmt_prints():
    # Whole float and int columns take one printf spec; the rest, like a
    # failed scan row's None next to floats, goes through _fmt cell by cell.
    floats = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, 1e16,
              1.0 / 3.0, -2.5e-300, 123456789012.5]
    floats += np.random.default_rng(5).standard_normal(2000).tolist()
    size = len(floats)
    columns = {
        "float": floats,
        "int": range(-3, size - 3),
        "big_int": [2**70 + i for i in range(size)],
        "bool": [bool(i % 2) for i in range(size)],
        "none": [None] * size,
        "str": [f"kind%{i}" for i in range(size)],
        "mixed": [None if i % 3 == 0 else floats[i] for i in range(size)],
        "int_and_bool": [i % 2 == 0 if i % 5 == 0 else i for i in range(size)],
    }
    for name, values in columns.items():
        single = {name: values}
        expected = [cli._fmt(value) for value in values]
        assert cli._table(single).split("\n") == expected, name
    expected = [",".join(map(cli._fmt, row)) for row in zip(*columns.values())]
    assert cli._table(columns).split("\n") == expected


def test_gnuplot_companion_script(capsys, tmp_path):
    for argv in (
        ["posterior", "--kind", "phase", "--n", "6"],
        ["scan", "--kinds", "phase,optimal", "--cost", "sin2", "--n", "2:4"],
    ):
        script = tmp_path / argv[0] / "fig.gp"
        script.parent.mkdir()
        code, out, err = run_cli(capsys, argv + ["--gnuplot", str(script)])
        assert code == 0
        assert script.exists()
        content = script.read_text()
        assert "fig.csv" in content and "plot" in content
        assert str(script) in err  # logged on stderr, not stdout
        assert "gnuplot" not in out
        assert run_cli(capsys, argv) == (0, out, "")



def test_unwritable_gnuplot_path_exits_2(capsys, tmp_path):
    script = tmp_path / "missing" / "x.gp"
    argv = ["posterior", "--kind", "phase", "--n", "4", "--gnuplot", str(script)]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("error: ") and str(script) in err
    assert "Traceback" not in err and not script.exists()

GOLDEN = Path(__file__).parent / "golden"
# Each command's stdout under --format csv and json is the file
# golden/<command>.<format>; a re-pin edits that file (see the README).
GOLDEN_COMMANDS = [
    ["state", "--kind", "optimal", "--cost", "abs", "--n", "6"],
    ["posterior", "--kind", "product", "--n", "5", "--outcome", "2", "--grid", "30"],
    ["scan", "--kinds", "product,phase,optimal,max_spread", "--cost", "sin2", "--n", "1:9:4"],
    ["simulate", "--kind", "optimal", "--cost", "sin2", "--n", "8", "--samples", "500",
     "--seed", "7"],
    ["mutinfo", "--kind", "phase", "--n", "7"],
]
GOLDEN_IDS = [argv[0] for argv in GOLDEN_COMMANDS]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", GOLDEN_COMMANDS, ids=GOLDEN_IDS)
def test_cli_golden_outputs(capsys, argv, fmt):
    code, out, err = run_cli(capsys, argv + ["--format", fmt])
    assert (code, err) == (0, "")
    path = GOLDEN / f"{argv[0]}.{fmt}"
    expected = path.read_bytes()
    if out.encode() != expected:
        diff = difflib.unified_diff(
            expected.decode().splitlines(keepends=True), out.splitlines(keepends=True),
            f"tests/golden/{path.name}", "stdout",
        )
        pytest.fail("stdout differs from the golden file:\n" + "".join(diff), pytrace=False)


def golden_record(name):
    return json.loads((GOLDEN / f"{name}.json").read_text())


def csv_cell(value):
    """A JSON value as its CSV cell: %.12g, %d, true/false, empty for null."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.12g" % value
    if isinstance(value, int):
        return "%d" % value
    return "" if value is None else value


def csv_fields(command, payload):
    """The ``# name=value`` scalars and the columns a JSON payload prints as CSV."""
    if command == "scan":
        return {}, {name: [row[name] for row in payload] for name in payload[0]}
    if command == "mutinfo":
        return {}, {name: [value] for name, value in payload.items()}
    scalars = dict(payload)
    if command == "state":
        amplitudes = scalars.pop("amplitudes")
        return scalars, {"m": list(range(len(amplitudes))), "amplitude": amplitudes}
    if command == "simulate":
        histogram = scalars.pop("histogram")
        edges = histogram["bin_edges"]
        columns = {"bin_left": edges[:-1], "bin_right": edges[1:], "count": histogram["counts"]}
        return scalars, columns
    return scalars, {name: scalars.pop(name) for name in ("t", "offset", "density")}


@pytest.mark.parametrize("name", GOLDEN_IDS)
def test_golden_csv_cells_are_the_json_values_at_12_digits(name):
    record = golden_record(name)
    meta, header, rows = parse_csv((GOLDEN / f"{name}.csv").read_text())
    scalars, columns = csv_fields(name, record["payload"])
    echo = " ".join([name] + [f"{key}={value}" for key, value in record["args"].items()])
    assert meta == {"schema_version": record["schema_version"], "command": echo,
                    **{key: csv_cell(value) for key, value in scalars.items()}}
    assert header == list(columns)
    assert rows == [list(map(csv_cell, row)) for row in zip(*columns.values())]


def test_golden_state_matches_the_mpmath_eigenpair():
    # The abs optimum at N = 6. Amplitudes within one eps of the mpmath
    # eigenvector, as test_optimum_is_within_one_eps_of_mpmath asks; the mean
    # cost within 3 ulp of the mpmath Rayleigh quotient of the printed
    # amplitudes, as test_rms_error_and_mean_cost_within_3_ulp_of_mpmath; the
    # energy moments within 4 ulp of mpmath sums over them (test_states asks
    # 4 ulp of the spread); the resolution bound exactly 1/N.
    payload, n = golden_record("state")["payload"], 6
    f = canonical_cost("abs", n)
    _, vector, _ = smallest_eigenpair_mp(dense_toeplitz(cost_matrix(f, n).column))
    amplitudes = np.array(payload["amplitudes"])
    assert np.max(np.abs(amplitudes - vector)) <= np.finfo(float).eps
    cost = rayleigh_quotient_mp(amplitudes, f.w0, f.coefficients)
    assert abs(payload["mean_cost"] - cost) <= 3 * math.ulp(cost)
    mean, spread = energy_moments_mp(amplitudes)
    assert abs(payload["mean_energy"] - mean) <= 4 * math.ulp(mean)
    assert abs(payload["energy_stddev"] - spread) <= 4 * math.ulp(spread)
    assert payload["resolution_bound"] == 1 / n  # correctly rounded


def scan_amplitudes(kind, n):
    """Each scanned state from its closed form, not from ``state_for``."""
    if kind == "product":
        return product_amplitudes_mp(n)
    if kind == "optimal":
        return sine_state_amplitudes_mp(n)
    levels = np.zeros(n + 1)
    if kind == "phase":
        levels[:] = 1.0
    else:
        levels[[0, n]] = 1.0
    return levels / math.sqrt(levels.sum())  # entries 0 and 1: the sum is |levels|^2


def test_golden_scan_rows_match_mpmath():
    # Mean cost and RMS error within 3 ulp of mpmath, as
    # test_rms_error_and_mean_cost_within_3_ulp_of_mpmath asks of the same
    # rows; the information within 4 eps of an mpmath sum on the same
    # G = 16 (N+1) nodes (test_mutual_information_matches_direct_double_sum
    # asks 1e-12).
    rows = golden_record("scan")["payload"]
    kinds = ["product", "phase", "optimal", "max_spread"]
    assert [(row["n"], row["kind"]) for row in rows] == [(n, k) for n in (1, 5, 9) for k in kinds]
    for row in rows:
        n = row["n"]
        f = canonical_cost("sin2", n)
        amplitudes = scan_amplitudes(row["kind"], n)
        cost = rayleigh_quotient_mp(amplitudes, f.w0, f.coefficients)
        assert abs(row["mean_cost"] - cost) <= 3 * math.ulp(cost)
        delta_t = wrapped_rms_series_mp(amplitudes)
        assert abs(row["delta_t"] - delta_t) <= 3 * math.ulp(delta_t)
        information = mutual_information_mp(amplitudes, 16 * (n + 1))
        assert abs(row["mutual_information_bits"] - information) <= 4 * np.finfo(float).eps
        uniform = np.max(np.abs(amplitudes - 1.0 / math.sqrt(n + 1))) <= 1e-9
        assert (row["matches_phase_state"], row["error"]) == (uniform, None)


def test_golden_posterior_matches_an_mpmath_sum():
    # The product state at N = 5, outcome 2, on 30 nodes: grid within
    # 1e-15, as test_posterior_matches_direct_sum_off_lattice_grid asks; each
    # offset within 1.5 ulp of the rounded exact one, and exactly 0 at the
    # outcome time; each density within 4 eps of the peak (that test asks
    # 1e-12 of the peak); the outcome time within one ulp.
    payload, n, outcome, grid_size = golden_record("posterior")["payload"], 5, 2, 30
    t, offset, density = posterior_mp(product_amplitudes_mp(n), outcome, grid_size)
    with mpmath.workdps(30):
        outcome_time = float(2 * mpmath.pi * outcome / (n + 1))
    assert abs(payload["outcome_time"] - outcome_time) <= math.ulp(outcome_time)
    assert np.max(np.abs(np.array(payload["t"]) - t)) <= 1e-15
    printed = np.array(payload["offset"])
    assert np.array_equal(printed == 0.0, offset == 0.0)
    assert np.all(np.abs(printed - offset) <= 1.5 * np.spacing(np.abs(offset)))
    error = np.max(np.abs(np.array(payload["density"]) - density))
    assert error <= 4 * np.finfo(float).eps * density.max()


def test_golden_mutinfo_matches_the_phase_state_closed_form():
    # The phase state at N = 7: bits and nats within 4 eps of the Fejer
    # kernel's information on the same G = 16 (N+1) nodes, summed in mpmath;
    # the Holevo bound log2(N+1) = 3 exactly.
    payload, n = golden_record("mutinfo")["payload"], 7
    bits = phase_mutual_information_mp(n, 16 * (n + 1))
    assert abs(payload["bits"] - bits) <= 4 * np.finfo(float).eps
    assert abs(payload["nats"] - bits * math.log(2.0)) <= 4 * np.finfo(float).eps
    assert payload["holevo_bound_bits"] == 3.0


def test_golden_simulate_lies_in_the_bands_of_the_exact_law():
    # 500 draws of the sin2 optimum at N = 8, judged as tests/test_sim.py
    # judges its golden runs: Bernstein bands at alpha = 1e-6 around the
    # exact mean cost and E[T^2], and a G-test of the histogram against the
    # exact bin law. The bin edges lie within 1e-15 of -pi + 2 pi i / 101.
    # Each draw's error T lies in its bin, and f(T) = 2 - 2 cos T, f^2 and
    # T^2 rise with |T|, so each sum over the draws lies between the sums of
    # their least and largest values on each draw's bin: the printed mean
    # cost, RMS error and standard error e (through sum f^2 =
    # n (n - 1) e^2 + n mean^2) must lie there.
    payload, n, samples = golden_record("simulate")["payload"], 8, 500
    f = canonical_cost("sin2", n)
    amplitudes = sine_state_amplitudes_mp(n)
    mu = rayleigh_quotient_mp(amplitudes, f.w0, f.coefficients)
    variance = cost_second_moment_mp(f.w0, f.coefficients, amplitudes) - mu**2
    mean_cost = payload["empirical_mean_cost"]
    assert abs(mean_cost - mu) <= bernstein_band(samples, variance, 2.0 * f.coefficients.sum())
    second, fourth = wrapped_error_moments(amplitudes)
    band = bernstein_band(samples, fourth - second**2, np.pi**2)
    assert abs(payload["empirical_delta_t"] ** 2 - second) <= band
    edges = np.array(payload["histogram"]["bin_edges"])
    assert edges.size == DEFAULT_HISTOGRAM_BINS + 1
    with mpmath.workdps(30):
        exact = [float(mpmath.pi * (mpmath.mpf(2 * i) / (edges.size - 1) - 1))
                 for i in range(edges.size)]
    assert np.max(np.abs(edges - exact)) <= 1e-15
    counts = np.array(payload["histogram"]["counts"])
    assert counts.sum() == samples
    assert g_test_p_value(counts, wrapped_error_bin_probabilities(amplitudes, edges)) >= 1e-6

    def bin_sums(value):
        ends = value(np.stack([edges[:-1], edges[1:]]))
        least = np.where(edges[:-1] * edges[1:] < 0.0, value(0.0), ends.min(axis=0))
        return counts @ least, counts @ ends.max(axis=0)

    def cost(t):
        return 2.0 - 2.0 * np.cos(t)

    sums = {
        "cost": samples * mean_cost,
        "squared cost": samples * ((samples - 1) * payload["standard_error_cost"] ** 2
                                   + mean_cost**2),
        "squared error": samples * payload["empirical_delta_t"] ** 2,
    }
    for name, value in [("cost", cost), ("squared cost", lambda t: cost(t) ** 2),
                        ("squared error", np.square)]:
        least, largest = bin_sums(value)
        assert least <= sums[name] <= largest, name


JSON_SCALARS = st.one_of(
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 2.2250738585072e-308]),
    st.integers(),
    st.booleans(),
    st.none(),
    st.text(),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: st.one_of(
        st.lists(children), st.lists(children).map(tuple), st.dictionaries(st.text(), children)
    ),
    max_leaves=25,
)


@settings(max_examples=150, deadline=None)
@given(JSON_VALUES)
def test_json_writer_equals_indented_dumps(value):
    assert cli._json(value) == json.dumps(value, indent=2)


def run_child(*args, **environ):
    """Run ``python *args`` with this checkout's ``src`` as the only path entry
    and ``environ`` added to the child's environment."""
    return subprocess.run(
        [sys.executable, *args], capture_output=True,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]), **environ},
    )


# The abs optimum's LOBPCG solve at N = 20000 and 10^5, and a scan row at
# N = 20000. A BLAS dot splits its sum across threads, which changed these
# bytes between one and two threads.
THREAD_CASES = [
    ["state", "--kind", "optimal", "--cost", "abs", "--n", "20000", "--format", "json"],
    ["state", "--kind", "optimal", "--cost", "abs", "--n", "100000", "--format", "json"],
    ["scan", "--kinds", "optimal,product,phase", "--cost", "abs", "--n", "20000:20000",
     "--format", "json"],
]


def test_stdout_bytes_do_not_depend_on_the_blas_thread_count():
    code = "import sys, qclock.cli\nfor argv in sys.argv[1:]: qclock.cli.main(argv.split())"
    args = ["-c", code, *map(" ".join, THREAD_CASES)]
    outputs = [run_child(*args, OPENBLAS_NUM_THREADS=threads) for threads in ("1", "2")]
    for result in outputs:
        assert result.returncode == 0, result.stderr
    assert outputs[0].stdout == outputs[1].stdout


def modules_loaded_after(statement):
    code = f"import sys, qclock.cli\n{statement}\nprint(' '.join(sorted(sys.modules)))"
    result = run_child("-c", code)
    assert result.returncode == 0, result.stderr
    return result.stdout.decode().split()


def test_import_does_not_load_scipy_special():
    # scipy.special costs ~0.1 s of start-up in every CLI process
    assert "scipy.special" not in modules_loaded_after("")


@pytest.mark.parametrize("statement", [
    "",
    "qclock.cli.main(['state', '--kind', 'optimal', '--cost', 'abs', '--n', '50'])",
], ids=["import", "state-optimal-abs"])
def test_cli_loads_no_scipy_module(statement):
    # importing scipy.linalg alone costs ~0.3 s of start-up
    loaded = modules_loaded_after(statement)
    assert "qclock.solver" in loaded
    assert [name for name in loaded if name.split(".")[0] == "scipy"] == []


def test_missing_subcommand_exits_2(capsys):
    assert cli.main([]) == 2


def test_main_reads_sys_argv_by_default(capsys, monkeypatch):
    argv = ["state", "--kind", "phase", "--n", "3"]
    expected = run_cli(capsys, argv)
    monkeypatch.setattr(sys, "argv", ["qclock", *argv])
    assert run_cli(capsys, None) == expected


COMMANDS = ["state", "posterior", "scan", "simulate", "mutinfo"]
# --help of the program and of each subcommand, and one missing required
# option per subcommand.
HELP_AND_USAGE_CASES = [
    [], ["--help"], ["bogus"],
    *([command, "--help"] for command in COMMANDS),
    ["state", "--kind", "phase"],
    ["posterior", "--n", "3"],
    ["scan", "--kinds", "phase", "--n", "1:2"],
    ["simulate", "--kind", "phase", "--n", "3", "--cost", "sin2"],
    ["mutinfo", "--n", "3"],
]


@pytest.mark.parametrize("argv", HELP_AND_USAGE_CASES, ids=" ".join)
def test_help_and_usage_errors_match_a_parser_with_every_option(capsys, monkeypatch, argv):
    # main builds options only for the subcommand that argv[0] names; what
    # it prints must equal what the parser with every option prints. Two
    # parsers are compared, not pinned texts, because argparse's wording
    # changes between Python versions.
    monkeypatch.setenv("COLUMNS", "80")
    main_result = run_cli(capsys, argv)
    with pytest.raises(SystemExit) as exit_info:
        cli._build_parser(None).parse_args(argv)
    captured = capsys.readouterr()
    assert main_result == (exit_info.value.code or 0, captured.out, captured.err)
    assert main_result[0] == (0 if "--help" in argv else 2)


def _subparsers(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


@pytest.mark.parametrize("command", [*COMMANDS, None, "--help", "bogus"])
def test_parser_builds_options_only_for_the_invoked_subcommand(command):
    subparsers = _subparsers(cli._build_parser(command))
    assert list(subparsers) == ([command] if command in COMMANDS else COMMANDS)
    assert all(len(sub._actions) > 1 for sub in subparsers.values())  # more than -h


# Help, usage errors, errors after parsing and runs that succeed
PARSER_PARITY_CASES = [
    [], ["--help"], ["bogus"], ["--format", "json"], ["state"],
    ["state", "--help"], ["posterior", "--help"], ["mutinfo", "--help"],
    ["state", "--kind", "phase", "--n", "2", "extra"],
    ["state", "--kind", "bogus", "--n", "2"],
    ["state", "--kind", "phase", "--n", "0"],
    ["simulate", "--kind", "phase", "--n", "3", "--cost", "sin2", "--samples", "10",
     "--seed", "-1"],
    ["scan", "--kinds", ",", "--cost", "sin2", "--n", "1:2"],
    ["mutinfo", "--kind", "basis", "--n", "3"],
    ["posterior", "--kind", "phase", "--n", "5", "--grid", "5"],
    ["state", "--kind", "phase", "--n", "2"],
]


def test_main_prints_the_same_with_a_parser_of_every_subcommand(capsys, monkeypatch):
    # main builds only the subcommand that argv[0] names; exit code, stdout
    # and stderr must equal those of main with all five built
    monkeypatch.setenv("COLUMNS", "80")
    alone = [run_cli(capsys, argv) for argv in PARSER_PARITY_CASES]
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda command=None: build(None))
    assert [run_cli(capsys, argv) for argv in PARSER_PARITY_CASES] == alone
    assert sorted({result[0] for result in alone}) == [0, 2]
    # a metavar on the full parser would rename the argument in this error
    assert "argument command: invalid choice" in alone[2][2]


def _count(low, high):
    return st.integers(low, high).map(str)


# Values of each flag of the table, small enough to run, plus tokens that
# no flag accepts; every argv must end in a documented exit code.
ODD_TOKENS = st.sampled_from(["x", "", "-5", "--bogus", "1.5", " "])
FLAG_VALUES = {
    "--kind": st.sampled_from([*sim_module.KINDS, "basis", "spiral"]),
    "--kinds": st.sampled_from(["phase", "optimal,product", "max_spread,basis", " , ",
                                "phase,spiral"]),
    "--n": _count(-2, 40),
    "--cost": st.sampled_from([*CANONICAL_LABELS, "quartic"]),
    "--outcome": _count(-2, 41),
    "--grid": _count(-1, 2000),
    "--samples": _count(-1, 500),
    "--seed": st.one_of(_count(-1, 2**64), st.just(str(2**64 - 1))),
    "--format": st.sampled_from(["csv", "json", "xml"]),
}
SCAN_RANGES = st.builds("{}:{}:{}".format, st.integers(-2, 40), st.integers(-2, 40),
                        st.integers(-1, 20)).map(lambda text: text.removesuffix(":1"))


@st.composite
def fuzzed_argv(draw):
    """A subcommand and its flags: each left out, given an odd token or a value."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    argv = [command]
    for flag in [flag for flag, _ in cli._COMMANDS[command].options] + ["--format"]:
        choice = draw(st.sampled_from(["omit", "odd"] + ["value"] * 10))
        if choice != "omit":
            values = SCAN_RANGES if (command, flag) == ("scan", "--n") else FLAG_VALUES[flag]
            argv += [flag, draw(ODD_TOKENS if choice == "odd" else values)]
    if draw(st.integers(0, 9)) == 0:
        argv.append("--bogus")
    return argv


@settings(max_examples=200, deadline=None)
@given(fuzzed_argv())
def test_every_argv_ends_in_a_documented_exit_code(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = cli.main(argv)
    assert code in (0, 2, 3)
    if code == 2:
        assert stdout.getvalue() == ""
    if code:
        assert stderr.getvalue().splitlines()[-1].startswith(("error: ", "qclock"))


def _kind_argv(command, kind, cost):
    argv = [command, "--kinds" if command == "scan" else "--kind", kind,
            "--n", "2:3" if command == "scan" else "3"]
    if command == "simulate":
        argv += ["--samples", "10"]
    return argv + (["--cost", cost] if cost else [])


# Library entry points that take a state kind, called with N=3 and sin2.
KIND_LIBRARY_CALLS = {
    "state_for": lambda kind: sim_module.state_for(kind, 3, "sin2"),
    "SimConfig": lambda kind: sim_module.SimConfig(kind, 3, "sin2", 10, 0),
    "scan_n": lambda kind: sim_module.scan_n([kind], "sin2", [3]),
}


@pytest.mark.parametrize(
    "entry", ["state", "posterior", "simulate", "scan", "mutinfo", *KIND_LIBRARY_CALLS]
)
@pytest.mark.parametrize("kind", sim_module.KINDS + ("basis",))
def test_every_entry_point_accepts_the_same_kinds(capsys, entry, kind):
    # the diagnostic 'basis' kind is offered only by mutinfo and state_for
    accepted = kind in sim_module.KINDS or entry in ("mutinfo", "state_for")
    if entry in KIND_LIBRARY_CALLS:
        if accepted:
            KIND_LIBRARY_CALLS[entry](kind)
        else:
            with pytest.raises(ValueError):
                KIND_LIBRARY_CALLS[entry](kind)
        return
    code, out, err = run_cli(capsys, _kind_argv(entry, kind, "sin2"))
    if accepted:
        assert (code, err) == (0, "") and out
    else:
        assert (code, out) == (2, "")
        assert f"'{kind}'" in err
    if kind == "optimal" and entry in ("state", "posterior", "mutinfo"):
        code, out, err = run_cli(capsys, _kind_argv(entry, kind, None))
        assert (code, out) == (2, "")
        assert "--cost" in err


# An atexit probe registered first runs last, after every handler that the
# statements below register, and reports the frozen-object count it sees.
FREEZE_PROBE = (
    "import atexit, gc, sys\n"
    "atexit.register(lambda: sys.stderr.write('frozen=%d' % gc.get_freeze_count()))\n"
)


@pytest.mark.parametrize("statement, frozen", [
    ("import qclock", False),
    ("import qclock.cli", False),
    ("import qclock.cli\nqclock.cli.main(['mutinfo', '--kind', 'phase', '--n', '3'])", True),
    ("import qclock.cli\nqclock.cli.main([])\nqclock.cli.main(['state', '--kind', 'phase', "
     "'--n', '0'])", True),
], ids=["import-qclock", "import-cli", "main", "main-twice-failing"])
def test_main_leaves_the_import_heap_frozen_at_exit(statement, frozen):
    result = run_child("-c", FREEZE_PROBE + statement)
    assert result.returncode == 0
    count = int(result.stderr.decode().rpartition("frozen=")[2])
    assert (count > 0) == frozen


@pytest.mark.parametrize("argv", GOLDEN_COMMANDS, ids=GOLDEN_IDS)
def test_module_entry_point_matches_main_under_dev_mode(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    result = run_child("-X", "dev", "-W", "error", "-m", "qclock.cli", *argv)
    assert (result.returncode, result.stdout, result.stderr) == (code, out.encode(), b"")
    assert err == ""


def test_files_written_by_a_command_are_complete_after_exit(capsys, tmp_path):
    # the LOBPCG abs solves of a scan log one DEBUG record each
    argv = ["scan", "--kinds", "optimal", "--cost", "abs", "--n", "30:31"]
    log, script = tmp_path / "qclock.log", tmp_path / "child" / "fig.gp"
    script.parent.mkdir()
    code = (
        "import logging, sys\n"
        "handler = logging.FileHandler(sys.argv[1])\n"
        "logging.getLogger('qclock').addHandler(handler)\n"
        "logging.getLogger('qclock').setLevel(logging.DEBUG)\n"
        "import qclock.cli\n"
        "sys.exit(qclock.cli.main(sys.argv[2:]))\n"
    )
    result = run_child("-c", code, str(log), *argv, "--gnuplot", str(script))
    assert result.returncode == 0
    records = log.read_text().splitlines(keepends=True)
    assert len(records) == 2
    assert all(r.startswith("solver: path=lobpcg ") and r.endswith("\n") for r in records)
    reference = tmp_path / "fig.gp"
    assert run_cli(capsys, argv + ["--gnuplot", str(reference)])[0] == 0
    assert script.read_bytes() == reference.read_bytes()
