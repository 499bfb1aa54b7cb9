import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qclock import cli
import qclock.sim as sim_module
from qclock.sim import ScanRow
from qclock.solver import SignConventionError


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
        capsys, ["posterior", "--kind", "phase", "--n", "20", "--grid", "50"]
    )
    assert code == 2
    assert "--grid" in err


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


# sha256 of stdout, recorded before the writer was shared by all subcommands. The
# JSON digests of the abs state and of the scan were re-pinned when the
# closed-form and LOBPCG eigensolvers moved their last printed digits, and the
# scan's again when the mean cost and the RMS error moved to the shared
# deficit steps; every moved value is now within 1 ulp of mpmath. The
# simulate digests were re-pinned when the sampler drew the lattice error at
# the offset in one spacing instead of the outcome at the true time. The
# product-state posterior and the scan JSON were re-pinned when the product
# amplitudes moved from log-binomials to running products; the posterior now
# prints what correctly rounded amplitudes print, and the two scan values
# that moved equal their mpmath references. The abs state JSON was re-pinned
# when energy_stats moved to the centred variance: its energy_stddev went
# 1.5366150769633369 -> 1.5366150769633373, and mpmath of the stored
# amplitudes gives 1.53661507696333742.
GOLDEN_COMMANDS = [
    (["state", "--kind", "optimal", "--cost", "abs", "--n", "6"],
     "bc256ed713aef225f98ba787a4098f9586aebe94d7578a2c1c0673356dd7cdd5",
     "fcd8621a7562c52b5e6318601beacee4cab62d60809754313e844eb57f8a110a"),
    (["posterior", "--kind", "product", "--n", "5", "--outcome", "2", "--grid", "30"],
     "85b6f0b7e8c6fe3bdc2f755ab3a1498d2076958e0e8cc3764257621d548e00c7",
     "7ff44dc2b4ffcc7be2c85e992297e9cb3691f8dc8467ea0cb1a3fa31eb0b4b71"),
    (["scan", "--kinds", "product,phase,optimal,max_spread", "--cost", "sin2",
      "--n", "1:9:4"],
     "ff8bcb291571147df40b4d6e9f41181732531d36332b0f6735c47f993884abc0",
     "4c91778549cb45ca23de4e57f5a797ab6861227597698d339ec11228440b2bcb"),
    (["simulate", "--kind", "optimal", "--cost", "sin2", "--n", "8",
      "--samples", "500", "--seed", "7"],
     "1248134a5633cd3e687b2f382f34feb3c5d535994096e5195bb6ae7fb7594bc6",
     "6d62468de8b0cbb52e3abd456978159b3369ef4c06f7d0c3a9dde5c1f96b3ddb"),
    (["mutinfo", "--kind", "phase", "--n", "7"],
     "cd15ac4d0d52d5d4cc38a6ab8e06785a2a48713e8aa90777be9e2da83857adde",
     "c7288d0cf910cd891c69cc7ce28d5cea256afd95631c9112d0cfcbb89d070073"),
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "argv, csv_sha256, json_sha256",
    GOLDEN_COMMANDS,
    ids=[argv[0] for argv, _, _ in GOLDEN_COMMANDS],
)
def test_cli_golden_outputs(capsys, argv, csv_sha256, json_sha256, fmt):
    code, out, err = run_cli(capsys, argv + ["--format", fmt])
    assert (code, err) == (0, "")
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == (csv_sha256 if fmt == "csv" else json_sha256)


def run_child(*args):
    """Run ``python *args`` with this checkout's ``src`` as the only path entry."""
    return subprocess.run(
        [sys.executable, *args], capture_output=True,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
    )


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


@pytest.mark.parametrize("argv", [argv for argv, _, _ in GOLDEN_COMMANDS],
                         ids=[argv[0] for argv, _, _ in GOLDEN_COMMANDS])
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
