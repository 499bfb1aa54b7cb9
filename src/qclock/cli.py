"""Command-line front-end emitting versioned CSV/JSON tables.

Each subcommand builds its result once, as a JSON payload and the named
columns of its CSV table, and one writer, ``_emit``, prints it in the
chosen ``--format``.

Data goes to stdout, diagnostics to stderr. Exit codes: 0 success,
2 usage error, 3 numerical failure: eigensolver non-convergence, an
optimal eigenvector with mixed signs (``SignConventionError``) or running
out of memory. Every nonzero exit writes an ``error: ...`` line to
stderr instead of a traceback; a ``scan`` whose rows fail still prints
them before it exits 3.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import sys
from dataclasses import astuple, fields
from itertools import chain
from pathlib import Path

import numpy as np

from .cost import CANONICAL_LABELS, canonical_cost, mean_cost_bound
from .measurement import (
    _posterior_grid_minimum,
    measurement_times,
    mutual_information_bits,
    posterior,
    wrap_angle,
)
from .sim import (
    KINDS,
    _STATE_KINDS,
    ScanRow,
    SimConfig,
    _check_kind,
    run_simulation,
    scan_n,
    state_for,
)
from .solver import SignConventionError, SolverConvergenceError
from .states import energy_stats

SCHEMA_VERSION = "1"
# The largest --n, --samples and --grid, and the largest N of a scan range.
# Every array that a value up to it implies either fits or fails to
# allocate, a MemoryError that exits 3; larger values reach NumPy as
# objects or beyond its dimension limit and end in other exceptions.
_MAX_COUNT = 2**40


class UsageError(ValueError):
    """Invalid arguments detected after parsing."""


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _json(value, pad: str = "") -> str:
    """``json.dumps(value, indent=2)`` for a value nested at indent ``pad``.

    The bytes are the same, but each non-empty list of scalars goes to
    json's C encoder in one call, which only encodes without ``indent``:
    its item separator carries the newline and the indent instead. Tuples
    print as lists and keys as strings.
    """
    inner = pad + "  "
    separator = ",\n" + inner
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = separator.join(f"{json.dumps(str(key))}: {_json(item, inner)}"
                              for key, item in value.items())
        return f"{{\n{inner}{body}\n{pad}}}"
    if not isinstance(value, (list, tuple)):
        return json.dumps(value)
    if not value:
        return "[]"
    if any(issubclass(kind, (dict, list, tuple)) for kind in set(map(type, value))):
        body = separator.join(_json(item, inner) for item in value)
    else:
        body = json.dumps(value, separators=(separator, ": "))[1:-1]
    return f"[\n{inner}{body}\n{pad}]"


def _emit(args, command, params, payload, columns) -> None:
    """Write ``payload`` to stdout in ``args.format``.

    JSON prints the payload unchanged, in bytes equal to
    ``json.dumps(record, indent=2)`` (written by ``_json``). CSV prints the
    payload's scalar entries that are not columns as ``# name=value``
    lines, then a header and the rows of ``columns``, a dict of
    equal-length sequences.
    """
    given = {k: v for k, v in params.items() if v is not None}
    if args.format == "json":
        record = {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "args": given,
            "payload": payload,
        }
        sys.stdout.write(_json(record) + "\n")
        return
    echo = " ".join([command] + [f"{k}={v}" for k, v in given.items()])
    lines = [f"# schema_version={SCHEMA_VERSION}", f"# command={echo}"]
    if isinstance(payload, dict):
        lines += [
            f"# {name}={_fmt(value)}"
            for name, value in payload.items()
            if name not in columns and not isinstance(value, (list, dict))
        ]
    lines.append(",".join(columns))
    if any(columns.values()):
        lines.append(_table(columns))
    sys.stdout.write("\n".join(lines) + "\n")


def _table(columns) -> str:
    """The CSV rows of ``columns``, formatted by one ``%`` over all cells.

    A column of exact floats takes ``%.12g`` and one of exact ints (not
    bools) ``%d``, which print what ``_fmt`` prints; any other column is
    passed through ``_fmt`` cell by cell.
    """
    specs, cells = [], []
    for values in columns.values():
        types = set(map(type, values))
        if types == {float}:
            specs.append("%.12g")
        elif types == {int}:
            specs.append("%d")
        else:
            specs.append("%s")
            values = list(map(_fmt, values))
        cells.append(values)
    rows = list(zip(*cells))
    return "\n".join([",".join(specs)] * len(rows)) % tuple(chain.from_iterable(rows))


def _write_gnuplot(path: str, title: str, plot_line: str) -> None:
    datafile = Path(path).with_suffix(".csv").name
    script = (
        f"# companion plot script (schema_version {SCHEMA_VERSION});"
        f" expects the CSV output in '{datafile}'\n"
        "set datafile separator ','\n"
        "set key autotitle columnhead\n"
        f"set title '{title}'\n"
        f"{plot_line.format(datafile=datafile)}\n"
    )
    Path(path).write_text(script, encoding="utf-8")
    print(f"wrote gnuplot script: {path}", file=sys.stderr)


def _require_cost(args) -> None:
    if _STATE_KINDS[args.kind].needs_cost and args.cost is None:
        raise UsageError(f"--cost is required when --kind is {args.kind!r}")


def cmd_state(args) -> int:
    _require_cost(args)
    cost_label = args.cost or "sin2"
    state = state_for(args.kind, args.n, cost_label)
    stats = energy_stats(state)
    cost_fn = canonical_cost(cost_label, args.n)
    amplitudes = state.amplitudes.tolist()
    payload = {
        "amplitudes": amplitudes,
        "mean_energy": stats.mean_energy,
        "energy_stddev": stats.energy_stddev,
        "resolution_bound": stats.resolution_bound,
        "mean_cost": mean_cost_bound(state, cost_fn),
    }
    columns = {"m": range(len(amplitudes)), "amplitude": amplitudes}
    params = {"kind": args.kind, "n": args.n, "cost": cost_label}
    _emit(args, "state", params, payload, columns)
    return 0


def cmd_posterior(args) -> int:
    _require_cost(args)
    grid_size = args.grid if args.grid is not None else 16 * (args.n + 1)
    minimum = _posterior_grid_minimum(args.n + 1)
    if grid_size < minimum:
        raise UsageError(f"--grid must be at least {minimum} for n={args.n}")
    if not 0 <= args.outcome <= args.n:
        raise UsageError(f"--outcome must be in 0..{args.n}")
    state = state_for(args.kind, args.n, args.cost)
    post = posterior(state, args.outcome, grid_size)
    t_r = measurement_times(args.n)[args.outcome]
    payload = {
        "outcome_time": t_r,
        "t": post.grid.tolist(),
        "offset": wrap_angle(post.grid - t_r).tolist(),
        "density": post.density.tolist(),
    }
    columns = {name: payload[name] for name in ("t", "offset", "density")}
    params = {
        "kind": args.kind,
        "n": args.n,
        "outcome": args.outcome,
        "grid": grid_size,
        "cost": args.cost,
    }
    if args.gnuplot:
        _write_gnuplot(
            args.gnuplot,
            f"posterior density, kind={args.kind}, n={args.n}",
            "plot '{datafile}' using 2:3 with lines",
        )
    _emit(args, "posterior", params, payload, columns)
    return 0


def _parse_range(text: str) -> list[int]:
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise UsageError(f"invalid range {text!r}; expected a:b or a:b:step")
    try:
        numbers = [int(p) for p in parts]
    except ValueError as exc:
        raise UsageError(f"invalid range {text!r}: {exc}") from None
    start, stop = numbers[0], numbers[1]
    step = numbers[2] if len(numbers) == 3 else 1
    if start < 1 or stop < start or step < 1:
        raise UsageError(f"invalid range {text!r}: need 1 <= a <= b and step >= 1")
    if stop > _MAX_COUNT:
        raise UsageError(f"invalid range {text!r}: need b <= 2**40")
    return list(range(start, stop + 1, step))


def cmd_scan(args) -> int:
    kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
    try:
        for kind in kinds:
            _check_kind(kind)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if not kinds:
        raise UsageError("--kinds must name at least one state kind")
    n_values = _parse_range(args.n)
    rows = scan_n(kinds, args.cost, n_values)
    # ScanRow's fields in order, with n_ions named n
    names = ["n" if field.name == "n_ions" else field.name for field in fields(ScanRow)]
    payload = [dict(zip(names, astuple(row))) for row in rows]
    columns = {name: [entry[name] for entry in payload] for name in names}
    params = {"kinds": ",".join(kinds), "cost": args.cost, "n": args.n}
    if args.gnuplot:
        _write_gnuplot(
            args.gnuplot,
            f"mean cost scan, cost={args.cost}",
            "set logscale xy\nplot '{datafile}' using 1:3 with linespoints",
        )
    _emit(args, "scan", params, payload, columns)
    if any(row.error for row in rows):
        print("error: one or more scan rows failed to converge", file=sys.stderr)
        return 3
    return 0


def cmd_simulate(args) -> int:
    config = SimConfig(args.kind, args.n, args.cost, args.samples, args.seed)
    result = run_simulation(config)
    edges = result.bin_edges.tolist()
    counts = result.histogram.tolist()
    payload = {
        "empirical_mean_cost": result.empirical_mean_cost,
        "empirical_delta_t": result.empirical_delta_t,
        "standard_error_cost": result.standard_error_cost,
        "histogram": {"bin_edges": edges, "counts": counts},
    }
    columns = {"bin_left": edges[:-1], "bin_right": edges[1:], "count": counts}
    params = {
        "kind": args.kind,
        "n": args.n,
        "cost": args.cost,
        "samples": args.samples,
        "seed": args.seed,
    }
    _emit(args, "simulate", params, payload, columns)
    return 0


def cmd_mutinfo(args) -> int:
    _require_cost(args)
    state = state_for(args.kind, args.n, args.cost)
    bits = mutual_information_bits(state)
    payload = {
        "bits": bits,
        "nats": bits * float(np.log(2.0)),
        "holevo_bound_bits": float(np.log2(args.n + 1)),
    }
    columns = {name: [value] for name, value in payload.items()}
    params = {"kind": args.kind, "n": args.n, "cost": args.cost}
    _emit(args, "mutinfo", params, payload, columns)
    return 0


def _integer(text: str) -> int | None:
    try:
        return int(text)
    except ValueError:
        return None


def _positive_int(text: str) -> int:
    value = _integer(text)
    if value is None or value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    if value > _MAX_COUNT:
        raise argparse.ArgumentTypeError(f"must be at most 2**40, got {text}")
    return value


def _seed_int(text: str) -> int:
    value = _integer(text)
    if value is None or not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in 64 unsigned bits")
    return value


def _add_format(parser, default):
    parser.add_argument("--format", choices=("csv", "json"), default=default)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qclock",
        description="Quantum-clock states, covariant measurement statistics, "
        "and scaling tables (angles in radians, energy unit E_m = m).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_state = sub.add_parser("state", help="amplitudes, energy stats, mean cost")
    p_state.add_argument("--kind", choices=KINDS, required=True)
    p_state.add_argument("--n", type=_positive_int, required=True)
    p_state.add_argument("--cost", choices=CANONICAL_LABELS)
    _add_format(p_state, "csv")
    p_state.set_defaults(handler=cmd_state)

    p_post = sub.add_parser("posterior", help="posterior density for one outcome")
    p_post.add_argument("--kind", choices=KINDS, required=True)
    p_post.add_argument("--n", type=_positive_int, required=True)
    p_post.add_argument("--outcome", type=int, default=0)
    p_post.add_argument("--grid", type=_positive_int, default=None)
    p_post.add_argument("--cost", choices=CANONICAL_LABELS)
    p_post.add_argument("--gnuplot", metavar="PATH")
    _add_format(p_post, "csv")
    p_post.set_defaults(handler=cmd_posterior)

    p_scan = sub.add_parser("scan", help="analytic table over a range of N")
    p_scan.add_argument("--kinds", required=True, help="comma-separated state kinds")
    p_scan.add_argument("--cost", choices=CANONICAL_LABELS, required=True)
    p_scan.add_argument("--n", required=True, help="range a:b[:step], inclusive")
    p_scan.add_argument("--gnuplot", metavar="PATH")
    _add_format(p_scan, "csv")
    p_scan.set_defaults(handler=cmd_scan)

    p_sim = sub.add_parser("simulate", help="seeded Monte Carlo clock run")
    p_sim.add_argument("--kind", choices=KINDS, required=True)
    p_sim.add_argument("--n", type=_positive_int, required=True)
    p_sim.add_argument("--cost", choices=CANONICAL_LABELS, required=True)
    p_sim.add_argument("--samples", type=_positive_int, required=True)
    p_sim.add_argument("--seed", type=_seed_int, default=0)
    _add_format(p_sim, "json")
    p_sim.set_defaults(handler=cmd_simulate)

    p_info = sub.add_parser("mutinfo", help="mutual information summary")
    p_info.add_argument(
        "--kind", choices=tuple(_STATE_KINDS), required=True,
        help="state kind; 'basis' is a zero-information diagnostic",
    )
    p_info.add_argument("--n", type=_positive_int, required=True)
    p_info.add_argument("--cost", choices=CANONICAL_LABELS)
    _add_format(p_info, "json")
    p_info.set_defaults(handler=cmd_mutinfo)

    return parser


def main(argv=None) -> int:
    # At exit CPython would collect and free, one by one, the ~23k objects
    # that importing numpy and qclock left; the OS reclaims them anyway, and
    # freezing them first skips that pass. Handlers run in reverse order, so
    # those registered before this one, such as logging.shutdown, still run
    # after it and still flush.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SolverConvergenceError, SignConventionError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
