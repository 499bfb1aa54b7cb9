"""Command-line front-end emitting versioned CSV/JSON tables.

Each subcommand is declared once, in the table ``_COMMANDS``, and the
parser adds options only to the subcommand that ``argv[0]`` names. Its
handler builds the result once, as a JSON payload and the named columns of
its CSV table, and one writer, ``_emit``, prints it in the chosen
``--format`` after the ``# command=`` echo of the declared options.

Data goes to stdout, diagnostics to stderr. Exit codes: 0 success,
2 usage error (a ``--gnuplot`` path that cannot be written included),
3 numerical failure, any ``RuntimeError``, ``MemoryError``
or library ``ValueError``: eigensolver non-convergence, an optimal
eigenvector with mixed signs (``SignConventionError``), a Monte Carlo
histogram that lost samples, mutual information above its log2(N+1)
bound, or running out of memory. Every nonzero exit writes an
``error: ...`` line to stderr instead of a traceback; a ``scan`` whose
rows fail still prints them before it exits 3.
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
from typing import Callable, NamedTuple

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


def _emit(fmt, command, params, payload, columns) -> None:
    """Write ``payload`` to stdout in ``fmt``, echoing the non-None ``params``.

    JSON prints the payload unchanged, in bytes equal to
    ``json.dumps(record, indent=2)`` (written by ``_json``). CSV prints the
    payload's scalar entries that are not columns as ``# name=value``
    lines, then a header and the rows of ``columns``, a dict of
    equal-length sequences.
    """
    given = {k: v for k, v in params.items() if v is not None}
    if fmt == "json":
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


def _write_gnuplot(path: str, title: str, plot_line: str, args) -> None:
    datafile = Path(path).with_suffix(".csv").name
    script = (
        f"# companion plot script (schema_version {SCHEMA_VERSION});"
        f" expects the CSV output in '{datafile}'\n"
        "set datafile separator ','\n"
        "set key autotitle columnhead\n"
        f"set title '{title.format_map(vars(args))}'\n"
        f"{plot_line.format(datafile=datafile)}\n"
    )
    try:
        Path(path).write_text(script, encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write --gnuplot {path}: {exc.strerror or exc}") from None
    print(f"wrote gnuplot script: {path}", file=sys.stderr)


def _require_cost(args) -> None:
    if _STATE_KINDS[args.kind].needs_cost and args.cost is None:
        raise UsageError(f"--cost is required when --kind is {args.kind!r}")


def cmd_state(args):
    _require_cost(args)
    args.cost = args.cost or "sin2"
    state = state_for(args.kind, args.n, args.cost)
    stats = energy_stats(state)
    cost_fn = canonical_cost(args.cost, args.n)
    amplitudes = state.amplitudes.tolist()
    payload = {
        "amplitudes": amplitudes,
        "mean_energy": stats.mean_energy,
        "energy_stddev": stats.energy_stddev,
        "resolution_bound": stats.resolution_bound,
        "mean_cost": mean_cost_bound(state, cost_fn),
    }
    columns = {"m": range(len(amplitudes)), "amplitude": amplitudes}
    return payload, columns, None


def cmd_posterior(args):
    _require_cost(args)
    args.grid = args.grid or 16 * (args.n + 1)
    minimum = _posterior_grid_minimum(args.n + 1)
    if args.grid < minimum:
        raise UsageError(f"--grid must be at least {minimum} for n={args.n}")
    if not 0 <= args.outcome <= args.n:
        raise UsageError(f"--outcome must be in 0..{args.n}")
    state = state_for(args.kind, args.n, args.cost)
    post = posterior(state, args.outcome, args.grid)
    t_r = measurement_times(args.n)[args.outcome]
    payload = {
        "outcome_time": t_r,
        "t": post.grid.tolist(),
        "offset": wrap_angle(post.grid - t_r).tolist(),
        "density": post.density.tolist(),
    }
    columns = {name: payload[name] for name in ("t", "offset", "density")}
    return payload, columns, None


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


def cmd_scan(args):
    kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
    try:
        for kind in kinds:
            _check_kind(kind)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if not kinds:
        raise UsageError("--kinds must name at least one state kind")
    args.kinds = ",".join(kinds)
    rows = scan_n(kinds, args.cost, _parse_range(args.n))
    # ScanRow's fields in order, with n_ions named n
    names = ["n" if field.name == "n_ions" else field.name for field in fields(ScanRow)]
    payload = [dict(zip(names, astuple(row))) for row in rows]
    columns = {name: [entry[name] for entry in payload] for name in names}
    failed = any(row.error for row in rows)
    return payload, columns, "one or more scan rows failed to converge" if failed else None


def cmd_simulate(args):
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
    return payload, columns, None


def cmd_mutinfo(args):
    _require_cost(args)
    state = state_for(args.kind, args.n, args.cost)
    bits = mutual_information_bits(state)
    payload = {
        "bits": bits,
        "nats": bits * float(np.log(2.0)),
        "holevo_bound_bits": float(np.log2(args.n + 1)),
    }
    columns = {name: [value] for name, value in payload.items()}
    return payload, columns, None


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


_KIND = ("--kind", {"choices": KINDS, "required": True})
_N = ("--n", {"type": _positive_int, "required": True})
_COST = ("--cost", {"choices": CANONICAL_LABELS})
_REQUIRED_COST = ("--cost", {"choices": CANONICAL_LABELS, "required": True})


class _Command(NamedTuple):
    """A subcommand: ``options`` are (flag, keywords) pairs in ``--help`` and
    echo order; ``gnuplot`` the script's title and plot line, or None."""

    help: str
    handler: Callable
    format: str
    options: tuple
    gnuplot: tuple[str, str] | None = None


_COMMANDS = {
    "state": _Command(
        "amplitudes, energy stats, mean cost", cmd_state, "csv", (_KIND, _N, _COST),
    ),
    "posterior": _Command(
        "posterior density for one outcome", cmd_posterior, "csv",
        (_KIND, _N, ("--outcome", {"type": int, "default": 0}),
         ("--grid", {"type": _positive_int}), _COST),
        ("posterior density, kind={kind}, n={n}", "plot '{datafile}' using 2:3 with lines"),
    ),
    "scan": _Command(
        "analytic table over a range of N", cmd_scan, "csv",
        (("--kinds", {"required": True, "help": "comma-separated state kinds"}),
         _REQUIRED_COST,
         ("--n", {"required": True, "help": "range a:b[:step], inclusive"})),
        ("mean cost scan, cost={cost}",
         "set logscale xy\nplot '{datafile}' using 1:3 with linespoints"),
    ),
    "simulate": _Command(
        "seeded Monte Carlo clock run", cmd_simulate, "json",
        (_KIND, _N, _REQUIRED_COST, ("--samples", {"type": _positive_int, "required": True}),
         ("--seed", {"type": _seed_int, "default": 0})),
    ),
    "mutinfo": _Command(
        "mutual information summary", cmd_mutinfo, "json",
        (("--kind", {"choices": tuple(_STATE_KINDS), "required": True,
                     "help": "state kind; 'basis' is a zero-information diagnostic"}),
         _N, _COST),
    ),
}


def _build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of every subcommand, with options only for ``command``.

    A ``command`` that names no subcommand gets options on all five, so
    ``--help`` and the top-level usage errors read the same either way.
    """
    parser = argparse.ArgumentParser(
        prog="qclock",
        description="Quantum-clock states, covariant measurement statistics, "
        "and scaling tables (angles in radians, energy unit E_m = m).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, entry in _COMMANDS.items():
        subparser = sub.add_parser(name, help=entry.help)
        if command in _COMMANDS and command != name:
            continue
        for flag, keywords in entry.options:
            subparser.add_argument(flag, **keywords)
        if entry.gnuplot:
            subparser.add_argument("--gnuplot", metavar="PATH")
        subparser.add_argument("--format", choices=("csv", "json"), default=entry.format)
    return parser


def main(argv=None) -> int:
    # At exit CPython would collect and free, one by one, the ~23k objects
    # that importing numpy and qclock left; the OS reclaims them anyway, and
    # freezing them first skips that pass. Handlers run in reverse order, so
    # those registered before this one, such as logging.shutdown, still run
    # after it and still flush.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    entry = _COMMANDS[args.command]
    try:
        # a handler fills in the defaults that the echo shows
        payload, columns, failure = entry.handler(args)
        if entry.gnuplot and args.gnuplot:
            _write_gnuplot(args.gnuplot, *entry.gnuplot, args)
        params = {flag[2:]: getattr(args, flag[2:]) for flag, _ in entry.options}
        _emit(args.format, args.command, params, payload, columns)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, MemoryError, ValueError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3
    if failure:
        print(f"error: {failure}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
