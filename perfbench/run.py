"""Benchmark of the ``qclock`` command-line tool.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout that holds ``src/qclock``. With
``--trace 0`` every command of the workload runs as a fresh subprocess,
the way users run the CLI, and the end-to-end metrics are medians over the
passes that fit in ``--seconds``. With ``--trace 1`` the workload runs
in-process, once untraced and once with timing wrappers on the public
functions of each layer, and the per-layer metrics are reported. Every
command's output is checked against references built by the benchmark.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it, starting
with ``env``, records the environment, the values of every pass and, when
traced, each layer's share of the traced self time. Metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from importlib.metadata import version
from pathlib import Path

from workloads import FULL, WORKLOADS, commands

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

# One BLAS thread: the machine has few cores and shares them, and a single
# thread gives the steadiest timings. Recorded in the environment line.
BLAS_THREADS = 1
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
COMMAND_TIMEOUT_S = 120.0
# Every run ends well inside the 180 s a run may take.
RUN_DEADLINE_S = 165.0
IMPORT_RUNS = 3
IMPORTED_MARK = "perfbench-imported"
# What a child runs: the CLI entry point, plus a stderr line with the
# moment the CLI module finished importing.
BOOTSTRAP = (
    "import sys, time\n"
    "import qclock.cli\n"
    f"sys.stderr.write('{IMPORTED_MARK} %r\\n' % time.monotonic())\n"
    "sys.stderr.flush()\n"
    "sys.exit(qclock.cli.main(sys.argv[1:]))\n"
)
# setup.import.<key>_s is the cumulative -X importtime of the module.
IMPORT_MODULES = {
    "qclock": "qclock.cli",
    "numpy": "numpy",
    "scipy_linalg": "scipy.linalg",
    "scipy_special": "scipy.special",
}


def child_environment() -> dict[str, str]:
    env = dict(os.environ)
    # Import from cached bytecode, as an installed package does; the
    # warm-up child writes it under src/.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update({name: str(BLAS_THREADS) for name in BLAS_VARIABLES})
    return env


@dataclass
class Outcome:
    """One command run: exit code, output and timings."""

    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    setup_s: float
    rss_mb: float

    @property
    def work_s(self) -> float:
        return self.wall_s - self.setup_s


def _kill(pid: int) -> None:
    # Signals without reaping, so the pid stays ours until os.wait4 below.
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _drain(stream, sink: list) -> None:
    sink.append(stream.read())
    stream.close()


def spawn(argv: list[str], env: dict, timeout: float) -> Outcome:
    """Run one CLI command in a fresh interpreter and wait for it to end.

    The child is reaped with ``os.wait4``, which gives its peak RSS. On
    timeout it is killed and reaped.
    """
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-c", BOOTSTRAP, *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT,
    )
    out, err = [], []
    readers = [threading.Thread(target=_drain, args=(proc.stdout, out)),
               threading.Thread(target=_drain, args=(proc.stderr, err))]
    for reader in readers:
        reader.start()
    killer = threading.Timer(timeout, _kill, (proc.pid,))
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        _kill(proc.pid)
        os.wait4(proc.pid, 0)
        raise
    finally:
        killer.cancel()
    end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    for reader in readers:
        reader.join()
    stdout = out[0].decode("utf-8", "replace")
    stderr = err[0].decode("utf-8", "replace")
    imported = end
    for line in stderr.splitlines():
        if line.startswith(IMPORTED_MARK + " "):
            imported = float(line.split()[1])
            break
    return Outcome(proc.returncode, stdout, stderr, end - start, imported - start,
                   usage.ru_maxrss / 1024.0)


def import_times(env: dict) -> dict[str, float]:
    """Cumulative import seconds of the CLI and its heavy dependencies."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import qclock.cli"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S,
    )
    cumulative = {}
    for line in proc.stderr.splitlines():
        fields = line.split("|")
        if line.startswith("import time:") and len(fields) == 3:
            try:
                cumulative.setdefault(fields[2].strip(), int(fields[1]) / 1e6)
            except ValueError:
                continue  # the header line
    return {key: cumulative.get(module, 0.0) for key, module in IMPORT_MODULES.items()}


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(imports: dict[str, float]) -> dict:
    return {
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "commit": git_commit(),
        "import_time_s": imports,
    }


class Tally:
    """Attempted and failed command counts, and the lowest accuracy seen."""

    def __init__(self, checker):
        self.checker = checker
        self.attempted = 0
        self.failed = 0
        self.digits = float("inf")

    def record(self, argv, returncode, stdout) -> None:
        verdict = self.checker.check(argv, returncode, stdout)
        self.attempted += 1
        self.digits = min(self.digits, verdict.digits)
        if not verdict.ok:
            self.failed += 1
            print(f"FAILED {' '.join(argv)}: {'; '.join(verdict.problems)}", file=sys.stderr)


def _keep_going(start: float, pass_times: list[float], seconds: float, deadline: float) -> bool:
    """Start another pass only if a typical pass still fits in the budget."""
    if not pass_times:
        return True
    finish = time.monotonic() + statistics.median(pass_times)
    return finish <= min(start + seconds, deadline)


def measure_end_to_end(argvs, seconds, tally, deadline) -> dict:
    env = child_environment()
    spawn(["--help"], env, COMMAND_TIMEOUT_S)  # warm-up: byte-compile, fill caches
    passes = []
    start = time.monotonic()
    while _keep_going(start, [p["wall_s"] for p in passes], seconds, deadline):
        outcomes = []
        for argv in argvs:
            timeout = max(1.0, min(COMMAND_TIMEOUT_S, deadline - time.monotonic()))
            outcome = spawn(argv, env, timeout)
            tally.record(argv, outcome.returncode, outcome.stdout)
            outcomes.append(outcome)
        passes.append({
            "wall_s": sum(o.wall_s for o in outcomes),
            "setup_s": sum(o.setup_s for o in outcomes),
            "work_s": sum(o.work_s for o in outcomes),
            "peak_rss_mb": max(o.rss_mb for o in outcomes),
        })
    metrics = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    metrics["accuracy_digits"] = tally.digits
    metrics["passes"] = passes
    return metrics


def _call_cli(argv, tally) -> tuple[float, int]:
    """Run one command through ``qclock.cli.main`` in this process.

    Returns the seconds the call took and the bytes it wrote to stdout.
    """
    cli = sys.modules["qclock.cli"]
    out = io.StringIO()
    crash = None
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crash is a failed command, not a crashed run
            code, crash = None, exc
        elapsed = time.perf_counter() - start
    if crash is not None:
        print(f"{' '.join(argv)} raised {crash!r}", file=sys.stderr)
    tally.record(argv, code, out.getvalue())
    return elapsed, len(out.getvalue().encode())


def _in_process_pass(argvs, tally) -> tuple[float, int]:
    calls = [_call_cli(argv, tally) for argv in argvs]
    return sum(c[0] for c in calls), sum(c[1] for c in calls)


def measure_layers(argvs, seconds, tally, deadline) -> dict:
    from tracing import Tracer

    env = child_environment()
    imports = [import_times(env) for _ in range(IMPORT_RUNS)]
    sys.path.insert(0, str(SRC))
    import qclock.cli  # noqa: F401  (loads every layer module)

    if not Path(qclock.cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported qclock from {qclock.cli.__file__}, not {SRC}")
    _in_process_pass(argvs, tally)  # warm-up: lazy imports, check references
    plain, traced, layers = [], [], []
    start = time.monotonic()
    while _keep_going(start, [a + b for a, b in zip(plain, traced)], seconds, deadline):
        plain.append(_in_process_pass(argvs, tally)[0])
        tracer = Tracer()
        tracer.install()
        try:
            elapsed, written = _in_process_pass(argvs, tally)
        finally:
            tracer.remove()
        traced.append(elapsed)
        layers.append({**tracer.flat(), "cli.stdout_bytes": float(written)})
    metrics = {name: statistics.median(p[name] for p in layers) for name in layers[0]}
    for key in IMPORT_MODULES:
        metrics[f"setup.import.{key}_s"] = statistics.median(i[key] for i in imports)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    metrics["passes"] = [{"plain_s": a, "traced_s": b} for a, b in zip(plain, traced)]
    return metrics


def layer_shares(metrics: dict[str, float]) -> dict[str, float]:
    """Share of traced self time spent in each layer module."""
    by_layer = {}
    for name, value in metrics.items():
        if name.endswith(".self_s"):
            layer = name.split(".")[0]
            by_layer[layer] = by_layer.get(layer, 0.0) + value
    total = sum(by_layer.values()) or 1.0
    return {layer: value / total for layer, value in sorted(by_layer.items())}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(workload: str, seed: int, seconds: float, trace: bool, sizes=FULL):
    """Measure one workload; returns the environment record and the result."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    spec = json.loads(SPEC.read_text())
    # NumPy reads the BLAS thread variables when it is first imported, which
    # happens below (the checks and the in-process trace run both use it).
    os.environ.update({name: str(BLAS_THREADS) for name in BLAS_VARIABLES})
    from checks import Checker

    tally = Tally(Checker())
    argvs = commands(workload, seed, sizes)
    if trace:
        measured = measure_layers(argvs, seconds, tally, deadline)
        wanted = spec["per_layer"]
        imports = {key: measured[f"setup.import.{key}_s"] for key in IMPORT_MODULES}
    else:
        measured = measure_end_to_end(argvs, seconds, tally, deadline)
        wanted = spec["end_to_end"]
        imports = import_times(child_environment())
    record = environment(imports)
    record.update(workload=workload, seed=seed, passes=measured["passes"])
    if trace:
        record["layer_shares"] = layer_shares(measured)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in wanted},
    }
    return record, result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qclock" / "cli.py").is_file():
        print(f"error: no qclock sources under {SRC}", file=sys.stderr)
        return 2
    record, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("env " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
