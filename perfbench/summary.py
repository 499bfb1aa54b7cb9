"""Run every workload on two seeds and print every end-to-end metric.

    python3 perfbench/summary.py [--seconds 35] [--seeds 1 2] [--trace]

Each (workload, seed) is one ``run.py`` process, as the benchmark is run
for a verdict. The second seed is there so that a claim can be checked on a
seed that was not used while the change was written. ``--trace`` adds one
traced run per workload (first seed) and prints each layer's share of the
traced self time and every nonzero per-layer metric. ``--seconds``
defaults to ``run_seconds`` of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"
SPEC = RUN.parents[1] / "BENCHMARK.json"


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        capture_output=True, text=True, timeout=600,
    )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"run.py failed for {workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    result["env"] = json.loads(lines[-2].removeprefix("env "))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float,
                        default=json.loads(SPEC.read_text())["run_seconds"])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    results = []
    for workload in WORKLOADS:
        for seed in args.seeds:
            result = bench(workload, seed, args.seconds, trace=False)
            results.append(result)
            print(f"{workload} seed={seed} passes={len(result['env']['passes'])} "
                  f"fail_ratio={result['failed']}/{result['attempted']}")
            for name, metric in result["metrics"].items():
                print(f"  {name:16s} {metric['value']:14.6g} {metric['unit']}")
        if args.trace:
            result = bench(workload, args.seeds[0], args.seconds, trace=True)
            results.append(result)
            shares = result["env"]["layer_shares"]
            print(f"{workload} traced seed={args.seeds[0]} "
                  f"fail_ratio={result['failed']}/{result['attempted']} layer shares: "
                  + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
            for name, metric in result["metrics"].items():
                if metric["value"]:
                    print(f"  {name:48s} {metric['value']:14.6g} {metric['unit']}")
    return 0 if all(r["failed"] == 0 for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
