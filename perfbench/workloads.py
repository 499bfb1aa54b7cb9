"""The benchmark's workloads: fixed lists of ``qclock`` command lines.

Each workload stresses a different layer of the library:

* ``figures`` reproduces the paper's figures of merit: an analytic scan
  over N (measurement estimators dominate) and three posterior curves
  (start-up, posterior kernel and the CSV writer dominate).
* ``optimize`` finds cost-optimal states: the sin2 cost takes the
  tridiagonal solver path at large N, the abs cost the dense solver path.
  Nothing in the measurement layer runs.
* ``simulate`` runs the seeded Monte Carlo, which draws outcomes at random
  times instead of on a uniform grid.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("figures", "optimize", "simulate")


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of the workloads; ``FULL`` is the benchmark's setting."""

    scan_n: str = "64:256:64"
    posterior_n: int = 400
    sin2_n: int = 10000
    abs_n: int = 3000
    sim_sin2_n: int = 300
    sim_abs_n: int = 200
    samples: int = 100000


FULL = Sizes()
# Small enough that a whole pass takes well under a second; for tests.
TINY = Sizes(scan_n="4:8:4", posterior_n=6, sin2_n=12, abs_n=10,
             sim_sin2_n=8, sim_abs_n=6, samples=2000)


def commands(workload: str, seed: int, sizes: Sizes = FULL) -> list[list[str]]:
    """Argument lists (without the program name) of one pass of a workload."""
    if workload == "figures":
        rng = random.Random(seed)
        n = sizes.posterior_n
        return [
            ["scan", "--kinds", "product,phase,optimal", "--cost", "sin2",
             "--n", sizes.scan_n, "--format", "json"],
            ["posterior", "--kind", "product", "--n", str(n),
             "--outcome", str(rng.randrange(n + 1))],
            ["posterior", "--kind", "phase", "--n", str(n),
             "--outcome", str(rng.randrange(n + 1))],
            ["posterior", "--kind", "optimal", "--cost", "sin2", "--n", str(n),
             "--outcome", str(rng.randrange(n + 1))],
        ]
    if workload == "optimize":
        # Deterministic: the seed is not used.
        return [
            ["state", "--kind", "optimal", "--cost", "sin2",
             "--n", str(sizes.sin2_n), "--format", "json"],
            ["state", "--kind", "optimal", "--cost", "abs",
             "--n", str(sizes.abs_n), "--format", "json"],
        ]
    if workload == "simulate":
        sim_seed = seed % 2**64
        return [
            ["simulate", "--kind", "optimal", "--cost", "sin2",
             "--n", str(sizes.sim_sin2_n), "--samples", str(sizes.samples),
             "--seed", str(sim_seed)],
            ["simulate", "--kind", "product", "--cost", "abs",
             "--n", str(sizes.sim_abs_n), "--samples", str(sizes.samples),
             "--seed", str((sim_seed + 1) % 2**64)],
        ]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
