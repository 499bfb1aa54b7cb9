"""Checks of ``qclock`` command outputs against the benchmark's own references.

No reference calls ``qclock``. They come from closed forms and exact
arithmetic:

* optimal state for the sin2 cost: the sine state
  a_m = sqrt(2/(N+2)) sin(pi (m+1)/(N+2)), mean cost 2 - 2 cos(pi/(N+2));
* phase state: a_m = 1/sqrt(N+1), mean cost 2/(N+1);
* product state: a_m = sqrt(C(N, m) / 2^N) from exact integer binomials;
* wrapped RMS error: the terminating series pi^2/3 + sum_k 4 (-1)^k r_k / k^2
  over the amplitude autocorrelation r_k, evaluated in ``mpmath``;
* optimum for the abs cost: the residual of the eigen-equation, with the
  cost matrix applied by a Toeplitz matvec written here. A nonnegative
  eigenvector of this matrix (its off-diagonal entries are all <= 0 and
  w_1 > 0) belongs to its smallest eigenvalue, so a small residual plus
  nonnegative amplitudes proves optimality;
* Monte Carlo: the exact mean cost a^T F a of the reference state, and the
  exact standard error of a sample mean, from the cost's second moment
  under the covariant measurement.

Every check that compares numbers reports how many digits agree; the
lowest over a pass is the ``accuracy_digits`` metric. A failed check sets
a command's verdict to failed.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import mpmath
import numpy as np

DIGITS_CAP = 16.0
RESIDUAL_RTOL = 1e-10
MC_SIGMAS = 5.0
# Fewest agreeing digits each comparison must reach to pass.
MIN_DIGITS = {
    "mean_cost": 8.0,
    "delta_t": 6.0,
    "amplitudes": 8.0,
    "density": 8.0,
    "integral": 8.0,
    "grid": 10.0,
    "energy": 8.0,
}
MP_DPS = 30


def digits(error: float) -> float:
    """Correct decimal digits implied by a relative error, capped at 16."""
    if not error > 0.0:
        return 0.0 if math.isnan(error) else DIGITS_CAP
    return min(DIGITS_CAP, -math.log10(error))


def relative_error(value: float, reference: float) -> float:
    scale = abs(reference)
    return abs(value - reference) / scale if scale else abs(value)


@dataclass
class Verdict:
    """Outcome of checking one command: pass/fail, digits, reasons."""

    digits: float = DIGITS_CAP
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def fail(self, message: str) -> None:
        self.problems.append(message)
        self.digits = 0.0

    def require(self, name: str, condition: bool) -> None:
        if not condition:
            self.fail(f"{name} violated")

    def error(self, name: str, error: float, min_digits: float) -> None:
        """Record a relative error; fail when it gives too few digits."""
        got = digits(error)
        if got < min_digits:
            self.problems.append(f"{name}: {got:.2f} digits < {min_digits}")
        self.digits = min(self.digits, got)

    def agree(self, name: str, value: float, reference: float, kind: str) -> None:
        self.error(name, relative_error(value, reference), MIN_DIGITS[kind])


# ---------------------------------------------------------------- references


def _mp():
    ctx = mpmath.mp.clone()
    ctx.dps = MP_DPS
    return ctx


def reference_amplitudes(kind: str, n: int, cost: str | None) -> list:
    """Exact amplitudes (mpmath numbers) of the states the workloads use."""
    mp = _mp()
    if kind == "phase":
        return [1 / mp.sqrt(n + 1)] * (n + 1)
    if kind == "product":
        scale = mp.mpf(2) ** n
        return [mp.sqrt(math.comb(n, m) / scale) for m in range(n + 1)]
    if kind == "optimal" and cost == "sin2":
        norm = mp.sqrt(mp.mpf(2) / (n + 2))
        return [norm * mp.sin(mp.pi * (m + 1) / (n + 2)) for m in range(n + 1)]
    raise ValueError(f"no reference state for kind={kind!r}, cost={cost!r}")


def autocorrelation(amplitudes: list) -> list:
    """r_k = sum_m a_m a_{m+k} for k = 0..N, in mpmath."""
    mp = _mp()
    return [mp.fdot(amplitudes[: len(amplitudes) - k], amplitudes[k:])
            for k in range(len(amplitudes))]


def cost_coefficients(cost: str, n: int) -> tuple[float, np.ndarray]:
    """(w0, w_1..w_N) of a cost f(t) = w0 - sum_k w_k cos(k t), truncated at N."""
    if cost == "sin2":
        w = np.zeros(n)
        w[0] = 2.0
        return 2.0, w
    if cost == "abs":
        k = np.arange(1, n + 1)
        return math.pi / 2.0, np.where(k % 2 == 1, 4.0 / (math.pi * k * k), 0.0)
    raise ValueError(f"no reference coefficients for cost {cost!r}")


def mean_cost_reference(kind: str, n: int, cost: str) -> float:
    if cost == "sin2" and kind == "optimal":
        return 2.0 - 2.0 * math.cos(math.pi / (n + 2))
    if cost == "sin2" and kind == "phase":
        return 2.0 / (n + 1)
    mp = _mp()
    r = autocorrelation(reference_amplitudes(kind, n, cost))
    w0, w = cost_coefficients(cost, n)
    total = mp.mpf(w0) - mp.fsum(mp.mpf(wk) * r[k] for k, wk in enumerate(w, 1) if wk)
    return float(total)


def cost_second_moment(kind: str, n: int, cost: str) -> float:
    """E[f(t_j - t)^2] under the covariant measurement, in mpmath.

    E[cos(m (t_j - t))] is r_|m| for |m| <= N and 0 beyond, and
    cos(k x) cos(l x) = (cos((k+l) x) + cos((k-l) x)) / 2.
    """
    mp = _mp()
    r = autocorrelation(reference_amplitudes(kind, n, cost))
    w0, w = cost_coefficients(cost, n)
    terms = [(k, mp.mpf(wk)) for k, wk in enumerate(w, 1) if wk]

    def corr(m):
        return r[abs(m)] if abs(m) <= n else 0

    total = mp.mpf(w0) ** 2 - 2 * w0 * mp.fsum(wk * r[k] for k, wk in terms)
    total += mp.fsum(wk * wl * (corr(k + l) + corr(k - l)) / 2
                     for k, wk in terms for l, wl in terms)
    return float(total)


def wrapped_rms_reference(amplitudes: list) -> float:
    """Wrapped RMS error from its terminating cosine series, in mpmath."""
    mp = _mp()
    r = autocorrelation(amplitudes)
    total = mp.pi**2 / 3 + mp.fsum(4 * (-1) ** k * r[k] / k**2 for k in range(1, len(r)))
    return float(mp.sqrt(total))


def toeplitz_matvec(column: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Symmetric Toeplitz matrix (first column ``column``) times ``x``.

    Embeds the matrix in a circulant of size 2n and multiplies by FFT.
    """
    n = x.size
    circulant = np.concatenate([column, [0.0], column[:0:-1]])
    product = np.fft.irfft(np.fft.rfft(circulant) * np.fft.rfft(x, 2 * n), 2 * n)
    return product[:n]


def _as_floats(values) -> np.ndarray:
    return np.array([float(v) for v in values])


# -------------------------------------------------------------------- checks


class Checker:
    """Checks outputs command by command.

    Holds references between passes, since a run repeats the same commands,
    and the stdout digest of each ``simulate`` command, which must repeat
    byte for byte.
    """

    def __init__(self):
        self._cache: dict = {}
        self._digests: dict[tuple, str] = {}

    def _cached(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def check(self, argv: list[str], returncode: int | None, stdout: str) -> Verdict:
        verdict = Verdict()
        if returncode != 0:
            verdict.fail(f"exit code {returncode}")
            return verdict
        options = _options(argv[1:])
        try:
            getattr(self, "_check_" + argv[0])(options, stdout, verdict)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            verdict.fail(f"unreadable output: {exc!r}")
        if argv[0] == "simulate":
            digest = hashlib.sha256(stdout.encode()).hexdigest()
            first = self._digests.setdefault(tuple(argv), digest)
            verdict.require("byte-identical stdout for a repeated seed", digest == first)
        return verdict

    def _check_scan(self, options, stdout, verdict):
        record = json.loads(stdout)
        cost = options["--cost"]
        kinds = options["--kinds"].split(",")
        start, stop, step = (int(p) for p in options["--n"].split(":"))
        rows = record["payload"]
        expected = [(n, kind) for n in range(start, stop + 1, step) for kind in kinds]
        verdict.require("one row per (n, kind)",
                        [(row["n"], row["kind"]) for row in rows] == expected)
        for row in rows:
            n, kind = row["n"], row["kind"]
            label = f"scan {kind} n={n}"
            verdict.require(f"{label} error is null", row["error"] is None)
            verdict.require(f"{label} matches_phase_state",
                            row["matches_phase_state"] == (kind == "phase"))
            verdict.agree(f"{label} mean_cost", row["mean_cost"],
                          self._cached(("cost", kind, n, cost),
                                       lambda: mean_cost_reference(kind, n, cost)),
                          "mean_cost")
            verdict.agree(f"{label} delta_t", row["delta_t"],
                          self._cached(("rms", kind, n, cost), lambda: wrapped_rms_reference(
                              reference_amplitudes(kind, n, cost))),
                          "delta_t")
            info = row["mutual_information_bits"]
            verdict.require(f"{label} 0 <= MI <= log2(N+1)", 0.0 <= info <= math.log2(n + 1))

    def _check_posterior(self, options, stdout, verdict):
        kind, n = options["--kind"], int(options["--n"])
        outcome = int(options.get("--outcome", 0))
        grid_size = int(options.get("--grid", 16 * (n + 1)))
        lines = stdout.splitlines()
        scalars = dict(line[2:].split("=", 1) for line in lines if line.startswith("# "))
        data = [line for line in lines if not line.startswith("#")]
        verdict.require("posterior header", data[0] == "t,offset,density")
        table = np.loadtxt(data[1:], delimiter=",", ndmin=2)
        verdict.require("posterior row count", table.shape == (grid_size, 3))
        t, offset, density = table.T
        t_j = 2.0 * math.pi * outcome / (n + 1)
        verdict.agree("outcome_time", float(scalars["outcome_time"]), t_j, "grid")
        grid = 2.0 * math.pi * np.arange(grid_size) / grid_size
        verdict.error("posterior grid", float(np.max(np.abs(t - grid))) / math.pi,
                      MIN_DIGITS["grid"])
        turn = np.abs(np.mod(offset - (grid - t_j), 2.0 * math.pi))
        verdict.error("posterior offset",
                      float(np.max(np.minimum(turn, 2.0 * math.pi - turn))) / math.pi,
                      MIN_DIGITS["grid"])
        verdict.require("posterior density >= 0", bool(np.all(density >= 0.0)))
        verdict.agree("posterior integral", float(density.sum()) * 2.0 * math.pi / grid_size,
                      1.0, "integral")
        reference = self._cached(
            ("posterior", kind, n, options.get("--cost"), outcome, grid_size),
            lambda: _posterior_reference(kind, n, options.get("--cost"), t_j, grid),
        )
        verdict.error("posterior density",
                      float(np.max(np.abs(density - reference)) / np.max(reference)),
                      MIN_DIGITS["density"])

    def _check_state(self, options, stdout, verdict):
        kind, cost, n = options["--kind"], options["--cost"], int(options["--n"])
        payload = json.loads(stdout)["payload"]
        a = np.array(payload["amplitudes"], dtype=float)
        verdict.require("amplitude count", a.shape == (n + 1,))
        verdict.require("amplitudes >= 0", bool(np.all(a >= 0.0)))
        verdict.error("unit norm", abs(float(a @ a) - 1.0), MIN_DIGITS["amplitudes"])
        # Every state the workloads build is symmetric, a_m = a_{N-m}.
        verdict.agree("mean_energy", payload["mean_energy"], n / 2.0, "energy")
        if kind == "optimal" and cost == "abs":
            self._check_abs_optimum(n, a, payload["mean_cost"], verdict)
            return
        reference = self._cached(("amps", kind, n, cost),
                                 lambda: _as_floats(reference_amplitudes(kind, n, cost)))
        verdict.error("amplitudes", float(np.max(np.abs(a - reference)) / np.max(reference)),
                      MIN_DIGITS["amplitudes"])
        verdict.agree("mean_cost", payload["mean_cost"],
                      self._cached(("cost", kind, n, cost),
                                   lambda: mean_cost_reference(kind, n, cost)),
                      "mean_cost")

    def _check_abs_optimum(self, n, a, mean_cost, verdict):
        w0, w = cost_coefficients("abs", n)
        column = np.concatenate([[w0], -0.5 * w])
        prefix = np.concatenate([[0.0], np.cumsum(w)])
        # Row i of F sums w_1..w_i and w_1..w_{N-i} off the diagonal.
        norm_inf = abs(w0) + 0.5 * float(np.max(prefix + prefix[::-1]))
        fa = toeplitz_matvec(column, a)
        rayleigh = float(a @ fa)
        residual = float(np.linalg.norm(fa - rayleigh * a))
        verdict.error("eigen-residual / ||F||_inf", residual / norm_inf,
                      -math.log10(RESIDUAL_RTOL))
        verdict.agree("mean_cost vs a.Fa", mean_cost, rayleigh, "mean_cost")

    def _check_simulate(self, options, stdout, verdict):
        kind, cost, n = options["--kind"], options["--cost"], int(options["--n"])
        samples = int(options["--samples"])
        payload = json.loads(stdout)["payload"]
        counts = payload["histogram"]["counts"]
        verdict.require("histogram holds every sample", sum(counts) == samples)
        verdict.require("histogram edges",
                        len(payload["histogram"]["bin_edges"]) == len(counts) + 1)
        verdict.require("0 <= empirical delta_t <= pi",
                        0.0 <= payload["empirical_delta_t"] <= math.pi)
        bound = self._cached(("cost", kind, n, cost), lambda: mean_cost_reference(kind, n, cost))
        second = self._cached(("cost2", kind, n, cost), lambda: cost_second_moment(kind, n, cost))
        # The exact standard error of the sample mean. The reported one is
        # not used: the cost is heavy-tailed for the optimal state, so the
        # sample variance of 10^5 draws often falls far below the true one.
        standard_error = math.sqrt(max(second - bound**2, 0.0) / samples)
        deviation = abs(payload["empirical_mean_cost"] - bound)
        tolerance = MC_SIGMAS * standard_error
        if deviation > tolerance:
            verdict.fail(f"|empirical - bound| = {deviation:.3e} > "
                         f"{MC_SIGMAS:g} standard errors ({tolerance:.3e})")
        else:
            # The digits the Monte Carlo confirms: the width of its acceptance band.
            verdict.error("Monte Carlo mean cost", tolerance / abs(bound), 0.0)


def _options(args: list[str]) -> dict[str, str]:
    return dict(zip(args[::2], args[1::2]))


def _posterior_reference(kind, n, cost, t_j, grid) -> np.ndarray:
    a = _as_floats(reference_amplitudes(kind, n, cost))
    amplitude = np.exp(-1j * np.outer(grid - t_j, np.arange(n + 1))) @ a
    weight = amplitude.real**2 + amplitude.imag**2
    return weight / (weight.sum() * 2.0 * math.pi / grid.size)
