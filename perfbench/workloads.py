"""The four workloads: seeded inputs, the fixed operation list of one round,
and the references each operation's output is checked against.

A round is the workload's operation list run once, in order.  Every round
of a run repeats the same inputs, except that Monte Carlo rounds draw a fresh
master seed from (workload seed, round index), so per-round counts of the
analytic workloads repeat exactly.  Parameters are drawn once per run from a
box of +-2% around each reference point, so the seed changes the inputs but
not the regime or the cost.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
import threading
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np
from scipy.integrate import quad

from catwalk import cli, diffusion, discrete, scaling
from catwalk import simulate as sim

import checks
from checks import Verdict

BOX = 0.02


@dataclass
class Op:
    #: "<kind>/<name>", unique within a round
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], tuple[Verdict, dict]]
    #: non-empty when the current program is known to fail this check
    known_defect: str = ""
    #: how the known failure's detail starts; any other failure is unexpected
    defect_detail: str = ""

    @property
    def kind(self) -> str:
        return self.label.split("/", 1)[0]


def jitter(rng: random.Random, *values: float) -> tuple[float, ...]:
    return tuple(v * rng.uniform(1.0 - BOX, 1.0 + BOX) for v in values)


def run_child(argv: list[str], stdout_path: str, env: dict) -> tuple[int, int]:
    """Run a child to completion; return its exit code and peak RSS in KiB.
    ``os.wait4`` gives this child's own rusage, unmixed with other children."""
    with open(stdout_path, "wb") as sink:
        proc = subprocess.Popen(argv, stdout=sink, stderr=subprocess.DEVNULL, env=env)
    timer = threading.Timer(120.0, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


class Workload:
    name = ""
    #: op_tail_ms is reported at this percentile; ``min_rounds`` rounds give
    #: at least ten samples beyond it
    tail_pct = 50.0
    min_rounds = 1
    #: operations run untimed before timing starts; None means a whole round
    warmup_ops: Optional[int] = None

    def __init__(self, seed: int, scratch: str, env: dict) -> None:
        self.seed = seed
        self.scratch = scratch
        self.env = env
        self.rng = random.Random(seed)
        self.refs: dict = {}

    def prepare(self) -> None:
        """Compute the references the checks compare against."""

    def ops(self, round_index: int) -> list[Op]:
        raise NotImplementedError

    def warmup_op(self) -> Op:
        """The operation a set-up probe runs once before it reports ready."""
        return self.ops(0)[0]

    def path(self, name: str) -> str:
        return os.path.join(self.scratch, name)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# lattice-transient


def skellam_pmf(n: int, a, b, terms: int = 400):
    """P(N1 - N2 = n) for independent Poisson N1, N2 with means ``a`` and
    ``b`` (arrays, all positive), summed term by term:

        sum_k Pois(k + n; a) Pois(k; b)   (n >= 0; mirror for n < 0).

    ``terms`` Poisson terms cover means up to about 200."""
    if n < 0:
        n, a, b = -n, b, a
    a = np.asarray(a, dtype=float)[..., None]
    b = np.asarray(b, dtype=float)[..., None]
    k = np.arange(terms, dtype=float)
    log_fact = np.array([math.lgamma(i + 1.0) for i in range(terms + n)])
    log_terms = ((k + n) * np.log(a) - a - log_fact[n:]
                 + k * np.log(b) - b - log_fact[:terms])
    return np.exp(log_terms).sum(axis=-1)


def lattice_reference(p: discrete.DiscreteParams, n: int, times, nodes: int = 64) -> list[float]:
    """P(at state n and operating at t) for each t, from the restart
    convolution over a Skellam law summed from Poisson terms:

        P_n(t) = e^{-nu t} Sk_n(t) + eta int_0^t q(t - s) e^{-nu s} Sk_n(s) ds,

    with q the failure mass and s the time since the last restart.  The
    integrand is smooth in s, so a Gauss-Legendre rule of ``nodes`` points
    is exact to rounding for the horizons used here."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    rate = p.nu + p.eta
    out = []
    for t in times:
        if t == 0.0:
            out.append(1.0 if n == 0 else 0.0)
            continue
        lag = 0.5 * t * (x + 1.0)
        failure = p.nu / rate * -np.expm1(-rate * (t - lag))
        law = skellam_pmf(n, p.lam * lag, p.mu * lag)
        restart = 0.5 * t * float(np.sum(w * failure * np.exp(-p.nu * lag) * law))
        survived = math.exp(-p.nu * t) * float(skellam_pmf(n, [p.lam * t], [p.mu * t])[0])
        out.append(survived + p.eta * restart)
    return out


class LatticeTransient(Workload):
    name = "lattice-transient"
    tail_pct = 70.0
    min_rounds = 10
    #: (label, rates, t, known defect, how its failure detail starts)
    REGIMES = (
        ("moderate", (2.0, 2.0, 0.1, 1.0), 5.0, "", ""),
        ("long-horizon", (2.0, 2.0, 0.1, 1.0), 50.0, "", ""),
        ("heavy-traffic", (460.0, 470.0, 1.0, 0.25), 1.0, "", ""),
        ("strong-drift", (200.0, 1.0, 0.1, 1.0), 5.0,
         "the Skellam term underflows to 0 when the order far exceeds the Bessel "
         "argument, so the window loses mass and its tail bound is 1", "tail_bound "),
    )
    TABLE = (2.0, 2.0, 0.1, 1.0)
    TABLE_TIMES = tuple(k * 0.1 for k in range(81))
    TABLE_STATES = (0, 1, 2)

    def __init__(self, seed, scratch, env):
        super().__init__(seed, scratch, env)
        self.windows = [
            (label, discrete.DiscreteParams(*jitter(self.rng, *rates)), t, defect, detail)
            for label, rates, t, defect, detail in self.REGIMES
        ]
        self.table_params = discrete.DiscreteParams(*jitter(self.rng, *self.TABLE))

    def table_argv(self) -> list[str]:
        p = self.table_params
        return ["transient", "--model", "discrete", "--lambda", repr(p.lam), "--mu", repr(p.mu),
                "--nu", repr(p.nu), "--eta", repr(p.eta), "--t-grid", "0:8:0.1",
                "--n-min", "0", "--n-max", "2", "--out", self.path("lattice-table.csv")]

    def prepare(self):
        for label, p, t, _, _ in self.windows:
            self.refs[label] = (checks.failure_mass(p.nu, p.eta, t),
                                discrete.mean_transient(p, t), discrete.variance_transient(p, t))
        p = self.table_params
        times = self.TABLE_TIMES[1:]
        law = {n: lattice_reference(p, n, times) for n in self.TABLE_STATES}
        rows = [[0.0, 0, 1.0, 0.0]]
        for i, t in enumerate(times):
            q = checks.failure_mass(p.nu, p.eta, t)
            rows += [[t, n, law[n][i], q] for n in self.TABLE_STATES]
        self.refs["table"] = rows

    def _window_op(self, label, p, t, defect, detail) -> Op:
        def check(out):
            failure, mean_ref, var_ref = self.refs[label]
            total = math.fsum(out.probabilities.values()) + failure
            facts = {"states": len(out.probabilities), "tail_bound": out.tail_bound,
                     "mass_defect": abs(1.0 - total)}
            return checks.window(out.probabilities, out.tail_bound, failure, mean_ref, var_ref), facts

        return Op(f"window/{label}", lambda: discrete.transient_distribution(p, t),
                  check, defect, detail)

    def ops(self, round_index):
        ops = [self._window_op(*w) for w in self.windows]
        argv = self.table_argv()

        def check_table(code):
            text = _read(argv[-1])
            facts = {"output_bytes": len(text.encode())}
            if code != 0:
                return Verdict(False, f"exit code {code}"), facts
            columns = ["t", "n", "probability", "failure_mass"]
            return checks.table(text, columns, self.refs["table"]), facts

        ops.append(Op("cli/transient-discrete", lambda: cli.main(argv), check_table))
        return ops


# ---------------------------------------------------------------------------
# diffusion-density


def density_reference(dp: diffusion.DiffusionParams, x: float, t: float) -> float:
    """f(x, t) from the restart convolution written in the lag s = u^2,
    which turns the 1/sqrt(s) Gaussian peak into a smooth bump in u:

        f = e^{-nu t} w(x, t) + eta int_0^sqrt(t) 2 u q(t - u^2) e^{-nu u^2} w(x, u^2) du,

    where 2 u w(x, u^2) = 2 e^{-(x - drift u^2)^2 / (2 sigma2 u^2)} / sqrt(2 pi sigma2).
    The integrand peaks at u^4 = x^2 / (2 sigma2 a), a = drift^2 / (2 sigma2) + nu,
    and falls below e^-50 of its peak beyond ``upper``."""
    a = dp.drift ** 2 / (2.0 * dp.sigma2) + dp.nu
    norm = 1.0 / math.sqrt(2.0 * math.pi * dp.sigma2)

    def exponent(u):
        return -(x - dp.drift * u * u) ** 2 / (2.0 * dp.sigma2 * u * u) - dp.nu * u * u

    survived = norm / math.sqrt(t) * math.exp(exponent(math.sqrt(t)))
    peak = (x * x / (2.0 * dp.sigma2 * a)) ** 0.25
    upper = min(math.sqrt(t), math.sqrt((50.0 + abs(x) * math.sqrt(2.0 * a / dp.sigma2)) / a))

    def integrand(u):
        if u == 0.0:
            return 2.0 * norm * checks.failure_mass(dp.nu, dp.eta, t) if x == 0.0 else 0.0
        return 2.0 * norm * checks.failure_mass(dp.nu, dp.eta, t - u * u) * math.exp(exponent(u))

    points = [peak] if 0.0 < peak < upper else None
    restart, _ = quad(integrand, 0.0, upper, epsabs=0.0, epsrel=1e-12, limit=200, points=points)
    return survived + dp.eta * restart


def cdf_reference(dp: diffusion.DiffusionParams, x: float, t: float) -> float:
    """P(X(t) <= x, operating): the transient density integrated in x, which
    turns each Gaussian kernel of the restart convolution into a normal CDF."""
    def phi(lag):
        return 0.5 * math.erfc(-(x - dp.drift * lag) / math.sqrt(2.0 * dp.sigma2 * lag))

    def integrand(tau):
        lag = t - tau
        if lag <= 0.0:
            return 0.0
        return checks.failure_mass(dp.nu, dp.eta, tau) * math.exp(-dp.nu * lag) * phi(lag)

    restart, _ = quad(integrand, 0.0, t, epsabs=1e-13, epsrel=1e-11, limit=200)
    return math.exp(-dp.nu * t) * phi(t) + dp.eta * restart


class DiffusionDensity(Workload):
    name = "diffusion-density"
    tail_pct = 95.0
    min_rounds = 25
    BASE = (3.0, 1.0, 1.0, 1.0)  # lam_hat, mu_hat, sigma2, eta
    NUS = (1.0, 0.5, 0.1)
    T = 1.0
    SMALL = (2.0, 1.0, 1e-6, 1.0, 1.0)
    SMALL_T = 10.0
    SMALL_DEFECT = ("the restart quadrature exhausts its subdivision budget when the "
                    "Gaussian kernel is this narrow and raises QuadratureError")

    def __init__(self, seed, scratch, env):
        super().__init__(seed, scratch, env)
        lam_hat, mu_hat, sigma2, eta = self.BASE
        self.params = [diffusion.DiffusionParams(*jitter(self.rng, lam_hat, mu_hat, sigma2, nu, eta))
                       for nu in self.NUS]
        self.table_params = diffusion.DiffusionParams(*jitter(self.rng, 3.0, 1.0, 1.0, 1.0, 1.0))
        # a fixed point: how long the quadrature takes to give up varies
        # several-fold with the exact rates, which would make cost depend on the seed
        self.small = diffusion.DiffusionParams(*self.SMALL)

    def table_grid(self) -> list[float]:
        dp, t = self.table_params, self.T
        sd = math.sqrt(dp.sigma2 * t)
        lo = min(0.0, dp.drift * t) - 8.0 * sd
        hi = max(0.0, dp.drift * t) + 8.0 * sd
        return [float(x) for x in np.linspace(lo, hi, 161)]

    def prepare(self):
        for dp in self.params:
            self.refs[dp] = (checks.failure_mass(dp.nu, dp.eta, self.T), diffusion.mean_x(dp, self.T),
                             diffusion.variance_x(dp, self.T))
        dp = self.table_params
        q = checks.failure_mass(dp.nu, dp.eta, self.T)
        self.refs["table"] = [[self.T, x, density_reference(dp, x, self.T), q]
                              for x in self.table_grid()]
        self.refs["small"] = density_reference(self.small, 0.0, self.SMALL_T)

    def ops(self, round_index):
        ops = []
        for dp in self.params:
            def check_slice(out, dp=dp):
                failure, mean_ref, var_ref = self.refs[dp]
                total = checks.trapezoid(out.abscissas.tolist(), out.values.tolist())
                facts = {"density_points": len(out.values),
                         "mass_defect": abs(1.0 - (total + out.tail_mass + failure))}
                verdict = checks.density_slice(out.abscissas, out.values, out.tail_mass, failure,
                                               out.mass_tolerance, mean_ref, var_ref)
                return verdict, facts

            def check_on_mass(value, dp=dp):
                failure = self.refs[dp][0]
                return checks.scalar(value, 1.0 - failure, 1e-8, what="on_mass"), {}

            ops.append(Op(f"slice/nu={dp.nu:.3f}",
                          lambda dp=dp: diffusion.density_slice(dp, self.T), check_slice))
            ops.append(Op(f"on_mass/nu={dp.nu:.3f}",
                          lambda dp=dp: diffusion.on_mass(dp, self.T), check_on_mass))

        dp = self.table_params
        out_path = self.path("diffusion-table.csv")
        argv = ["transient", "--model", "diffusion", "--lambda-hat", repr(dp.lam_hat),
                "--mu-hat", repr(dp.mu_hat), "--sigma2", repr(dp.sigma2), "--nu", repr(dp.nu),
                "--eta", repr(dp.eta), "--t", repr(self.T), "--out", out_path]

        def check_table(code):
            text = _read(out_path)
            facts = {"output_bytes": len(text.encode()), "density_points": len(self.refs["table"])}
            if code != 0:
                return Verdict(False, f"exit code {code}"), facts
            return checks.table(text, ["t", "x", "density", "failure_mass"], self.refs["table"]), facts

        ops.append(Op("cli/transient-diffusion", lambda: cli.main(argv), check_table))

        def check_small(value):
            return checks.scalar(value, self.refs["small"], 1e-6, what="density"), {"density_points": 1}

        ops.append(Op("point/small-variance",
                      lambda: diffusion.transient_density(self.small, 0.0, self.SMALL_T),
                      check_small, self.SMALL_DEFECT, "raised QuadratureError"))
        return ops


# ---------------------------------------------------------------------------
# monte-carlo


class MonteCarlo(Workload):
    name = "monte-carlo"
    tail_pct = 97.5
    min_rounds = 20
    T = 1.0
    EMPTY_T = 1e-12
    #: (model label, model, rates, replications, horizon, statistics)
    BATCHES = (
        ("lattice", "discrete", (2.0, 2.0, 0.1, 1.0), 4000, T,
         ("failure-probability", "truncated-mean", "truncated-variance",
          "state-probability:-2", "state-probability:-1", "state-probability:0",
          "state-probability:1", "state-probability:2")),
        ("diffusion", "diffusion", (3.0, 1.0, 1.0, 1.0, 1.0), 4000, T,
         ("failure-probability", "truncated-mean", "truncated-variance", "cdf:0.5")),
        # no variance here: from 200 paths the fourth-moment standard error
        # of a variance estimate is too small, and |z| > 5 occurs by chance
        ("heavy-lattice", "discrete", (460.0, 470.0, 1.0, 0.25), 200, T,
         ("failure-probability", "truncated-mean")),
        ("empty", "discrete", (2.0, 2.0, 0.1, 1.0), 4000, EMPTY_T,
         ("failure-probability", "truncated-mean")),
    )

    def __init__(self, seed, scratch, env):
        super().__init__(seed, scratch, env)
        self.params = {}
        for label, model, rates, _, _, _ in self.BATCHES:
            cls = discrete.DiscreteParams if model == "discrete" else diffusion.DiffusionParams
            self.params[label] = cls(*jitter(self.rng, *rates))

    def prepare(self):
        for label, model, _, _, horizon, stats in self.BATCHES:
            p = self.params[label]
            for stat in stats:
                name, _, arg = stat.partition(":")
                if name == "failure-probability":
                    ref = checks.failure_mass(p.nu, p.eta, horizon)
                elif name == "truncated-mean":
                    ref = (discrete.mean_transient(p, horizon) if model == "discrete"
                           else diffusion.mean_x(p, horizon))
                elif name == "truncated-variance":
                    ref = (discrete.variance_transient(p, horizon) if model == "discrete"
                           else diffusion.variance_x(p, horizon))
                elif name == "state-probability":
                    ref = lattice_reference(p, int(arg), [horizon])[0]
                else:
                    ref = cdf_reference(p, float(arg), horizon)
                self.refs[(label, stat)] = ref

    def ops(self, round_index):
        master = (self.seed * 1_000_003 + round_index) % 2**64
        traces: dict = {}
        configs: dict = {}
        ops = []
        for label, model, _, reps, horizon, stats in self.BATCHES:
            p = self.params[label]
            cfg = configs[label] = sim.SimConfig(seed=master, replications=reps, horizon=horizon,
                                                 observation_times=(horizon,))
            simulate = sim.simulate_discrete if model == "discrete" else sim.simulate_diffusion

            def run(label=label, simulate=simulate, p=p, cfg=cfg):
                traces[label] = list(simulate(p, cfg))
                return traces[label]

            def check_run(out, reps=reps, horizon=horizon):
                facts = {"replications": len(out), "events": sum(len(tr.events) for tr in out)}
                if len(out) != reps:
                    return Verdict(False, f"{len(out)} paths, expected {reps}"), facts
                if any(len(tr.observations) != 1 or tr.observations[0][0] != horizon for tr in out):
                    return Verdict(False, "a path lacks its observation at the horizon"), facts
                return checks.PASS, facts

            ops.append(Op(f"simulate/{label}", run, check_run))
            for stat in stats:
                name, _, arg = stat.partition(":")
                value = None if not arg else (int(arg) if name == "state-probability" else float(arg))

                def est(label=label, name=name, value=value, horizon=horizon):
                    return sim.estimate(traces[label], horizon, name, value)

                def check_est(out, key=(label, stat)):
                    verdict = checks.estimate(out.value, out.standard_error, self.refs[key])
                    return verdict, {"z": verdict.z}

                ops.append(Op(f"estimate/{label}/{stat}", est, check_est))

        out_path = self.path("traces.log")

        def export():
            sim.export_traces(traces["lattice"], out_path, {"model": "discrete"}, configs["lattice"])

        def check_export(_):
            paths = traces["lattice"]
            text = _read(out_path)
            verdict = checks.trace_file(text, sum(len(tr.events) for tr in paths),
                                        sum(len(tr.observations) for tr in paths), len(paths))
            return verdict, {}

        ops.append(Op("export/lattice", export, check_export))
        return ops


# ---------------------------------------------------------------------------
# cli-cold


class CliCold(Workload):
    name = "cli-cold"
    tail_pct = 75.0
    min_rounds = 10
    warmup_ops = 1
    EPSILONS = (0.1, 0.05, 0.01)

    def __init__(self, seed, scratch, env):
        super().__init__(seed, scratch, env)
        self.steady = discrete.DiscreteParams(*jitter(self.rng, 460.0, 470.0, 1.0, 0.25))
        self.moments = discrete.DiscreteParams(*jitter(self.rng, 2.0, 1.0, 1.0, 2.0))
        self.compare = diffusion.DiffusionParams(*jitter(self.rng, 1.0, 2.0, 9.0, 1.0, 0.25))

    def commands(self) -> list[tuple[str, list[str], list[str], float, float]]:
        """(label, argv, columns, rtol, atol) for each command."""
        s, m, c = self.steady, self.moments, self.compare
        table1_cols = ["n"] + [f"{k}_{e}" for e in self.EPSILONS for k in ("pi_over_eps", "w", "delta")]
        return [
            ("table1", ["table1"], table1_cols, 0.0, 5.1e-6),
            ("steady", ["steady", "--model", "discrete", "--lambda", repr(s.lam), "--mu", repr(s.mu),
                        "--nu", repr(s.nu), "--eta", repr(s.eta)],
             ["n", "probability", "failure_mass"], checks.CELL_RTOL, 0.0),
            ("moments", ["moments", "--model", "discrete", "--lambda", repr(m.lam), "--mu", repr(m.mu),
                         "--nu", repr(m.nu), "--eta", repr(m.eta), "--t-grid", "0:12:0.1"],
             ["t", "mean", "variance"], checks.CELL_RTOL, 0.0),
            ("compare", ["compare", "--lambda-hat", repr(c.lam_hat), "--mu-hat", repr(c.mu_hat),
                         "--sigma2", repr(c.sigma2), "--nu", repr(c.nu), "--eta", repr(c.eta)]
             + [arg for e in self.EPSILONS for arg in ("--epsilon", repr(e))],
             ["epsilon", "n", "pi_over_eps", "w_value", "delta"], checks.CELL_RTOL, 0.0),
        ]

    def prepare(self):
        table1 = diffusion.DiffusionParams(1.0, 2.0, 9.0, 1.0, 0.25)
        per_eps = {e: {r.n: r for r in scaling.steady_comparison(table1, e, range(-6, 7))}
                   for e in self.EPSILONS}
        self.refs["table1"] = [
            [n] + [v for e in self.EPSILONS for v in (per_eps[e][n].scaled_pi, per_eps[e][n].w_value,
                                                      per_eps[e][n].delta)]
            for n in range(-6, 7)]
        s = self.steady
        q = s.nu / (s.nu + s.eta)
        self.refs["steady"] = [[n, discrete.steady_state(s, n), q] for n in range(-6, 7)]
        m = self.moments
        self.refs["moments"] = [[t, discrete.mean_transient(m, t), discrete.variance_transient(m, t)]
                                for t in (k * 0.1 for k in range(121))]
        self.refs["compare"] = [[e, r.n, r.scaled_pi, r.w_value, r.delta] for e in self.EPSILONS
                                for r in scaling.steady_comparison(self.compare, e, range(-6, 7))]

    def _check(self, label, columns, rtol, atol, out_path):
        def check(result):
            code, maxrss_kb = result
            text = _read(out_path)
            facts = {"output_bytes": len(text.encode()), "child_maxrss_kb": maxrss_kb}
            if code != 0:
                return Verdict(False, f"exit code {code}"), facts
            return checks.table(text, columns, self.refs[label], rtol, atol), facts

        return check

    def ops(self, round_index):
        ops = []
        for label, argv, columns, rtol, atol in self.commands():
            out_path = self.path(f"{label}.csv")
            child = [sys.executable, "-m", "catwalk", *argv]
            ops.append(Op(f"cli-child/{label}",
                          lambda child=child, out_path=out_path: run_child(child, out_path, self.env),
                          self._check(label, columns, rtol, atol, out_path)))
        return ops

    def warmup_op(self) -> Op:
        # a child run would add a second interpreter start to set-up
        return self.inprocess_ops()[0]

    def inprocess_ops(self) -> list[Op]:
        """The same commands through ``cli.main`` in this process, for the
        traced run's cli.main_ms."""
        ops = []
        for label, argv, columns, rtol, atol in self.commands():
            out_path = self.path(f"{label}-inprocess.csv")
            check = self._check(label, columns, rtol, atol, out_path)
            ops.append(Op(f"cli/{label}",
                          lambda argv=argv, out_path=out_path: (cli.main(argv + ["--out", out_path]), 0),
                          check))
        return ops


WORKLOADS = {w.name: w for w in (LatticeTransient, DiffusionDensity, MonteCarlo, CliCold)}

