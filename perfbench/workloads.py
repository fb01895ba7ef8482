"""Seeded inputs and operation kinds of the benchmark workloads.

A workload is a fixed round-robin of operation kinds.  One operation is one
call into dmc and is timed alone; its check runs afterwards, outside the
timed interval, through `reference` (plain numpy, closed forms) rather than
through the code under test.  Every input is generated here from the seed;
dmc receives only those inputs.

Kinds are named after the dmc function they exercise (`cli.<subcommand>` for
the CLI), so a latency cluster can be read off by name.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass
from math import exp, sqrt
from typing import Any, Callable

import numpy as np

from dmc import (
    calculus,
    cli,
    decompose,
    ewens,
    inequalities,
    semigroup,
    space,
    stein,
)

import reference as ref

# exact identities hold to a few ulps of the table scale (measured <= 1e-14)
TOL = 1e-10
# Monte-Carlo estimates may sit this many standard errors from the exact value
Z_MAX = 5.0

SIZES = {
    "full": {
        "dense_n": 12,
        "mixed_sizes": (2, 3, 2, 3, 2, 3, 2, 3, 2),  # 2592 configurations
        "clark_symmetric_n": 8,
        "wide_n": 20,
        "evaluator_n": 14,
        "ewens_N": 10,
        "ternary_n": 8,
        "probe_ns": (8, 10, 12),
        "integrate_probe_n": 23,
        "simulate_paths": 100_000,
    },
    # smoke-test scale: same kinds, tiny spaces
    "tiny": {
        "dense_n": 6,
        "mixed_sizes": (2, 3, 2, 3),
        "clark_symmetric_n": 4,
        "wide_n": 8,
        "evaluator_n": 6,
        "ewens_N": 5,
        "ternary_n": 4,
        "probe_ns": (4, 5, 6),
        "integrate_probe_n": 10,
        "simulate_paths": 1000,
    },
}

CLI_ARGS = {
    "full": {
        "identities": ["--trials", "500"],
        "semigroup": ["--trials", "100000"],
        "clark": [],
        "inequalities": [],
        "hoeffding": [],
        "ewens": ["--N", "3", "--t", "1", "--enum"],
        "stein-gaussian": ["--n", "25"],
        "stein-gamma": [],
        "stein-homog": ["--kernel", None],
        "limits-poisson": ["--functional", "capped", "--trials", "30"],
        "limits-walk": ["--mode", "mc", "--trials", "20000"],
    },
    "tiny": {
        "identities": ["--trials", "5"],
        "semigroup": ["--trials", "2000", "--repeats", "2"],
        "clark": ["--trials", "3"],
        "inequalities": ["--trials", "5"],
        "hoeffding": ["--n", "3"],
        "ewens": ["--N", "3", "--t", "1", "--enum"],
        "stein-gaussian": ["--n", "25"],
        "stein-gamma": ["--n", "4"],
        "stein-homog": ["--kernel", None],
        "limits-poisson": ["--functional", "capped", "--grid", "4", "--trials", "40"],
        "limits-walk": ["--mode", "mc", "--grid", "8,16", "--trials", "2000"],
    },
}


@dataclass
class Failure:
    reason: str
    known_defect: bool = False


@dataclass
class Kind:
    name: str
    prepare: Callable[[int], Any]  # cycle index -> call arguments (untimed)
    call: Callable[[Any], Any]  # the timed operation
    check: Callable[[Any, Any], Failure | None]  # (arguments, result), untimed


def _fail_if(gap: float, tol: float, what: str) -> Failure | None:
    if not gap <= tol:  # also catches NaN
        return Failure(f"{what}: {gap!r} > {tol!r}")
    return None


def _rng(seed: int, *stream) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _table(sp, rng, centred=True) -> np.ndarray:
    vals = rng.normal(size=sp.shape)
    if centred:
        vals -= ref.expectation(vals, [c.pmf for c in sp.coords])
    return vals


def _pmfs(sp) -> list:
    return [c.pmf for c in sp.coords]


def _fair_pmfs(n: int) -> list:
    return [np.array([0.5, 0.5])] * n


def _mixed_space(sizes, rng):
    coords = []
    for i, k in enumerate(sizes):
        raw = rng.uniform(0.2, 1.0, size=k)
        coords.append(
            space.Coordinate(
                id=f"m{i}",
                labels=tuple(str(v) for v in range(k)),
                pmf=raw / raw.sum(),
                embedding=rng.normal(size=k),
            )
        )
    return space.build_space(coords)


# -- dense-subsets --------------------------------------------------------------


def dense_subsets(seed: int, size: str, workdir: str) -> list:
    """Subset enumerations: 2^n loops and 2^n ANOVA tensors dominate."""
    cfg = SIZES[size]
    rng = _rng(seed, 0)
    n = cfg["dense_n"]
    fair = space.rademacher_space(n)
    F = fair.from_table(_table(fair, rng))
    s = ref.pm1_sum(n)
    standardized = fair.from_table(s / sqrt(n))
    c = 1.0 / (n - 1)
    quadratic = fair.from_table(c * (s * s - n))
    mixed = _mixed_space(cfg["mixed_sizes"], rng)
    Fm = mixed.from_table(_table(mixed, rng))
    m = cfg["clark_symmetric_n"]
    small = space.rademacher_space(m)
    F8 = small.from_table(_table(small, rng, centred=False))
    fair_pmfs, mixed_pmfs = _fair_pmfs(n), _pmfs(mixed)

    def check_inverse(_, G):
        return _fail_if(ref.max_gap(ref.number_operator(G.values, fair_pmfs), F.values),
                        TOL, "|L L^-1 F - F|")

    def check_resolvent(_, R):
        lhs = R.values - ref.number_operator(R.values, fair_pmfs)
        return _fail_if(ref.max_gap(lhs, F.values), TOL, "|(I - L) R F - F|")

    def check_gaussian(_, rep):
        t1, t2 = ref.gaussian_bound_standardized(n)
        return _fail_if(max(abs(rep.t1 - t1), abs(rep.t2 - t2)), TOL, "gaussian (t1, t2) gap")

    def gamma_args(i):
        r = _rng(seed, 1, i)
        return float(r.uniform(0.5, 2.0)), float(r.uniform(0.5, 2.0))

    def check_gamma(args, rep):
        b1, b2 = ref.gamma_bound_quadratic(n, c, *args)
        return _fail_if(max(abs(rep.t1 - b1), abs(rep.t2 - b2)), TOL * max(1.0, b2),
                        "gamma (b1, b2) gap")

    def symmetric_terms(_):
        return [decompose.symmetric_coordinate_term(mixed, Fm, b) for b in range(mixed.n)]

    def check_symmetric(_, terms):
        total = sum(T.values for T in terms)
        centred = Fm.values - ref.expectation(Fm.values, mixed_pmfs)
        return _fail_if(ref.max_gap(total, centred), TOL, "|sum_b term_b - (F - E F)|")

    def order_sums(_):
        dec = calculus.anova(mixed, Fm)
        return [dec.order_sum(k) for k in range(mixed.n + 1)]

    def check_order_sums(_, sums):
        mean = ref.expectation(Fm.values, mixed_pmfs)
        gap = max(ref.max_gap(sum(H.values for H in sums), Fm.values),
                  ref.max_gap(sums[0].values, mean))
        return _fail_if(gap, TOL, "|sum_k H_k - F| or |H_0 - E F|")

    def check_clark_symmetric(_, rep):
        total = sum(T.values for T in rep.terms)
        centred = F8.values - ref.expectation(F8.values, _fair_pmfs(m))
        return _fail_if(ref.max_gap(total, centred), TOL, "|sum terms - (F - E F)|")

    none = lambda i: None  # noqa: E731
    return [
        Kind("calculus.invert_number_operator", none,
             lambda _: calculus.invert_number_operator(fair, F), check_inverse),
        Kind("semigroup.resolvent", none, lambda _: semigroup.resolvent(fair, F), check_resolvent),
        Kind("stein.gaussian_bound", none,
             lambda _: stein.gaussian_bound(fair, standardized), check_gaussian),
        Kind("stein.gamma_bound", gamma_args,
             lambda a: stein.gamma_bound(fair, quadratic, *a), check_gamma),
        Kind("decompose.symmetric_coordinate_term", none, symmetric_terms, check_symmetric),
        Kind("calculus.anova", none, order_sums, check_order_sums),
        Kind("decompose.clark_symmetric", none,
             lambda _: decompose.clark_symmetric(small, F8), check_clark_symmetric),
    ]


# -- wide-grid ------------------------------------------------------------------


class _WalshCache:
    """Walsh coefficients of the wide table, computed on first use by a check."""

    def __init__(self, values):
        self.values = values
        self._coeffs = None
        self._sizes = None

    def coeffs(self):
        if self._coeffs is None:
            self._coeffs = ref.walsh(self.values)
            self._sizes = ref.subset_sizes(self.values.ndim)
        return self._coeffs, self._sizes


def wide_grid(seed: int, size: str, workdir: str) -> list:
    """Linear-in-n operators on one full grid, plus three memory-heavy calls."""
    cfg = SIZES[size]
    rng = _rng(seed, 0)
    n = cfg["wide_n"]
    fair = space.rademacher_space(n)
    F = fair.from_table(rng.normal(size=fair.shape))
    pmfs = _fair_pmfs(n)
    walsh = _WalshCache(F.values)
    scale = max(1.0, float(np.max(np.abs(F.values))))

    ne = cfg["evaluator_n"]
    evaluator_space = space.rademacher_space(ne)
    w = [float(v) for v in rng.normal(size=ne)]
    # a quadratic form evaluated in Python: enough work per point that
    # from_evaluator sits in a latency cluster of its own, clear of the
    # full-grid operators
    pairs = [(a, b, float(rng.normal())) for a in range(ne) for b in range(a + 1, ne)]

    def evaluator(config):
        x = [2 * v - 1 for v in config]
        return (sum(wa * xa for wa, xa in zip(w, x))
                + sum(c * x[a] * x[b] for a, b, c in pairs))

    model = ewens.EwensModel(cfg["ewens_N"], float(rng.uniform(0.5, 3.0)))
    ternary = []
    for i in range(cfg["ternary_n"]):
        raw = rng.uniform(0.2, 1.0, size=3)
        ternary.append(space.Coordinate(id=f"t{i}", labels=("a", "b", "c"), pmf=raw / raw.sum()))
    ternary_space = space.build_space(ternary)

    def axes(i):
        return sorted(int(a) for a in _rng(seed, 2, i).choice(n, size=n // 2, replace=False))

    def check_integrate(ax, G):
        return _fail_if(ref.max_gap(G.values, ref.mean_over(F.values, pmfs, ax)),
                        TOL * scale, "|integrate_out - E over axes|")

    def check_evaluator(_, G):
        return _fail_if(ref.max_gap(G.values, ref.pm1_quadratic(w, pairs)), TOL,
                        "|from_evaluator - table|")

    def mehler_time(i):
        return float(_rng(seed, 3, i).uniform(0.1, 2.0))

    def check_mehler(t, P):
        f, k = walsh.coeffs()
        return _fail_if(ref.max_gap(P.values, ref.inverse_walsh(f * np.exp(-t * k))),
                        TOL * scale, "|P_t F - Walsh route|")

    def check_gradient(_, field):
        if field.indices() != list(range(n)):
            return Failure(f"gradient indices {field.indices()}")
        gap = max(ref.max_gap(field[a].values, F.values - ref.mean_over(F.values, pmfs, [a]))
                  for a in range(n))
        return _fail_if(gap, TOL * scale, "|D_a F - (F - E_a F)|")

    def check_number(_, LF):
        f, k = walsh.coeffs()
        return _fail_if(ref.max_gap(LF.values, ref.inverse_walsh(-k * f)),
                        TOL * scale, "|L F - Walsh route|")

    def check_poincare(_, pair):
        f, k = walsh.coeffs()
        energy = float(np.sum(k * f * f))
        var = float(np.sum(f * f)) - float(f.flat[0]) ** 2
        gap = max(abs(pair[0] - var), abs(pair[1] - energy)) / max(1.0, energy)
        return _fail_if(gap, TOL, "relative (var, energy) gap")

    def check_concentration(_, out):
        M, bound = out
        exact = ref.concentration_constant(F.values, pmfs)
        gap = max(abs(M - exact) / max(1.0, exact), abs(bound(1.0) - exp(-1.0 / (2.0 * exact))))
        return _fail_if(gap, TOL, "concentration constant gap")

    def check_ewens(_, C):
        t, N = model.t, model.N
        laws = []
        for k in range(1, N + 1):
            p = np.full(k, 1.0 / (t + k - 1))
            p[-1] = t / (t + k - 1)
            laws.append(p)
        if not np.array_equal(C.values, np.rint(C.values)):
            return Failure("fixed-point count is not integer valued")
        mean = ref.expectation(C.values, laws)
        return _fail_if(abs(mean - t * N / (t + N - 1)), TOL, "|E C - tN/(t+N-1)|")

    def check_clark(_, rep):
        G = ref.forward_martingale(F.values, pmfs)
        gap = max(ref.max_gap(rep.terms[k].values, G[k + 1] - G[k]) for k in range(n))
        return _fail_if(gap, TOL * scale, "|T_k - (E[F|F_k] - E[F|F_k-1])|")

    def check_clark_reverse(_, rep):
        H = ref.reverse_martingale(F.values, pmfs)
        gap = max(ref.max_gap(rep.terms[k].values, H[k] - H[k + 1]) for k in range(n))
        return _fail_if(gap, TOL * scale, "|T_k - reverse martingale increment|")

    def check_stationarity(_, residual):
        return _fail_if(residual, 1e-12, "stationarity residual")

    none = lambda i: None  # noqa: E731
    return [
        Kind("space.integrate_out", axes, lambda ax: space.integrate_out(fair, F, ax),
             check_integrate),
        Kind("space.from_evaluator", none,
             lambda _: evaluator_space.from_evaluator(evaluator, range(ne)), check_evaluator),
        Kind("semigroup.mehler_apply", mehler_time,
             lambda t: semigroup.mehler_apply(fair, F, t), check_mehler),
        Kind("calculus.gradient", none, lambda _: calculus.gradient(fair, F), check_gradient),
        Kind("decompose.poincare", none, lambda _: decompose.poincare(fair, F), check_poincare),
        Kind("calculus.number_operator", none,
             lambda _: calculus.number_operator(fair, F), check_number),
        Kind("inequalities.concentration", none,
             lambda _: inequalities.concentration(fair, F), check_concentration),
        Kind("ewens.fixed_point_count", none, lambda _: ewens.fixed_point_count(model),
             check_ewens),
        Kind("decompose.clark_reverse", none, lambda _: decompose.clark_reverse(fair, F),
             check_clark_reverse),
        Kind("semigroup.check_stationarity", none,
             lambda _: semigroup.check_stationarity(ternary_space), check_stationarity),
        Kind("decompose.clark", none, lambda _: decompose.clark(fair, F), check_clark),
    ]


# -- cli-batch ------------------------------------------------------------------


def _max_leaf(tree) -> float:
    if isinstance(tree, dict):
        return max((_max_leaf(v) for v in tree.values()), default=0.0)
    return abs(float(tree))


def _json_report(path, command):
    with open(path) as fh:
        rep = json.load(fh)
    if rep.get("schema") != 1 or rep.get("command") != command:
        raise ValueError(f"report schema {rep.get('schema')!r}, command {rep.get('command')!r}")
    return rep


def _csv_rows(path) -> list:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if tuple(rows[0]) != cli.CSV_COLUMNS or len(rows) < 2:
        raise ValueError(f"csv header {rows[0]!r}")
    return [[float(v) for v in row] for row in rows[1:]]


def _check_cli(command: str, kernel: np.ndarray):
    """Check of one subcommand's report, from its argv and closed forms.

    The returned function takes (parsed report, argv).
    """

    def residuals(res, limit=TOL):
        return _fail_if(_max_leaf(res["max_residuals"]), limit, "max residual")

    def identities(res, _):
        return residuals(res)

    def semigroup_report(res, _):
        sim = res["simulator"]
        return (residuals(res) or _fail_if(res["stationarity"], 1e-12, "stationarity")
                or _fail_if(abs(sim["z"]), Z_MAX, "simulator |z|"))

    def clark(res, _):
        return residuals(res) or _fail_if(res["poincare_violations"], 0, "Poincare violations")

    def inequalities_report(res, _):
        worst = max(res["log_sobolev"]["violations"], res["concentration"]["violations"])
        return _fail_if(worst, 0, "inequality violations")

    def hoeffding(res, _):
        keys = ("reconstruction", "gram_off_diagonal", "variance_gap", "layers_vs_projections")
        worst = max(case[k] for case in res["cases"].values() for k in keys)
        return _fail_if(worst, TOL, "hoeffding residual")

    def ewens_report(res, _):
        t, N = res["t"], res["N"]
        gap = max(abs(res["mean_enum"] - t * N / (t + N - 1)),
                  abs(res["var_clark"] - res["var_enum"]))
        return _fail_if(gap, TOL, "ewens mean or Clark variance gap")

    def stein_gaussian(res, _):
        t1, t2 = ref.gaussian_bound_standardized(res["n"])
        return _fail_if(max(abs(res["t1"] - t1), abs(res["t2"] - t2)), TOL, "(t1, t2) gap")

    def stein_gamma(res, _):
        n, r, lam = res["n"], res["r"], res["lambda"]
        b1, b2 = ref.gamma_bound_quadratic(n, 1.0 / (n - 1), r, lam)
        c1, c2 = 2.0 * lam * max(1.0, 1.0 / r), lam * (max(lam, lam / r) + 1.0)
        fm = res["fourth_moment"]
        gap = max(abs(res["t1"] - b1), abs(res["t2"] - b2),
                  abs(res["total"] - (c1 * b1 + c2 * b2)),
                  fm["gap"] / max(1.0, abs(fm["lhs"])))
        return _fail_if(gap, TOL * max(1.0, b2), "gamma bracket gap")

    def stein_homog(res, _):
        want = ref.homogeneous_bracket(kernel, res["fourth_moment"])
        gap = max(abs(res[k] - v) for k, v in want.items())
        return _fail_if(gap, TOL, "homogeneous bracket gap")

    def z_failure(N, z, exact, defect=False):
        if abs(z) > Z_MAX:
            return Failure(f"N={int(N)}: z={z:.2f} against the exact form {exact!r}",
                           known_defect=defect and z > 0)
        return None

    def limits_poisson(rows, argv):
        # a trial takes one of three values, so its exact variance gives the
        # standard error; the sample one collapses when few trials are non-zero
        trials = int(argv[argv.index("--trials") + 1])
        for N, value, _, _, _ in rows:
            mean, var = ref.poisson_capped_trial(int(N))
            failure = z_failure(N, (value - mean) / sqrt(var / trials), mean)
            if failure:
                return failure
        return None

    def limits_walk(rows, argv):
        # known defect: the sub-sampled inner mean inflates the estimate by 1 + 1/inner
        for N, value, _, _, se in rows:
            exact = ref.walk_time_integral_form(int(N))
            if se <= 0.0:
                return Failure(f"N={int(N)}: zero standard error")
            failure = z_failure(N, (value - exact) / se, exact, defect=True)
            if failure:
                return failure
        return None

    return {
        "identities": identities,
        "semigroup": semigroup_report,
        "clark": clark,
        "inequalities": inequalities_report,
        "hoeffding": hoeffding,
        "ewens": ewens_report,
        "stein-gaussian": stein_gaussian,
        "stein-gamma": stein_gamma,
        "stein-homog": stein_homog,
        "limits-poisson": limits_poisson,
        "limits-walk": limits_walk,
    }[command]


def cli_batch(seed: int, size: str, workdir: str) -> list:
    """Every subcommand in process, at the README example or default sizes."""
    rng = _rng(seed, 0)
    k = 4
    upper = np.triu(rng.uniform(-1.0, 1.0, size=(k, k)), 1)
    kernel = upper + upper.T
    kernel_path = os.path.join(workdir, "kernel.csv")
    np.savetxt(kernel_path, kernel, delimiter=",", fmt="%.17g")
    kernel = np.loadtxt(kernel_path, delimiter=",", ndmin=2)

    kinds = []
    for index, (command, extra) in enumerate(CLI_ARGS[size].items()):
        extra = [kernel_path if v is None else v for v in extra]

        def prepare(i, index=index, command=command, extra=extra):
            sub_seed = int(_rng(seed, 4, index, i).integers(2**31))
            # a new file per report: rewriting one in place makes ext4 flush it on close
            out_path = os.path.join(workdir, f"{command}-{i}.out")
            return [command, *extra, "--seed", str(sub_seed), "--out", out_path]

        def call(argv):
            code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"{argv[0]} exited with {code}")
            return argv[-1]

        def check(argv, path, command=command, verify=_check_cli(command, kernel)):
            try:
                if command in cli.CSV_RUNNERS:
                    return verify(_csv_rows(path), argv)
                return verify(_json_report(path, command)["results"], argv)
            finally:
                os.remove(path)

        kinds.append(Kind(f"cli.{command}", prepare, call, check))
    return kinds


FACTORIES = {"dense-subsets": dense_subsets, "wide-grid": wide_grid, "cli-batch": cli_batch}
WORKLOADS = tuple(FACTORIES)


def build(workload: str, seed: int, size: str, workdir: str) -> list:
    return FACTORIES[workload](seed, size, workdir)


# -- probes -------------------------------------------------------------------


def probes(seed: int, size: str):
    """(metric stem, thunk, computed bytes) for the traced run's scaling probes.

    The subset-enumeration sweep and the single points recorded as the
    baseline; thunks build their inputs lazily so one probe's tensors are
    freed before the next is built.
    """
    cfg = SIZES[size]
    out = []
    for label, n in zip((8, 10, 12), cfg["probe_ns"]):
        def inputs(n=n):
            sp = space.rademacher_space(n)
            vals = _table(sp, _rng(seed, 5, n))
            return sp, sp.from_table(vals), sp.from_table(ref.pm1_sum(n) / sqrt(n))

        out += [
            (f"calculus.invert_number_operator.probe_n{label}", inputs,
             lambda a: calculus.invert_number_operator(a[0], a[1]), 0),
            (f"semigroup.resolvent.probe_n{label}", inputs,
             lambda a: semigroup.resolvent(a[0], a[1]), 0),
            (f"stein.gaussian_bound.probe_n{label}", inputs,
             lambda a: stein.gaussian_bound(a[0], a[2]), 0),
            (f"calculus.anova.probe_n{label}", inputs, lambda a: calculus.anova(a[0], a[1]), 0),
            (f"decompose.symmetric_coordinate_term.probe_n{label}", inputs,
             lambda a: decompose.symmetric_coordinate_term(a[0], a[1], 0), 0),
        ]

    def ternary():
        r = _rng(seed, 6)
        coords = []
        for i in range(cfg["ternary_n"]):
            raw = r.uniform(0.2, 1.0, size=3)
            coords.append(space.Coordinate(id=f"t{i}", labels=("a", "b", "c"), pmf=raw / raw.sum()))
        return space.build_space(coords)

    def walk_space():
        return space.rademacher_space(3), _rng(seed, 7)

    def evaluator_space():
        return space.rademacher_space(cfg["evaluator_n"])

    n23 = cfg["integrate_probe_n"]

    def big_table():
        sp = space.rademacher_space(n23)
        return sp, sp.from_table(_rng(seed, 8).normal(size=sp.shape))

    out += [
        ("semigroup.check_stationarity.probe_3x8", ternary, semigroup.check_stationarity, 0),
        ("semigroup.simulate_terminal.probe_1e5", walk_space,
         lambda a: semigroup.simulate_terminal(a[0], [0, 0, 0], 0.7, a[1],
                                               cfg["simulate_paths"]), 0),
        ("space.from_evaluator.probe_2x14", evaluator_space,
         lambda sp: sp.from_evaluator(lambda c: float(sum(c)), range(sp.n)), 0),
        # one full-grid read and one full-grid write of 8-byte floats
        ("space.integrate_out.probe_n23", big_table,
         lambda a: space.integrate_out(a[0], a[1], [n23 // 2]), 16 * 2**n23),
    ]
    return out
