"""Batch experiment runner with seeded, reproducible JSON and CSV reports.

Every report embeds the subcommand, its parameter map, the seed, and the
package version.  Re-running with an identical config and seed produces
byte-identical output except for the ``timestamp`` field, which consumers
must exclude when comparing runs.
"""

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from functools import lru_cache
from math import exp, sqrt

import numpy as np

from . import __version__
from .calculus import (
    check_gradient_commutation,
    check_innovation_identity,
    check_integration_by_parts,
    check_product_rule,
    check_weitzenbock,
    divergence,
    gradient,
    order_layers,
)
from .decompose import (
    clark,
    clark_reverse,
    clark_symmetric,
    covariance_identity,
    helmholtz,
    poincare,
)
from .errors import BadParameters, DmcError
from .ewens import EwensModel, c1_stats, mc_fixed_point_counts
from .inequalities import concentration, exact_tail, log_sobolev
from .limits import (
    WalkScheme,
    capped_mass_functional,
    endpoint_functional,
    poisson_form,
    poisson_scheme,
    time_integral_functional,
    total_mass_functional,
    walk_form,
    walk_limit,
)
from .randomized import adapted_field, random_field, random_functional, random_space
from .semigroup import (
    check_commutation,
    check_semigroup_law,
    check_stationarity,
    mehler_apply,
    resolvent,
    simulate_terminal,
)
from .space import Coordinate, iid_space, rademacher_coordinate, rademacher_space
from .stein import (
    KernelMatrix,
    SteinReport,
    fourth_moment_check,
    gamma_bound,
    gaussian_bound,
    homogeneous_functional,
    homogeneous_gamma_bound,
    lyapounov_bound,
)
from .ustat import SymmetricKernel, hoeffding_decompose

SCHEMA = 1

CSV_COLUMNS = ("N", "form_value", "limit_value", "gap", "mc_se")


# -- report plumbing ----------------------------------------------------------


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)!r}")


def build_report(command: str, config: dict, seed, results: dict) -> dict:
    return {
        "schema": SCHEMA,
        "command": command,
        "config": config,
        "seed": seed,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "results": results,
    }


def render_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2, default=_json_default) + "\n"


def render_csv(rows: list) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def emit(text: str, out) -> None:
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- subcommands --------------------------------------------------------------


def _at_least(args, option: str, low: int) -> None:
    """Refuse a count option below `low`; subcommands without it pass."""
    value = getattr(args, option, low)
    if value < low:
        raise BadParameters(f"--{option} must be >= {low}, got {value}")


def run_identities(args) -> dict:
    _at_least(args, "trials", 1)
    rng = np.random.default_rng(args.seed)
    keys = (
        "integration_by_parts",
        "product_rule",
        "gradient_idempotent",
        "gradient_commutation",
        "weitzenbock",
        "innovation",
    )
    worst = dict.fromkeys(keys, 0.0)
    for _ in range(args.trials):
        sp = random_space(rng)
        F = random_functional(sp, rng)
        G = random_functional(sp, rng)
        U = random_field(sp, rng)
        V = random_field(sp, rng)
        A = adapted_field(sp, rng)
        lhs, rhs, _ = check_integration_by_parts(sp, F, U)
        worst["integration_by_parts"] = max(
            worst["integration_by_parts"], abs(lhs - rhs)
        )
        a = int(rng.integers(sp.n))
        b = int(rng.integers(sp.n))
        worst["product_rule"] = max(
            worst["product_rule"], check_product_rule(sp, F, G, a)
        )
        worst["gradient_idempotent"] = max(
            worst["gradient_idempotent"], check_gradient_commutation(sp, F, a, a)
        )
        worst["gradient_commutation"] = max(
            worst["gradient_commutation"], check_gradient_commutation(sp, F, a, b)
        )
        worst["weitzenbock"] = max(worst["weitzenbock"], check_weitzenbock(sp, U, V)[2])
        worst["innovation"] = max(
            worst["innovation"], check_innovation_identity(sp, A)[2]
        )
    return {"trials": args.trials, "max_residuals": worst}


@lru_cache(maxsize=4)
def _laguerre_nodes(count: int) -> tuple:
    """(t, weight) of the `count` Gauss-Laguerre nodes on [0, inf).

    Cached: `laggauss` solves an eigenproblem, dearer than a whole resolvent
    check on a space of a few coordinates.
    """
    t, w = np.polynomial.laguerre.laggauss(count)
    return tuple(zip(t.tolist(), w.tolist()))


def _quadrature_resolvent(space, G, nodes=64):
    out = space.constant(0.0)
    for t, w in _laguerre_nodes(nodes):
        out = out + mehler_apply(space, G, t) * w
    return out


def run_semigroup(args) -> dict:
    _at_least(args, "repeats", 1)
    if args.trials == 1:
        raise BadParameters("the simulator's standard error needs --trials >= 2")
    rng = np.random.default_rng(args.seed)
    times = (0.1, 0.7, 2.0)
    worst = {"semigroup_law": 0.0, "commutation": 0.0, "resolvent_vs_quadrature": 0.0}
    stationarity = 0.0
    for _ in range(args.repeats):
        sp = random_space(rng)
        F = random_functional(sp, rng)
        s, t = float(rng.uniform(0.05, 2.0)), float(rng.uniform(0.05, 2.0))
        worst["semigroup_law"] = max(
            worst["semigroup_law"], check_semigroup_law(sp, F, s, t)
        )
        for tt in times:
            for a in range(sp.n):
                worst["commutation"] = max(
                    worst["commutation"], check_commutation(sp, F, a, tt)
                )
        gap = (_quadrature_resolvent(sp, F) - resolvent(sp, F)).sup_norm()
        worst["resolvent_vs_quadrature"] = max(worst["resolvent_vs_quadrature"], gap)
        stationarity = max(stationarity, check_stationarity(sp))
    results = {
        "repeats": args.repeats,
        "times": list(times),
        "max_residuals": worst,
        "stationarity": stationarity,
    }
    if args.trials > 0:
        sp = rademacher_space(3)
        F = random_functional(sp, rng)
        t = 0.7
        x0 = [0] * sp.n
        states = simulate_terminal(sp, x0, t, rng, args.trials)
        vals = F.values[tuple(states.T)]
        est = float(vals.mean())
        se = float(vals.std(ddof=1) / sqrt(args.trials))
        exact = float(mehler_apply(sp, F, t).values[tuple(x0)])
        results["simulator"] = {
            "t": t,
            "trials": args.trials,
            "estimate": est,
            "exact": exact,
            "se": se,
            "z": (est - exact) / se if se else 0.0,
        }
    return results


def run_clark(args) -> dict:
    _at_least(args, "trials", 1)
    rng = np.random.default_rng(args.seed)
    worst = {
        "reconstruction": 0.0,
        "gram_off_diagonal": 0.0,
        "variance_gap": 0.0,
        "helmholtz_roundtrip": 0.0,
        "helmholtz_divergence": 0.0,
        "covariance_identity": 0.0,
    }
    poincare_violations = 0
    for _ in range(args.trials):
        sp = random_space(rng)
        F = random_functional(sp, rng)
        G = random_functional(sp, rng)
        for rep in (clark(sp, F), clark_reverse(sp, F)):
            worst["reconstruction"] = max(worst["reconstruction"], rep.residual)
            worst["gram_off_diagonal"] = max(
                worst["gram_off_diagonal"], rep.max_off_diagonal
            )
            worst["variance_gap"] = max(
                worst["variance_gap"], abs(rep.variance_pair[0] - rep.variance_pair[1])
            )
        # the order-free form reconstructs but its terms are not orthogonal
        worst["reconstruction"] = max(
            worst["reconstruction"], clark_symmetric(sp, F).residual
        )
        U = random_field(sp, rng)
        phi, V = helmholtz(sp, U)
        Dphi = gradient(sp, phi)
        round_trip = max(
            (U[a] - Dphi[a] - V[a]).sup_norm() for a in range(sp.n)
        )
        worst["helmholtz_roundtrip"] = max(worst["helmholtz_roundtrip"], round_trip)
        worst["helmholtz_divergence"] = max(
            worst["helmholtz_divergence"], divergence(sp, V).sup_norm()
        )
        cl, cr = covariance_identity(sp, F, G)
        worst["covariance_identity"] = max(worst["covariance_identity"], abs(cl - cr))
        var, energy = poincare(sp, F)
        if var > energy + 1e-10:
            poincare_violations += 1
    return {
        "trials": args.trials,
        "max_residuals": worst,
        "poincare_violations": poincare_violations,
    }


def run_inequalities(args) -> dict:
    _at_least(args, "trials", 1)
    rng = np.random.default_rng(args.seed)
    lsi_violations = 0
    min_lsi_slack = float("inf")
    conc_violations = 0
    min_conc_slack = float("inf")
    for _ in range(args.trials):
        sp = random_space(rng)
        G = random_functional(sp, rng).apply(np.exp)
        ent, energy = log_sobolev(sp, G)
        slack = energy - ent
        min_lsi_slack = min(min_lsi_slack, slack)
        if slack < -1e-12:
            lsi_violations += 1
        F = random_functional(sp, rng)
        M, bound = concentration(sp, F)
        spread = float(np.max(F.values) - np.min(F.values)) or 1.0
        xs = np.linspace(0.0, spread, 11)
        for x, tail in zip(xs, exact_tail(sp, F, xs)):
            slack = bound(float(x)) - tail
            min_conc_slack = min(min_conc_slack, slack)
            if slack < -1e-12:
                conc_violations += 1
    return {
        "trials": args.trials,
        "log_sobolev": {"violations": lsi_violations, "min_slack": min_lsi_slack},
        "concentration": {"violations": conc_violations, "min_slack": min_conc_slack},
    }


def run_hoeffding(args) -> dict:
    skewed = Coordinate(
        id="s", labels=("a", "b", "c"), pmf=np.array([1 / 3, 1 / 2, 1 / 6]),
        embedding=np.array([-1.0, 0.0, 2.0]),
    )
    kernels = {
        "m1_linear": SymmetricKernel(1, lambda x: x),
        "m2_product": SymmetricKernel(2, lambda x, y: x * y),
        "m3_product": SymmetricKernel(3, lambda x, y, z: x * y * z),
    }
    results = {}
    for base_name, base in (("fair", rademacher_coordinate()), ("skewed", skewed)):
        sp = iid_space(base, args.n)
        for kname, h in kernels.items():
            rep = hoeffding_decompose(sp, h, args.n)
            proj = order_layers(sp, rep.functional)[1 : h.arity + 1]
            layer_gap = max(
                (L - P).sup_norm() for L, P in zip(rep.terms, proj)
            )
            results[f"{base_name}/{kname}"] = {
                "theta": rep.mean,
                "reconstruction": rep.residual,
                "gram_off_diagonal": rep.max_off_diagonal,
                "variance_gap": abs(rep.variance_pair[0] - rep.variance_pair[1]),
                "layers_vs_projections": layer_gap,
            }
    return {"n": args.n, "cases": results}


def run_ewens(args) -> dict:
    if args.trials == 1:
        raise BadParameters("the Monte-Carlo variance needs --trials >= 2")
    if not args.enum and args.trials <= 0:
        raise BadParameters("ewens needs --enum and/or --trials > 0")
    model = EwensModel(args.N, args.t)
    results = {"N": args.N, "t": args.t}
    if args.enum:
        results.update(asdict(c1_stats(model)))
    if args.trials > 0:
        counts = mc_fixed_point_counts(model, np.random.default_rng(args.seed), args.trials)
        results["mc"] = {
            "trials": args.trials,
            "mean": float(counts.mean()),
            "var": float(counts.var(ddof=1)),
        }
    return results


def _standardized_sum(n: int):
    sp = rademacher_space(n)
    F = sp.constant(0.0)
    for i in range(n):
        F = F + sp.coordinate_functional(i)
    return sp, F * (1.0 / sqrt(n))


GAUSSIAN_ENUM_CEILING = 12


def run_stein_gaussian(args) -> dict:
    n = args.n
    if n < 1:
        raise BadParameters(f"need n >= 1, got {n}")
    if n <= GAUSSIAN_ENUM_CEILING:
        sp, F = _standardized_sum(n)
        report = asdict(gaussian_bound(sp, F))
        report["method"] = "enumeration"
    else:
        # standardized fair +-1 sums: the enumerated bound equals 2/sqrt(n)
        report = asdict(SteinReport("gaussian", t1=0.0, t2=2.0 / sqrt(n), total=2.0 / sqrt(n),
                                    note="closed form for standardized fair +-1 sums"))
        report["method"] = "closed-form"
    report["n"] = n
    # the n summands' totals: variance 1 and third absolute moment n * n^-1.5
    report["lyapounov"] = lyapounov_bound([(1.0, n**-0.5)])
    return report


def run_stein_gamma(args) -> dict:
    n = args.n
    if n < 2:
        raise BadParameters(f"need n >= 2, got {n}")
    sp = rademacher_space(n)
    K = KernelMatrix.constant(n, 1.0 / (n - 1))
    F = homogeneous_functional(sp, K)
    rep = gamma_bound(sp, F, args.r, args.lam)
    fm = fourth_moment_check(sp, K)
    out = asdict(rep)
    out["n"] = n
    out["r"] = args.r
    out["lambda"] = args.lam
    out["fourth_moment"] = asdict(fm)
    return out


def run_stein_homog(args) -> dict:
    K = KernelMatrix.from_csv(args.kernel)
    rep = homogeneous_gamma_bound(K, args.m4)
    out = asdict(rep)
    out["kernel_size"] = K.n
    out["fourth_moment"] = args.m4
    out["sqrt_bracket"] = sqrt(rep.bracket)
    return out


def _parse_grid(text: str) -> list:
    try:
        grid = [int(v) for v in text.split(",") if v.strip()]
    except ValueError as err:
        raise BadParameters(f"bad grid {text!r}") from err
    if not grid or any(v < 1 for v in grid):
        raise BadParameters(f"bad grid {text!r}")
    return grid


def _uniform_density(x):
    return np.ones_like(np.asarray(x, dtype=float))


def run_limits_poisson(args) -> list:
    grid = _parse_grid(args.grid)
    if args.functional == "capped":
        _at_least(args, "trials", 2)
    rng = np.random.default_rng(args.seed)
    rows = []
    for N in grid:
        scheme = poisson_scheme(_uniform_density, N)
        if args.functional == "total":
            rep = poisson_form(total_mass_functional(), scheme)
            limit = 1.0
        else:
            rep = poisson_form(
                capped_mass_functional(), scheme, rng=rng, trials=args.trials
            )
            limit = exp(-1.0)
        rows.append((N, rep.value, limit, abs(rep.value - limit), rep.se))
    return rows


def run_limits_walk(args) -> list:
    grid = _parse_grid(args.grid)
    rng = np.random.default_rng(args.seed)
    F = (
        endpoint_functional()
        if args.functional == "endpoint"
        else time_integral_functional()
    )
    limit = walk_limit(F)
    if args.mode == "mc":
        _at_least(args, "trials", 2)
    rows = []
    for N in grid:
        scheme = WalkScheme(N)
        if args.mode == "mc":
            rep = walk_form(F, scheme, rng=rng, trials=args.trials, inner=args.inner)
        else:
            rep = walk_form(F, scheme)
        rows.append((N, rep.value, limit, abs(rep.value - limit), rep.se))
    return rows


# -- argument parsing ---------------------------------------------------------


def _add_common(p):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmc", description="Discrete Malliavin-Dirichlet experiment runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("identities", help="randomized operator-identity suite")
    _add_common(p)
    p.add_argument("--trials", type=int, default=500)

    p = sub.add_parser("semigroup", help="Mehler semigroup checks")
    _add_common(p)
    p.add_argument("--trials", type=int, default=0)
    p.add_argument("--repeats", type=int, default=20)

    p = sub.add_parser("clark", help="decomposition and Helmholtz checks")
    _add_common(p)
    p.add_argument("--trials", type=int, default=50)

    p = sub.add_parser("inequalities", help="log-Sobolev and concentration checks")
    _add_common(p)
    p.add_argument("--trials", type=int, default=200)

    p = sub.add_parser("hoeffding", help="U-statistic decompositions")
    _add_common(p)
    p.add_argument("--n", type=int, default=5)

    p = sub.add_parser("ewens", help="random-permutation fixed-point statistics")
    _add_common(p)
    p.add_argument("--trials", type=int, default=0)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--enum", action="store_true")

    p = sub.add_parser("stein-gaussian", help="Gaussian-distance bound")
    _add_common(p)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("stein-gamma", help="Gamma-distance bound")
    _add_common(p)
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--r", type=float, default=0.5)
    p.add_argument("--lambda", dest="lam", type=float, default=0.5)

    p = sub.add_parser("stein-homog", help="homogeneous-sum Gamma bracket")
    _add_common(p)
    p.add_argument("--kernel", required=True, help="CSV kernel matrix")
    p.add_argument("--m4", type=float, default=1.0)

    p = sub.add_parser("limits-poisson", help="Poisson form convergence table")
    _add_common(p)
    p.add_argument("--trials", type=int, default=0)
    p.add_argument("--grid", default="4,16,64,256")
    p.add_argument("--functional", choices=("total", "capped"), default="total")

    p = sub.add_parser("limits-walk", help="random-walk form convergence table")
    _add_common(p)
    p.add_argument("--trials", type=int, default=0)
    p.add_argument("--mode", choices=("exact", "mc"), default=None)
    p.add_argument("--grid", default="8,16,32,64,128,256")
    p.add_argument("--functional", choices=("endpoint", "time-integral"),
                   default="time-integral")
    p.add_argument("--inner", type=int, default=64,
                   help="inner sample size of the Monte-Carlo route (>= 2)")

    return parser


RUNNERS = {
    "identities": run_identities,
    "semigroup": run_semigroup,
    "clark": run_clark,
    "inequalities": run_inequalities,
    "hoeffding": run_hoeffding,
    "ewens": run_ewens,
    "stein-gaussian": run_stein_gaussian,
    "stein-gamma": run_stein_gamma,
    "stein-homog": run_stein_homog,
}

CSV_RUNNERS = {
    "limits-poisson": run_limits_poisson,
    "limits-walk": run_limits_walk,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = {
        k: v for k, v in sorted(vars(args).items())
        if k not in ("command", "seed", "out")
    }
    try:
        _at_least(args, "seed", 0)
        _at_least(args, "trials", 0)
        _at_least(args, "repeats", 0)
        _at_least(args, "inner", 2)
        if args.command in CSV_RUNNERS:
            rows = CSV_RUNNERS[args.command](args)
            emit(render_csv(rows), args.out)
        else:
            results = RUNNERS[args.command](args)
            report = build_report(args.command, config, args.seed, results)
            emit(render_json(report), args.out)
    except DmcError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"io error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
