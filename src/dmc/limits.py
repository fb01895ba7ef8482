"""Dirichlet-form convergence experiments on [0, 1].

Two approximating product structures and their limit forms:

* Poisson point process: N independent Poisson counts sitting on anchor
  points of an equal-mass partition of [0, 1] under a reference density.
  The product-space form converges to E[int |F(w + e_x) - F(w)|^2 dM(x)].
* Brownian motion: a random walk built from N orthonormal ramp functions
  h_k with iid standard Gaussian steps.  The product-space form converges
  to E[ ||grad F||_H^2 ].

Exact fast paths are provided for linear functionals; everything else is
Monte-Carlo with explicit RNG streams and reported standard errors.  The
walk form's Monte-Carlo route draws its steps into one reused buffer of
WALK_BLOCK entries and keeps O(trials) vectors plus that buffer; the mean
and sample variance of each trial's inner steps are drawn from their exact
joint law, two variates per trial whatever the inner sample size.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lgamma, log, sqrt
from typing import Callable

import numpy as np

from .errors import BadDensity, BadParameters, TruncationFailure

DENSITY_GRID = 8192
WALK_BLOCK = 2**16  # entries of one block of Monte-Carlo steps
TRUNCATION_CAP = 400


# -- partition schemes --------------------------------------------------------


@dataclass(frozen=True)
class PartitionScheme:
    """Equal-mass cells of [0, 1] under a density, with mass-midpoint anchors."""

    N: int
    masses: np.ndarray
    anchors: np.ndarray
    boundaries: np.ndarray
    density: Callable
    mass_bound_constant: float  # recorded C with sup_k p_k <= C / N

    def riemann_gap(self, fns=None, quad_points: int = 512) -> float:
        """Max gap between sum p_k f(anchor_k) and int f dM on a test family."""
        if fns is None:
            fns = [
                lambda x: np.ones_like(x),
                lambda x: x,
                lambda x: x * x,
                lambda x: np.cos(3.0 * x),
                lambda x: np.exp(-x),
            ]
        nodes, weights = np.polynomial.legendre.leggauss(quad_points)
        x = 0.5 * (nodes + 1.0)
        w = 0.5 * weights * self.density(x)
        worst = 0.0
        for f in fns:
            riemann = float(np.sum(self.masses * f(self.anchors)))
            integral = float(np.sum(w * f(x)))
            worst = max(worst, abs(riemann - integral))
        return worst


def _cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Trapezoid integrals of y from x[0] to each x[i], the first one 0."""
    return np.concatenate([[0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)])


def _density_cdf(density: Callable) -> tuple:
    """(grid, CDF) of a unit-mass density on [0, 1], tabulated on DENSITY_GRID cells.

    The density may return a scalar; it must be finite and non-negative,
    with trapezoidal mass 1 to within 1e-6, else BadDensity.
    """
    grid = np.linspace(0.0, 1.0, DENSITY_GRID + 1)
    d = np.asarray(density(grid), dtype=float)
    if d.shape != grid.shape:
        d = np.broadcast_to(d, grid.shape).astype(float)
    if not np.all(np.isfinite(d)) or np.any(d < 0.0):
        raise BadDensity("density must be finite and non-negative on [0, 1]")
    cdf = _cumulative_trapezoid(d, grid)
    total = cdf[-1]
    if not total > 0.0:
        raise BadDensity("density has zero total mass")
    if abs(total - 1.0) > 1e-6:
        raise BadDensity(f"density mass {total} is not 1")
    return grid, cdf / total


def poisson_scheme(density: Callable, N: int) -> PartitionScheme:
    """Quantile partition of [0, 1] into N cells of mass 1/N each."""
    if N < 1:
        raise BadParameters(f"need N >= 1, got {N}")
    grid, cdf = _density_cdf(density)
    levels = np.arange(0, N + 1) / N
    boundaries = np.interp(levels, cdf, grid)
    anchors = np.interp((np.arange(N) + 0.5) / N, cdf, grid)
    masses = np.full(N, 1.0 / N)
    return PartitionScheme(
        N=N,
        masses=masses,
        anchors=anchors,
        boundaries=boundaries,
        density=density,
        mass_bound_constant=float(N * masses.max()),
    )


# -- point configurations and functionals -------------------------------------


@dataclass(frozen=True)
class PointConfiguration:
    """Finite integer-valued measure on [0, 1]."""

    locations: tuple
    multiplicities: tuple

    def __post_init__(self):
        if len(self.locations) != len(set(self.locations)):
            raise BadParameters("locations must be distinct")
        if any(m < 1 for m in self.multiplicities):
            raise BadParameters("multiplicities must be >= 1")

    @property
    def total_mass(self) -> int:
        return int(sum(self.multiplicities))

    def add(self, x: float, m: int = 1) -> "PointConfiguration":
        locs, mults = list(self.locations), list(self.multiplicities)
        if x in locs:
            mults[locs.index(x)] += m
        else:
            locs.append(x)
            mults.append(m)
        return PointConfiguration(tuple(locs), tuple(mults))


def configuration_from_counts(anchors, counts) -> PointConfiguration:
    locs, mults = [], []
    for x, c in zip(anchors, counts):
        if c > 0:
            locs.append(float(x))
            mults.append(int(c))
    return PointConfiguration(tuple(locs), tuple(mults))


def tv_distance(a: PointConfiguration, b: PointConfiguration) -> int:
    """Number of distinct points counted with multiplicity."""
    ma = dict(zip(a.locations, a.multiplicities))
    mb = dict(zip(b.locations, b.multiplicities))
    return int(sum(abs(ma.get(x, 0) - mb.get(x, 0)) for x in set(ma) | set(mb)))


@dataclass(frozen=True)
class PointFunctional:
    """Functional of point configurations, assumed TV-Lipschitz.

    When `linear_coefficient` c is given the functional is declared linear
    in the counts, F(w) = sum_k m_k c(x_k), unlocking the exact path of the
    product-space form.
    """

    name: str
    fn: Callable
    linear_coefficient: Callable | None = None


def total_mass_functional() -> PointFunctional:
    return PointFunctional(
        name="total-mass",
        fn=lambda w: float(w.total_mass),
        linear_coefficient=lambda x: np.ones_like(np.asarray(x, dtype=float)),
    )


def capped_mass_functional(cap: int = 1) -> PointFunctional:
    return PointFunctional(name=f"capped-mass-{cap}", fn=lambda w: float(min(w.total_mass, cap)))


def constant_point_functional(c: float) -> PointFunctional:
    return PointFunctional(name="constant", fn=lambda w: c)


# -- Poisson product-space form ------------------------------------------------


@dataclass
class FormReport:
    value: float
    se: float
    exact: bool
    truncation_bound: float = 0.0


def _poisson_law(q: float, tail_eps: float, max_order: int) -> tuple:
    """(pmf over 0..T, tail mass beyond T) of Poisson(q).

    T is the smallest order whose tail mass is below tail_eps; none up to
    max_order raises TruncationFailure.  The tails are summed from the far
    end of one pmf table that runs 64 entries past both max_order and 2q;
    past 2q each entry is at most half the one before, so the mass the table
    leaves out is below 2^-64 of any tail up to max_order.
    """
    if q == 0.0:
        return np.array([1.0]), 0.0
    k = np.arange(int(max(2.0 * q, max_order + 1.0)) + 65)
    log_pmf = k * log(q) - q - np.array([lgamma(j + 1.0) for j in k.tolist()])
    pmf = np.exp(log_pmf)
    tails = np.cumsum(pmf[:0:-1])[::-1]  # tails[T] = sum_{j > T} pmf[j]
    below = np.flatnonzero(tails[: max_order + 1] < tail_eps)
    if below.size == 0:
        raise TruncationFailure(
            f"Poisson({q}) tail stays above {tail_eps} up to order {max_order}"
        )
    T = int(below[0])
    return pmf[: T + 1], float(tails[T])


def poisson_form(
    F: PointFunctional,
    scheme: PartitionScheme,
    tail_eps: float = 1e-9,
    rng: np.random.Generator | None = None,
    trials: int = 0,
    max_order: int = TRUNCATION_CAP,
) -> FormReport:
    """Product-space Dirichlet form of F on the N-cell approximation.

    sum_m E[(F(w) - E'[F(w_(m) + M'_m e_{anchor_m})])^2], the inner
    expectation truncated (and renormalized) where the Poisson tail falls
    below `tail_eps`; the discarded tail mass is reported.  Linear
    functionals take the exact route sum_m c(anchor_m)^2 p_m.

    The Monte-Carlo route evaluates F trials * (1 + sum_m (T_m + 1)) times,
    T_m being cell m's truncation order.  Each perturbed configuration
    w_(m) + tau e_m is built from the trial's occupied cells, so the work
    per evaluation grows with the number of points, not with N.
    """
    if not tail_eps > 0:
        raise BadParameters(f"tail_eps must be > 0, got {tail_eps}")
    p = scheme.masses
    if F.linear_coefficient is not None:
        c = np.asarray(F.linear_coefficient(scheme.anchors), dtype=float)
        return FormReport(value=float(np.sum(c * c * p)), se=0.0, exact=True)
    if trials < 2 or rng is None:
        raise BadParameters(f"non-linear functionals need rng and trials >= 2, got {trials}")
    N = scheme.N
    masses, kind = np.unique(p, return_inverse=True)
    pmf, tails = [], []
    for q in masses:
        w, tail = _poisson_law(q, tail_eps, max_order)
        pmf.append(list(w / w.sum()))
        tails.append(tail)
    trunc = float(sum(tails[k] for k in kind))
    cell_pmf = [pmf[k] for k in kind]
    anchors = np.asarray(scheme.anchors, dtype=float).tolist()
    per_trial = np.empty(trials)
    for s in range(trials):
        counts = rng.poisson(p)
        cells = np.flatnonzero(counts).tolist()
        locs = tuple(anchors[m] for m in cells)
        mults = tuple(counts[cells].tolist())
        trial = PointConfiguration(locs, mults)
        actual = F.fn(trial)
        total = 0.0
        j = 0  # occupied cells before cell m
        for m in range(N):
            here = j < len(cells) and cells[j] == m
            locs_lo, mults_lo = locs[:j], mults[:j]
            locs_hi, mults_hi = locs[j + here :], mults[j + here :]
            x = (anchors[m],)
            inner = 0.0
            for tau, w in enumerate(cell_pmf[m]):
                if tau:
                    cfg = PointConfiguration(locs_lo + x + locs_hi, mults_lo + (tau,) + mults_hi)
                elif here:
                    cfg = PointConfiguration(locs_lo + locs_hi, mults_lo + mults_hi)
                else:
                    cfg = trial
                inner += w * F.fn(cfg)
            j += here
            total += (actual - inner) ** 2
        per_trial[s] = total
    return FormReport(
        value=float(per_trial.mean()),
        se=float(per_trial.std(ddof=1) / sqrt(trials)),
        exact=False,
        truncation_bound=trunc,
    )


def _process_sampler(density: Callable) -> Callable:
    """Draw function of the unit-mass Poisson process, its CDF tabulated once."""
    grid, cdf = _density_cdf(density)

    def draw(rng: np.random.Generator) -> PointConfiguration:
        k = rng.poisson(1.0)
        locs = np.interp(rng.uniform(size=k), cdf, grid)
        cfg = PointConfiguration((), ())
        for x in locs:
            cfg = cfg.add(float(x))
        return cfg

    return draw


def sample_poisson_process(
    scheme_or_density, rng: np.random.Generator
) -> PointConfiguration:
    """One draw of the Poisson point process with unit-mass control measure."""
    if isinstance(scheme_or_density, PartitionScheme):
        density = scheme_or_density.density
    else:
        density = scheme_or_density
    return _process_sampler(density)(rng)


def poisson_limit(
    F: PointFunctional,
    density: Callable,
    rng: np.random.Generator,
    trials: int = 2000,
    quad_points: int = 32,
) -> FormReport:
    """Monte-Carlo estimate of E[int |F(w + e_x) - F(w)|^2 dM(x)]."""
    if trials < 2:
        raise BadParameters(f"Monte-Carlo trials must be >= 2, got {trials}")
    nodes, weights = np.polynomial.legendre.leggauss(quad_points)
    x = 0.5 * (nodes + 1.0)
    w = 0.5 * weights * np.asarray(density(x), dtype=float)
    draw = _process_sampler(density)
    per_trial = np.empty(trials)
    for s in range(trials):
        cfg = draw(rng)
        base = F.fn(cfg)
        diffs = np.array([F.fn(cfg.add(float(xi))) - base for xi in x])
        per_trial[s] = float(np.sum(w * diffs**2))
    return FormReport(
        value=float(per_trial.mean()),
        se=float(per_trial.std(ddof=1) / sqrt(trials)),
        exact=False,
    )


# -- random-walk form ----------------------------------------------------------


@dataclass(frozen=True)
class WalkScheme:
    """N orthonormal ramp directions with iid standard Gaussian steps."""

    N: int

    def __post_init__(self):
        if self.N < 1:
            raise BadParameters(f"need N >= 1, got {self.N}")


def h_gram(N: int) -> np.ndarray:
    """Exact Gram matrix of the ramp family in H (identity by construction)."""
    cells = np.eye(N) * sqrt(N)  # step-vector representation of e_k per cell
    return cells @ cells.T / N


@dataclass(frozen=True)
class WalkFunctional:
    """Linear path functional with known gradient coefficients.

    coeffs(N)[k] = <grad F, h_k^N>_H, so the product-space form is exactly
    sum_k coeffs(N)[k]^2 and the limit form is `limit`.
    """

    name: str
    coeffs: Callable
    limit: float

    def evaluate(self, steps: np.ndarray) -> np.ndarray:
        c = self.coeffs(steps.shape[-1])
        return steps @ c


def endpoint_functional() -> WalkFunctional:
    return WalkFunctional(
        name="endpoint",
        coeffs=lambda N: np.full(N, 1.0 / sqrt(N)),
        limit=1.0,
    )


def _tail_integral(g: Callable, grid: np.ndarray) -> np.ndarray:
    vals = np.asarray(g(grid), dtype=float)
    cum = _cumulative_trapezoid(vals, grid)
    return cum[-1] - cum


def weighted_integral_functional(g: Callable, name: str = "weighted") -> WalkFunctional:
    """F(w) = int_0^1 g(t) w(t) dt; gradient density is s -> int_s^1 g."""
    grid = np.linspace(0.0, 1.0, DENSITY_GRID + 1)
    tail = _tail_integral(g, grid)

    def coeffs(N: int) -> np.ndarray:
        out = np.empty(N)
        for k in range(N):
            lo, hi = k / N, (k + 1) / N
            cell = np.linspace(lo, hi, 65)
            vals = np.interp(cell, grid, tail)
            out[k] = sqrt(N) * np.trapezoid(vals, cell)
        return out

    limit = float(np.trapezoid(tail**2, grid))
    return WalkFunctional(name=name, coeffs=coeffs, limit=limit)


def time_integral_functional() -> WalkFunctional:
    """F(w) = int_0^1 w(t) dt with closed-form coefficients."""
    return WalkFunctional(
        name="time-integral",
        coeffs=lambda N: (1.0 - (np.arange(1, N + 1) - 0.5) / N) / sqrt(N),
        limit=1.0 / 3.0,
    )


def walk_form(
    F: WalkFunctional,
    scheme: WalkScheme,
    rng: np.random.Generator | None = None,
    trials: int = 0,
    inner: int = 64,
) -> FormReport:
    """Product-space form sum_k E[(F(w) - E'[F(w_(k) + M'_k h_k)])^2].

    The exact path uses the gradient coefficients; with `trials` > 0 an
    unbiased Monte-Carlo estimate is returned instead.  Its inner expectation
    is a mean over `inner` fresh steps, whose sampling variance would inflate
    the estimate by sum_k c_k^2 / inner; each trial subtracts the unbiased
    estimate sum_k c_k^2 s^2 / inner of that term, s^2 being the sample
    variance of the fresh steps, so `inner` must be at least 2, and so must
    `trials` for the standard error.

    The fresh steps enter only through their mean and sample variance, and
    for iid N(0, 1) steps these are independent with laws N(0, 1 / inner)
    and chi^2_{inner-1} / (inner - 1) (Cochran's theorem).  So each trial
    draws those two variates instead of `inner` steps: the estimate has the
    same law, and its cost does not depend on `inner`.
    """
    c = np.asarray(F.coeffs(scheme.N), dtype=float)
    if trials <= 0 or rng is None:
        return FormReport(value=float(np.sum(c * c)), se=0.0, exact=True)
    if trials < 2:
        raise BadParameters(f"Monte-Carlo trials must be >= 2, got {trials}")
    if inner < 2:
        raise BadParameters(f"inner sample size must be >= 2, got {inner}")
    # per_trial = sum_k c_k^2 (step_k - m)^2 - C v / inner = A - 2 m B + m^2 C
    # - C v / inner, with A = sum_k c_k^2 step_k^2, B = sum_k c_k^2 step_k,
    # C = sum_k c_k^2 and m, v the mean and sample variance of the fresh steps.
    # The steps fill one buffer a block of rows at a time, in the order of one
    # (trials, N) table; then come the trials means, then the variances.
    c2 = c * c
    C = float(np.sum(c2))
    per_trial = np.empty(trials)  # A, then the estimate
    B = np.empty(trials)
    rows = min(trials, max(1, WALK_BLOCK // scheme.N))
    buffer = np.empty((rows, scheme.N))
    for lo in range(0, trials, rows):
        hi = min(lo + rows, trials)
        steps = rng.standard_normal(out=buffer[: hi - lo])
        B[lo:hi] = np.einsum("tk,k->t", steps, c2)
        np.square(steps, out=steps)
        per_trial[lo:hi] = np.einsum("tk,k->t", steps, c2)
    m = rng.standard_normal(trials) / sqrt(inner)
    v = rng.chisquare(inner - 1, trials) / (inner - 1)
    per_trial += m * (m * C - 2.0 * B) - C * v / inner
    return FormReport(
        value=float(per_trial.mean()),
        se=float(per_trial.std(ddof=1) / sqrt(trials)),
        exact=False,
    )


def walk_limit(F: WalkFunctional) -> float:
    """Analytic limit E[||grad F||_H^2] for the built-in family."""
    return F.limit
