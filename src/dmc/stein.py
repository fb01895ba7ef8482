"""Stein-type distance bounds for functionals of independent coordinates.

Gaussian and centered-Gamma targets.  The bounds combine the coordinate
gradient with the inverse number operator: the first term measures how far
sum_a D_aF (-D_a L^-1 F) is from the carre-du-champ of the target, the
second term is a third-moment-type remainder built from the exact
resampling integral int (F - F(X_{-a}; x))^2 dP_a(x).

Unspecified constants in the Gamma bounds are applied as explicit,
documented policies (or left as a flagged unit multiplier); pass/fail
testing only uses exactly computable quantities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt

import numpy as np
from scipy.special import gammaln, roots_genlaguerre
from scipy.stats import gamma as gamma_dist
from scipy.stats import norm

from .errors import (
    BadKernel,
    BadParameters,
    DegenerateVariance,
    TooFewSamples,
)
from .space import Coordinate, Functional, ProductSpace, expectation
from .calculus import gradient_component, invert_number_operator

MIN_SAMPLES = 1000
BOOTSTRAP_REPLICATES = 200


# -- targets -----------------------------------------------------------------


@dataclass(frozen=True)
class GaussianTarget:
    """Standard Gaussian on the real line."""

    def cdf(self, x):
        return norm.cdf(x)

    def smooth_mean(self, fn) -> float:
        # Gauss-Hermite quadrature with weight e^{-x^2/2}/sqrt(2 pi)
        nodes, weights = np.polynomial.hermite_e.hermegauss(96)
        return float(np.sum(weights * fn(nodes)) / np.sqrt(2.0 * np.pi))

    def describe(self) -> str:
        return "gaussian"


@dataclass(frozen=True)
class CenteredGammaTarget:
    """Y - r/lam with Y ~ Gamma(r, lam); mean 0, variance r/lam^2."""

    r: float
    lam: float

    def __post_init__(self):
        if not (self.r > 0 and self.lam > 0):
            raise BadParameters(f"need r, lam > 0, got r={self.r}, lam={self.lam}")

    def cdf(self, x):
        return gamma_dist.cdf(np.asarray(x) + self.r / self.lam, a=self.r, scale=1.0 / self.lam)

    def smooth_mean(self, fn) -> float:
        # generalized Gauss-Laguerre with weight u^{r-1} e^{-u}
        nodes, weights = roots_genlaguerre(96, self.r - 1.0)
        vals = fn(nodes / self.lam - self.r / self.lam)
        return float(np.sum(weights * vals) * np.exp(-gammaln(self.r)))

    def describe(self) -> str:
        return f"centered-gamma(r={self.r}, lam={self.lam})"


# -- reports -----------------------------------------------------------------


@dataclass
class SteinReport:
    target: str
    t1: float
    t2: float
    total: float
    constants: dict = field(default_factory=dict)
    note: str = ""


# -- shared building blocks --------------------------------------------------


def resample_integral(space: ProductSpace, F: Functional, a: int) -> Functional:
    """int (F - F(X_{A-a}; x))^2 dP_a(x), exact over the dropped support."""
    space.check_axis(a)
    if a not in F.deps:
        return space.constant(0.0)
    vals = F.values
    pmf = space.coords[a].pmf
    out = np.zeros_like(vals)
    for o in range(space.shape[a]):
        replaced = np.take(vals, [o], axis=a)
        out += pmf[o] * (vals - replaced) ** 2
    return Functional(space, out, deps=F.deps)


def _stein_terms(space: ProductSpace, F: Functional):
    """D_aF, -D_a L^-1 F, carre = sum_a of their products, and T2, from one L^-1."""
    neg_inverse = invert_number_operator(space, F) * (-1.0)
    grads, inv_grads = {}, {}
    carre, t2 = space.constant(0.0), 0.0
    for a in sorted(F.deps):
        grads[a] = gradient_component(space, F, a)
        inv_grads[a] = gradient_component(space, neg_inverse, a)
        carre = carre + grads[a] * inv_grads[a]
        t2 += expectation(
            space, resample_integral(space, F, a) * inv_grads[a].apply(np.abs)
        )
    return grads, inv_grads, carre, t2


# -- Gaussian target ---------------------------------------------------------


def gaussian_bound(space: ProductSpace, F: Functional) -> SteinReport:
    """Distance bound to the standard Gaussian.

    T1 = E|1 - sum_a D_aF (-D_a L^-1 F)|
    T2 = sum_a E[int (F - F(X_{A-a}; x))^2 dP_a(x) |D_a L^-1 F|]
    """
    space.require_exact()
    _, _, carre, t2 = _stein_terms(space, F)
    t1 = expectation(space, (space.constant(1.0) - carre).apply(np.abs))
    return SteinReport(
        target="gaussian", t1=t1, t2=t2, total=t1 + t2,
        note="both terms exact; no unspecified constants",
    )


def gaussian_bound_resampled(
    space: ProductSpace, F: Functional, family: list | None = None
) -> SteinReport:
    """Variant whose first term is a supremum over twice-Lipschitz tests.

    The supremum is approximated from below by a maximum over the fixed
    smooth test family, so the returned first term is a lower approximation
    of the displayed one; the second term is identical to `gaussian_bound`.
    """
    space.require_exact()
    if family is None:
        family = smooth_test_family()
    grads, inv_grads, _, t2 = _stein_terms(space, F)
    best = 0.0
    for fn in family:
        val = expectation(space, F.apply(fn))
        for a in grads:
            # E over an independent copy of coordinate a
            pmf = space.coords[a].pmf
            mixed = np.zeros_like(F.values)
            for o in range(space.shape[a]):
                mixed += pmf[o] * fn(np.take(F.values, [o], axis=a))
            psi = Functional(space, np.broadcast_to(mixed, space.shape).copy(), deps=F.deps)
            val -= expectation(space, psi * grads[a] * inv_grads[a])
        best = max(best, abs(val))
    return SteinReport(
        target="gaussian", t1=best, t2=t2, total=best + t2,
        note="first term: max over fixed smooth family, lower approximation "
             "of the Lip-2 supremum",
    )


def lyapounov_bound(moments) -> float:
    """2(sqrt(2)+1) s_n^-3 sum E|X_j - EX_j|^3 from per-variable moments.

    `moments` is a sequence of (variance, absolute third central moment).
    """
    s2 = 0.0
    third = 0.0
    for var, m3 in moments:
        if not var > 0:
            raise DegenerateVariance(f"variance {var} must be > 0")
        s2 += var
        third += m3
    return 2.0 * (sqrt(2.0) + 1.0) * third / s2**1.5


# -- kernels and contractions -------------------------------------------------


@dataclass(frozen=True)
class KernelMatrix:
    """Symmetric real matrix with zero diagonal, indexing coordinate pairs."""

    f: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.f, dtype=float)
        if f.ndim != 2 or f.shape[0] != f.shape[1]:
            raise BadKernel(f"kernel must be square, got shape {f.shape}")
        if np.max(np.abs(f - f.T)) > 1e-12:
            raise BadKernel("kernel must be symmetric")
        if np.max(np.abs(np.diag(f))) > 1e-12:
            raise BadKernel("kernel must vanish on the diagonal")
        object.__setattr__(self, "f", f)

    @property
    def n(self) -> int:
        return self.f.shape[0]

    @classmethod
    def constant(cls, n: int, c: float) -> "KernelMatrix":
        f = np.full((n, n), c)
        np.fill_diagonal(f, 0.0)
        return cls(f)

    @classmethod
    def from_csv(cls, path) -> "KernelMatrix":
        try:
            f = np.loadtxt(path, delimiter=",", ndmin=2)
        except ValueError as err:
            raise BadKernel(f"kernel file {path}: {err}") from err
        return cls(f)


@dataclass
class Contractions:
    star11: np.ndarray  # (f *_1^1 f)(i,j) = sum_k f(i,k) f(j,k)
    star21: np.ndarray  # (f *_2^1 f)(i)  = sum_j f(i,j)^2
    influence: np.ndarray  # Inf_a = sum_i f(i,a)^2
    nu: float  # sum over ordered pairs of f^2


def contractions(K: KernelMatrix) -> Contractions:
    f = K.f
    return Contractions(
        star11=f @ f.T,
        star21=np.sum(f * f, axis=1),
        influence=np.sum(f * f, axis=0),
        nu=float(np.sum(f * f)),
    )


# -- Gamma target -------------------------------------------------------------


def gamma_bound(space: ProductSpace, F: Functional, r: float, lam: float) -> SteinReport:
    """Distance bound to the centered Gamma(r, lam) target.

    Raw brackets:
      b1 = E|F/lam + r/lam^2 - sum_a D_aF (-D_a L^-1 F)|
      b2 = sum_a E[int (F - F(X_{A-a}; x))^2 dP_a(x) |D_a L^-1 F|]

    Constant policy (the theorem only asserts existence of c > 0): from the
    printed Stein-solution bounds with unit test-derivative norms,
    c1 = 2 lam max(1, 1/r) multiplies b1 and c2 = lam (max(lam, lam/r) + 1)
    multiplies b2; both are recorded in the report.
    """
    if not (r > 0 and lam > 0):
        raise BadParameters(f"need r, lam > 0, got r={r}, lam={lam}")
    space.require_exact()
    _, _, carre, b2 = _stein_terms(space, F)
    inside = F * (1.0 / lam) + space.constant(r / lam**2) - carre
    b1 = expectation(space, inside.apply(np.abs))
    c1 = 2.0 * lam * max(1.0, 1.0 / r)
    c2 = lam * (max(lam, lam / r) + 1.0)
    return SteinReport(
        target=f"centered-gamma(r={r}, lam={lam})",
        t1=b1, t2=b2, total=c1 * b1 + c2 * b2,
        constants={"c1": c1, "c2": c2},
        note="total applies the documented constant policy to the raw brackets",
    )


# -- homogeneous quadratic sums ------------------------------------------------


def homogeneous_functional(space: ProductSpace, K: KernelMatrix) -> Functional:
    """F = sum over ordered distinct pairs of f(i,j) X_i X_j."""
    if K.n > space.n:
        raise BadKernel(f"kernel size {K.n} exceeds space size {space.n}")
    F = space.constant(0.0)
    X = [space.coordinate_functional(i) for i in range(K.n)]
    for i in range(K.n):
        for j in range(i + 1, K.n):
            if K.f[i, j] != 0.0:
                F = F + X[i] * X[j] * (2.0 * K.f[i, j])
    return F


def homogeneous_samples(
    K: KernelMatrix, base: Coordinate, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Monte-Carlo draws of the homogeneous sum without building the space."""
    if base.embedding is None:
        raise BadKernel("sampling needs a real embedding")
    outcomes = rng.choice(base.size, size=(size, K.n), p=base.pmf)
    X = base.embedding[outcomes]
    return np.einsum("si,ij,sj->s", X, K.f, X)


@dataclass
class HomogeneousReport:
    term_fourth: float  # sum f^4 over ordered pairs
    term_star21: float  # ||f *_2^1 f||^2
    term_contraction: float  # ||f - f *_1^1 f||^2 over the full matrix
    bracket: float  # E[X^4]^2 * (sum of the three terms)
    influence_bound: float  # E[X^4]^2 * (max influence + contraction term)
    multiplier: float  # stands in for the unspecified c_nu
    multiplier_symbolic: bool


def homogeneous_gamma_bound(K: KernelMatrix, fourth_moment: float) -> HomogeneousReport:
    """Squared-distance bracket for the quadratic sum vs centered Gamma.

    The theorem's constant c_nu is unspecified; it is reported as a flagged
    unit multiplier and excluded from any pass/fail use.
    """
    c = contractions(K)
    term_fourth = float(np.sum(K.f**4))
    term_star21 = float(np.sum(c.star21**2))
    term_contraction = float(np.sum((K.f - c.star11) ** 2))
    m42 = fourth_moment**2
    return HomogeneousReport(
        term_fourth=term_fourth,
        term_star21=term_star21,
        term_contraction=term_contraction,
        bracket=m42 * (term_fourth + term_star21 + term_contraction),
        influence_bound=m42 * (float(np.max(c.influence)) + term_contraction),
        multiplier=1.0,
        multiplier_symbolic=True,
    )


# -- fourth-moment expression --------------------------------------------------


def _moment_sums(K: KernelMatrix):
    f = K.f
    inf = np.sum(f * f, axis=1)
    s4 = float(np.sum(f**4))
    s3 = float(np.sum(f**3))
    s2 = float(np.sum(f**2))
    t_pair = float(np.sum(inf**2) - np.sum(f**4))  # f^2(i,j) f^2(i,k), distinct
    ff = f @ f
    t_cross = float(np.sum(f * f * ff))  # f^2(i,j) f(i,k) f(k,j), distinct
    t_tri = float(np.sum(f * ff))  # f(i,j) f(i,k) f(k,j), distinct
    # 4-cycles with all four indices distinct
    q = float(np.trace(ff @ ff) - 2.0 * np.sum(inf**2) + s4)
    return s4, s3, s2, t_pair, t_cross, t_tri, q


@dataclass
class FourthMomentReport:
    lhs: float
    rhs: float
    rhs_printed: float
    gap: float
    printed_gap: float
    printed_flagged: bool


def fourth_moment_check(space: ProductSpace, K: KernelMatrix) -> FourthMomentReport:
    """E[F^4] - 12 E[F^3] - 12 nu^2 + 48 nu against its combinatorial form.

    lhs is enumerated exactly.  rhs is the machine-verified combinatorial
    expansion (with m_p the p-th moment of the common coordinate law and
    sums over ordered tuples of distinct indices):

        8 m4^2 S4 - 24 S4 + 48 (m4 - 1) T_pair + 96 m3^2 T_cross
        - 48 m3^2 S3 - 96 T_tri + 48 Q + 48 nu

    where S_p = sum f^p(i,j), T_pair = sum f^2(i,j) f^2(i,k),
    T_cross = sum f^2(i,j) f(i,k) f(k,j), T_tri = sum f(i,j) f(i,k) f(k,j),
    and Q is the 4-cycle sum f(i,j) f(j,k) f(k,l) f(l,i).

    rhs_printed is the displayed expansion

        m4^2 S4 + 6 m4 T_pair + 12 m3^2 (T_cross - S3)
        - 48 (T_tri - nu) - 12 S4

    which disagrees with the enumerated lhs (its coefficients are off and
    it has no 4-cycle term); it is reported with a flag, never asserted.
    """
    base = space.coords[0]
    emb = base.embedding
    if emb is None:
        raise BadKernel("fourth-moment check needs a real embedding")
    m3 = float(base.pmf @ emb**3)
    m4 = float(base.pmf @ emb**4)
    F = homogeneous_functional(space, K)
    s4, s3, nu, t_pair, t_cross, t_tri, q = _moment_sums(K)
    e3 = expectation(space, F * F * F)
    e4 = expectation(space, F * F * F * F)
    lhs = e4 - 12.0 * e3 - 12.0 * nu**2 + 48.0 * nu
    rhs = (
        8.0 * m4**2 * s4 - 24.0 * s4 + 48.0 * (m4 - 1.0) * t_pair
        + 96.0 * m3**2 * t_cross - 48.0 * m3**2 * s3
        - 96.0 * t_tri + 48.0 * q + 48.0 * nu
    )
    rhs_printed = (
        m4**2 * s4 + 6.0 * m4 * t_pair + 12.0 * m3**2 * (t_cross - s3)
        - 48.0 * (t_tri - nu) - 12.0 * s4
    )
    scale = max(1.0, abs(lhs))
    return FourthMomentReport(
        lhs=lhs, rhs=rhs, rhs_printed=rhs_printed,
        gap=abs(lhs - rhs), printed_gap=abs(lhs - rhs_printed),
        printed_flagged=abs(lhs - rhs_printed) > 1e-9 * scale,
    )


# -- degenerate U-statistic experiment ----------------------------------------


@dataclass
class DegenerateUstatReport:
    n: int
    sigma2: float
    target: CenteredGammaTarget
    homogeneous: HomogeneousReport
    sqrt_bracket: float
    empirical: "EmpiricalDistance | None"


def degenerate_ustat_experiment(
    n: int,
    base: Coordinate,
    rng: np.random.Generator,
    samples: int = 0,
) -> DegenerateUstatReport:
    """F = 2/(n-1) sum over unordered distinct pairs of X_i X_j.

    Equivalently the ordered-pair kernel f = 1/(n-1): this is the reading
    under which F's variance matches the stated centered Gamma target
    Y_{1/2, 1/(2 sigma^2)} - mean and the bracket decays at the claimed
    O(1/sqrt(n)) rate.  Reading the displayed constant 2/(n-1) as an
    ordered-pair kernel instead doubles F, mismatches the target variance
    (8 sigma^4 vs 2 sigma^4) and leaves the contraction term of order one.

    Reports the homogeneous-sum bracket for the constant kernel and, when
    `samples` > 0, an empirical distance to the target.
    """
    if n < 2:
        raise BadParameters(f"need n >= 2, got {n}")
    if base.embedding is None:
        raise BadKernel("experiment needs a real embedding")
    mean = float(base.pmf @ base.embedding)
    sigma2 = float(base.pmf @ base.embedding**2) - mean**2
    m4 = float(base.pmf @ (base.embedding - mean) ** 4)
    K = KernelMatrix.constant(n, 1.0 / (n - 1))
    target = CenteredGammaTarget(r=0.5, lam=1.0 / (2.0 * sigma2))
    rep = homogeneous_gamma_bound(K, m4)
    empirical = None
    if samples:
        draws = homogeneous_samples(K, base, rng, samples)
        empirical = empirical_distance(draws, target, rng=rng)
    return DegenerateUstatReport(
        n=n, sigma2=sigma2, target=target, homogeneous=rep,
        sqrt_bracket=sqrt(rep.bracket), empirical=empirical,
    )


# -- empirical distances -------------------------------------------------------


def smooth_test_family() -> list:
    """Fixed family of 64 smooth tests with |phi'| <= 1 and |phi''| <= 1.

    phi(x) = s tanh((x - c)/s): |phi'| <= 1 and |phi''| <= 0.77/s, so all
    scales are kept >= 0.77.  Versioned: changing this family changes every
    empirical report.
    """
    centers = np.linspace(-3.0, 3.0, 8)
    scales = np.geomspace(0.77, 5.0, 8)
    family = []
    for c in centers:
        for s in scales:
            family.append(lambda x, c=c, s=s: s * np.tanh((np.asarray(x) - c) / s))
    return family


@dataclass
class EmpiricalDistance:
    kolmogorov: float
    kolmogorov_se: float
    smooth_lower: float
    smooth_lower_se: float
    note: str = (
        "certified chain: smooth_lower <= smooth-test distance <= theorem bound; "
        "the Kolmogorov statistic belongs to a different test class"
    )


def _kolmogorov(samples: np.ndarray, target) -> float:
    x = np.sort(samples)
    n = x.size
    cdf = target.cdf(x)
    upper = np.max(np.arange(1, n + 1) / n - cdf)
    lower = np.max(cdf - np.arange(0, n) / n)
    return float(max(upper, lower))


def empirical_distance(
    samples,
    target,
    rng: np.random.Generator | None = None,
    replicates: int = BOOTSTRAP_REPLICATES,
) -> EmpiricalDistance:
    """Kolmogorov statistic and a smooth-test lower estimate vs the target.

    The smooth lower estimate maxes |sample mean - target mean| over the
    fixed test family; it underestimates the smooth-test distance, which the
    theorems bound from above.  Standard errors are bootstrap estimates.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size < MIN_SAMPLES:
        raise TooFewSamples(f"need >= {MIN_SAMPLES} samples, got {samples.size}")
    if rng is None:
        rng = np.random.default_rng(0)
    family = smooth_test_family()
    target_means = np.array([target.smooth_mean(fn) for fn in family])
    evals = np.stack([fn(samples) for fn in family])  # (64, n)
    smooth = float(np.max(np.abs(evals.mean(axis=1) - target_means)))
    kolmo = _kolmogorov(samples, target)
    ks_boot, sm_boot = [], []
    n = samples.size
    for _ in range(replicates):
        idx = rng.integers(0, n, size=n)
        ks_boot.append(_kolmogorov(samples[idx], target))
        sm_boot.append(np.max(np.abs(evals[:, idx].mean(axis=1) - target_means)))
    return EmpiricalDistance(
        kolmogorov=kolmo,
        kolmogorov_se=float(np.std(ks_boot, ddof=1)),
        smooth_lower=smooth,
        smooth_lower_se=float(np.std(sm_boot, ddof=1)),
    )
