from math import sqrt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dmc.calculus import invert_number_operator, number_operator
from dmc.errors import BadKernel, BadParameters, DegenerateVariance, TooFewSamples
from dmc.space import Coordinate, conditional_drop, expectation, iid_space, rademacher_space
from dmc.stein import (
    _stein_terms,
    CenteredGammaTarget,
    GaussianTarget,
    KernelMatrix,
    contractions,
    degenerate_ustat_experiment,
    empirical_distance,
    fourth_moment_check,
    gamma_bound,
    gaussian_bound,
    gaussian_bound_resampled,
    homogeneous_functional,
    homogeneous_gamma_bound,
    homogeneous_samples,
    lyapounov_bound,
    resample_integral,
    smooth_test_family,
)

from .oracles import functional_stein_terms, row_major_homogeneous_samples, weight_table
from .test_full_grid_operators import (
    KINDS,
    REL,
    _functionals,
    _peak_in_tables,
    _same,
    _space,
    _with_single_outcomes,
)

TOL = 1e-12

FAIR = Coordinate(
    id="x", labels=("-1", "+1"), pmf=np.array([0.5, 0.5]),
    embedding=np.array([-1.0, 1.0]),
)
SKEWED = Coordinate(
    id="s",
    labels=("a", "b", "c"),
    pmf=np.array([1 / 3, 1 / 2, 1 / 6]),
    embedding=np.array([-1.0, 0.0, 2.0]),
)


def standardized_sum(sp, n):
    F = sp.constant(0.0)
    for a in range(n):
        F = F + sp.coordinate_functional(a)
    return F * (1.0 / sqrt(n))


class TestGaussianBound:
    @pytest.mark.parametrize("n", list(range(1, 13)))
    def test_standardized_fair_sum_closed_form(self, n):
        sp = rademacher_space(n)
        rep = gaussian_bound(sp, standardized_sum(sp, n))
        assert rep.t1 <= 1e-11
        assert abs(rep.t2 - 2.0 / sqrt(n)) <= 1e-11
        assert abs(rep.total - 2.0 / sqrt(n)) <= 1e-11

    def test_single_coordinate(self):
        sp = rademacher_space(1)
        rep = gaussian_bound(sp, sp.coordinate_functional(0))
        assert rep.t1 <= TOL and abs(rep.t2 - 2.0) <= TOL

    def test_product_hand_enumeration(self):
        sp = rademacher_space(2)
        F = sp.coordinate_functional(0) * sp.coordinate_functional(1)
        rep = gaussian_bound(sp, F)
        # L^-1 F = -F/2, so the carre term is F^2 = 1 and T1 = 0;
        # each resampling integral is 2 and |D_a L^-1 F| = 1/2
        assert rep.t1 <= TOL and abs(rep.t2 - 2.0) <= TOL

    def test_resampled_variant_shares_second_term(self):
        sp = rademacher_space(3)
        F = standardized_sum(sp, 3)
        plain, resampled = gaussian_bound(sp, F), gaussian_bound_resampled(sp, F)
        assert abs(plain.t2 - resampled.t2) <= TOL
        assert resampled.t1 <= plain.t1 + TOL

    def test_resample_integral_exact(self):
        sp = rademacher_space(2)
        F = sp.coordinate_functional(0) * sp.coordinate_functional(1)
        I = resample_integral(sp, F, 0)
        assert (I - sp.constant(2.0)).sup_norm() <= TOL
        assert resample_integral(sp, sp.constant(5.0), 0).sup_norm() == 0.0


class TestLyapounov:
    def test_fair_sum_value(self):
        for n in (1, 4, 25):
            got = lyapounov_bound([(1.0, 1.0)] * n)
            assert abs(got - 2.0 * (sqrt(2.0) + 1.0) / sqrt(n)) <= TOL

    def test_mixed_moments(self):
        got = lyapounov_bound([(1.0, 1.0), (4.0, 8.0)])
        assert abs(got - 2.0 * (sqrt(2.0) + 1.0) * 9.0 / 5.0**1.5) <= TOL

    def test_degenerate_variance_rejected(self):
        with pytest.raises(DegenerateVariance):
            lyapounov_bound([(0.0, 1.0)])


class TestKernelContractions:
    def test_validation(self):
        with pytest.raises(BadKernel):
            KernelMatrix(np.ones((2, 3)))
        with pytest.raises(BadKernel):
            KernelMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]))
        with pytest.raises(BadKernel):
            KernelMatrix(np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_constant_kernel_closed_forms(self):
        c = 1.5
        out = contractions(KernelMatrix.constant(3, c))
        for i in range(3):
            for j in range(3):
                want = 2 * c * c if i == j else c * c
                assert abs(out.star11[i, j] - want) <= TOL
        assert np.allclose(out.star21, 2 * c * c)
        assert np.allclose(out.influence, 2 * c * c)
        assert abs(out.nu - 6 * c * c) <= TOL

    def test_single_pair_kernel(self):
        f = np.zeros((3, 3))
        f[0, 1] = f[1, 0] = 1.0
        out = contractions(KernelMatrix(f))
        assert abs(out.nu - 2.0) <= TOL
        assert np.allclose(out.influence, [1.0, 1.0, 0.0])

    def test_zero_kernel(self):
        out = contractions(KernelMatrix(np.zeros((4, 4))))
        assert out.nu == 0.0
        assert not out.star11.any() and not out.star21.any()

    @given(seed=st.integers(0, 10_000), scale=st.floats(0.1, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_scale_covariance(self, seed, scale):
        rng = np.random.default_rng(seed)
        M = rng.normal(size=(4, 4))
        f = (M + M.T) / 2
        np.fill_diagonal(f, 0.0)
        base, scaled = contractions(KernelMatrix(f)), contractions(KernelMatrix(scale * f))
        s2 = scale * scale
        assert np.allclose(scaled.star11, s2 * base.star11)
        assert np.allclose(scaled.star21, s2 * base.star21)
        assert np.allclose(scaled.influence, s2 * base.influence)
        assert abs(scaled.nu - s2 * base.nu) <= 1e-9


class TestGammaBound:
    def test_zero_functional_first_bracket(self):
        sp = rademacher_space(2)
        rep = gamma_bound(sp, sp.constant(0.0), 0.5, 0.5)
        assert abs(rep.t1 - 0.5 / 0.25) <= TOL
        assert rep.t2 == 0.0
        assert rep.constants == {"c1": 2.0, "c2": 1.0}

    def test_bad_parameters(self):
        sp = rademacher_space(1)
        with pytest.raises(BadParameters):
            gamma_bound(sp, sp.constant(0.0), 0.0, 1.0)

    def test_brackets_match_independent_enumeration(self):
        # brute-force oracle on the 16-point space, no package operators
        sp = rademacher_space(4)
        K = KernelMatrix.constant(4, 2.0 / 3.0)
        F = homogeneous_functional(sp, K)
        r, lam = 0.5, 0.5
        rep = gamma_bound(sp, F, r, lam)
        w = weight_table(sp)
        vals = F.values
        # pure order-2 component, so L^-1 F = -F/2 and -D_a L^-1 F = D_a F / 2
        b1_grid = vals / lam + r / lam**2
        b2 = 0.0
        for a in range(4):
            pmf = sp.coords[a].pmf
            cond = np.tensordot(vals, pmf, axes=([a], [0]))
            grad = vals - np.expand_dims(cond, a)
            b1_grid = b1_grid - grad * (grad / 2.0)
            integral = np.zeros_like(vals)
            for o in range(2):
                integral += pmf[o] * (vals - np.take(vals, [o], axis=a)) ** 2
            b2 += float(np.sum(w * integral * np.abs(grad / 2.0)))
        b1 = float(np.sum(w * np.abs(b1_grid)))
        assert abs(rep.t1 - b1) <= 1e-10
        assert abs(rep.t2 - b2) <= 1e-10
        assert abs(rep.total - (2.0 * lam * 2.0 * b1 + lam * 2.0 * b2)) <= 1e-9

    def test_eigen_functional_first_bracket_uses_half_gradient(self):
        # for LF = -2F the first bracket reduces to
        # E|F/lam + r/lam^2 - (1/2) sum (D_aF)^2|
        sp = rademacher_space(3)
        F = sp.coordinate_functional(0) * sp.coordinate_functional(1)
        rep = gamma_bound(sp, F, 1.0, 1.0)
        want = expectation(
            sp, (F + sp.constant(1.0) - F * F).apply(np.abs)
        )
        assert abs(rep.t1 - want) <= TOL


class TestFourthMoment:
    @pytest.mark.parametrize(
        "base,n", [(FAIR, 4), (FAIR, 6), (FAIR, 8), (SKEWED, 4), (SKEWED, 5)],
        ids=["fair4", "fair6", "fair8", "skew4", "skew5"],
    )
    def test_identity_exact_and_printed_flagged(self, base, n):
        rng = np.random.default_rng(20240817 + n)
        sp = iid_space(base, n)
        for _ in range(3):
            M = rng.normal(size=(n, n))
            f = (M + M.T) / 2
            np.fill_diagonal(f, 0.0)
            rep = fourth_moment_check(sp, KernelMatrix(f))
            scale = max(1.0, abs(rep.lhs))
            assert rep.gap <= 1e-9 * scale
            # documented discrepancy: the displayed expansion disagrees
            assert rep.printed_flagged

    def test_zero_kernel(self):
        sp = rademacher_space(3)
        rep = fourth_moment_check(sp, KernelMatrix(np.zeros((3, 3))))
        assert rep.lhs == rep.rhs == rep.rhs_printed == 0.0
        assert not rep.printed_flagged

    def test_constant_kernel_fair(self):
        sp = rademacher_space(4)
        rep = fourth_moment_check(sp, KernelMatrix.constant(4, 1.0 / 3.0))
        assert rep.gap <= 1e-9


class TestHomogeneous:
    def test_constant_kernel_closed_forms(self):
        n, c = 5, 1.0 / 4.0
        rep = homogeneous_gamma_bound(KernelMatrix.constant(n, c), 1.0)
        assert abs(rep.term_fourth - n * (n - 1) * c**4) <= TOL
        star21 = (n - 1) * c * c
        assert abs(rep.term_star21 - n * star21**2) <= TOL
        offdiag = (c - (n - 2) * c * c) ** 2 * n * (n - 1)
        diag = ((n - 1) * c * c) ** 2 * n
        assert abs(rep.term_contraction - (offdiag + diag)) <= TOL
        assert rep.multiplier_symbolic and rep.multiplier == 1.0

    def test_zero_kernel(self):
        rep = homogeneous_gamma_bound(KernelMatrix(np.zeros((3, 3))), 3.0)
        assert rep.bracket == 0.0 and rep.influence_bound == 0.0

    def test_spike_kernel_contraction_dominated_by_norm(self):
        f = np.zeros((6, 6))
        f[0, 1] = f[1, 0] = 1.0
        rep = homogeneous_gamma_bound(KernelMatrix(f), 1.0)
        assert rep.term_contraction >= np.sum(f * f) - TOL

    def test_functional_matches_sample_evaluation(self):
        sp = iid_space(SKEWED, 4)
        rng = np.random.default_rng(2)
        M = rng.normal(size=(4, 4))
        f = (M + M.T) / 2
        np.fill_diagonal(f, 0.0)
        K = KernelMatrix(f)
        F = homogeneous_functional(sp, K)
        for cfg in [(0, 1, 2, 0), (2, 2, 1, 0)]:
            x = SKEWED.embedding[list(cfg)]
            want = float(x @ f @ x)
            got = F.values[cfg]
            assert abs(got - want) <= TOL


def _random_kernel(n, seed):
    M = np.random.default_rng(seed).normal(size=(n, n))
    f = (M + M.T) / 2
    np.fill_diagonal(f, 0.0)
    return KernelMatrix(f)


class TestHomogeneousSamples:
    """`homogeneous_samples` draws its configurations through `ProductSpace.sample_configs`."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_draws_are_sample_configs_draws(self, seed):
        K = _random_kernel(5, seed)
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        draws = homogeneous_samples(K, SKEWED, rng, 1000)
        X = SKEWED.embedding[iid_space(SKEWED, 5).sample_configs(twin, 1000)]
        assert rng.bit_generator.state == twin.bit_generator.state
        assert draws.tobytes() == np.einsum("si,ij,sj->s", X, K.f, X).tobytes()

    @pytest.mark.parametrize("seed", [3, 4])
    def test_moments_match_the_row_major_route(self, seed):
        K, size = _random_kernel(6, seed), 20_000
        new = homogeneous_samples(K, SKEWED, np.random.default_rng(seed), size)
        old = row_major_homogeneous_samples(K, SKEWED, np.random.default_rng(seed + 100), size)
        for power in (1, 2):
            a, b = new**power, old**power
            se = sqrt((a.var(ddof=1) + b.var(ddof=1)) / size)
            assert abs(a.mean() - b.mean()) <= 4.0 * se


class TestDegenerateUstat:
    def test_sqrt_bracket_decay_window(self):
        rng = np.random.default_rng(0)
        roots = []
        for n in (8, 16, 32, 64):
            roots.append(degenerate_ustat_experiment(n, FAIR, rng).sqrt_bracket)
        for a, b in zip(roots, roots[1:]):
            ratio = b / a
            assert 1.0 / sqrt(2.0) - 0.1 <= ratio <= 1.0 / sqrt(2.0) + 0.1

    def test_sigma_scaling_moves_target_rate(self):
        rng = np.random.default_rng(0)
        doubled = Coordinate(
            id="y", labels=("-2", "+2"), pmf=np.array([0.5, 0.5]),
            embedding=np.array([-2.0, 2.0]),
        )
        base = degenerate_ustat_experiment(8, FAIR, rng)
        wide = degenerate_ustat_experiment(8, doubled, rng)
        assert abs(base.target.lam - 0.5) <= TOL
        assert abs(wide.target.lam - 1.0 / 8.0) <= TOL
        assert abs(wide.sigma2 - 4.0) <= TOL

    def test_empirical_distance_reported(self):
        rng = np.random.default_rng(1)
        rep = degenerate_ustat_experiment(16, FAIR, rng, samples=20_000)
        assert rep.empirical is not None
        assert 0.0 <= rep.empirical.kolmogorov <= 1.0
        assert rep.empirical.smooth_lower >= 0.0


class TestEmpiricalDistance:
    def test_smooth_family_derivative_bounds(self):
        grid = np.linspace(-12.0, 12.0, 4001)
        h = grid[1] - grid[0]
        for fn in smooth_test_family():
            vals = fn(grid)
            d1 = np.diff(vals) / h
            d2 = np.diff(vals, 2) / h**2
            assert np.max(np.abs(d1)) <= 1.0 + 1e-6
            assert np.max(np.abs(d2)) <= 1.0 + 1e-4

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            empirical_distance(np.zeros(10), GaussianTarget())

    def test_zeros_vs_gaussian(self):
        rep = empirical_distance(
            np.zeros(2000), GaussianTarget(), rng=np.random.default_rng(0), replicates=10
        )
        assert abs(rep.kolmogorov - 0.5) <= 1e-9

    def test_samples_from_target_small_distance(self):
        rng = np.random.default_rng(3)
        rep = empirical_distance(
            rng.normal(size=100_000), GaussianTarget(), rng=rng, replicates=30
        )
        assert rep.kolmogorov <= 0.01
        assert rep.smooth_lower <= 0.02
        gam = CenteredGammaTarget(0.5, 0.5)
        draws = rng.gamma(0.5, scale=2.0, size=100_000) - 1.0
        rep2 = empirical_distance(draws, gam, rng=rng, replicates=30)
        assert rep2.kolmogorov <= 0.01

    @pytest.mark.parametrize("n", [9, 25, 100])
    def test_smooth_lower_below_theorem_bound(self, n):
        # certified chain: smooth-test lower estimate <= Gaussian-bound total
        rng = np.random.default_rng(100 + n)
        signs = rng.choice([-1.0, 1.0], size=(100_000, n))
        samples = signs.sum(axis=1) / sqrt(n)
        rep = empirical_distance(samples, GaussianTarget(), rng=rng, replicates=50)
        assert rep.smooth_lower <= 2.0 / sqrt(n) + 3.0 * rep.smooth_lower_se


@pytest.mark.parametrize("kind", KINDS + ["single-outcome"])
def test_stein_terms_on_bare_arrays_are_bit_identical(kind):
    """The array loop against the Functional loop it replaced, on compact inputs too."""
    sp = _with_single_outcomes() if kind == "single-outcome" else _space(kind)
    for F in (*_functionals(sp, np.random.default_rng(7)), sp.constant(2.5)):
        F = F - expectation(sp, F)
        carre, t2, neg_inverse = _stein_terms(sp, F)
        _, _, want_carre, want_t2 = functional_stein_terms(sp, F)
        _same(carre, want_carre)
        assert t2 == want_t2
        _same(neg_inverse, invert_number_operator(sp, F) * -1.0)


@pytest.mark.parametrize("kind", KINDS + ["single-outcome"])
def test_carre_du_champ_weight_matches_the_averaged_gradients(kind):
    """W = L(FG) + F (F - E F) - G LF - carre against sum_a E_a(D_aF D_aG), G = -L^-1 F."""
    sp = _with_single_outcomes() if kind == "single-outcome" else _space(kind)
    for F in (*_functionals(sp, np.random.default_rng(9)), sp.constant(0.5)):
        F = F - expectation(sp, F)
        carre, _, G = _stein_terms(sp, F)
        weight = (
            number_operator(sp, F * G) + F * (F - expectation(sp, F))
            - G * number_operator(sp, F) - carre
        )
        grads, inv_grads, _, _ = functional_stein_terms(sp, F)
        want = sp.constant(0.0)
        for a in grads:
            want = want + conditional_drop(sp, grads[a] * inv_grads[a], a)
        assert (weight - want).sup_norm() <= REL * F.scale() ** 2


@pytest.mark.parametrize("kind", KINDS + ["single-outcome"])
def test_stein_reports_match_the_functional_loop(kind):
    """Every report term, bit for bit, from the carre and T2 of the Functional loop."""
    sp = _with_single_outcomes() if kind == "single-outcome" else _space(kind)
    r, lam = 1.5, 0.7
    family = smooth_test_family()[::9]
    for F in (*_functionals(sp, np.random.default_rng(11)), sp.constant(-1.0)):
        F = F - expectation(sp, F)
        _, _, carre, t2 = functional_stein_terms(sp, F)
        t1 = expectation(sp, (sp.constant(1.0) - carre).apply(np.abs))
        got = gaussian_bound(sp, F)
        assert (got.t1, got.t2, got.total) == (t1, t2, t1 + t2)
        b1 = expectation(sp, (F * (1.0 / lam) + sp.constant(r / lam**2) - carre).apply(np.abs))
        got = gamma_bound(sp, F, r, lam)
        c1, c2 = got.constants["c1"], got.constants["c2"]
        assert (got.t1, got.t2, got.total) == (b1, t2, c1 * b1 + c2 * t2)
        assert gaussian_bound_resampled(sp, F, family).t2 == t2


# tracemalloc peaks on a centred full fair n = 16 table, in tables; with all
# 2n gradients held until the sums (the Functional loop, or the per-coordinate
# resampled loop) they read 37.03-37.05
STEIN_PEAK_TABLES = {
    "gaussian_bound": lambda sp, F: gaussian_bound(sp, F),
    "gamma_bound": lambda sp, F: gamma_bound(sp, F, 0.5, 0.5),
    "gaussian_bound_resampled": lambda sp, F: gaussian_bound_resampled(sp, F),
}


@pytest.mark.parametrize("name", sorted(STEIN_PEAK_TABLES))
def test_stein_bounds_hold_a_few_tables(name):
    sp = rademacher_space(16)
    F = sp.from_table(np.random.default_rng(0).normal(size=sp.config_count))
    F = F - expectation(sp, F)
    bound = STEIN_PEAK_TABLES[name]
    assert _peak_in_tables(lambda: bound(sp, F), F) <= 7.1
