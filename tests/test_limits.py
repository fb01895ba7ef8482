from math import exp, hypot, lgamma, log, sqrt
from time import perf_counter

import numpy as np
import pytest

from dmc.errors import BadDensity, BadParameters, TruncationFailure
from dmc.limits import (
    TRUNCATION_CAP,
    PartitionScheme,
    PointConfiguration,
    PointFunctional,
    WalkScheme,
    _cumulative_trapezoid,
    _poisson_law,
    capped_mass_functional,
    constant_point_functional,
    endpoint_functional,
    h_gram,
    poisson_form,
    poisson_limit,
    poisson_scheme,
    sample_poisson_process,
    time_integral_functional,
    total_mass_functional,
    tv_distance,
    walk_form,
    walk_limit,
    weighted_integral_functional,
)
from .oracles import (
    _truncation_order,
    dense_counts_poisson_form,
    fresh_steps_walk_form,
    per_cell_poisson_form,
    per_draw_cdf_poisson_limit,
    scipy_poisson_law,
    traced_peak,
)

TOL = 1e-12


def uniform(x):
    return np.ones_like(np.asarray(x, dtype=float))


def triangular(x):
    return 2.0 * np.asarray(x, dtype=float)


# every entry point that tabulates a density rejects these with BadDensity
BAD_DENSITIES = {
    "negative": lambda x: 4.0 * np.asarray(x, dtype=float) - 1.0,
    "zero-mass": lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    "mass-3": lambda x: 3.0 * uniform(x),
    "not-finite": lambda x: np.full_like(np.asarray(x, dtype=float), np.nan),
}


def recorded(fn):
    """Functional that keeps every configuration it is evaluated at."""
    calls = []

    def record(w):
        calls.append(w)
        return fn(w)

    return PointFunctional(name="recorded", fn=record), calls


def located_mass(w):
    """Order-sensitive and location-weighted: sum_i (i + 1) x_i m_i, plus a cap."""
    weighted = sum((i + 1) * x * m for i, (x, m) in enumerate(zip(w.locations, w.multiplicities)))
    return sqrt(weighted) + min(w.total_mass, 2)


class TestPartitionScheme:
    def test_uniform_four_cells(self):
        sch = poisson_scheme(uniform, 4)
        assert np.allclose(sch.masses, 0.25)
        assert np.allclose(sch.anchors, [0.125, 0.375, 0.625, 0.875], atol=1e-9)
        assert abs(sch.mass_bound_constant - 1.0) <= TOL

    def test_triangular_split_at_median(self):
        sch = poisson_scheme(triangular, 2)
        assert abs(sch.boundaries[1] - sqrt(0.5)) <= 1e-6
        assert np.allclose(sch.masses, 0.5)

    def test_single_cell(self):
        sch = poisson_scheme(uniform, 1)
        assert sch.masses.tolist() == [1.0]

    def test_bad_densities_rejected(self):
        with pytest.raises(BadDensity):
            poisson_scheme(lambda x: -uniform(x), 4)
        with pytest.raises(BadDensity):
            poisson_scheme(lambda x: np.zeros_like(np.asarray(x, dtype=float)), 4)
        with pytest.raises(BadDensity):
            poisson_scheme(lambda x: 3.0 * uniform(x), 4)
        with pytest.raises(BadParameters):
            poisson_scheme(uniform, 0)

    @pytest.mark.parametrize("name", sorted(BAD_DENSITIES))
    def test_process_samplers_reject_what_the_scheme_rejects(self, name):
        density = BAD_DENSITIES[name]
        rng = np.random.default_rng(0)
        with pytest.raises(BadDensity):
            poisson_scheme(density, 4)
        with pytest.raises(BadDensity):
            sample_poisson_process(density, rng)
        with pytest.raises(BadDensity):
            poisson_limit(total_mass_functional(), density, rng, trials=2)

    def test_scalar_density_is_broadcast_everywhere(self):
        def scalar(x):
            return 1.0

        want = poisson_scheme(uniform, 4).boundaries
        assert poisson_scheme(scalar, 4).boundaries.tolist() == want.tolist()
        for seed in range(5):
            want = sample_poisson_process(uniform, np.random.default_rng(seed))
            assert sample_poisson_process(scalar, np.random.default_rng(seed)) == want
        F = capped_mass_functional()
        got = poisson_limit(F, scalar, np.random.default_rng(6), trials=50)
        assert got == poisson_limit(F, uniform, np.random.default_rng(6), trials=50)

    def test_riemann_gap_shrinks(self):
        gaps = [poisson_scheme(triangular, N).riemann_gap() for N in (4, 16, 64)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] <= 1e-2


class TestAgainstScipy:
    @pytest.mark.parametrize("density", [uniform, triangular, lambda x: np.exp(np.sin(7.0 * x))])
    def test_cumulative_trapezoid_is_scipys(self, density):
        from scipy.integrate import cumulative_trapezoid

        grid = np.linspace(0.0, 1.0, 8193)
        y = density(grid)
        want = np.concatenate([[0.0], cumulative_trapezoid(y, grid)])
        assert np.array_equal(_cumulative_trapezoid(y, grid), want)

    @pytest.mark.parametrize("tail_eps", [0.9, 1e-9, 1e-15, 1e-300])
    def test_poisson_law_matches_scipy(self, tail_eps):
        masses = [1.0 / N for N in range(1, 4097)] + [0.5, 3.0, 20.0, 100.0, 250.0, 350.0]
        failed = []
        for q in masses:
            try:
                want_pmf, want_tail = scipy_poisson_law(q, tail_eps, TRUNCATION_CAP)
            except TruncationFailure:
                failed.append(q)
                with pytest.raises(TruncationFailure):
                    _poisson_law(q, tail_eps, TRUNCATION_CAP)
                continue
            pmf, tail = _poisson_law(q, tail_eps, TRUNCATION_CAP)
            assert len(pmf) == len(want_pmf)  # the same truncation order T
            # relative to the size of the log-pmf k log q - q - lgamma(k + 1)
            k = np.arange(len(pmf))
            scale = 1e-15 * (k * abs(log(q)) + q + np.array([lgamma(j + 1.0) for j in k]) + 1.0)
            assert np.all(np.abs(pmf - want_pmf) <= scale * want_pmf)
            assert abs(tail - want_tail) <= scale[-1] * want_tail
        # the masses whose tail beyond the cap is not below tail_eps
        want = {0.9: [], 1e-9: [350.0], 1e-15: [350.0], 1e-300: [100.0, 250.0, 350.0]}
        assert failed == want[tail_eps]

    def test_poisson_law_of_an_empty_cell(self):
        for tail_eps in (0.9, 1e-300):
            pmf, tail = _poisson_law(0.0, tail_eps, TRUNCATION_CAP)
            assert pmf.tolist() == [1.0] and tail == 0.0
        want_pmf, want_tail = scipy_poisson_law(0.0, 1e-300, TRUNCATION_CAP)
        assert (want_pmf.tolist(), want_tail) == ([1.0], 0.0)


class TestConfigurations:
    def test_add_and_mass(self):
        cfg = PointConfiguration((0.25,), (2,))
        assert cfg.total_mass == 2
        assert cfg.add(0.25).multiplicities == (3,)
        assert cfg.add(0.75).total_mass == 3

    def test_validation(self):
        with pytest.raises(BadParameters):
            PointConfiguration((0.1, 0.1), (1, 1))
        with pytest.raises(BadParameters):
            PointConfiguration((0.1,), (0,))

    def test_tv_distance(self):
        a = PointConfiguration((0.1, 0.5), (2, 1))
        assert tv_distance(a, a) == 0
        assert tv_distance(a, a.add(0.3)) == 1
        assert tv_distance(a, PointConfiguration((), ())) == 3

    def test_builtins_are_tv_lipschitz(self):
        rng = np.random.default_rng(4)
        fns = [total_mass_functional(), capped_mass_functional(), capped_mass_functional(3)]
        for _ in range(200):
            a = sample_poisson_process(uniform, rng)
            b = sample_poisson_process(uniform, rng)
            d = tv_distance(a, b)
            for F in fns:
                assert abs(F.fn(a) - F.fn(b)) <= d + TOL


class TestPoissonForm:
    @pytest.mark.parametrize("N", [4, 16, 64, 256])
    def test_total_mass_exact_path(self, N):
        rep = poisson_form(total_mass_functional(), poisson_scheme(uniform, N))
        assert rep.exact
        assert abs(rep.value - 1.0) <= TOL  # sum of cell masses, exactly 1
        assert abs(rep.value - 1.0) <= 1e-3  # convergence criterion at N = 256

    def test_constant_functional_zero(self):
        rng = np.random.default_rng(0)
        rep = poisson_form(
            constant_point_functional(5.0), poisson_scheme(uniform, 4),
            rng=rng, trials=50,
        )
        assert rep.value <= 1e-24

    def test_capped_mass_mc_matches_enumeration(self):
        # exact form for F = min(mass, 1): each coordinate contributes
        # P(rest empty) * var(1_{M_m = 0}) = e^{-1} (1 - e^{-p_m})
        rng = np.random.default_rng(9)
        sch = poisson_scheme(uniform, 8)
        rep = poisson_form(capped_mass_functional(), sch, rng=rng, trials=1500)
        want = exp(-1.0) * float(np.sum(1.0 - np.exp(-sch.masses)))
        assert abs(rep.value - want) <= 3.0 * rep.se
        assert rep.truncation_bound <= 8e-9

    def test_tail_eps_validation_and_truncation_failure(self):
        sch = poisson_scheme(uniform, 2)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        F, calls = recorded(located_mass)
        with pytest.raises(BadParameters):
            poisson_form(F, sch, tail_eps=0.0, rng=rng, trials=10)
        with pytest.raises(TruncationFailure):
            poisson_form(F, sch, tail_eps=1e-12, rng=rng, trials=10, max_order=1)
        # both are raised before any trial draws or evaluates F
        assert calls == [] and rng.bit_generator.state == state

    def test_one_evaluation_of_the_trial_configuration(self):
        calls = []

        def capped(w):
            calls.append(w)
            return float(min(w.total_mass, 1))

        F = PointFunctional(name="counted", fn=capped)
        sch = poisson_scheme(uniform, 6)
        trials = 7
        rep = poisson_form(F, sch, rng=np.random.default_rng(3), trials=trials)
        orders = [_truncation_order(p, 1e-9, TRUNCATION_CAP) for p in sch.masses]
        assert len(calls) == trials * (1 + sum(T + 1 for T in orders))
        old = per_cell_poisson_form(F, sch, np.random.default_rng(3), trials)
        assert (rep.value, rep.se) == (old.value, old.se)

    @staticmethod
    def assert_same_route(sch, tail_eps, seed=5, trials=6):
        F, calls = recorded(located_mass)
        rep = poisson_form(F, sch, tail_eps=tail_eps, rng=np.random.default_rng(seed), trials=trials)
        G, want = recorded(located_mass)
        old = dense_counts_poisson_form(
            G, sch, tail_eps=tail_eps, rng=np.random.default_rng(seed), trials=trials
        )
        assert calls == want
        assert (rep.value, rep.se, rep.truncation_bound) == (old.value, old.se, old.truncation_bound)
        assert all(
            type(x) is float and type(k) is int
            for w in calls
            for x, k in zip(w.locations, w.multiplicities)
        )
        orders = [_truncation_order(q, tail_eps, TRUNCATION_CAP) for q in sch.masses]
        assert len(calls) == trials * (1 + sum(T + 1 for T in orders))
        return calls, orders

    @pytest.mark.parametrize("density", [uniform, triangular])
    @pytest.mark.parametrize("N", [1, 2, 6, 64])
    @pytest.mark.parametrize("tail_eps", [1e-9, 0.9])
    def test_occupied_cells_route_matches_dense_counts(self, N, density, tail_eps):
        calls, orders = self.assert_same_route(poisson_scheme(density, N), tail_eps)
        if tail_eps == 0.9:
            assert orders == [0] * N  # every inner expectation is F at tau = 0
        if N <= 2:
            # seed 5 puts two or more points in one cell, so the occupied-cell
            # and drop branches run
            assert max(k for w in calls for k in w.multiplicities) >= 2

    def test_unequal_masses_match_dense_counts(self):
        sch = PartitionScheme(
            N=5,
            masses=np.array([0.6, 0.1, 0.25, 0.01, 0.04]),
            anchors=np.array([0.1, 0.3, 0.5, 0.7, 0.9]),
            boundaries=np.linspace(0.0, 1.0, 6),
            density=uniform,
            mass_bound_constant=2.0,
        )
        _, orders = self.assert_same_route(sch, 1e-9, trials=8)
        assert len(set(orders)) == 5

    def test_no_rebuild_from_all_counts(self, monkeypatch):
        def refuse(anchors, counts):
            raise AssertionError("configuration rebuilt from all N counts")

        monkeypatch.setattr("dmc.limits.configuration_from_counts", refuse)
        sch = poisson_scheme(uniform, 1024)
        rep = poisson_form(capped_mass_functional(), sch, rng=np.random.default_rng(1), trials=2)
        assert rep.value >= 0.0 and not rep.exact

    def test_standard_error_needs_two_trials(self):
        rng = np.random.default_rng(0)
        with pytest.raises(BadParameters):
            poisson_form(capped_mass_functional(), poisson_scheme(uniform, 2), rng=rng, trials=1)
        with pytest.raises(BadParameters):
            walk_form(time_integral_functional(), WalkScheme(4), rng=rng, trials=1)
        with pytest.raises(BadParameters):
            poisson_limit(capped_mass_functional(), uniform, rng, trials=1)

    def test_nonlinear_requires_mc_parameters(self):
        with pytest.raises(BadParameters):
            poisson_form(capped_mass_functional(), poisson_scheme(uniform, 2))


class TestPoissonLimit:
    def test_total_mass_limit_is_one(self):
        rng = np.random.default_rng(1)
        rep = poisson_limit(total_mass_functional(), uniform, rng, trials=200)
        assert abs(rep.value - 1.0) <= TOL
        assert rep.se <= TOL

    def test_capped_mass_limit(self):
        rng = np.random.default_rng(2)
        rep = poisson_limit(capped_mass_functional(), uniform, rng, trials=4000)
        assert abs(rep.value - exp(-1.0)) <= 4.0 * max(rep.se, 1e-3)

    @pytest.mark.parametrize("density", [uniform, triangular])
    def test_one_cdf_per_call_matches_per_draw_cdf(self, density):
        F = PointFunctional(name="located", fn=located_mass)
        rep = poisson_limit(F, density, np.random.default_rng(11), trials=300)
        old = per_draw_cdf_poisson_limit(F, density, np.random.default_rng(11), trials=300)
        assert (rep.value, rep.se) == (old.value, old.se)

    def test_constant_limit_zero(self):
        rng = np.random.default_rng(3)
        rep = poisson_limit(constant_point_functional(2.0), uniform, rng, trials=100)
        assert rep.value == 0.0

    def test_form_approaches_limit_on_grid(self):
        gaps = []
        for N in (4, 16, 64, 256):
            rep = poisson_form(total_mass_functional(), poisson_scheme(uniform, N))
            gaps.append(abs(rep.value - 1.0))
            assert gaps[-1] <= float(np.sum(poisson_scheme(uniform, N).masses ** 2)) + TOL
        assert all(b <= a + TOL for a, b in zip(gaps, gaps[1:]))


class TestWalkForm:
    def test_h_family_orthonormal(self):
        for N in (1, 3, 8, 32):
            assert np.max(np.abs(h_gram(N) - np.eye(N))) <= TOL

    @pytest.mark.parametrize("N", [1, 4, 8, 64, 256])
    def test_endpoint_exact_at_every_n(self, N):
        rep = walk_form(endpoint_functional(), WalkScheme(N))
        assert rep.exact and abs(rep.value - 1.0) <= TOL

    @pytest.mark.parametrize("N", [8, 16, 32, 64, 128, 256])
    def test_time_integral_within_rate(self, N):
        rep = walk_form(time_integral_functional(), WalkScheme(N))
        assert abs(rep.value - 1.0 / 3.0) <= 2.0 / N

    def test_time_integral_closed_form(self):
        N = 16
        rep = walk_form(time_integral_functional(), WalkScheme(N))
        want = sum((1.0 - (k - 0.5) / N) ** 2 / N for k in range(1, N + 1))
        assert abs(rep.value - want) <= TOL

    def test_weighted_reduces_to_time_integral(self):
        W = weighted_integral_functional(uniform)
        T = time_integral_functional()
        assert np.max(np.abs(W.coeffs(16) - T.coeffs(16))) <= 1e-9
        assert abs(walk_limit(W) - 1.0 / 3.0) <= 1e-7

    def test_zero_weight(self):
        g0 = weighted_integral_functional(lambda t: np.zeros_like(np.asarray(t, dtype=float)))
        assert walk_limit(g0) == 0.0
        assert walk_form(g0, WalkScheme(8)).value == 0.0

    def test_weighted_limit_quadrature(self):
        # g(t) = t: int_s^1 g = (1 - s^2)/2, limit = int ((1-s^2)/2)^2 ds = 2/15
        W = weighted_integral_functional(lambda t: np.asarray(t, dtype=float))
        assert abs(walk_limit(W) - 2.0 / 15.0) <= 1e-7

    def test_monte_carlo_agrees_with_exact(self):
        rng = np.random.default_rng(7)
        scheme = WalkScheme(16)
        exact = walk_form(time_integral_functional(), scheme).value
        rep = walk_form(time_integral_functional(), scheme, rng=rng, trials=6000, inner=64)
        assert abs(rep.value - exact) <= 3.0 * rep.se

    @pytest.mark.parametrize("inner", [2, 64])
    @pytest.mark.parametrize("functional", [endpoint_functional, time_integral_functional])
    @pytest.mark.parametrize("N", [1, 8, 64])
    def test_exact_inner_law_agrees_with_fresh_steps(self, N, functional, inner):
        # both estimators are unbiased for sum_k c_k^2; the benchmark excuses a
        # walk row far above it as a known defect, so only here would a bias show
        F, scheme = functional(), WalkScheme(N)
        exact = walk_form(F, scheme).value
        new = walk_form(F, scheme, rng=np.random.default_rng(31), trials=4000, inner=inner)
        old = fresh_steps_walk_form(F, scheme, np.random.default_rng(32), 4000, inner)
        assert abs(new.value - exact) <= 4.0 * new.se
        assert abs(old.value - exact) <= 4.0 * old.se
        assert abs(new.value - old.value) <= 4.0 * hypot(new.se, old.se)

    def test_monte_carlo_cost_does_not_grow_with_inner(self):
        # 2000 trials of 10^9 fresh steps each would be 2 * 10^12 variates
        call = lambda: walk_form(  # noqa: E731
            time_integral_functional(), WalkScheme(8), rng=np.random.default_rng(3),
            trials=2000, inner=10**9,
        )
        start = perf_counter()
        rep = call()
        assert perf_counter() - start < 1.0
        assert np.isfinite(rep.value) and rep.se > 0.0
        assert traced_peak(call) <= 2.5 * 2**20

    def test_monte_carlo_needs_two_inner_steps(self):
        rng = np.random.default_rng(7)
        with pytest.raises(BadParameters):
            walk_form(time_integral_functional(), WalkScheme(4), rng=rng, trials=10, inner=1)

    def test_evaluate_matches_coefficients(self):
        rng = np.random.default_rng(5)
        steps = rng.normal(size=(10, 8))
        F = endpoint_functional()
        assert np.allclose(F.evaluate(steps), steps.sum(axis=1) / sqrt(8))

    def test_scheme_validation(self):
        with pytest.raises(BadParameters):
            WalkScheme(0)
