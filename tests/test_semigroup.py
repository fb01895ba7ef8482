from math import exp

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dmc.errors import BadParameters, IndexOutOfRange, NegativeTime
from dmc.semigroup import (
    check_commutation,
    check_contraction,
    check_semigroup_law,
    check_stationarity,
    covariance_semigroup,
    mehler_apply,
    mehler_apply_swapped,
    resolvent,
    simulate,
    simulate_terminal,
)
from dmc.space import expectation, rademacher_space
from .conftest import random_functional, random_space
from .oracles import beta_weight

TOL = 1e-12


@pytest.fixture
def sp2():
    return rademacher_space(2)


def quadrature_resolvent(space, G, nodes=64):
    """Gauss-Laguerre oracle for int_0^inf e^{-t} P_t G dt (tests only)."""
    t, w = np.polynomial.laguerre.laggauss(nodes)
    out = space.constant(0.0)
    for ti, wi in zip(t, w):
        out = out + mehler_apply(space, G, float(ti)) * float(wi)
    return out


class TestMehler:
    def test_time_zero_is_identity(self, sp2, rng):
        F = random_functional(sp2, rng)
        assert (mehler_apply(sp2, F, 0.0) - F).sup_norm() <= TOL

    def test_large_time_reaches_mean(self, sp2, rng):
        F = random_functional(sp2, rng)
        G = mehler_apply(sp2, F, 50.0)
        assert (G - sp2.constant(expectation(sp2, F))).sup_norm() <= 1e-12 * F.scale()

    def test_product_decays_at_rate_two(self, sp2):
        F = sp2.coordinate_functional(0) * sp2.coordinate_functional(1)
        for t in (0.1, 0.7, 2.0):
            assert (mehler_apply(sp2, F, t) - F * exp(-2 * t)).sup_norm() <= TOL

    def test_negative_time_rejected(self, sp2):
        with pytest.raises(NegativeTime):
            mehler_apply(sp2, sp2.constant(1.0), -0.1)

    def test_infinite_time_gives_the_mean(self, sp2, rng):
        F = random_functional(sp2, rng)
        G = mehler_apply(sp2, F, float("inf"))
        assert (G - sp2.constant(expectation(sp2, F))).sup_norm() <= 1e-15 * F.scale()
        assert (mehler_apply_swapped(sp2, F, float("inf")) - F).sup_norm() == 0.0

    def test_swapped_orientation_breaks_decay(self, sp2):
        # The mixture with exchanged keep/resample weights is not even a
        # semigroup: at t = 0 it already averages everything out.
        F = sp2.coordinate_functional(0) * sp2.coordinate_functional(1)
        assert (mehler_apply_swapped(sp2, F, 0.0) - F).sup_norm() > 0.5


TIMED_CALLS = {
    "mehler_apply": lambda sp, t: mehler_apply(sp, sp.coordinate_functional(0), t),
    "mehler_apply_swapped": lambda sp, t: mehler_apply_swapped(sp, sp.coordinate_functional(0), t),
    "simulate": lambda sp, t: simulate(sp, (0, 1), t, np.random.default_rng(0)),
    "simulate_terminal": lambda sp, t: simulate_terminal(sp, (0, 1), t, np.random.default_rng(0), 8),
}


@pytest.mark.parametrize("name", sorted(TIMED_CALLS))
@pytest.mark.parametrize("t", [float("nan"), -0.1, float("-inf")], ids=["nan", "negative", "-inf"])
def test_nan_and_negative_times_are_refused(sp2, name, t):
    with pytest.raises(NegativeTime):
        TIMED_CALLS[name](sp2, t)


@pytest.mark.parametrize("name", ["simulate", "simulate_terminal"])
def test_an_infinite_time_is_refused_where_a_path_is_drawn(sp2, name):
    with pytest.raises(BadParameters, match="must be finite to draw a path, got inf$"):
        TIMED_CALLS[name](sp2, float("inf"))


@pytest.mark.parametrize("name", ["simulate", "simulate_terminal"])
@pytest.mark.parametrize("x0, message", [
    ([5, 0, 0], "outcome 5 invalid for coordinate 0"),
    ([0, 0, 0, 0], "configuration has 4 entries, not 3"),
    ([0, 0], "configuration has 2 entries, not 3"),
    ([7, 7], "configuration has 2 entries, not 3"),
], ids=["outcome", "long", "short", "short-outcome"])
def test_a_start_that_is_not_a_configuration_is_refused(name, x0, message):
    sp = rademacher_space(3)
    draw = {
        "simulate": lambda: simulate(sp, x0, 1.0, np.random.default_rng(0)),
        "simulate_terminal": lambda: simulate_terminal(sp, x0, 1.0, np.random.default_rng(0), 8),
    }[name]
    with pytest.raises(IndexOutOfRange, match=f"^{message}$"):
        draw()


class TestSemigroupLaws:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_semigroup_law(self, seed):
        rng = np.random.default_rng(seed)
        sp = random_space(rng)
        F = random_functional(sp, rng)
        s, t = rng.uniform(0.05, 2.0, size=2)
        assert check_semigroup_law(sp, F, float(s), float(t)) <= 1e-12 * F.scale()

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_commutation(self, seed):
        rng = np.random.default_rng(seed)
        sp = random_space(rng)
        F = random_functional(sp, rng)
        a = int(rng.integers(0, sp.n))
        for t in (0.1, 0.7, 2.0):
            assert check_commutation(sp, F, a, t) <= 1e-12 * F.scale()

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_contraction(self, seed):
        rng = np.random.default_rng(seed)
        sp = random_space(rng)
        F = random_functional(sp, rng)
        t = float(rng.uniform(0.0, 3.0))
        lhs, rhs = check_contraction(sp, F, t)
        assert lhs <= rhs + 1e-12 * F.scale() ** 2

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_stationarity(self, seed):
        rng = np.random.default_rng(seed)
        sp = random_space(rng)
        assert check_stationarity(sp) <= 1e-12


class TestResolvent:
    def test_constant(self, sp2):
        R = resolvent(sp2, sp2.constant(3.0))
        assert (R - sp2.constant(3.0)).sup_norm() <= TOL

    def test_single_coordinate_halves(self, sp2):
        X0 = sp2.coordinate_functional(0)
        assert (resolvent(sp2, X0) - X0 * 0.5).sup_norm() <= TOL

    def test_order_two_thirds(self, sp2):
        F = sp2.coordinate_functional(0) * sp2.coordinate_functional(1)
        assert (resolvent(sp2, F) - F * (1.0 / 3.0)).sup_norm() <= TOL

    def test_beta_weights_sum_to_binomial_average(self):
        # sum_K beta(|K|, n) over all subsets is int_0^1 1 du = 1.
        from math import comb

        for n in range(0, 8):
            total = sum(beta_weight(k, n) * comb(n, k) for k in range(n + 1))
            assert abs(total - 1.0) <= TOL

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_matches_quadrature_oracle(self, seed):
        rng = np.random.default_rng(seed)
        sp = random_space(rng)
        G = random_functional(sp, rng)
        exact = resolvent(sp, G)
        oracle = quadrature_resolvent(sp, G)
        assert (exact - oracle).sup_norm() <= 1e-8 * G.scale()


class TestCovarianceIdentity:
    def test_sum_example(self, sp2):
        F = sp2.coordinate_functional(0) + sp2.coordinate_functional(1)
        lhs, rhs = covariance_semigroup(sp2, F, F)
        assert abs(lhs - 2.0) <= TOL and abs(rhs - 2.0) <= TOL

    def test_independent_coordinates(self, sp2):
        lhs, rhs = covariance_semigroup(
            sp2, sp2.coordinate_functional(0), sp2.coordinate_functional(1)
        )
        assert abs(lhs) <= TOL and abs(rhs) <= TOL

    def test_product_example(self, sp2):
        F = sp2.coordinate_functional(0) * sp2.coordinate_functional(1)
        lhs, rhs = covariance_semigroup(sp2, F, F)
        assert abs(lhs - 1.0) <= TOL and abs(rhs - 1.0) <= TOL

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_exact_on_random_pairs(self, seed):
        rng = np.random.default_rng(seed)
        sp = random_space(rng)
        F = random_functional(sp, rng)
        G = random_functional(sp, rng)
        lhs, rhs = covariance_semigroup(sp, F, G)
        assert abs(lhs - rhs) <= 1e-10 * F.scale() * G.scale()

    @pytest.mark.parametrize("conditioned", [False, True])
    @pytest.mark.parametrize("order", [[0, 0, 1], [0]])
    def test_order_must_be_a_permutation(self, order, conditioned):
        # a repeated or missing coordinate would give a wrong right-hand side
        rng = np.random.default_rng(3)
        sp = rademacher_space(3)
        F = sp.from_table(rng.normal(size=sp.config_count))
        G = sp.from_table(rng.normal(size=sp.config_count))
        with pytest.raises(IndexOutOfRange):
            covariance_semigroup(sp, F, G, order=order, conditioned=conditioned)

    def test_conditioned_variant_documents_discrepancy(self, sp2):
        # The conditioned statement of the identity under-counts cross-terms;
        # this pins the size of the failure so any change is visible.
        F = sp2.coordinate_functional(0) * sp2.coordinate_functional(1)
        lhs, rhs = covariance_semigroup(sp2, F, F, conditioned=True)
        assert abs(lhs - 1.0) <= TOL
        assert abs(rhs - 0.5) <= TOL


class TestSimulator:
    def test_zero_horizon_no_jumps(self, sp2, rng):
        traj = simulate(sp2, (0, 0), 0.0, rng)
        assert traj.events == []

    def test_jump_times_increasing_and_valid(self, sp2, rng):
        traj = simulate(sp2, (0, 1), 5.0, rng)
        times = [e[0] for e in traj.events]
        assert times == sorted(times)
        for _, a, v in traj.events:
            assert 0 <= a < sp2.n
            assert 0 <= v < sp2.coords[a].size

    def test_single_coordinate_rate(self, rng):
        sp = rademacher_space(1)
        T = 4.0
        counts = [len(simulate(sp, (0,), T, rng).events) for _ in range(2000)]
        mean = np.mean(counts)
        se = np.std(counts, ddof=1) / np.sqrt(len(counts))
        assert abs(mean - T) <= 3 * se

    def test_terminal_batch_matches_mehler(self, sp2, rng):
        # E[F(X(t)) | X(0) = x] against exact evaluation, 1e5 trajectories.
        F = sp2.coordinate_functional(0) * sp2.coordinate_functional(1)
        t = 0.5
        x0 = (1, 1)
        states = simulate_terminal(sp2, x0, t, rng, size=100_000)
        vals = F.values[states[:, 0], states[:, 1]]
        mean = float(vals.mean())
        se = float(vals.std(ddof=1) / np.sqrt(len(vals)))
        exact = mehler_apply(sp2, F, t)(x0)
        assert abs(mean - exact) <= 4 * se

    def test_trajectory_state_follows_events(self, sp2, rng):
        traj = simulate(sp2, (0, 0), 3.0, rng)
        state = list(traj.initial)
        for s, a, v in traj.events:
            state[a] = v
            assert traj.state_at(s) == tuple(state)
