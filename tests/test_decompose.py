from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dmc.calculus import CoordinateField, divergence, gradient
from dmc.decompose import (
    check_conditional_commutation,
    clark,
    clark_reverse,
    clark_symmetric,
    covariance_identity,
    helmholtz,
    helmholtz_conditional,
    poincare,
    symmetric_coordinate_term,
)
from dmc.space import expectation, rademacher_space
from .conftest import random_field, random_functional, random_space

TOL = 1e-12


@pytest.fixture
def sp2():
    return rademacher_space(2)


class TestForwardClark:
    def test_product_terms(self, sp2):
        F = sp2.coordinate_functional(0) * sp2.coordinate_functional(1)
        rep = clark(sp2, F)
        assert rep.terms[0].sup_norm() <= TOL
        assert (rep.terms[1] - F).sup_norm() <= TOL
        assert rep.residual <= TOL

    def test_sum_terms(self, sp2):
        F = sp2.coordinate_functional(0) + sp2.coordinate_functional(1)
        rep = clark(sp2, F)
        assert (rep.terms[0] - sp2.coordinate_functional(0)).sup_norm() <= TOL
        assert (rep.terms[1] - sp2.coordinate_functional(1)).sup_norm() <= TOL

    def test_constant(self, sp2):
        rep = clark(sp2, sp2.constant(7.0))
        assert all(T.sup_norm() <= TOL for T in rep.terms)
        assert rep.residual <= TOL

    def test_prefix_measurable_tail_terms_vanish(self):
        sp = rademacher_space(3)
        F = sp.coordinate_functional(0) * sp.coordinate_functional(1)
        rep = clark(sp, F)
        assert rep.terms[2].sup_norm() <= TOL


class TestReverseClark:
    def test_product_terms_mirror(self, sp2):
        F = sp2.coordinate_functional(0) * sp2.coordinate_functional(1)
        rep = clark_reverse(sp2, F)
        assert (rep.terms[0] - F).sup_norm() <= TOL
        assert rep.terms[1].sup_norm() <= TOL
        assert rep.residual <= TOL

    def test_sum_terms(self, sp2):
        F = sp2.coordinate_functional(0) + sp2.coordinate_functional(1)
        rep = clark_reverse(sp2, F)
        assert (rep.terms[0] - sp2.coordinate_functional(0)).sup_norm() <= TOL
        assert (rep.terms[1] - sp2.coordinate_functional(1)).sup_norm() <= TOL


class TestAllOrders:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_forward_reverse_over_every_order(self, seed):
        rng = np.random.default_rng(seed)
        sp = random_space(rng)
        F = random_functional(sp, rng)
        for order in permutations(range(sp.n)):
            for rep in (clark(sp, F, order), clark_reverse(sp, F, order)):
                assert rep.residual <= 1e-10 * F.scale()
                assert rep.max_off_diagonal <= 1e-10 * F.scale() ** 2
                var, total = rep.variance_pair
                assert abs(var - total) <= 1e-10 * F.scale() ** 2

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_conditional_commutation(self, seed):
        rng = np.random.default_rng(seed)
        sp = random_space(rng)
        F = random_functional(sp, rng)
        pos = int(rng.integers(1, sp.n + 1))
        assert check_conditional_commutation(sp, F, pos) <= 1e-12 * F.scale()


class TestSymmetricClark:
    def test_single_coordinate_functional(self, sp2):
        rep = clark_symmetric(sp2, sp2.coordinate_functional(0))
        assert rep.residual <= TOL

    def test_product_and_order_average(self, sp2):
        F = sp2.coordinate_functional(0) * sp2.coordinate_functional(1)
        rep = clark_symmetric(sp2, F)
        assert rep.residual <= TOL
        # coordinate share == average of the forward term over both orders
        for b in range(2):
            avg = sp2.constant(0.0)
            for order in permutations(range(2)):
                fwd = clark(sp2, F, order)
                avg = avg + fwd.terms[list(order).index(b)] * 0.5
            assert (symmetric_coordinate_term(sp2, F, b) - avg).sup_norm() <= TOL

    def test_triple_equality_indicator(self):
        sp = rademacher_space(3)
        F = sp.indicator(lambda cfg: cfg[0] == cfg[1] == cfg[2], deps={0, 1, 2})
        rep = clark_symmetric(sp, F)
        assert rep.residual <= TOL

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_reconstruction_random(self, seed):
        rng = np.random.default_rng(seed)
        sp = random_space(rng)
        F = random_functional(sp, rng)
        assert clark_symmetric(sp, F).residual <= 1e-10 * F.scale()


class TestHelmholtz:
    def _assert_valid(self, sp, U, phi, V):
        assert abs(expectation(sp, phi)) <= 1e-10
        assert divergence(sp, V).sup_norm() <= 1e-10
        Dphi = gradient(sp, phi)
        for a in range(sp.n):
            assert (U[a] - (Dphi[a] + V[a])).sup_norm() <= 1e-10

    def test_gradient_field_is_pure_curl(self, sp2):
        F = sp2.coordinate_functional(0) * sp2.coordinate_functional(1)
        U = gradient(sp2, F)
        phi, V = helmholtz(sp2, U)
        assert (phi - F).sup_norm() <= TOL
        assert all(V[a].sup_norm() <= TOL for a in range(2))

    def test_constant_field_is_pure_divergence_free(self, sp2):
        U = CoordinateField(sp2, {a: sp2.constant(1.0) for a in range(2)})
        phi, V = helmholtz(sp2, U)
        assert phi.sup_norm() <= TOL
        assert all((V[a] - sp2.constant(1.0)).sup_norm() <= TOL for a in range(2))

    def test_anticipating_component_stays_in_v(self, sp2):
        U = CoordinateField(sp2, {0: sp2.coordinate_functional(1)})
        phi, V = helmholtz(sp2, U)
        assert phi.sup_norm() <= TOL
        assert (V[0] - sp2.coordinate_functional(1)).sup_norm() <= TOL
        assert divergence(sp2, V).sup_norm() <= TOL

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_random_fields_decompose_and_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        sp = random_space(rng)
        U = random_field(sp, rng)
        phi, V = helmholtz(sp, U)
        self._assert_valid(sp, U, phi, V)
        # uniqueness: decomposing D(phi) + V returns the same pair
        Dphi = gradient(sp, phi)
        W = CoordinateField(sp, {a: Dphi[a] + V[a] for a in range(sp.n)})
        phi2, V2 = helmholtz(sp, W)
        assert (phi2 - phi).sup_norm() <= 1e-9 * phi.scale()
        for a in range(sp.n):
            assert (V2[a] - V[a]).sup_norm() <= 1e-9 * V[a].scale()

    @pytest.mark.parametrize("c", [1e-16, 1e16])
    def test_scales_with_the_field(self, c):
        # no absolute cut-off: a tiny field keeps its gradient part
        sp = rademacher_space(3)
        U = random_field(sp, np.random.default_rng(3))
        phi, V = helmholtz(sp, U)
        phi_c, V_c = helmholtz(sp, CoordinateField(sp, {a: U[a] * c for a in range(sp.n)}))
        assert (phi_c - phi * c).sup_norm() <= 1e-14 * c * phi.sup_norm()
        for a in range(sp.n):
            assert (V_c[a] - V[a] * c).sup_norm() <= 1e-14 * c * V[a].sup_norm()
        size = max(U[a].sup_norm() for a in range(sp.n))
        assert divergence(sp, V_c).sup_norm() <= 1e-14 * c * size

    def test_conditional_construction_fails_on_pinned_field(self, sp2):
        # The predictable-projection construction is not a decomposition for
        # U = (0, X1*X2): it puts X1*X2 into phi although D_1(phi) must be 0.
        F = sp2.coordinate_functional(0) * sp2.coordinate_functional(1)
        U = CoordinateField(sp2, {1: F})
        phi, V = helmholtz_conditional(sp2, U)
        Dphi = gradient(sp2, phi)
        gap = (U[0] - (Dphi[0] + V[0])).sup_norm()
        assert gap > 0.5
        phi_ok, V_ok = helmholtz(sp2, U)
        self._assert_valid(sp2, U, phi_ok, V_ok)


class TestCovariancePoincare:
    def test_sum_example(self, sp2):
        F = sp2.coordinate_functional(0) + sp2.coordinate_functional(1)
        lhs, rhs = covariance_identity(sp2, F, F)
        assert abs(lhs - 2.0) <= TOL and abs(rhs - 2.0) <= TOL

    def test_orthogonal_pair(self, sp2):
        lhs, rhs = covariance_identity(
            sp2,
            sp2.coordinate_functional(0),
            sp2.coordinate_functional(0) * sp2.coordinate_functional(1),
        )
        assert abs(lhs) <= TOL and abs(rhs) <= TOL

    def test_indicator_variance(self, sp2):
        F = sp2.indicator(lambda cfg: cfg[0] == cfg[1], deps={0, 1})
        lhs, rhs = covariance_identity(sp2, F, F)
        assert abs(lhs - 0.25) <= TOL and abs(rhs - 0.25) <= TOL

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_covariance_identity_random(self, seed):
        rng = np.random.default_rng(seed)
        sp = random_space(rng)
        F = random_functional(sp, rng)
        G = random_functional(sp, rng)
        lhs, rhs = covariance_identity(sp, F, G)
        assert abs(lhs - rhs) <= 1e-10 * F.scale() * G.scale()

    def test_poincare_examples(self, sp2):
        Xsum = sp2.coordinate_functional(0) + sp2.coordinate_functional(1)
        var, energy = poincare(sp2, Xsum)
        assert abs(var - 2.0) <= TOL and abs(energy - 2.0) <= TOL
        prod = sp2.coordinate_functional(0) * sp2.coordinate_functional(1)
        var, energy = poincare(sp2, prod)
        assert abs(var - 1.0) <= TOL and abs(energy - 2.0) <= TOL
        var, energy = poincare(sp2, sp2.constant(3.0))
        assert var <= TOL and energy <= TOL

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_poincare_random(self, seed):
        rng = np.random.default_rng(seed)
        sp = random_space(rng)
        F = random_functional(sp, rng)
        var, energy = poincare(sp, F)
        assert var <= energy + 1e-12 * F.scale() ** 2
