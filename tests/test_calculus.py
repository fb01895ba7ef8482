import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dmc.calculus import (
    CoordinateField,
    anova,
    check_gradient_commutation,
    check_innovation_identity,
    check_integration_by_parts,
    check_product_rule,
    check_weitzenbock,
    divergence,
    gradient,
    gradient_component,
    invert_number_operator,
    number_operator,
    order_layers,
    trace_form,
)
from dmc.errors import NotCentered
from dmc.space import build_space, expectation, rademacher_coordinate, rademacher_space
from .conftest import adapted_field, random_field, random_functional, random_space
from .test_quadrature_routes import _mixed_space

TOL = 1e-12


@pytest.fixture
def sp2():
    return rademacher_space(2)


class TestGradient:
    def test_product_is_its_own_gradient(self, sp2):
        F = sp2.coordinate_functional(0) * sp2.coordinate_functional(1)
        D = gradient(sp2, F)
        assert (D[0] - F).sup_norm() <= TOL
        assert (D[1] - F).sup_norm() <= TOL

    def test_constant_has_zero_gradient(self, sp2):
        D = gradient(sp2, sp2.constant(3.0))
        assert D.indices() == []
        assert D[0].sup_norm() == 0.0

    def test_equality_indicator_gradient(self, sp2):
        F = sp2.indicator(lambda cfg: cfg[0] == cfg[1], deps={0, 1})
        D = gradient(sp2, F)
        assert (D[0] - (F - 0.5)).sup_norm() <= TOL
        assert (D[1] - (F - 0.5)).sup_norm() <= TOL


class TestDivergence:
    def test_coordinate_field_sums_coordinates(self, sp2):
        U = CoordinateField(
            sp2, {a: sp2.coordinate_functional(a) for a in range(2)}
        )
        want = sp2.coordinate_functional(0) + sp2.coordinate_functional(1)
        assert (divergence(sp2, U) - want).sup_norm() <= TOL

    def test_constant_field_has_zero_divergence(self, sp2):
        U = CoordinateField(sp2, {a: sp2.constant(1.0) for a in range(2)})
        assert divergence(sp2, U).sup_norm() <= TOL

    def test_single_component_product(self, sp2):
        F = sp2.coordinate_functional(0) * sp2.coordinate_functional(1)
        U = CoordinateField(sp2, {0: F})
        assert (divergence(sp2, U) - F).sup_norm() <= TOL


class TestNumberOperator:
    def test_sum_is_eigenvector_minus_one(self, sp2):
        F = sp2.coordinate_functional(0) + sp2.coordinate_functional(1)
        assert (number_operator(sp2, F) + F).sup_norm() <= TOL

    def test_product_is_eigenvector_minus_two(self, sp2):
        F = sp2.coordinate_functional(0) * sp2.coordinate_functional(1)
        assert (number_operator(sp2, F) + 2.0 * F).sup_norm() <= TOL

    def test_constant_maps_to_zero(self, sp2):
        assert number_operator(sp2, sp2.constant(5.0)).sup_norm() <= TOL


class TestAnova:
    def test_sum_splits_into_singletons(self, sp2):
        X0 = sp2.coordinate_functional(0)
        X1 = sp2.coordinate_functional(1)
        dec = anova(sp2, X0 + X1)
        assert (dec.component({0}) - X0).sup_norm() <= TOL
        assert (dec.component({1}) - X1).sup_norm() <= TOL
        assert dec.component(set()).sup_norm() <= TOL

    def test_product_is_pure_order_two(self, sp2):
        F = sp2.coordinate_functional(0) * sp2.coordinate_functional(1)
        dec = anova(sp2, F)
        assert (dec.component({0, 1}) - F).sup_norm() <= TOL
        assert dec.component({0}).sup_norm() <= TOL

    def test_equality_indicator_components(self, sp2):
        F = sp2.indicator(lambda cfg: cfg[0] == cfg[1], deps={0, 1})
        dec = anova(sp2, F)
        assert (dec.component(set()) - sp2.constant(0.5)).sup_norm() <= TOL
        assert dec.component({0}).sup_norm() <= TOL
        assert dec.component({1}).sup_norm() <= TOL
        assert (dec.component({0, 1}) - (F - 0.5)).sup_norm() <= TOL

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_reconstruction_orthogonality_eigenstructure(self, seed):
        rng = np.random.default_rng(seed)
        sp = random_space(rng)
        F = random_functional(sp, rng)
        dec = anova(sp, F)
        assert (dec.reconstruct() - F).sup_norm() <= 1e-12 * F.scale()
        comps = list(dec.components.items())
        for i, (S, FS) in enumerate(comps):
            for T, FT in comps[i + 1 :]:
                assert abs(expectation(sp, FS * FT)) <= 1e-11 * F.scale() ** 2
            for a in S:
                from dmc.space import conditional_drop

                assert conditional_drop(sp, FS, a).sup_norm() <= 1e-11 * F.scale()
            if S:
                LFS = number_operator(sp, FS)
                assert (LFS + len(S) * FS).sup_norm() <= 1e-11 * F.scale()


def _layer_space(kind, rng):
    if kind == "fair":
        return rademacher_space(9)
    if kind == "p02":
        return build_space([rademacher_coordinate(f"x{i}", p=0.2) for i in range(9)])
    return _mixed_space((3, 2, 3, 2, 3, 2, 3, 2, 3), rng)


class TestOrderLayers:
    """`order_layers` against the order sums of the ANOVA subset tree."""

    @pytest.mark.parametrize("kind", ["fair", "p02", "mixed"])
    def test_layers_are_the_anova_order_sums(self, kind):
        rng = np.random.default_rng(3)
        sp = _layer_space(kind, rng)
        table = rng.normal(size=sp.config_count).reshape(sp.shape)
        partial = sp.from_evaluator(lambda cfg: table[cfg], [1, 4, 5, 8])
        for F in (sp.from_table(table), partial, sp.constant(2.5)):
            layers = order_layers(sp, F)
            dec = anova(sp, F)
            # on the p = 0.2 base the middle layers reach about 18 times F's sup norm
            scale = max(H.scale() for H in [F, *layers])
            assert len(layers) == len(F.deps) + 1
            for k, H in enumerate(layers):
                assert (H - dec.order_sum(k)).sup_norm() <= 1e-14 * scale
                assert H.deps == (F.deps if k else frozenset())
                assert H.data.shape == tuple(
                    n if a in H.deps else 1 for a, n in enumerate(sp.shape)
                )
            assert layers[0].data.item() == pytest.approx(expectation(sp, F), abs=1e-15)
            total = sum(layers[1:], layers[0])
            assert (total - F).sup_norm() <= 1e-14 * scale

    def test_minus_layers_over_order_is_the_inverse(self):
        sp = rademacher_space(12)
        F = sp.from_table(np.random.default_rng(4).normal(size=sp.config_count))
        F = F - expectation(sp, F)
        layers = order_layers(sp, F)
        inverse = sum((H * (-1.0 / k) for k, H in enumerate(layers) if k), sp.constant(0.0))
        assert (inverse - invert_number_operator(sp, F)).sup_norm() <= 1e-14 * F.scale()


class TestInverse:
    def test_single_coordinate(self, sp2):
        X0 = sp2.coordinate_functional(0)
        assert (invert_number_operator(sp2, X0) + X0).sup_norm() <= TOL

    def test_order_two(self, sp2):
        F = sp2.coordinate_functional(0) * sp2.coordinate_functional(1)
        assert (invert_number_operator(sp2, F) + 0.5 * F).sup_norm() <= TOL

    def test_uncentered_rejected(self, sp2):
        with pytest.raises(NotCentered):
            invert_number_operator(sp2, sp2.constant(1.0))

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_on_centered(self, seed):
        rng = np.random.default_rng(seed)
        sp = random_space(rng)
        F = random_functional(sp, rng)
        F = F - expectation(sp, F)
        G = invert_number_operator(sp, F)
        assert abs(expectation(sp, G)) <= 1e-11 * F.scale()
        assert (number_operator(sp, G) - F).sup_norm() <= 1e-10 * F.scale()


class TestTraceForm:
    def test_coordinate_field(self, sp2):
        U = CoordinateField(sp2, {a: sp2.coordinate_functional(a) for a in range(2)})
        assert abs(trace_form(sp2, U, U) - 2.0) <= TOL

    def test_constant_field(self, sp2):
        U = CoordinateField(sp2, {a: sp2.constant(1.0) for a in range(2)})
        assert abs(trace_form(sp2, U, U)) <= TOL

    def test_anticipating_component_cancels(self, sp2):
        U = CoordinateField(sp2, {0: sp2.coordinate_functional(1)})
        assert divergence(sp2, U).sup_norm() <= TOL
        assert abs(trace_form(sp2, U, U)) <= TOL


class TestIdentities:
    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=100, deadline=None)
    def test_integration_by_parts(self, seed):
        rng = np.random.default_rng(seed)
        sp = random_space(rng)
        F = random_functional(sp, rng)
        U = random_field(sp, rng)
        _, _, resid = check_integration_by_parts(sp, F, U)
        assert resid <= 1e-11

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=100, deadline=None)
    def test_product_rule(self, seed):
        rng = np.random.default_rng(seed)
        sp = random_space(rng)
        F = random_functional(sp, rng)
        G = random_functional(sp, rng)
        a = int(rng.integers(0, sp.n))
        assert check_product_rule(sp, F, G, a) <= 1e-11

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=100, deadline=None)
    def test_gradient_idempotent_and_commuting(self, seed):
        rng = np.random.default_rng(seed)
        sp = random_space(rng)
        F = random_functional(sp, rng)
        a = int(rng.integers(0, sp.n))
        b = int(rng.integers(0, sp.n))
        assert check_gradient_commutation(sp, F, a, a) <= 1e-11
        assert check_gradient_commutation(sp, F, a, b) <= 1e-11

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_weitzenbock(self, seed):
        rng = np.random.default_rng(seed)
        sp = random_space(rng)
        U = random_field(sp, rng)
        V = random_field(sp, rng)
        _, _, resid = check_weitzenbock(sp, U, V)
        assert resid <= 1e-10

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_innovation_identity_for_adapted_fields(self, seed):
        rng = np.random.default_rng(seed)
        sp = random_space(rng)
        U = adapted_field(sp, rng)
        _, _, resid = check_innovation_identity(sp, U)
        assert resid <= 1e-10

    def test_gradient_vanishes_off_dependency_set(self, sp2):
        F = sp2.coordinate_functional(0)
        assert gradient_component(sp2, F, 1).sup_norm() == 0.0
