import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dmc.errors import (
    BadInput,
    DmcError,
    EmptySupport,
    ExactModeOverflow,
    IndexOutOfRange,
    UnnormalizedPmf,
)
from dmc.space import (
    Coordinate,
    build_space,
    check_declared_dependencies,
    conditional_drop,
    conditional_prefix,
    expectation,
    expectation_mc,
    rademacher_space,
    resolve_order,
    space_from_file,
    variance,
)
from .conftest import random_functional, random_space

TOL = 1e-12


def ewens_index_space(N: int, t: float):
    """Coordinate k has outcomes 1..k; the top outcome has weight t."""
    coords = []
    for k in range(1, N + 1):
        pmf = np.full(k, 1.0 / (t + k - 1))
        pmf[-1] = t / (t + k - 1)
        coords.append(
            Coordinate(
                id=f"i{k}",
                labels=tuple(str(j) for j in range(1, k + 1)),
                pmf=pmf,
            )
        )
    return build_space(coords)


class TestConstruction:
    def test_two_fair_coordinates_give_four_configs(self):
        sp = rademacher_space(2)
        assert sp.config_count == 4

    def test_mixed_sizes_one_two_three_give_six_configs(self):
        sp = ewens_index_space(3, 2.0)
        assert sp.config_count == 6
        assert sp.shape == (1, 2, 3)

    def test_unnormalized_pmf_rejected(self):
        with pytest.raises(UnnormalizedPmf):
            Coordinate(id="x", labels=("a", "b"), pmf=np.array([0.3, 0.8]))

    def test_zero_probability_rejected(self):
        with pytest.raises(UnnormalizedPmf):
            Coordinate(id="x", labels=("a", "b"), pmf=np.array([0.0, 1.0]))

    def test_empty_support_rejected(self):
        with pytest.raises(EmptySupport):
            Coordinate(id="x", labels=(), pmf=np.array([]))
        with pytest.raises(EmptySupport):
            build_space([])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            Coordinate(id="x", labels=("a", "a"), pmf=np.array([0.5, 0.5]))

    def test_malformed_input_is_a_dmc_error(self):
        sp = rademacher_space(2)
        bare = build_space([Coordinate(id="y", labels=("a", "b"), pmf=np.array([0.5, 0.5]))])
        cases = [
            lambda: Coordinate(id="x", labels=("a", "a"), pmf=np.array([0.5, 0.5])),
            lambda: Coordinate(id="x", labels=("a", "b"), pmf=np.array([1.0])),
            lambda: Coordinate(id="x", labels=("a", "b"), pmf=np.array([0.5, 0.5]),
                               embedding=np.zeros(3)),
            lambda: sp.from_table(np.zeros(3)),
            lambda: bare.embedding(0),
            lambda: sp.constant(1.0) + rademacher_space(2).constant(1.0),
        ]
        for case in cases:
            with pytest.raises(BadInput) as info:
                case()
            assert isinstance(info.value, DmcError) and isinstance(info.value, ValueError)

    def test_exact_ceiling_enforced(self):
        sp = rademacher_space(4)
        sp_small = build_space(sp.coords, exact_ceiling=8)
        assert not sp_small.exact
        with pytest.raises(ExactModeOverflow):
            sp_small.require_exact()

    def test_index_config_round_trip(self):
        sp = ewens_index_space(4, 1.0)
        for idx in range(sp.config_count):
            assert sp.config_to_index(sp.index_to_config(idx)) == idx

    def test_config_out_of_range(self):
        sp = rademacher_space(2)
        with pytest.raises(IndexOutOfRange):
            sp.config_to_index((0, 2))


class TestExpectation:
    def test_product_of_fair_signs_is_centered(self):
        sp = rademacher_space(2)
        F = sp.coordinate_functional(0) * sp.coordinate_functional(1)
        assert abs(expectation(sp, F)) <= TOL

    def test_constant_one(self):
        sp = rademacher_space(2)
        assert abs(expectation(sp, sp.constant(1.0)) - 1.0) <= TOL

    def test_identity_permutation_weight_matches_hand_enumeration(self):
        # N = 3, t = 2: the all-top configuration has probability
        # 1 * (2/3) * (2/4) = 8/24.
        sp = ewens_index_space(3, 2.0)
        F = sp.indicator(lambda cfg: cfg == (0, 1, 2), deps={0, 1, 2})
        assert abs(expectation(sp, F) - 8.0 / 24.0) <= TOL

    def test_monte_carlo_mean_within_error_bars(self, rng):
        sp = rademacher_space(3)
        F = sp.coordinate_functional(0) + sp.coordinate_functional(1) * 2.0
        emb = [c.embedding for c in sp.coords]
        mean, se = expectation_mc(
            sp, lambda cfg: emb[0][cfg[0]] + 2.0 * emb[1][cfg[1]], rng, size=20000
        )
        assert abs(mean - expectation(sp, F)) <= 4 * se

    def test_monte_carlo_needs_two_samples(self, rng):
        with pytest.raises(DmcError):
            expectation_mc(rademacher_space(2), lambda cfg: 1.0, rng, size=1)


class TestConditioning:
    def test_drop_kills_centered_factor(self):
        sp = rademacher_space(2)
        F = sp.coordinate_functional(0) * sp.coordinate_functional(1)
        assert conditional_drop(sp, F, 0).sup_norm() <= TOL

    def test_drop_leaves_other_coordinate(self):
        sp = rademacher_space(2)
        F = sp.coordinate_functional(0) + sp.coordinate_functional(1)
        G = conditional_drop(sp, F, 0)
        assert (G - sp.coordinate_functional(1)).sup_norm() <= TOL
        assert 0 not in G.deps

    def test_drop_equality_indicator_gives_half(self):
        sp = rademacher_space(2)
        F = sp.indicator(lambda cfg: cfg[0] == cfg[1], deps={0, 1})
        assert (conditional_drop(sp, F, 0) - sp.constant(0.5)).sup_norm() <= TOL

    def test_prefix_one_of_product_vanishes(self):
        sp = rademacher_space(2)
        F = sp.coordinate_functional(0) * sp.coordinate_functional(1)
        assert conditional_prefix(sp, F, 1).sup_norm() <= TOL

    def test_prefix_full_returns_f(self):
        sp = rademacher_space(2)
        F = sp.coordinate_functional(0) * sp.coordinate_functional(1)
        assert (conditional_prefix(sp, F, 2) - F).sup_norm() <= TOL

    def test_prefix_reversed_order_indicator(self):
        sp = rademacher_space(2)
        F = sp.indicator(lambda cfg: cfg[0] == cfg[1], deps={0, 1})
        G = conditional_prefix(sp, F, 1, order=[1, 0])
        assert (G - sp.constant(0.5)).sup_norm() <= TOL

    def test_prefix_rejects_bad_order_and_k(self):
        sp = rademacher_space(2)
        F = sp.constant(1.0)
        with pytest.raises(IndexOutOfRange):
            conditional_prefix(sp, F, 1, order=[0, 0])
        with pytest.raises(IndexOutOfRange):
            conditional_prefix(sp, F, 3)

    def test_resolve_order(self):
        sp = rademacher_space(3)
        assert resolve_order(sp, None) == [0, 1, 2]
        assert resolve_order(sp, (2, 0, 1)) == [2, 0, 1]
        for bad in ([0, 0, 1], [0], [0, 1, 2, 3], [1, 2, 3]):
            with pytest.raises(IndexOutOfRange):
                resolve_order(sp, bad)

    def test_drop_invalid_axis(self):
        sp = rademacher_space(2)
        with pytest.raises(IndexOutOfRange):
            conditional_drop(sp, sp.constant(1.0), 5)


class TestProjectionLaws:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_tower_property(self, seed):
        rng = np.random.default_rng(seed)
        sp = random_space(rng)
        F = random_functional(sp, rng)
        j = int(rng.integers(0, sp.n + 1))
        k = int(rng.integers(0, sp.n + 1))
        lhs = conditional_prefix(sp, conditional_prefix(sp, F, k), j)
        rhs = conditional_prefix(sp, F, min(j, k))
        assert (lhs - rhs).sup_norm() <= 1e-12 * F.scale()

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_drop_is_orthogonal_projection(self, seed):
        rng = np.random.default_rng(seed)
        sp = random_space(rng)
        F = random_functional(sp, rng)
        a = int(rng.integers(0, sp.n))
        resid = F - conditional_drop(sp, F, a)
        G = conditional_drop(sp, random_functional(sp, rng), a)
        assert abs(expectation(sp, resid * G)) <= 1e-12 * F.scale() * G.scale()
        twice = conditional_drop(sp, conditional_drop(sp, F, a), a)
        assert (twice - conditional_drop(sp, F, a)).sup_norm() <= 1e-12 * F.scale()

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_drop_preserves_expectation(self, seed):
        rng = np.random.default_rng(seed)
        sp = random_space(rng)
        F = random_functional(sp, rng)
        a = int(rng.integers(0, sp.n))
        assert abs(
            expectation(sp, conditional_drop(sp, F, a)) - expectation(sp, F)
        ) <= 1e-12 * F.scale()


class TestDependencies:
    def test_honest_declaration_passes(self, rng):
        sp = rademacher_space(3)
        emb = sp.coords[0].embedding
        assert check_declared_dependencies(sp, lambda cfg: emb[cfg[0]], {0}, rng)

    def test_lying_declaration_caught(self, rng):
        sp = rademacher_space(3)
        emb = sp.coords[1].embedding
        assert not check_declared_dependencies(sp, lambda cfg: emb[cfg[1]], {0}, rng)

    def test_evaluator_materialization_matches_table(self):
        sp = rademacher_space(2)
        F = sp.from_evaluator(lambda cfg: float(cfg[0] == cfg[1]), deps={0, 1})
        G = sp.from_table([1.0, 0.0, 0.0, 1.0])
        assert (F - G).sup_norm() == 0.0


class TestFileFormat:
    def test_round_trip_fixture(self, tmp_path):
        text = """\
coords:
  - id: x1
    outcomes:
      - {label: "-1", p: 0.5, value: -1.0}
      - {label: "+1", p: 0.5, value: 1.0}
  - id: x2
    outcomes:
      - {label: "lo", p: 0.25, value: 0.0}
      - {label: "hi", p: 0.75, value: 3.0}
"""
        path = tmp_path / "space.yaml"
        path.write_text(text)
        sp = space_from_file(path)
        assert sp.shape == (2, 2)
        X2 = sp.coordinate_functional(1)
        assert abs(expectation(sp, X2) - 2.25) <= TOL
        assert abs(variance(sp, X2) - (0.25 * 2.25**2 + 0.75 * 0.75**2)) <= TOL
