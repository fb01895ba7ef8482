"""Quadrature routes against the subset-enumeration oracles in `oracles`."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dmc.calculus import invert_number_operator
from dmc.decompose import symmetric_coordinate_term
from dmc.semigroup import resolvent
from dmc.space import (
    Coordinate,
    build_space,
    expectation,
    rademacher_coordinate,
    rademacher_space,
)
from .oracles import anova_inverse, subset_resolvent, subset_symmetric_term

REL = 1e-14


def _mixed_space(sizes, rng):
    coords = []
    for i, k in enumerate(sizes):
        raw = rng.uniform(0.1, 1.0, size=k)
        coords.append(
            Coordinate(id=f"m{i}", labels=tuple(str(v) for v in range(k)), pmf=raw / raw.sum())
        )
    return build_space(coords)


def _space(kind):
    rng = np.random.default_rng(11)
    if kind == "fair":
        return rademacher_space(8)
    if kind == "biased":
        return build_space(
            [rademacher_coordinate(f"x{i}", p=float(rng.uniform(0.05, 0.45))) for i in range(8)]
        )
    return _mixed_space((2, 3, 2, 3, 3, 2), rng)


def _functionals(sp, rng):
    """A full table and one depending on every other coordinate only."""
    full = sp.from_table(rng.normal(size=sp.config_count))
    deps = range(0, sp.n, 2)
    table = rng.normal(size=sp.config_count).reshape(sp.shape)
    partial = sp.from_evaluator(
        lambda cfg: table[tuple(v if a in deps else 0 for a, v in enumerate(cfg))], deps
    )
    return full, partial


def _centred(sp, F):
    return F - expectation(sp, F)


def _assert_close(new, old, F):
    assert (new - old).sup_norm() <= REL * F.scale()


def _check_all_routes(sp, rng):
    for F in _functionals(sp, rng):
        _assert_close(resolvent(sp, F), subset_resolvent(sp, F), F)
        Fc = _centred(sp, F)
        _assert_close(invert_number_operator(sp, Fc), anova_inverse(sp, Fc), Fc)
        for b in range(sp.n):
            _assert_close(symmetric_coordinate_term(sp, F, b), subset_symmetric_term(sp, F, b), F)


@pytest.mark.parametrize("kind", ["fair", "biased", "mixed"])
def test_routes_match_subset_oracles(kind):
    sp = _space(kind)
    _check_all_routes(sp, np.random.default_rng(5))


@pytest.mark.parametrize("kind", ["fair", "biased", "mixed"])
@pytest.mark.parametrize("frozen", [{0}, {1, 3}, {0, 2, 4}, {1, 2, 3, 4, 5}])
def test_frozen_resolvent_matches_oracle(kind, frozen):
    sp = _space(kind)
    for F in _functionals(sp, np.random.default_rng(6)):
        _assert_close(resolvent(sp, F, frozen=frozen), subset_resolvent(sp, F, frozen), F)


@given(
    sizes=st.lists(st.sampled_from([2, 3]), min_size=1, max_size=6),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=15, deadline=None)
def test_routes_match_oracles_on_generated_mixed_spaces(sizes, seed):
    rng = np.random.default_rng(seed)
    _check_all_routes(_mixed_space(sizes, rng), rng)


@pytest.mark.parametrize("kind", ["fair", "mixed"])
def test_inverse_drops_a_mean_inside_the_centering_tolerance(kind):
    sp = _space(kind)
    F = _centred(sp, sp.from_table(np.random.default_rng(8).normal(size=sp.config_count)))
    shifted = F + 0.5e-10 * F.scale()
    got = invert_number_operator(sp, shifted)
    _assert_close(got, anova_inverse(sp, shifted), F)
    _assert_close(got, invert_number_operator(sp, F), F)
