"""The symmetric Clark form by coordinate, against its independent routes.

`clark_symmetric` reports one term per coordinate, all of them from one
divide and conquer per quadrature node.  Each term must equal the per-b
`symmetric_coordinate_term`; the Gram entries must sum to var(F) and its
rows to the Shapley effects of the subset formula; and the report must
agree with the subset-term report it replaced (`oracles`).
"""

from itertools import combinations
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dmc.decompose import clark_symmetric, symmetric_coordinate_term
from dmc.space import conditional_on, rademacher_space, variance
from .oracles import drop_tree_clark_symmetric, subset_clark_symmetric_terms, traced_peak
from .test_drop_routes import KINDS, _functionals, _space
from .test_quadrature_routes import _mixed_space

REL = 1e-14


def shapley_effects(sp, F):
    """sum_S |S|! (n-|S|-1)! / n! (Var E[F|X_{S+b}] - Var E[F|X_S]) over S not holding b."""
    n = sp.n
    explained = {
        frozenset(S): variance(sp, conditional_on(sp, F, S))
        for r in range(n + 1)
        for S in combinations(range(n), r)
    }
    effects = np.zeros(n)
    for b in range(n):
        for S, v in explained.items():
            if b not in S:
                w = factorial(len(S)) * factorial(n - len(S) - 1) / factorial(n)
                effects[b] += w * (explained[S | {b}] - v)
    return effects


def _check(sp, F):
    rep = clark_symmetric(sp, F)
    scale = F.scale()
    assert rep.order == tuple(range(sp.n)) and len(rep.terms) == sp.n
    for b, T in enumerate(rep.terms):
        assert T.deps == (F.deps if b in F.deps else frozenset())
        assert (T - symmetric_coordinate_term(sp, F, b)).sup_norm() <= REL * scale
    var = variance(sp, F)
    assert rep.variance_pair[0] == var
    assert abs(rep.gram.sum() - var) <= REL * scale**2
    assert np.max(np.abs(rep.gram.sum(axis=1) - shapley_effects(sp, F))) <= REL * scale**2
    assert rep.residual <= REL * scale
    return rep


@pytest.mark.parametrize("kind", KINDS)
def test_terms_gram_and_shapley_effects(kind):
    sp = _space(kind)
    for F in _functionals(sp, np.random.default_rng(9)):
        _check(sp, F)


@given(
    sizes=st.lists(st.sampled_from([2, 3, 4]), min_size=1, max_size=6),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=40, deadline=None)
def test_terms_match_the_coordinate_route_on_generated_spaces(sizes, seed):
    rng = np.random.default_rng(seed)
    sp = _mixed_space(sizes, rng)
    for F in _functionals(sp, rng):
        _check(sp, F)


@pytest.mark.parametrize("kind", KINDS)
def test_report_agrees_with_the_subset_terms(kind):
    sp = _space(kind)
    for F in _functionals(sp, np.random.default_rng(10)):
        scale = F.scale()
        new, old = clark_symmetric(sp, F), drop_tree_clark_symmetric(sp, F)
        for mine, theirs in zip(old.terms, subset_clark_symmetric_terms(sp, F)):
            assert (mine - theirs).sup_norm() <= REL * scale
        assert new.mean == old.mean and new.variance_pair[0] == old.variance_pair[0]
        assert abs(new.residual - old.residual) <= REL * scale
        # both term sets add up to F - E[F], so both Grams sum to var(F)
        assert abs(new.gram.sum() - old.gram.sum()) <= REL * scale**2


def test_past_the_old_coordinate_cap():
    sp = rademacher_space(14)  # the subset route refused n > 12
    F = sp.from_table(np.random.default_rng(11).normal(size=sp.config_count))
    rep = clark_symmetric(sp, F)
    scale = F.scale()
    for b in (0, 6, 13):
        assert (rep.terms[b] - symmetric_coordinate_term(sp, F, b)).sup_norm() <= REL * scale
    assert abs(rep.gram.sum() - variance(sp, F)) <= REL * scale**2
    assert rep.residual <= REL * scale


def test_constant_single_coordinate_and_ignored_coordinate():
    sp = rademacher_space(3)
    rep = clark_symmetric(sp, sp.constant(2.5))
    assert rep.mean == 2.5 and rep.residual == 0.0
    assert all(T.deps == frozenset() and T.sup_norm() == 0.0 for T in rep.terms)
    assert rep.gram.shape == (3, 3) and not rep.gram.any()

    one = rademacher_space(1)
    X = one.coordinate_functional(0) * 3.0 + 1.0
    rep = _check(one, X)
    assert rep.terms[0].data.tobytes() == np.array([-3.0, 3.0]).tobytes()
    assert abs(rep.gram[0, 0] - 9.0) <= REL * 9.0

    F = sp.coordinate_functional(0) * sp.coordinate_functional(2) + sp.coordinate_functional(2)
    rep = _check(sp, F)
    assert rep.terms[1].deps == frozenset() and rep.terms[1].sup_norm() == 0.0
    assert not rep.gram[1].any() and not rep.gram[:, 1].any()


def test_holds_the_coordinate_terms_and_a_few_tables():
    sp = rademacher_space(12)
    F = sp.from_table(np.random.default_rng(0).normal(size=sp.config_count))
    peak = traced_peak(lambda: clark_symmetric(sp, F))
    # 12 terms and the recursion's few tables, the Gram's weight table and row
    # buffer among them: measured 17.7 tables, where the subset route peaked
    # at 296 MiB (about 9,000)
    assert (peak - 4096) / F.data.nbytes <= 18.0
