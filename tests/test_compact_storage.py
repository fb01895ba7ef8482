"""Compact functional storage against the dense route in `oracles`.

Every functional the library builds has length 1 on the axes outside its
dependency set.  Its dense view must match what the same computation gives
when every intermediate is a full-grid table, and the Clark forms and the
report Gram must match their term-by-term routes.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dmc import calculus, decompose, inequalities, stein, space as space_module
from dmc.calculus import anova, gradient, mix, order_layers
from dmc.decompose import clark, clark_reverse, clark_symmetric
from dmc.ewens import EwensModel, _indicator_eq, _indicator_ne, fixed_point_count
from dmc.space import Functional, ProductSpace, rademacher_space
from dmc.stein import gaussian_bound_resampled, resample_integral, smooth_test_family
from .oracles import (
    config_list_from_evaluator,
    dense_from_evaluator,
    dense_integrate_out,
    drop_tree_clark_symmetric,
    full_row_gram,
    pairwise_gram,
    prefix_clark_terms,
    tail_clark_terms,
    tensordot_average,
)
from .test_drop_routes import KINDS, _functionals, _space
from .test_quadrature_routes import _mixed_space

REL = 1e-14

# every module that binds `_average` by name, so the dense route replaces each lookup
AVERAGING_MODULES = (space_module, calculus, decompose, inequalities, stein)


def _assert_compact(F):
    want = tuple(k if a in F.deps else 1 for a, k in enumerate(F.space.shape))
    assert F.data.shape == want


def _dense(F):
    return Functional(F.space, np.array(F.values), F.deps)


def _order(sp):
    return [int(a) for a in np.random.default_rng(sp.n).permutation(sp.n)]


def _outputs(sp, F):
    """Every functional the operators under test return, keyed by operator and term."""
    out = {
        "integrate_out": space_module.integrate_out(sp, F, range(0, sp.n, 2)),
        "mix": mix(sp, F, 0.3),
        "resample_integral": resample_integral(sp, F, sp.n - 1),
    }
    for a, G in gradient(sp, F).components.items():
        out["gradient", a] = G
    for S, G in anova(sp, F).components.items():
        out["anova", S] = G
    for k, H in enumerate(order_layers(sp, F)):
        out["order_layers", k] = H
    reports = {
        "clark": clark(sp, F, _order(sp)),
        "clark_reverse": clark_reverse(sp, F, _order(sp)),
        "clark_symmetric": clark_symmetric(sp, F),
    }
    for name, rep in reports.items():
        for i, T in enumerate(rep.terms):
            out[name, i] = T
    return out


@contextmanager
def _dense_route(monkeypatch):
    """Full-grid `integrate_out` and the tensordot averages in place of the library's."""
    with monkeypatch.context() as m:
        m.setattr(space_module, "integrate_out", dense_integrate_out)
        for module in AVERAGING_MODULES:
            m.setattr(module, "_average", tensordot_average)
        yield


def _check_against_dense_route(sp, F, monkeypatch):
    got = _outputs(sp, F)
    with _dense_route(monkeypatch):
        want = _outputs(sp, _dense(F))
    assert want["integrate_out"].data.shape == sp.shape
    scale = F.scale()
    zero = np.zeros(sp.shape)
    # a dense-route ANOVA node can be a rounding residue where the compact one is exactly 0
    for key in set(got) | set(want):
        if key in got:
            _assert_compact(got[key])
        new = got[key].values if key in got else zero
        old = want[key].values if key in want else zero
        assert np.max(np.abs(new - old)) <= REL * scale, key


def _check_clark_routes(sp, F):
    order = _order(sp)
    scale = F.scale()
    for rep, terms in (
        (clark(sp, F, order), prefix_clark_terms(sp, F, order)),
        (clark_reverse(sp, F, order), tail_clark_terms(sp, F, order)),
    ):
        assert rep.order == tuple(order) and len(rep.terms) == len(terms)
        for new, old in zip(rep.terms, terms):
            assert new.deps == old.deps
            assert np.max(np.abs(new.values - old.values)) <= REL * scale
        assert np.max(np.abs(rep.gram - pairwise_gram(sp, rep.terms))) <= REL * scale**2


@pytest.mark.parametrize("kind", KINDS)
def test_outputs_are_compact_and_match_the_dense_route(kind, monkeypatch):
    sp = _space(kind)
    for F in _functionals(sp, np.random.default_rng(5)):
        _check_against_dense_route(sp, F, monkeypatch)


@pytest.mark.parametrize("kind", KINDS)
def test_clark_chains_match_the_conditional_routes(kind):
    sp = _space(kind)
    for F in _functionals(sp, np.random.default_rng(6)):
        _check_clark_routes(sp, F)


@pytest.mark.parametrize("kind", KINDS)
def test_gram_matches_pairwise_products(kind):
    sp = _space(kind)
    F = _functionals(sp, np.random.default_rng(7))[0]
    rep = clark_symmetric(sp, F)
    scale2 = F.scale() ** 2
    assert np.max(np.abs(rep.gram - pairwise_gram(sp, rep.terms))) <= REL * scale2
    # the subset terms store different axes, so most pairs meet through a summed row
    subset_terms = drop_tree_clark_symmetric(sp, F).terms
    assert len({T.data.shape for T in subset_terms}) == 2**sp.n - 1
    for terms in (rep.terms, subset_terms):
        got = decompose._gram(sp, terms)
        for want in (pairwise_gram(sp, terms), full_row_gram(sp, terms)):
            assert np.max(np.abs(got - want)) <= REL * scale2


@pytest.mark.parametrize("kind", KINDS)
def test_stein_resampling_matches_the_dense_route(kind, monkeypatch):
    sp = _space(kind)
    family = smooth_test_family()[::9]
    for F in _functionals(sp, np.random.default_rng(8)):
        F = F - space_module.expectation(sp, F)
        got = gaussian_bound_resampled(sp, F, family)
        with _dense_route(monkeypatch):
            want = gaussian_bound_resampled(sp, _dense(F), family)
        scale = max(1.0, abs(want.total))
        assert abs(got.t1 - want.t1) <= REL * scale
        assert abs(got.t2 - want.t2) <= REL * scale


@given(
    sizes=st.lists(st.sampled_from([2, 3, 4]), min_size=1, max_size=5),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=10, deadline=None)
def test_generated_spaces(sizes, seed):
    rng = np.random.default_rng(seed)
    sp = _mixed_space(sizes, rng)
    with pytest.MonkeyPatch.context() as monkeypatch:
        for F in _functionals(sp, rng):
            _check_against_dense_route(sp, F, monkeypatch)
            _check_clark_routes(sp, F)


def test_constructors_store_only_their_dependencies():
    sp = _space("mixed2")
    X1 = sp.coordinate_functional(1)
    built = [
        sp.constant(2.5),
        X1,
        sp.from_evaluator(lambda cfg: cfg[0] - cfg[3], {0, 3}),
        sp.indicator(lambda cfg: cfg[2] == 1, {2}),
        sp.from_table(np.arange(sp.config_count, dtype=float)),
        X1 * sp.coordinate_functional(4) + 1.0,
    ]
    for F in built:
        _assert_compact(F)
    assert built[0].data.size == 1
    assert np.array_equal(X1.values[0, :, 0, 0, 0, 0], sp.embedding(1))


def test_values_is_a_read_only_view():
    sp = rademacher_space(3)
    for F in (sp.constant(1.0), sp.coordinate_functional(1), sp.from_table(np.arange(8.0))):
        assert F.values.shape == sp.shape
        assert np.shares_memory(F.values, F.data)
        with pytest.raises(ValueError):
            F.values[0, 1, 0] = 5.0
        with pytest.raises(ValueError):
            F.values += 1.0


@pytest.mark.parametrize("k", [1, 2, 4, 5])
def test_ewens_indicator_stores_k_entries(k):
    model = EwensModel(5, 1.7)
    for U in (_indicator_eq(model, k, k), _indicator_ne(model, k, 1)):
        _assert_compact(U)
        assert U.data.size == k


@pytest.mark.parametrize("N, t", [(4, 1.0), (5, 0.6), (6, 2.5)])
def test_fixed_point_count_matches_the_dense_route(N, t, monkeypatch):
    model = EwensModel(N, t)
    got = fixed_point_count(model)
    with monkeypatch.context() as m:
        m.setattr(ProductSpace, "from_evaluator", dense_from_evaluator)
        m.setattr(space_module, "integrate_out", dense_integrate_out)
        want = fixed_point_count(EwensModel(N, t))
    _assert_compact(got)
    assert want.data.shape == got.data.shape == model.space.shape
    assert np.array_equal(got.values, want.values)


def test_evaluator_tabulates_the_compact_grid_as_the_configuration_list():
    sp = _mixed_space([3, 2, 4, 2], np.random.default_rng(9))
    for deps in (set(), {2}, {0, 3}, {0, 1, 2, 3}):
        seen = {"new": [], "old": []}

        def fn(cfg, route):
            seen[route].append(cfg)
            return np.sin(1.0 + sum((a + 1.7) * v for a, v in enumerate(cfg)))

        new = sp.from_evaluator(lambda cfg: fn(cfg, "new"), deps)
        old = config_list_from_evaluator(sp, lambda cfg: fn(cfg, "old"), deps)
        assert seen["new"] == seen["old"]
        assert new.deps == old.deps and new.data.shape == old.data.shape
        assert new.data.tobytes() == old.data.tobytes()
