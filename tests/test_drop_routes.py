"""Single-average routes against the slow routes in `oracles`.

`anova` and `clark_symmetric` build everything from one-coordinate averages,
`check_stationarity` pushes the law through one jump without the m x m
kernel, and `simulate_terminal` finds each path's last jumps without a loop.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dmc.calculus import anova
from dmc.decompose import clark_symmetric
from dmc.randomized import random_space
from dmc.semigroup import check_stationarity, simulate_terminal
from dmc.space import build_space, expectation, rademacher_coordinate, rademacher_space
from .oracles import (
    kernel_stationarity,
    loop_simulate_terminal,
    mobius_anova,
    subset_clark_symmetric_terms,
)
from .test_quadrature_routes import _mixed_space

REL = 1e-14


def _space(kind):
    if kind == "fair":
        return rademacher_space(6)
    if kind == "biased":
        return build_space([rademacher_coordinate(f"x{i}", p=0.2) for i in range(6)])
    seed = int(kind.removeprefix("mixed"))
    return random_space(np.random.default_rng(seed), max_coords=6, max_outcomes=4)


KINDS = ["fair", "biased", "mixed1", "mixed2", "mixed3"]  # mixed: 3x2x3, 2x4x4x4x4x2, 2x2x3x4x2


def _functionals(sp, rng):
    """A full table, one on every other coordinate, and a sparse sum of products."""
    full = sp.from_table(rng.normal(size=sp.config_count))
    deps = range(0, sp.n, 2)
    table = rng.normal(size=sp.config_count).reshape(sp.shape)
    partial = sp.from_evaluator(
        lambda cfg: table[tuple(v if a in deps else 0 for a, v in enumerate(cfg))], deps
    )
    X = [
        sp.from_evaluator(lambda cfg, a=a, v=rng.normal(size=sp.shape[a]): v[cfg[a]], {a})
        for a in range(sp.n)
    ]
    sparse = X[0] * 2.0 + X[-1] * X[0]
    return full, partial, sparse


def _check_anova(sp, F):
    got = anova(sp, F).components
    want = mobius_anova(sp, F)
    assert frozenset() in got
    zero = np.zeros(sp.shape)
    for S in set(got) | set(want):
        new = got[S].values if S in got else zero
        old = want[S].values if S in want else zero
        assert np.max(np.abs(new - old)) <= REL * F.scale()


def _check_clark_symmetric(sp, F):
    rep = clark_symmetric(sp, F)
    terms = subset_clark_symmetric_terms(sp, F)
    assert len(rep.terms) == len(terms)
    scale = F.scale()
    for new, old in zip(rep.terms, terms):
        assert (new - old).sup_norm() <= REL * scale
    recon = sp.constant(expectation(sp, F))
    for T in terms:
        recon = recon + T
    assert abs(rep.residual - (recon - F).sup_norm()) <= REL * scale
    gram = np.array([[expectation(sp, Ti * Tj) for Tj in terms] for Ti in terms])
    assert np.max(np.abs(rep.gram - gram)) <= REL * scale**2


@pytest.mark.parametrize("kind", KINDS)
def test_anova_matches_moebius_sum(kind):
    sp = _space(kind)
    for F in _functionals(sp, np.random.default_rng(3)):
        _check_anova(sp, F)


@pytest.mark.parametrize("kind", KINDS)
def test_clark_symmetric_matches_subset_terms(kind):
    sp = _space(kind)
    for F in _functionals(sp, np.random.default_rng(4)):
        _check_clark_symmetric(sp, F)


@pytest.mark.parametrize("kind", ["fair", "biased", "mixed1", "mixed3"])
def test_stationarity_matches_dense_kernel(kind):
    sp = _space(kind)  # mixed2 has 4096 configurations, too many for the dense kernel
    assert abs(check_stationarity(sp) - kernel_stationarity(sp)) <= 1e-15


@given(
    sizes=st.lists(st.sampled_from([2, 3, 4]), min_size=1, max_size=5),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=15, deadline=None)
def test_routes_match_oracles_on_generated_spaces(sizes, seed):
    rng = np.random.default_rng(seed)
    sp = _mixed_space(sizes, rng)
    for F in _functionals(sp, rng):
        _check_anova(sp, F)
        _check_clark_symmetric(sp, F)
    assert abs(check_stationarity(sp) - kernel_stationarity(sp)) <= 1e-15


def test_anova_keeps_the_empty_component():
    sp = rademacher_space(3)
    X0 = sp.coordinate_functional(0)
    assert set(anova(sp, X0).components) == {frozenset(), frozenset({0})}
    assert set(anova(sp, sp.constant(0.0)).components) == {frozenset()}
    # E_0 (X0 X2) is exactly zero, so only the empty node survives that branch
    dec = anova(sp, X0 * sp.coordinate_functional(2))
    assert set(dec.components) == {frozenset(), frozenset({0, 2})}
    assert dec.component(set()).sup_norm() == 0.0


@pytest.mark.parametrize("sizes", [(2, 2, 2), (3, 2, 4, 2, 3, 2)])
@pytest.mark.parametrize("t", [0.0, 0.05, 0.7, 3.0])
@pytest.mark.parametrize("seed", [0, 17])
def test_terminal_states_match_the_jump_loop(sizes, t, seed):
    sp = _mixed_space(sizes, np.random.default_rng(seed))
    x0 = [k - 1 for k in sizes]
    size = 2000
    got = simulate_terminal(sp, x0, t, np.random.default_rng(seed), size)
    want = loop_simulate_terminal(sp, x0, t, np.random.default_rng(seed), size)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    if 0.0 < t < 0.1:
        # some paths never jump and keep x0
        counts = np.random.default_rng(seed).poisson(sp.n * t, size=size)
        assert (counts == 0).any()
        assert np.array_equal(got[counts == 0], np.tile(x0, ((counts == 0).sum(), 1)))
