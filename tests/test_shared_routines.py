"""Shared-routine routes against the private copies they replaced, in `oracles`.

Hoeffding kernels and symmetric Clark groups come from the one-coordinate
gradient on the k-fold table, Hoeffding Grams from `decompose._gram`, the
covariance identity from the forward Clark chain, the resampled Gaussian
bound from `conditional_drop`, and `exact_tail` from the compact weighted sum.
"""

import numpy as np
import pytest

from dmc.decompose import clark_symmetric, covariance_identity
from dmc.inequalities import exact_tail, log_sobolev
from dmc.space import Coordinate, expectation, iid_space, rademacher_coordinate
from dmc.stein import gaussian_bound_resampled, smooth_test_family
from dmc.ustat import (
    SymmetricKernel,
    check_total_against_symmetric_clark,
    hoeffding_decompose,
    hoeffding_kernels,
    symmetric_clark_groups,
    u_statistic,
)
from .test_drop_routes import KINDS, _space
from .test_quadrature_routes import _functionals
from .oracles import (
    masked_exact_tail,
    pairwise_gram,
    pairwise_symmetric_clark_groups,
    prefix_covariance_identity,
    recursive_degenerate_kernels,
    take_loop_resampled_first_term,
    two_average_log_sobolev_energy,
)

REL = 1e-14

KERNELS = [
    SymmetricKernel(1, lambda x: x**3 + x),
    SymmetricKernel(2, lambda x, y: (x + y) ** 2 + x * y),
    SymmetricKernel(3, lambda x, y, z: x * y * z + np.cos(x + y + z)),
]


def _base(kind):
    """One coordinate law, repeated iid by the U-statistic tests."""
    if kind == "fair":
        return rademacher_coordinate("x")
    if kind == "biased":
        return rademacher_coordinate("x", p=0.2)
    size = int(kind.removeprefix("mixed"))
    rng = np.random.default_rng(size)
    raw = rng.uniform(0.1, 1.0, size=size)
    return Coordinate(
        id="m", labels=tuple(str(v) for v in range(size)), pmf=raw / raw.sum(),
        embedding=rng.normal(size=size),
    )


BASES = ["fair", "biased", "mixed2", "mixed3", "mixed4"]


@pytest.mark.parametrize("kind", BASES)
@pytest.mark.parametrize("h", KERNELS, ids=["m1", "m2", "m3"])
def test_degenerate_kernels_match_subset_recursion(kind, h):
    base = _base(kind)
    got = hoeffding_kernels(h, base).degenerate
    want = recursive_degenerate_kernels(h, base)
    scale = max(1.0, float(np.max(np.abs(h.table(base)))))
    assert len(got) == len(want) == h.arity
    for new, old in zip(got, want):
        assert new.shape == old.shape
        assert np.max(np.abs(new - old)) <= REL * scale


@pytest.mark.parametrize("kind", BASES)
@pytest.mark.parametrize("h", KERNELS, ids=["m1", "m2", "m3"])
def test_ustat_routes_match_pairwise_routes(kind, h):
    n = 5
    sp = iid_space(_base(kind), n)
    U = u_statistic(sp, h, n)
    scale = U.scale()
    groups = symmetric_clark_groups(sp, h, n)
    for new, old in zip(groups, pairwise_symmetric_clark_groups(sp, h, n)):
        assert (new - old).sup_norm() <= REL * scale
    rep = hoeffding_decompose(sp, h, n)
    assert np.max(np.abs(rep.gram - pairwise_gram(sp, rep.terms))) <= REL * scale**2
    # the old residual summed the symmetric terms against U - E[U]
    sym = clark_symmetric(sp, U)
    total = sp.constant(0.0)
    for T in sym.terms:
        total = total + T
    old = (total - (U - sym.mean)).sup_norm()
    assert abs(check_total_against_symmetric_clark(sp, h, n) - old) <= REL * scale


@pytest.mark.parametrize("kind", KINDS)
def test_covariance_identity_matches_prefix_route(kind):
    sp = _space(kind)
    rng = np.random.default_rng(3)
    F, G = _functionals(sp, rng)
    order = list(rng.permutation(sp.n))
    for A, B in ((F, G), (G, F), (G, G)):
        new = covariance_identity(sp, A, B, order)
        old = prefix_covariance_identity(sp, A, B, order)
        assert new[0] == old[0]
        assert abs(new[1] - old[1]) <= REL * A.scale() * B.scale()


@pytest.mark.parametrize("kind", KINDS)
def test_resampled_bound_matches_take_loop(kind):
    sp = _space(kind)
    rng = np.random.default_rng(4)
    family = smooth_test_family()[::8]
    for F in _functionals(sp, rng):
        F = F - expectation(sp, F)
        got = gaussian_bound_resampled(sp, F, family).t1
        want = take_loop_resampled_first_term(sp, F, family)
        assert abs(got - want) <= REL * F.scale() ** 2


@pytest.mark.parametrize("kind", KINDS)
def test_log_sobolev_and_tail_match_old_routes(kind):
    sp = _space(kind)
    rng = np.random.default_rng(5)
    for F in _functionals(sp, rng):
        G = F.apply(np.exp)
        assert log_sobolev(sp, G)[1] == two_average_log_sobolev_energy(sp, G)
        centred = F - expectation(sp, F)
        for x in np.linspace(centred.data.min(), centred.data.max(), 9):
            assert abs(exact_tail(sp, F, float(x)) - masked_exact_tail(sp, F, float(x))) <= REL
