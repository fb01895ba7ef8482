"""Single-average routes against the slow routes in `oracles`.

`anova` and `clark_symmetric` build everything from one-coordinate averages
(`clark_symmetric` one term per coordinate, checked against the subset sum of
that coordinate's share),
`check_stationarity` pushes the law through one jump without the m x m
kernel, and `simulate_terminal` finds each path's last jumps without a loop
and without a sort.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dmc import calculus
from dmc.calculus import anova, order_layers
from dmc.decompose import clark_symmetric
from dmc.randomized import random_space
from dmc.semigroup import check_stationarity, simulate_terminal
from dmc.space import build_space, expectation, rademacher_coordinate, rademacher_space
from .oracles import (
    functional_node_anova,
    kernel_stationarity,
    loop_simulate_terminal,
    mobius_anova,
    subset_symmetric_term,
    traced_peak,
    unique_simulate_terminal,
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
    _same_nodes(got, functional_node_anova(sp, F).components)
    zero = np.zeros(sp.shape)
    for S in set(got) | set(want):
        new = got[S].values if S in got else zero
        old = want[S].values if S in want else zero
        assert np.max(np.abs(new - old)) <= REL * F.scale()


def _same_nodes(got, want, exact=False):
    """The same keys, in the same order, with the same deps and shapes.

    The tables agree to 1e-15 * scale, scale = max(1, sup of `want`'s
    components): the Hoeffding table averages each axis over every node at
    once, which can round a node 1 ulp away from the split.  For the same
    reason a node that is 0 in exact arithmetic can come out exactly 0 on
    one side, which drops it, and a rounding residue on the other: a key on
    one side only is accepted when its component is within that bound, and
    the common keys come in the same order.  With `exact` the keys are the
    same and the tables bitwise equal.
    """
    scale = max([1.0] + [G.sup_norm() for G in want.values()])
    if exact:
        assert list(got) == list(want)
    for one, other in ((got, want), (want, got)):
        for S in one.keys() - other.keys():
            assert one[S].sup_norm() <= 1e-15 * scale, S
    assert [S for S in got if S in want] == [S for S in want if S in got]
    for S, G in got.items():
        if S not in want:
            continue
        assert G.deps == S == want[S].deps
        assert G.data.shape == want[S].data.shape
        if exact:
            assert G.data.tobytes() == want[S].data.tobytes()
        else:
            assert np.max(np.abs(G.data - want[S].data)) <= 1e-15 * scale


def _check_clark_symmetric(sp, F):
    rep = clark_symmetric(sp, F)
    terms = [subset_symmetric_term(sp, F, b) for b in range(sp.n)]
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


@given(
    sizes=st.lists(st.sampled_from([2, 3, 4]), min_size=1, max_size=6),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=30, deadline=None)
# the fourth functional ignores coordinate 1: `anova` drops that node as
# exactly 0, where the node split keeps it at -5.55e-17
@example(sizes=[4, 2], seed=5095)
def test_anova_matches_the_functional_node_split(sizes, seed):
    rng = np.random.default_rng(seed)
    sp = _mixed_space(sizes, rng)
    fair = rademacher_space(len(sizes))
    # integer tables on fair coordinates average exactly, so many nodes are exactly 0
    rounded = fair.from_table(rng.integers(-1, 2, size=fair.config_count).astype(float))
    _same_nodes(
        anova(fair, rounded).components, functional_node_anova(fair, rounded).components, exact=True
    )
    for F in (*_functionals(sp, rng), sp.from_table(np.round(rng.normal(size=sp.config_count)))):
        _same_nodes(anova(sp, F).components, functional_node_anova(sp, F).components)


def test_anova_keeps_a_node_holding_nan():
    sp = rademacher_space(3)
    table = np.zeros(sp.shape)
    table[1, 0, 1] = np.nan
    dec = anova(sp, sp.from_table(table))
    # every node of the split holds the NaN, and none is hidden as the constant 0
    assert len(dec.components) == 2**sp.n
    assert all(np.isnan(G.data).any() for G in dec.components.values())
    assert np.isnan(dec.reconstruct().values).all()
    # the sup-norm test of the replaced split read NaN > 0 as false and dropped them
    assert set(functional_node_anova(sp, sp.from_table(table)).components) == {frozenset()}


def test_anova_keeps_the_empty_component():
    sp = rademacher_space(3)
    X0 = sp.coordinate_functional(0)
    assert set(anova(sp, X0).components) == {frozenset(), frozenset({0})}
    assert set(anova(sp, sp.constant(0.0)).components) == {frozenset()}
    # E_0 (X0 X2) is exactly zero, so only the empty node survives that branch
    dec = anova(sp, X0 * sp.coordinate_functional(2))
    assert set(dec.components) == {frozenset(), frozenset({0, 2})}
    assert dec.component(set()).sup_norm() == 0.0


def test_order_sums_never_fill_the_table(monkeypatch):
    """`order_sum` and `reconstruct` read the averages of `order_layers` and make no
    other; the first read of `components` adds one pass per dependency, the next none."""
    calls = []

    def counted(space, data, axes, average=calculus._average):
        calls.append(tuple(axes))
        return average(space, data, axes)

    monkeypatch.setattr(calculus, "_average", counted)
    sp = _space("mixed2")
    for F in (*_functionals(sp, np.random.default_rng(5)), sp.constant(2.5)):
        order_layers(sp, F)
        want, calls[:] = list(calls), []
        dec = anova(sp, F)
        for k in range(sp.n + 1):
            dec.order_sum(k)
        dec.reconstruct()
        assert calls == want
        dec.components
        dec.component(sorted(F.deps))
        assert calls[len(want):] == [(a,) for a in sorted(F.deps)]
        calls[:] = []


def test_anova_leaves_the_callers_array_writeable():
    sp = rademacher_space(3)
    for F in (sp.constant(2.5), sp.from_table(np.arange(sp.config_count, dtype=float))):
        dec = anova(sp, F)
        dec.components
        assert F.data.flags.writeable
        assert not any(dec.order_sum(k).data.flags.writeable for k in range(len(F.deps) + 1))
        assert (dec.reconstruct() - F).sup_norm() <= 1e-15 * F.scale()


def _check_terminal(sizes, t, seed, size):
    sp = _mixed_space(sizes, np.random.default_rng(seed))
    x0 = [k - 1 for k in sizes]
    rng = np.random.default_rng(seed)
    got = simulate_terminal(sp, x0, t, rng, size)
    assert got.shape == (size, sp.n)
    for oracle in (loop_simulate_terminal, unique_simulate_terminal):
        their_rng = np.random.default_rng(seed)
        want = oracle(sp, x0, t, their_rng, size)
        assert got.dtype == want.dtype and np.array_equal(got, want), oracle.__name__
        assert rng.bit_generator.state == their_rng.bit_generator.state, oracle.__name__
    return got


@pytest.mark.parametrize("sizes", [(2, 2, 2), (3, 2, 4, 2, 3, 2)])
@pytest.mark.parametrize("t", [0.0, 0.05, 0.7, 3.0])
@pytest.mark.parametrize("seed", [0, 17])
def test_terminal_states_match_the_jump_loop(sizes, t, seed):
    size = 2000
    got = _check_terminal(sizes, t, seed, size)
    if 0.0 < t < 0.1:
        # some paths never jump and keep x0
        x0 = [k - 1 for k in sizes]
        counts = np.random.default_rng(seed).poisson(len(sizes) * t, size=size)
        assert (counts == 0).any()
        assert np.array_equal(got[counts == 0], np.tile(x0, ((counts == 0).sum(), 1)))


@pytest.mark.parametrize("sizes", [(2, 2, 2), (4, 4), (3, 2, 4, 2, 3, 2)])
@pytest.mark.parametrize("t", [0.0, 0.7, 5.0])
@pytest.mark.parametrize("size", [0, 1, 3])
def test_terminal_states_of_a_few_paths(sizes, t, size):
    _check_terminal(sizes, t, 5, size)


def test_terminal_states_hold_a_few_result_sizes():
    sp = rademacher_space(3)

    def draw():
        return simulate_terminal(sp, [0, 1, 0], 0.7, np.random.default_rng(0), 100_000)

    out_bytes = draw().nbytes
    peak = traced_peak(draw)
    # the result, the end offsets, the coordinate of each jump and one
    # coordinate's hits: measured 3.2 results, where sorting a cell per jump
    # peaked at 6.7
    assert peak <= 3.5 * out_bytes + 4096
