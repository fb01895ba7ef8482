"""Full-grid operators that hold O(1) tables, against the routes they replaced.

`number_operator` sums the averages E_aF into one table, `poincare` takes
the energy as the Dirichlet form -E[(F - E F) LF], `mix` and `concentration`
update one running table in place, `clark` and `clark_reverse` take the
report Gram along their drop chain, and the report residual and `variance`
work in place on one table.  Each is checked against its old route
in `oracles`, on every input it could alias, and against a tracemalloc
budget on a full fair table.
"""


import numpy as np
import pytest

from dmc import calculus, semigroup
from dmc.calculus import invert_number_operator, mix, number_operator
from dmc.decompose import clark, clark_reverse, clark_symmetric, poincare
from dmc.inequalities import concentration
from dmc.limits import WALK_BLOCK, WalkScheme, time_integral_functional, walk_form
from dmc.semigroup import mehler_apply, resolvent
from dmc.space import (
    SMALL_TABLE,
    Coordinate,
    build_space,
    expectation,
    rademacher_coordinate,
    rademacher_space,
    variance,
)
from .oracles import (
    allocating_concentration,
    allocating_mix,
    column_loop_walk_form,
    full_row_gram,
    gradient_energy_poincare,
    gradient_sum_number_operator,
    in_order_residual,
    mobius_anova,
    new_table_residual,
    squared_difference_variance,
    traced_peak,
)
from .test_quadrature_routes import _mixed_space

REL = 1e-14
RUN_REL = 1e-15  # the bound `test_average_kernel` holds the run kernels of `_average` to
KINDS = ["fair", "biased", "mixed"]


def _space(kind):
    if kind == "fair":
        return rademacher_space(6)
    if kind == "biased":
        return build_space([rademacher_coordinate(f"x{i}", p=0.2) for i in range(6)])
    return _mixed_space((2, 3, 4, 3, 2, 4), np.random.default_rng(4))


def _on(sp, table, deps):
    return sp.from_evaluator(
        lambda cfg: table[tuple(v if a in deps else 0 for a, v in enumerate(cfg))], deps
    )


def _functionals(sp, rng):
    """A full table, a compact one on two coordinates, and one that ignores coordinate 2."""
    table = rng.normal(size=sp.shape)
    return (
        sp.from_table(rng.normal(size=sp.config_count)),
        _on(sp, table, {1, 3}),
        _on(sp, table, set(range(sp.n)) - {2}),
    )


ORDERS = [None, [3, 0, 5, 2, 4, 1]]


def _same(got, want):
    """Bitwise equal tables (signed zeros included) with equal dependency sets."""
    assert got.deps == want.deps
    assert got.data.shape == want.data.shape
    assert got.data.tobytes() == want.data.tobytes()


@pytest.mark.parametrize("kind", KINDS)
def test_number_operator_matches_the_gradient_sum(kind):
    sp = _space(kind)
    for F in _functionals(sp, np.random.default_rng(1)):
        got, want = number_operator(sp, F), gradient_sum_number_operator(sp, F)
        assert got.deps == want.deps and got.data.shape == want.data.shape
        assert np.max(np.abs(got.data - want.data)) <= REL * F.scale()
    assert number_operator(sp, sp.constant(2.5)).data.tobytes() == sp.constant(0.0).data.tobytes()


@pytest.mark.parametrize("kind", KINDS)
def test_poincare_energy_is_the_dirichlet_form(kind):
    sp = _space(kind)
    for F in _functionals(sp, np.random.default_rng(2)):
        (var, energy), (old_var, old_energy) = poincare(sp, F), gradient_energy_poincare(sp, F)
        assert var == old_var
        assert abs(energy - old_energy) <= REL * F.scale() ** 2
        assert var <= energy + REL * F.scale() ** 2
    assert poincare(sp, sp.constant(-1.5)) == (0.0, 0.0)


def _check_mixing_routes(sp, monkeypatch, same):
    """`mix`, P_t, L^-1 and the resolvent against the same over `allocating_mix`."""
    cases = []
    for F in _functionals(sp, np.random.default_rng(3)):
        for u, frozen in ((0.3, ()), (0.77, {1})):
            same(mix(sp, F, u, frozen), allocating_mix(sp, F, u, frozen), F)
        centred = F - expectation(sp, F)
        cases.append((F, centred, mehler_apply(sp, F, 0.4, frozen={3}),
                      invert_number_operator(sp, centred), resolvent(sp, F, frozen={0})))
    # P_t, L^-1 and the resolvent again, over the allocating M_u
    monkeypatch.setattr(calculus, "mix", allocating_mix)
    monkeypatch.setattr(semigroup, "mix", allocating_mix)
    for F, centred, P, inverse, R in cases:
        same(P, mehler_apply(sp, F, 0.4, frozen={3}), F)
        same(inverse, invert_number_operator(sp, centred), F)
        same(R, resolvent(sp, F, frozen={0}), F)


@pytest.mark.parametrize("kind", ["fair", "biased"])
def test_mixing_routes_are_bit_identical(kind, monkeypatch):
    sp = _space(kind)
    assert sp.config_count <= SMALL_TABLE  # the per-axis route, bit for bit
    _check_mixing_routes(sp, monkeypatch, lambda got, want, F: _same(got, want))


def _close(got, want, F):
    """Equal dependency sets and compact shapes, and tables within `RUN_REL` of F's scale."""
    assert got.deps == want.deps
    assert got.data.shape == want.data.shape
    assert np.max(np.abs(got.data - want.data)) <= RUN_REL * F.scale()


@pytest.mark.parametrize("kind", ["mixed"])
def test_mixing_run_route_matches_the_allocating_route(kind, monkeypatch):
    """576 entries: `mix` contracts runs of axes, so it rounds unlike the per-axis route."""
    sp = _space(kind)
    assert sp.config_count > SMALL_TABLE
    _check_mixing_routes(sp, monkeypatch, _close)


@pytest.mark.parametrize("kind", KINDS)
def test_mixing_is_the_weighted_mobius_sum(kind):
    """M_u F = sum_S u^|S - frozen| F_S, with F_S by the literal Moebius sum."""
    sp = _space(kind)
    for F in _functionals(sp, np.random.default_rng(3)):
        components = mobius_anova(sp, F)
        for u, frozen in ((0.3, set()), (0.77, {1}), (0.0, {0, 5}), (1.0, set())):
            want = sum((G.values * u ** len(S - frozen) for S, G in components.items()),
                       np.zeros(sp.shape))
            got = mix(sp, F, u, frozen)
            assert got.deps == F.deps
            assert np.max(np.abs(got.values - want)) <= REL * F.scale(), (u, frozen)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("order", ORDERS)
def test_concentration_is_bit_identical(kind, order):
    sp = _space(kind)
    for F in _functionals(sp, np.random.default_rng(4)):
        M, bound = concentration(sp, F, order)
        assert M == allocating_concentration(sp, F, order)
        assert bound(1.0) == (np.exp(-1.0 / (2.0 * M)) if M > 0.0 else 0.0)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("order", ORDERS)
def test_chain_gram_matches_the_full_row_gram(kind, order):
    sp = _space(kind)
    for F in _functionals(sp, np.random.default_rng(5)):
        scale = F.scale()
        for rep in (clark(sp, F, order), clark_reverse(sp, F, order)):
            assert np.max(np.abs(rep.gram - full_row_gram(sp, rep.terms))) <= REL * scale**2
            assert abs(rep.residual - in_order_residual(sp, F, rep.terms)) <= REL * scale
            assert rep.variance_pair[1] == float(np.trace(rep.gram))
            # a coordinate F ignores has the constant term 0, whose row is exactly 0
            for i, k in enumerate(rep.order):
                if k not in F.deps:
                    assert rep.terms[i].sup_norm() == 0.0
                    assert not rep.gram[i].any() and not rep.gram[:, i].any()


def _check_in_place_arithmetic(sp, F):
    assert variance(sp, F) == squared_difference_variance(sp, F)
    reverse = list(range(sp.n))[::-1]
    for rep in (clark(sp, F), clark_reverse(sp, F, reverse), clark_symmetric(sp, F)):
        assert rep.residual == new_table_residual(sp, F, rep.terms)


@pytest.mark.parametrize("kind", KINDS)
def test_residual_and_variance_in_place_are_bit_identical(kind):
    sp = _space(kind)
    for F in _functionals(sp, np.random.default_rng(7)):
        _check_in_place_arithmetic(sp, F)


def test_residual_and_variance_in_place_on_a_full_fair_table():
    sp = rademacher_space(12)
    _check_in_place_arithmetic(sp, sp.from_table(np.random.default_rng(8).normal(size=sp.config_count)))


def _with_single_outcomes():
    """Mixed coordinates with one-outcome coordinates at 0 and 3."""
    sizes = (1, 2, 3, 1, 2)
    return build_space([
        Coordinate(id=f"s{i}", labels=tuple(str(v) for v in range(k)), pmf=np.full(k, 1.0 / k))
        for i, k in enumerate(sizes)
    ])


def test_operators_never_write_their_input():
    sp = _with_single_outcomes()
    rng = np.random.default_rng(6)
    table = rng.normal(size=sp.config_count)
    held = table.copy()
    F = sp.from_table(table)
    assert np.shares_memory(F.data, table)  # from_table keeps the caller's array
    compact = _on(sp, rng.normal(size=sp.shape), {0, 2, 3})  # stored length 1 on axes 0, 3
    operations = {
        "mix": lambda G: mix(sp, G, 0.4),
        "mehler_apply": lambda G: mehler_apply(sp, G, 0.3),
        "number_operator": lambda G: number_operator(sp, G),
        "poincare": lambda G: poincare(sp, G),
        "concentration": lambda G: concentration(sp, G, [4, 3, 2, 1, 0]),
        "clark": lambda G: clark(sp, G),
        "clark_reverse": lambda G: clark_reverse(sp, G, [2, 0, 4, 3, 1]),
    }
    for G in (F, compact):
        before = G.data.tobytes()
        for name, op in operations.items():
            op(G)
            assert G.data.tobytes() == before, name
        _same(mix(sp, G, 0.4), allocating_mix(sp, G, 0.4))
        assert concentration(sp, G)[0] == allocating_concentration(sp, G)
    assert table.tobytes() == held.tobytes()


def _peak_in_tables(call, F):
    return (traced_peak(call) - 4096) / F.data.nbytes  # 4 KiB covers the array headers


# peaks on a full fair n = 16 table, in tables; the replaced routes read
# mix 3.64, number_operator 3.01, poincare 2.76, concentration 4.01, clark 20.2
# (4.04 with the residual as new tables and variance squaring a difference)
PEAK_TABLES = {
    "mix": (lambda sp, F: mix(sp, F, 0.3), 1.64),
    "number_operator": (number_operator, 1.64),
    "poincare": (poincare, 2.01),
    "concentration": (concentration, 2.76),
    "clark": (clark, 3.80),
    "clark_reverse": (clark_reverse, 3.80),
}


@pytest.mark.parametrize("name", sorted(PEAK_TABLES))
def test_full_grid_operators_hold_a_few_tables(name):
    sp = rademacher_space(16)
    F = sp.from_table(np.random.default_rng(0).normal(size=sp.config_count))
    op, bound = PEAK_TABLES[name]
    assert _peak_in_tables(lambda: op(sp, F), F) <= bound


def _check_walk_form(N, seed, trials, inner=64):
    F, scheme = time_integral_functional(), WalkScheme(N)
    rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
    new = walk_form(F, scheme, rng=rng_new, trials=trials, inner=inner)
    old = column_loop_walk_form(F, scheme, rng_old, trials=trials, inner=inner)
    assert rng_new.bit_generator.state == rng_old.bit_generator.state  # same draws
    assert abs(new.value - old.value) <= REL * abs(old.value)
    assert abs(new.se - old.se) <= 1e-12 * old.se
    assert not new.exact


@pytest.mark.parametrize("N", [1, 8, 64])
@pytest.mark.parametrize("seed", [5, 6])
def test_walk_form_matches_the_column_loop(N, seed):
    _check_walk_form(N, seed, trials=400)


# (N, trials, inner) past the edges of the step blocks of WALK_BLOCK entries;
# the inner mean and variance are two variates per trial at any `inner`
WALK_BLOCK_CASES = {
    "trials-not-whole-blocks": (64, 2 * (WALK_BLOCK // 64) + 3, 64),
    "N-over-one-block": (WALK_BLOCK + 3, 3, 64),
    "inner-over-one-block": (8, 5, WALK_BLOCK + 7),
}


@pytest.mark.parametrize("case", sorted(WALK_BLOCK_CASES))
def test_walk_form_blocks_match_the_column_loop(case):
    N, trials, inner = WALK_BLOCK_CASES[case]
    _check_walk_form(N, 5, trials, inner)


def test_walk_form_allocates_no_second_step_table():
    # a (trials, N) step table is 39 MiB at N = 256; the route keeps a few
    # trials vectors and one reused block of steps
    trials = 20000
    for N in (8, 256):
        F, scheme = time_integral_functional(), WalkScheme(N)
        peak = traced_peak(
            lambda: walk_form(F, scheme, rng=np.random.default_rng(7), trials=trials)
        )
        assert peak <= 2.5 * 2**20
