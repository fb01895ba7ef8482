"""The mixing operator M_u on tables past `SMALL_TABLE` entries, by runs of axes.

There `mix` contracts each run of adjacent mixed axes against the run's
matrix in one pass, so it rounds unlike the one-coordinate-at-a-time
arithmetic of `allocating_mix`; the two are held to the bound that
`test_average_kernel` holds the run kernels of `_average` to.  The cases
cover fair, 3- and 4-outcome and mixed coordinates, frozen coordinates that
break a run, compact tables, runs split at `MIX_RUN_CAP` and every kernel,
and the exact properties: M_1 is the identity, F is never written, the
cache is bitwise neutral, and the blocked write-back agrees with one pass.
"""

from itertools import combinations

import numpy as np
import pytest

from dmc import calculus, space
from dmc.calculus import (
    MIX_RUN_CAP,
    _mix_passes,
    invert_number_operator,
    legendre_nodes,
    mix,
)
from dmc.semigroup import mehler_apply
from dmc.space import (
    Functional,
    build_space,
    expectation,
    iid_space,
    rademacher_space,
)

from .oracles import allocating_mix
from .test_average_kernel import _skewed
from .test_full_grid_operators import _on
from .test_quadrature_routes import _mixed_space

REL = 1e-15
LEGENDRE_U = legendre_nodes(11)[2][0]
US = [0.0, 1.0, LEGENDRE_U]


SPACES = {
    "fair10": lambda: rademacher_space(10),
    "fair12": lambda: rademacher_space(12),
    "ternary7": lambda: iid_space(_skewed(3), 7),
    "quaternary6": lambda: iid_space(_skewed(4), 6),
    "mixed2343243": lambda: _mixed_space((2, 3, 4, 3, 2, 4, 3), np.random.default_rng(4)),
}


def _functionals(sp, rng):
    """A full table and two compact ones past `SMALL_TABLE` entries: one
    without the coordinate in the middle, one without the last."""
    table = rng.normal(size=sp.shape)
    full = sp.from_table(table)
    middle = _on(sp, table, set(range(sp.n)) - {sp.n // 2})
    head = _on(sp, table, range(sp.n - 1))
    for F in (middle, head):
        assert set(F.deps) < set(range(sp.n))
        assert F.data.size > space.SMALL_TABLE
    return full, middle, head


def _frozen_sets(n):
    """None, one that breaks a run in the middle, the first, and every other axis."""
    return [set(), {n // 2}, {0, n - 1}, set(range(1, n, 2))]


def _check(sp, F, u, frozen):
    got = mix(sp, F, u, frozen)
    want = allocating_mix(sp, F, u, frozen)
    assert got.deps == want.deps
    assert got.data.shape == want.data.shape == F.data.shape
    assert np.max(np.abs(got.data - want.data)) <= REL * F.scale(), (u, frozen)
    return got


@pytest.mark.parametrize("kind", SPACES)
def test_runs_match_the_allocating_route(kind):
    sp = SPACES[kind]()
    assert sp.config_count > space.SMALL_TABLE
    for F in _functionals(sp, np.random.default_rng(len(kind))):
        for u in US:
            for frozen in _frozen_sets(sp.n):
                _check(sp, F, u, frozen)


def test_every_kernel_is_taken():
    kernels = set()
    for kind, make in SPACES.items():
        sp = make()
        for F in _functionals(sp, np.random.default_rng(1)):
            for frozen in _frozen_sets(sp.n):
                axes = sorted(F.deps - frozen)
                kernels.update(k for *_, k in _mix_passes(F.data.shape, axes))
    assert kernels == {"gemv-left", "gemv-right", "matmul", "kron"}


def test_frozen_axes_break_runs_and_runs_split_at_the_cap():
    shape = (2,) * 12
    assert [run for run, *_ in _mix_passes(shape, range(12))] == [
        (0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11)]
    # axis 5 is frozen, so axes 4 and 6 are in different runs
    axes = [a for a in range(12) if a != 5]
    assert [run for run, *_ in _mix_passes(shape, axes)] == [
        (0, 1, 2, 3), (4,), (6, 7, 8, 9), (10, 11)]
    # length-1 axes (coordinates F ignores) do not break a run
    assert [run for run, *_ in _mix_passes((2, 1, 2, 2, 1, 2), [0, 2, 3, 5])] == [(0, 2, 3, 5)]
    # 3 * 3 * 3 and 4 * 4 * 4 pass the cap: runs of two axes
    assert [run for run, *_ in _mix_passes((3,) * 7, range(7))] == [(0, 1), (2, 3), (4, 5), (6,)]
    assert [run for run, *_ in _mix_passes((4,) * 6, range(6))] == [(0, 1), (2, 3), (4, 5)]
    for sp in (rademacher_space(12), SPACES["ternary7"](), SPACES["quaternary6"]()):
        F = sp.from_table(np.random.default_rng(2).normal(size=sp.config_count))
        for r in (1, 2, sp.n - 1):
            for frozen in combinations(range(sp.n), r):
                passes = list(_mix_passes(F.data.shape, sorted(set(range(sp.n)) - set(frozen))))
                assert all(K <= MIX_RUN_CAP for _, _, K, _, _ in passes)
                _check(sp, F, LEGENDRE_U, set(frozen))


@pytest.mark.parametrize("kind", SPACES)
def test_identity_at_u_one_and_input_never_written(kind):
    sp = SPACES[kind]()
    for F in _functionals(sp, np.random.default_rng(3)):
        before = F.data.tobytes()
        for frozen in _frozen_sets(sp.n):
            assert mix(sp, F, 1.0, frozen).data.tobytes() == before, frozen
            for u in US:
                got = mix(sp, F, u, frozen)
                assert not np.shares_memory(got.data, F.data) or got is F
                assert F.data.tobytes() == before, (u, frozen)
        mehler_apply(sp, F, 0.4)
        assert F.data.tobytes() == before


def test_cache_is_bitwise_neutral():
    for make in (SPACES["fair12"], SPACES["mixed2343243"]):
        first, second = make(), make()
        table = np.random.default_rng(5).normal(size=first.shape)
        for frozen in _frozen_sets(first.n):
            for u in US:
                F = Functional(first, table, frozenset(range(first.n)))
                first._kernels.clear()
                cold = mix(first, F, u, frozen).data.tobytes()
                assert mix(first, F, u, frozen).data.tobytes() == cold, (u, frozen)  # warm
                other = second.from_table(table)
                assert mix(second, other, u, frozen).data.tobytes() == cold, (u, frozen)


def test_blocked_write_back_matches_one_pass(monkeypatch):
    for make in (lambda: rademacher_space(14), SPACES["mixed2343243"], SPACES["ternary7"]):
        sp = make()
        F = sp.from_table(np.random.default_rng(6).normal(size=sp.config_count))
        for frozen in _frozen_sets(sp.n):
            results = {}
            for block in (1, 1024, calculus.MIX_BLOCK_BYTES, 1 << 40):
                monkeypatch.setattr(calculus, "MIX_BLOCK_BYTES", block)
                results[block] = mix(sp, F, LEGENDRE_U, frozen).data
            one_pass = results.pop(1 << 40)
            for block, got in results.items():
                assert np.max(np.abs(got - one_pass)) <= REL * F.scale(), (block, frozen)


def _recorded_tables(monkeypatch):
    """Every table `mix` asks the cache for, as (key, entries)."""
    seen = []
    cached = calculus._cached

    def recording(sp, key, build):
        table = cached(sp, key, build)
        seen.append((key, table.size))
        return table

    monkeypatch.setattr(calculus, "_cached", recording)
    return seen


def _check_cache(sp, seen):
    assert sum(t.nbytes for t in sp._kernels.values()) <= space.KERNEL_CACHE_BYTES
    for (kind, run, u, *cols), entries in seen:
        cap = MIX_RUN_CAP**2 if kind == "mix" else space.KRON_BLOCK_CAP
        assert entries <= cap, (kind, run, u, cols)


def test_cache_stays_under_its_caps(monkeypatch):
    seen = _recorded_tables(monkeypatch)
    sp = rademacher_space(12)
    F = sp.from_table(np.random.default_rng(7).normal(size=sp.config_count))
    for t in np.linspace(0.01, 4.0, 200):
        mehler_apply(sp, F, float(t))
        _check_cache(sp, seen)
    assert len({key for key, _ in seen}) == 3 * 200  # three runs at each distinct t
    mixed = _mixed_space((2, 3, 4, 3, 2, 4), np.random.default_rng(4))
    G = mixed.from_table(np.random.default_rng(8).normal(size=mixed.config_count))
    seen.clear()
    centred = G - expectation(mixed, G)
    invert_number_operator(mixed, centred)
    invert_number_operator(mixed, centred)
    _check_cache(mixed, seen)
    assert seen and max(entries for _, entries in seen) <= MIX_RUN_CAP**2


def test_small_tables_take_the_per_axis_route():
    """At most `SMALL_TABLE` entries, `mix` is the in-place per-axis loop, bit for bit."""
    sp = build_space([_skewed(k) for k in (2, 3, 4, 2, 5)])
    assert sp.config_count <= space.SMALL_TABLE
    F = sp.from_table(np.random.default_rng(9).normal(size=sp.config_count))
    for u in US + [0.3]:
        for frozen in _frozen_sets(sp.n):
            got, want = mix(sp, F, u, frozen), allocating_mix(sp, F, u, frozen)
            assert got.data.tobytes() == want.data.tobytes(), (u, frozen)
    assert not sp._kernels  # no run matrix was built
