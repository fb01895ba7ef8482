"""The one-coordinate average E_a behind `integrate_out`, every expectation and
the Hoeffding kernels, against the `tensordot` routes it replaced.

The small spaces cover every product form of the one-axis-at-a-time kernel
that tables of at most `SMALL_TABLE` entries take: the first stored axis
(pre = 1), the last (post = 1) and the axes between (one einsum pass).
Larger tables are averaged by runs of adjacent averaged axes; those cases
are checked against the tensordot route and against `axis_by_axis_average`,
the one-pass-per-axis kernel they replaced, and cover each kernel, run
breaks, the run-law cap and the kernel cache with its caps.
"""

from itertools import combinations
from math import prod
import tracemalloc

import numpy as np
import pytest

from dmc import space
from dmc.space import (
    Coordinate,
    Functional,
    _average,
    _kernel,
    _passes,
    _runs,
    build_space,
    expectation,
    integrate_out,
    iid_space,
    rademacher_coordinate,
    rademacher_space,
)
from dmc.stein import resample_integral
from dmc.ustat import SymmetricKernel, hoeffding_kernels

from .oracles import (
    axis_by_axis_average,
    sliced_weighted_sum,
    take_resample_integral,
    tensordot_hoeffding_kernels,
    tensordot_integrate_out,
    traced_peak,
)

REL = 1e-15


def _coordinate(cid, pmf):
    return Coordinate(id=cid, labels=tuple(range(len(pmf))), pmf=np.asarray(pmf),
                      embedding=np.arange(len(pmf), dtype=float))


SPACES = {
    "fair5": lambda: rademacher_space(5),
    "p02": lambda: build_space([rademacher_coordinate(f"x{i}", p=0.2) for i in range(5)]),
    "mixed234": lambda: build_space([
        _coordinate("a", [0.3, 0.7]),
        _coordinate("b", [0.2, 0.5, 0.3]),
        _coordinate("c", [0.1, 0.2, 0.3, 0.4]),
        _coordinate("d", [1 / 3, 1 / 3, 1 / 3]),
        _coordinate("e", [0.6, 0.4]),
    ]),
    "fair8": lambda: rademacher_space(8),
}


def _functionals(sp, rng):
    """A full table, one on the odd coordinates, and one with a length-1 first axis."""
    full = sp.from_table(rng.normal(size=sp.config_count))
    table = rng.normal(size=sp.shape)
    odd = sp.from_evaluator(
        lambda cfg: table[tuple(v if a % 2 else 0 for a, v in enumerate(cfg))],
        range(1, sp.n, 2),
    )
    tail = sp.from_evaluator(lambda cfg: table[(0,) + tuple(cfg[1:])], range(1, sp.n))
    return full, odd, tail


@pytest.mark.parametrize("kind", SPACES)
def test_every_axis_subset_matches_tensordot(kind):
    sp = SPACES[kind]()
    rng = np.random.default_rng(len(kind))
    for F in _functionals(sp, rng):
        tol = REL * F.scale()
        for r in range(1, sp.n + 1):
            for axes in combinations(range(sp.n), r):
                got = integrate_out(sp, F, axes)
                want = tensordot_integrate_out(sp, F, axes)
                assert got.deps == want.deps
                assert got.data.shape == want.data.shape
                assert np.max(np.abs(got.data - want.data)) <= tol, axes
        assert abs(expectation(sp, F) - sliced_weighted_sum(sp, F.data)) <= tol


@pytest.mark.parametrize("kind", SPACES)
def test_resample_integral_matches_take_loop(kind):
    sp = SPACES[kind]()
    rng = np.random.default_rng(len(kind))
    for F in _functionals(sp, rng):
        for a in range(sp.n):
            got = resample_integral(sp, F, a)
            want = take_resample_integral(sp, F, a)
            assert got.deps == want.deps
            tol = REL * max(1.0, want.sup_norm())
            assert np.max(np.abs(got.data - want.data)) <= tol, a


def test_unsorted_and_repeated_axes():
    sp = SPACES["mixed234"]()
    F = _functionals(sp, np.random.default_rng(1))[0]
    got = integrate_out(sp, F, [3, 1, 3])
    want = tensordot_integrate_out(sp, F, [1, 3])
    assert np.max(np.abs(got.data - want.data)) <= REL * F.scale()


FAIR = Coordinate(id="x", labels=("-1", "+1"), pmf=np.array([0.5, 0.5]),
                  embedding=np.array([-1.0, 1.0]))
SKEWED = Coordinate(id="s", labels=("a", "b", "c"), pmf=np.array([1 / 3, 1 / 2, 1 / 6]),
                    embedding=np.array([-1.0, 0.0, 2.0]))
KERNELS = {
    "m1_linear": SymmetricKernel(1, lambda x: x),
    "m2_product": SymmetricKernel(2, lambda x, y: x * y),
    "m3_product": SymmetricKernel(3, lambda x, y, z: x * y * z),
}


@pytest.mark.parametrize("base", [FAIR, SKEWED], ids=["fair", "skewed"])
@pytest.mark.parametrize("name", KERNELS)
def test_hoeffding_kernels_match_tensordot(base, name):
    h = KERNELS[name]
    got = hoeffding_kernels(h, base)
    theta, h_tables, degenerate = tensordot_hoeffding_kernels(h, base)
    tol = REL * max(1.0, float(np.max(np.abs(h.table(base)))))
    assert abs(got.theta - theta) <= tol
    for mine, theirs in zip(got.conditional_means + got.degenerate, h_tables + degenerate):
        assert mine.shape == theirs.shape
        assert np.max(np.abs(mine - theirs)) <= tol


def test_middle_axis_holds_half_the_table():
    sp = rademacher_space(16)
    F = sp.from_table(np.random.default_rng(0).normal(size=sp.config_count))
    for axis in (8, 14):  # a long-row and a short-row middle axis
        peak = traced_peak(lambda: integrate_out(sp, F, [axis]))
        # the averaged table is half of F; no copy of F and no temporary is made
        assert peak <= 0.55 * F.data.nbytes, axis


# -- runs of averaged axes on tables past SMALL_TABLE --------------------------


def _route(shape, axes):
    """The kernel of each run `_average` takes on a table of `shape`."""
    return [kernel for *_, kernel in _passes(shape, axes)]


def _check_both_oracles(sp, F, axes):
    got = integrate_out(sp, F, axes)
    tol = REL * F.scale()
    want = tensordot_integrate_out(sp, F, axes)
    assert got.deps == want.deps
    assert got.data.shape == want.data.shape
    assert np.max(np.abs(got.data - want.data)) <= tol, axes
    old = axis_by_axis_average(sp, F.data, sorted(set(axes)))
    assert old.shape == got.data.shape
    assert np.max(np.abs(got.data - old)) <= tol, axes


def _full(sp, seed=0):
    return sp.from_table(np.random.default_rng(seed).normal(size=sp.config_count))


def test_small_tables_keep_the_axis_by_axis_arithmetic():
    for kind in SPACES:
        sp = SPACES[kind]()
        assert sp.config_count <= space.SMALL_TABLE
        for F in _functionals(sp, np.random.default_rng(9)):
            for r in range(1, sp.n + 1):
                for axes in combinations(range(sp.n), r):
                    got = _average(sp, F.data, axes)
                    assert got.tobytes() == axis_by_axis_average(sp, F.data, axes).tobytes()


# one axis of fair n = 12 per kernel: (axis, kernel)
FAIR12_KERNELS = [
    (0, "gemv-left"),
    (11, "gemv-right"),
    (2, "matmul"),  # post = 512
    (9, "kron"),  # post = 4
    (7, "einsum"),  # post = 16, a row of 32 entries
]


@pytest.mark.parametrize("axis,kernel", FAIR12_KERNELS, ids=[k for _, k in FAIR12_KERNELS])
def test_each_kernel_matches_both_oracles(axis, kernel):
    sp = rademacher_space(12)
    assert sp.config_count > space.SMALL_TABLE
    assert _route(sp.shape, [axis]) == [kernel]
    _check_both_oracles(sp, _full(sp), [axis])


def test_kernel_is_chosen_from_the_shape():
    assert _kernel(1, 4096, 1) == "gemv-left"
    assert _kernel(7, 3, 1) == "gemv-right"
    assert _kernel(2, 2, space.MATMUL_ROW // 2) == "matmul"
    assert _kernel(2, space.MATMUL_ROW, 2) == "matmul"
    assert _kernel(2, 2, space.KRON_POST) == "kron"
    assert _kernel(2, 2, space.KRON_POST + 1) == "einsum"


def test_runs_break_at_kept_stored_axes_and_span_length_one_axes(monkeypatch):
    sp = rademacher_space(12)
    F = _full(sp, 1)
    # axis 4 is kept, so axes 2-3 and 5-6 are two runs
    assert _runs(F.data.shape, [2, 3, 5, 6]) == [(2, 3), (5, 6)]
    _check_both_oracles(sp, F, [2, 3, 5, 6])
    # stored on the odd axes only: the even axes between have length 1
    table = np.random.default_rng(2).normal(size=sp.shape)
    odd = sp.from_evaluator(
        lambda cfg: table[tuple(v if a % 2 else 0 for a, v in enumerate(cfg))], range(1, 12, 2)
    )
    monkeypatch.setattr(space, "SMALL_TABLE", 0)  # the odd table has 64 entries
    assert _runs(odd.data.shape, [1, 2, 3, 5, 8, 9]) == [(1, 3, 5), (9,)]
    assert _runs(odd.data.shape, range(1, 12, 2)) == [tuple(range(1, 12, 2))]
    for axes in ([1, 2, 3, 5, 8, 9], [3, 5, 7], range(12), [0, 2, 4], [11], [4, 5, 6, 7]):
        _check_both_oracles(sp, odd, axes)


def test_runs_past_the_law_cap_split():
    sp = rademacher_space(14)
    F = _full(sp, 3)
    assert 2**14 > space.RUN_LAW_CAP
    assert _runs(F.data.shape, range(14)) == [tuple(range(12)), (12, 13)]
    for axes in (range(14), range(1, 14), range(2, 14), range(13)):
        laws = [prod(F.data.shape[a] for a in run) for run in _runs(F.data.shape, axes)]
        assert max(laws) <= space.RUN_LAW_CAP
        _check_both_oracles(sp, F, axes)
    assert abs(expectation(sp, F) - sliced_weighted_sum(sp, F.data)) <= REL * F.scale()


def _skewed(k):
    pmf = np.arange(1, k + 1, dtype=float)
    return _coordinate(f"k{k}", pmf / pmf.sum())


LARGER = {
    "ternary7": lambda: iid_space(_skewed(3), 7),
    "quaternary6": lambda: iid_space(_skewed(4), 6),
    "mixed3434": lambda: build_space([
        _coordinate(f"m{i}", pmf) for i, pmf in enumerate([
            [0.2, 0.5, 0.3], [0.1, 0.2, 0.3, 0.4], [0.6, 0.3, 0.1],
            [0.25] * 4, [0.3, 0.7], [0.5, 0.2, 0.3],
        ])
    ]),
    "fair10": lambda: rademacher_space(10),
}


@pytest.mark.parametrize("kind", LARGER)
def test_every_subset_of_a_larger_space_matches_both_oracles(kind):
    sp = LARGER[kind]()
    assert sp.config_count > space.SMALL_TABLE
    for F in _functionals(sp, np.random.default_rng(len(kind))):
        for r in range(1, sp.n + 1):
            for axes in combinations(range(sp.n), r):
                _check_both_oracles(sp, F, axes)


@pytest.mark.parametrize("axis", [16, 17, 18])
def test_trailing_axes_of_fair_20(axis):
    sp = rademacher_space(20)
    assert _route(sp.shape, [axis]) == ["kron"]
    _check_both_oracles(sp, _full(sp, axis), [axis])


def test_a_view_only_when_every_averaged_axis_has_length_one():
    """`mix` relies on it: E_a of a length-1 axis is a view, any other call a fresh array."""
    for sp in (rademacher_space(5), rademacher_space(12)):
        table = np.random.default_rng(4).normal(size=sp.shape)
        odd = sp.from_evaluator(
            lambda cfg: table[tuple(v if a % 2 else 0 for a, v in enumerate(cfg))],
            range(1, sp.n, 2),
        )
        for data in (odd.data, _full(sp).data):
            for r in range(1, 4):
                for axes in combinations(range(sp.n), r):
                    got = _average(sp, data, axes)
                    if all(data.shape[a] == 1 for a in axes):
                        assert np.shares_memory(got, data), axes
                    else:
                        assert not np.shares_memory(got, data), axes


# -- the kernel cache ----------------------------------------------------------


def _every_subset_through(sp, F, after):
    for r in range(1, sp.n + 1):
        for axes in combinations(range(sp.n), r):
            integrate_out(sp, F, axes)
            after()


def test_cache_is_bitwise_neutral():
    for make in (lambda: rademacher_space(13), LARGER["mixed3434"]):
        first, second = make(), make()
        table = np.random.default_rng(5).normal(size=first.shape)
        for r in (1, 2, 3, first.n):
            for axes in combinations(range(first.n), r):
                cold = Functional(first, table, frozenset(range(first.n)))
                first._kernels.clear()
                got = integrate_out(first, cold, axes).data.tobytes()
                assert integrate_out(first, cold, axes).data.tobytes() == got, axes  # warm
                other = second.from_table(table)
                assert integrate_out(second, other, axes).data.tobytes() == got, axes


def _check_caps(sp):
    cache = sp._kernels
    for (kind, run, *post), table in cache.items():
        cap = space.RUN_LAW_CAP if kind == "law" else space.KRON_BLOCK_CAP
        assert table.size <= cap, (kind, run, post)
    assert sum(t.nbytes for t in cache.values()) <= space.KERNEL_CACHE_BYTES


def test_cache_stays_under_its_caps(monkeypatch):
    sp = rademacher_space(12)
    _every_subset_through(sp, _full(sp, 6), lambda: _check_caps(sp))
    assert sp._kernels  # the subsets built laws and blocks
    # mixed234 (144 entries) takes the runs only with the small-table path off
    monkeypatch.setattr(space, "SMALL_TABLE", 0)
    mixed = SPACES["mixed234"]()
    F = _functionals(mixed, np.random.default_rng(6))[0]
    _every_subset_through(mixed, F, lambda: _check_caps(mixed))
    # a budget of two of the largest laws: the cache is emptied rather than grown past it
    monkeypatch.setattr(space, "KERNEL_CACHE_BYTES", 2 * 8 * space.RUN_LAW_CAP)
    small = rademacher_space(12)
    _every_subset_through(small, _full(small, 7), lambda: _check_caps(small))


def test_a_kronecker_block_past_its_cap_is_never_allocated(monkeypatch):
    # with these every post would take a block; only the entry cap stops it
    monkeypatch.setattr(space, "MATMUL_ROW", 10**18)
    monkeypatch.setattr(space, "KRON_POST", 10**18)
    built = []
    kron = np.kron
    monkeypatch.setattr(np, "kron", lambda a, b: built.append(a.size * b.size) or kron(a, b))
    sp = rademacher_space(14)
    F = _full(sp, 8)
    tracemalloc.start()
    try:
        # post doubles from axis to axis, so a block past the cap shows at
        # axis 8 (2 * 32^2 entries), long before axis 1 would ask for 256 MiB
        for axis in range(12, 0, -1):
            integrate_out(sp, F, [axis])
            assert max(built) <= space.KRON_BLOCK_CAP, axis
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.75 * F.data.nbytes
    _check_caps(sp)
    _check_both_oracles(sp, F, [3])
