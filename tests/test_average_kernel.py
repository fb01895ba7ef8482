"""The one-coordinate average E_a behind `integrate_out`, every expectation and
the Hoeffding kernels, against the `tensordot` routes it replaced.

The spaces cover every product form of the kernel: the first stored axis
(pre = 1), the last (post = 1) and the axes between (one einsum pass).
"""

from itertools import combinations

import numpy as np
import pytest

from dmc.space import (
    Coordinate,
    build_space,
    expectation,
    integrate_out,
    rademacher_coordinate,
    rademacher_space,
)
from dmc.stein import resample_integral
from dmc.ustat import SymmetricKernel, hoeffding_kernels

from .oracles import (
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
