from math import comb

import numpy as np
import pytest

from dmc import ustat
from dmc.cli import main
from dmc.errors import ArityError, BadKernel, ExactModeOverflow, NotIID
from dmc.space import Coordinate, build_space, iid_space, rademacher_coordinate, rademacher_space
from dmc.ustat import (
    SymmetricKernel,
    check_total_against_symmetric_clark,
    degeneracy_order,
    hoeffding_decompose,
    hoeffding_kernels,
    hoeffding_via_projections,
    _subset_sum,
    symmetric_clark_groups,
    u_statistic,
)
from dmc.calculus import number_operator
from .oracles import (
    allocating_subset_sum, ndindex_kernel_table, own_report_hoeffding_decompose, traced_peak
)

TOL = 1e-12

FAIR = Coordinate(
    id="x", labels=("-1", "+1"), pmf=np.array([0.5, 0.5]),
    embedding=np.array([-1.0, 1.0]),
)
# three-point coordinate with mean 0, variance 1, third moment 1
SKEWED = Coordinate(
    id="s",
    labels=("a", "b", "c"),
    pmf=np.array([1 / 3, 1 / 2, 1 / 6]),
    embedding=np.array([-1.0, 0.0, 2.0]),
)

QUAD = Coordinate(
    id="q", labels=("a", "b", "c", "d"), pmf=np.array([0.1, 0.2, 0.3, 0.4]),
    embedding=np.array([-1.5, -0.25, 0.5, 3.0]),
)

PROD = SymmetricKernel(2, lambda x, y: x * y)
SUM2 = SymmetricKernel(2, lambda x, y: x + y)
SQSUM = SymmetricKernel(2, lambda x, y: (x + y) ** 2)


class TestKernel:
    def test_arity_validated(self):
        with pytest.raises(ArityError):
            SymmetricKernel(0, lambda: 1.0)

    def test_symmetry_check_catches_asymmetric(self, rng):
        bad = SymmetricKernel(2, lambda x, y: x - y)
        with pytest.raises(BadKernel):
            bad.check_symmetry(rng)
        PROD.check_symmetry(rng)


class TestUStatistic:
    def test_product_kernel_two_coords(self):
        sp = rademacher_space(2)
        U = u_statistic(sp, PROD, 2)
        want = sp.coordinate_functional(0) * sp.coordinate_functional(1)
        assert (U - want).sup_norm() <= TOL

    def test_identity_kernel_mean(self):
        sp = rademacher_space(3)
        U = u_statistic(sp, SymmetricKernel(1, lambda x: x), 3)
        want = (
            sp.coordinate_functional(0)
            + sp.coordinate_functional(1)
            + sp.coordinate_functional(2)
        ) * (1.0 / 3.0)
        assert (U - want).sup_norm() <= TOL

    def test_sum_kernel_three_coords(self):
        sp = rademacher_space(3)
        U = u_statistic(sp, SUM2, 3)
        want = (
            sp.coordinate_functional(0)
            + sp.coordinate_functional(1)
            + sp.coordinate_functional(2)
        ) * (2.0 / 3.0)
        assert (U - want).sup_norm() <= TOL

    def test_not_iid_rejected(self):
        mixed = build_space(
            [FAIR, Coordinate(id="y", labels=("0", "1"), pmf=np.array([0.3, 0.7]),
                              embedding=np.array([0.0, 1.0]))]
        )
        with pytest.raises(NotIID):
            u_statistic(mixed, PROD, 2)

    def test_too_few_coordinates_rejected(self):
        sp = rademacher_space(1)
        with pytest.raises(ArityError):
            u_statistic(sp, PROD, 1)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n", [3, 5])
    def test_subset_sum_matches_the_allocating_route(self, k, n):
        sp = iid_space(SKEWED, 6)  # one coordinate past n at n = 5
        table = np.random.default_rng(k).normal(size=(3,) * k)
        table.flat[0], table.flat[-1] = -0.0, np.nan
        scale = 1.0 / comb(n, k)
        got = _subset_sum(sp, table, n, scale)
        want = allocating_subset_sum(sp, table, n) * scale
        assert got.deps == want.deps == frozenset(range(n))
        assert got.data.shape == want.data.shape
        assert got.data.tobytes() == want.data.tobytes()

    @pytest.mark.parametrize(
        "h", [PROD, SymmetricKernel(3, lambda x, y, z: x * y * z + x + y + z)]
    )
    def test_u_statistic_holds_one_table(self, h):
        sp = iid_space(SKEWED, 12)
        table_bytes = u_statistic(sp, h, 12).data.nbytes
        # the sum is added and scaled in place; a new table per k-subset
        # peaked at 2 tables
        assert traced_peak(lambda: u_statistic(sp, h, 12)) <= 1.1 * table_bytes


class TestRecursiveKernels:
    def test_product_kernel_fully_degenerate(self):
        k = hoeffding_kernels(PROD, FAIR)
        assert abs(k.theta) <= TOL
        assert np.max(np.abs(k.degenerate[0])) <= TOL
        assert np.max(np.abs(k.degenerate[1] - np.outer(FAIR.embedding, FAIR.embedding))) <= TOL

    def test_sum_kernel_first_order(self):
        k = hoeffding_kernels(SUM2, FAIR)
        assert abs(k.theta) <= TOL
        assert np.max(np.abs(k.degenerate[0] - FAIR.embedding)) <= TOL
        assert np.max(np.abs(k.degenerate[1])) <= TOL

    def test_squared_sum_kernel(self):
        k = hoeffding_kernels(SQSUM, FAIR)
        assert abs(k.theta - 2.0) <= TOL
        assert np.max(np.abs(k.degenerate[0])) <= TOL
        want = 2.0 * np.outer(FAIR.embedding, FAIR.embedding)
        assert np.max(np.abs(k.degenerate[1] - want)) <= TOL

    def test_degeneracy_orders(self):
        assert degeneracy_order(PROD, FAIR) == 2
        assert degeneracy_order(SUM2, FAIR) == 1
        assert degeneracy_order(SymmetricKernel(2, lambda x, y: 5.0), FAIR) is None

    def test_degenerate_kernel_eigenvalue(self):
        # U-statistic of a fully degenerate order-2 kernel is an eigenvector
        # of the number operator with eigenvalue -2.
        sp = rademacher_space(3)
        U = u_statistic(sp, PROD, 3)
        rep = hoeffding_decompose(sp, PROD, 3)
        centered = U - rep.mean
        assert (number_operator(sp, centered) + 2.0 * centered).sup_norm() <= TOL


class TestDecomposition:
    @pytest.mark.parametrize("base", [FAIR, SKEWED], ids=["fair", "skewed"])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_layers_reconstruct_and_match_projections(self, base, m):
        kernels = {
            1: SymmetricKernel(1, lambda x: x * x + x),
            2: SymmetricKernel(2, lambda x, y: x * y + (x + y) ** 2),
            3: SymmetricKernel(3, lambda x, y, z: x * y * z + x + y + z),
        }
        h = kernels[m]
        for n in range(m, 7):
            sp = iid_space(base, n)
            rep = hoeffding_decompose(sp, h, n)
            assert rep.residual <= 1e-12
            assert rep.max_off_diagonal <= 1e-10
            var, total = rep.variance_pair
            assert abs(var - total) <= 1e-10
            proj = hoeffding_via_projections(sp, h, n)
            for L, P in zip(rep.terms, proj):
                assert (L - P).sup_norm() <= 1e-11

    def test_projections_hold_a_table_per_order(self):
        h = SymmetricKernel(3, lambda x, y, z: x * y * z + (x + y + z) ** 2)
        n = 11
        sp = iid_space(SKEWED, n)
        table_bytes = u_statistic(sp, h, n).data.nbytes
        peak = traced_peak(lambda: hoeffding_via_projections(sp, h, n))
        # U, its n + 1 order layers and two averages: measured 12.7 tables,
        # where the sums over the ANOVA subset tree peaked at 43.9
        assert peak / table_bytes <= n + 3

    def test_product_kernel_single_layer(self):
        sp = rademacher_space(3)
        rep = hoeffding_decompose(sp, PROD, 3)
        U = u_statistic(sp, PROD, 3)
        assert rep.terms[0].sup_norm() <= TOL
        assert (rep.terms[1] - U).sup_norm() <= TOL

    def test_sum_kernel_single_layer(self):
        sp = rademacher_space(3)
        rep = hoeffding_decompose(sp, SUM2, 3)
        want = (
            sp.coordinate_functional(0)
            + sp.coordinate_functional(1)
            + sp.coordinate_functional(2)
        ) * (2.0 / 3.0)
        assert (rep.terms[0] - want).sup_norm() <= TOL
        assert rep.terms[1].sup_norm() <= TOL

    def test_constant_kernel(self):
        sp = rademacher_space(3)
        rep = hoeffding_decompose(sp, SymmetricKernel(2, lambda x, y: 4.0), 3)
        assert rep.mean == 4.0
        assert all(L.sup_norm() <= TOL for L in rep.terms)


P02 = Coordinate(
    id="p", labels=("0", "1"), pmf=np.array([0.8, 0.2]), embedding=np.array([0.0, 1.0]),
)

REPORT_KERNELS = [
    SymmetricKernel(1, lambda x: x * x + x),
    PROD,
    SymmetricKernel(2, lambda x, y: x * y + (x + y) ** 2),
    SymmetricKernel(3, lambda x, y, z: x * y * z),
    SymmetricKernel(3, lambda x, y, z: x * y * z + x + y + z),
]


def _bits(*values) -> bytes:
    return np.array(values, dtype=float).tobytes()


class TestReportThroughDecompose:
    """`hoeffding_decompose` reports through `decompose._report`, bit for bit the old report."""

    @pytest.mark.parametrize("base", [FAIR, P02, SKEWED], ids=["fair", "p02", "skewed"])
    @pytest.mark.parametrize("n", [3, 4, 5, 7, 9])
    def test_report_matches_its_own_residual_route(self, base, n):
        sp = iid_space(base, n)
        for h in REPORT_KERNELS:
            rep = hoeffding_decompose(sp, h, n)
            old = own_report_hoeffding_decompose(sp, h, n)
            assert rep.order == tuple(range(1, h.arity + 1))
            assert _bits(rep.mean, rep.residual) == _bits(old["theta"], old["residual"])
            assert rep.gram.tobytes() == old["gram"].tobytes()
            assert _bits(*rep.variance_pair) == _bits(*old["variance_pair"])
            assert rep.functional.data.tobytes() == old["statistic"].data.tobytes()
            assert len(rep.terms) == len(old["layers"]) == h.arity
            for new_layer, old_layer in zip(rep.terms, old["layers"]):
                assert new_layer.data.tobytes() == old_layer.data.tobytes()


class TestSymmetricClarkLink:
    @pytest.mark.parametrize("base", [FAIR, SKEWED], ids=["fair", "skewed"])
    def test_total_matches_order_free_clark(self, base):
        sp = iid_space(base, 4)
        for h in (PROD, SUM2, SQSUM):
            assert check_total_against_symmetric_clark(sp, h, 4) <= 1e-12

    def test_subset_size_groups_total_but_not_layerwise(self):
        # Pinned discrepancy: grouping the order-free Clark expansion by
        # subset size reconstructs U - theta, yet the groups differ from the
        # Hoeffding layers already for h(x,y) = x + y.
        sp = rademacher_space(3)
        groups = symmetric_clark_groups(sp, SUM2, 3)
        rep = hoeffding_decompose(sp, SUM2, 3)
        U = u_statistic(sp, SUM2, 3)
        total = sp.constant(rep.mean)
        for G in groups:
            total = total + G
        assert (total - U).sup_norm() <= TOL
        sum_x = (
            sp.coordinate_functional(0)
            + sp.coordinate_functional(1)
            + sp.coordinate_functional(2)
        )
        assert (groups[0] - sum_x * (1.0 / 3.0)).sup_norm() <= TOL
        assert (groups[1] - sum_x * (1.0 / 3.0)).sup_norm() <= TOL
        assert (groups[0] - rep.terms[0]).sup_norm() > 0.1


def _random_kernel(m, seed):
    c = np.random.default_rng(seed).normal(size=3)
    return SymmetricKernel(m, lambda *xs: c[0] * sum(xs) + c[1] * np.prod(xs) + c[2] * max(xs) ** 2)


class TestTabulationThroughSpace:
    """The kernel table comes from `ProductSpace.from_evaluator`, once per decomposition."""

    @pytest.mark.parametrize("base", [FAIR, SKEWED, QUAD], ids=["fair", "skewed", "quad"])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_table_matches_the_ndindex_route(self, base, m):
        kernels = [
            _random_kernel(m, m),
            SymmetricKernel(m, lambda *xs: -0.0),
            SymmetricKernel(m, lambda *xs: np.nan if max(xs) > 0 else -sum(xs)),
        ]
        for h in kernels:
            got, want = h.table(base), ndindex_kernel_table(h, base)
            assert got.dtype == want.dtype and got.shape == want.shape == (base.size,) * m
            assert got.tobytes() == want.tobytes()

    def test_kernel_refused_before_its_first_call(self):
        def fn(*xs):
            raise AssertionError("the kernel ran on a grid past the ceiling")

        h = SymmetricKernel(24, fn)  # 2^24 grid points, past the 10^7 ceiling
        with pytest.raises(ExactModeOverflow):
            h.table(rademacher_coordinate())
        with pytest.raises(ExactModeOverflow):
            u_statistic(rademacher_space(24), h, 24)

    def test_decomposition_tabulates_the_kernel_once(self):
        calls = []
        h = SymmetricKernel(3, lambda x, y, z: calls.append(1) or x * y * z + x + y + z)
        hoeffding_decompose(iid_space(SKEWED, 5), h, 5)
        assert len(calls) == 27  # the 3^3 grid points, once

    @pytest.mark.parametrize("base", [FAIR, SKEWED], ids=["fair", "skewed"])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_statistic_is_the_u_statistic(self, base, m):
        h = _random_kernel(m, 10 + m)
        sp = iid_space(base, 5)
        rep = hoeffding_decompose(sp, h, 5)
        U = u_statistic(sp, h, 5)
        assert rep.functional.deps == U.deps
        assert rep.functional.data.tobytes() == U.data.tobytes()

    def test_cli_case_builds_u_once(self, monkeypatch, tmp_path):
        sums = []

        def counted(*args):
            sums.append(args)
            return _subset_sum(*args)

        monkeypatch.setattr(ustat, "_subset_sum", counted)
        assert main(["hoeffding", "--n", "4", "--out", str(tmp_path / "h.json")]) == 0
        # per base, U once and the m layers for m = 1, 2, 3: 2 + 3 + 4
        assert len(sums) == 18
