"""U-statistics and their Hoeffding decomposition on iid coordinates.

The decomposition is built twice and compared: once from the degenerate
kernels g_k = prod_j (I - E_j) h_k, and once as orthogonal projections of the
U-statistic onto interaction orders.  The k-th layer is

    H^(k) = C(m,k) * C(n,k)^{-1} * sum_{|B|=k} g_k(X_B).

Beware: the layer is often displayed without the C(m,k) factor, but then
the layers do not sum to U_n - theta (already for h(x,y) = x + y); the
factor is forced by the induction that proves the decomposition and by the
classical projection form.  See also `symmetric_clark_groups` for a related
regrouping whose per-size groups do *not* coincide with the layers.

`hoeffding_decompose` reports the layers as the Clark forms report their
terms, in a `DecompositionReport` built by `decompose._report`: the
decomposed functional is U_n, the mean is theta (so the residual checks
theta + sum_k H^(k) against U_n), and `order` holds the interaction orders
1..m that index the layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Callable

import numpy as np

from .errors import ArityError, BadKernel, NotIID
from .space import (
    Coordinate, Functional, ProductSpace, conditional_drop, expectation, iid_space
)
from .calculus import gradient_component, number_operator, order_layers
from .decompose import DecompositionReport, _gram, _report, clark_symmetric

DEGENERACY_TOL = 1e-12


@dataclass(frozen=True)
class SymmetricKernel:
    """Symmetric function of m real arguments, evaluated through embeddings."""

    arity: int
    fn: Callable

    def __post_init__(self):
        if self.arity < 1:
            raise ArityError(f"kernel arity {self.arity} must be >= 1")

    def check_symmetry(self, rng: np.random.Generator, trials: int = 20) -> None:
        for _ in range(trials):
            args = rng.normal(size=self.arity)
            perm = rng.permutation(self.arity)
            if abs(self.fn(*args) - self.fn(*args[perm])) > 1e-12:
                raise BadKernel("kernel is not symmetric in its arguments")

    def table(self, base: Coordinate) -> np.ndarray:
        """Dense evaluation over the m-fold outcome grid of `base`.

        `ProductSpace.from_evaluator` on m copies of `base` fills the table,
        so a grid past the exact-mode ceiling is refused before `fn` runs.
        """
        emb = base.embedding
        if emb is None:
            raise BadKernel("kernel evaluation needs a real embedding")
        sp = iid_space(base, self.arity)
        return sp.from_evaluator(lambda idx: self.fn(*emb[list(idx)]), range(self.arity)).data


@dataclass
class HoeffdingKernels:
    theta: float
    conditional_means: list  # h_1 .. h_m as dense tables
    degenerate: list  # g_1 .. g_m as dense tables


def _require_iid(space: ProductSpace, n: int) -> Coordinate:
    if n > space.n:
        raise ArityError(f"requested {n} coordinates, space has {space.n}")
    base = space.coords[0]
    if base.embedding is None:
        raise BadKernel("U-statistics need real embeddings")
    for c in space.coords[:n]:
        same = (
            c.size == base.size
            and np.allclose(c.pmf, base.pmf, atol=1e-14)
            and c.embedding is not None
            and np.allclose(c.embedding, base.embedding, atol=1e-14)
        )
        if not same:
            raise NotIID(f"coordinate {c.id!r} differs from {base.id!r}")
    return base


def _subset_sum(space: ProductSpace, table: np.ndarray, n: int, scale: float) -> Functional:
    """scale * sum over k-subsets B of the first n coordinates of the k-dim table on X_B.

    The placed tables are added in place, in subset order, into one table
    on the first n coordinates, which is then scaled in place.
    """
    out = space.zeros(range(n))
    for B in combinations(range(n), table.ndim):
        out.data += table.reshape([space.shape[a] if a in B else 1 for a in range(space.n)])
    out.data *= scale
    return out


def u_statistic(space: ProductSpace, h: SymmetricKernel, n: int) -> Functional:
    """C(n,m)^{-1} sum over m-subsets of the first n coordinates of h(X_B)."""
    m = h.arity
    if n < m:
        raise ArityError(f"need n >= m, got n={n} < m={m}")
    base = _require_iid(space, n)
    return _subset_sum(space, h.table(base), n, 1.0 / comb(n, m))


def hoeffding_kernels(h: SymmetricKernel, base: Coordinate) -> HoeffdingKernels:
    """theta, conditional means h_k, and degenerate kernels g_k, on m copies of `base`."""
    m = h.arity
    sp = iid_space(base, m)
    H = sp.from_table(h.table(base))
    theta = expectation(sp, H)
    conditional = [H]  # h_m, h_{m-1}, ..., h_1
    for k in range(m - 1, 0, -1):
        conditional.append(conditional_drop(sp, conditional[-1], k))
    h_tables, degenerate = [], []
    for k, G in enumerate(reversed(conditional), start=1):
        h_tables.append(G.data.reshape(G.data.shape[:k]))
        for j in range(k):  # g_k = prod_j (I - E_j) h_k, the top ANOVA component of h_k
            G = gradient_component(sp, G, j)
        # g_k must be degenerate: averaging out any argument gives zero
        for j in range(k):
            if conditional_drop(sp, G, j).sup_norm() > 1e-10 * H.scale():
                raise BadKernel(f"g_{k} failed the degeneracy check")
        degenerate.append(G.data.reshape(G.data.shape[:k]))
    return HoeffdingKernels(theta=theta, conditional_means=h_tables, degenerate=degenerate)


def degeneracy_order(h: SymmetricKernel, base: Coordinate) -> int | None:
    """Smallest k with g_k not identically zero; None for constant kernels."""
    kernels = hoeffding_kernels(h, base)
    scale = max(1.0, float(np.max(np.abs(kernels.conditional_means[-1]))))
    for k, g in enumerate(kernels.degenerate, start=1):
        if np.max(np.abs(g)) > DEGENERACY_TOL * scale:
            return k
    return None


def hoeffding_decompose(space: ProductSpace, h: SymmetricKernel, n: int) -> DecompositionReport:
    """U_n = theta + sum_k H^(k): the layers from the degenerate kernels, orders 1..m.

    The report's functional is U_n itself, summed from the kernel table the
    layers were built from, so a caller can take other views of it (such as
    `order_layers`) without tabulating the kernel again.
    """
    m = h.arity
    if n < m:
        raise ArityError(f"need n >= m, got n={n} < m={m}")
    base = _require_iid(space, n)
    kernels = hoeffding_kernels(h, base)
    U = _subset_sum(space, kernels.conditional_means[-1], n, 1.0 / comb(n, m))
    layers = [
        _subset_sum(space, g, n, comb(m, k) / comb(n, k))
        for k, g in enumerate(kernels.degenerate, start=1)
    ]
    return _report(space, U, kernels.theta, range(1, m + 1), layers, _gram(space, layers))


def hoeffding_via_projections(space: ProductSpace, h: SymmetricKernel, n: int) -> list:
    """Independent route: interaction-order projections of U_n.

    The k-th Hoeffding layer is the sum of the orthogonal components of U_n
    supported on exactly k coordinates, the u^k coefficient of M_u U_n
    (`order_layers`), with no reference to the kernels g_k.
    """
    return order_layers(space, u_statistic(space, h, n))[1 : h.arity + 1]


def symmetric_clark_groups(space: ProductSpace, h: SymmetricKernel, n: int) -> list:
    """Group the order-free Clark expansion of each h(X_A) by subset size.

    Returns G_1..G_m with sum_k G_k = U_n - theta exactly.  The individual
    groups do not equal the Hoeffding layers: for h(x,y) = x + y on three
    fair +-1 coordinates, G_1 = G_2 = (1/3) sum X_i while the layers are
    H^(1) = (2/3) sum X_i and H^(2) = 0.  Only the ungrouped total matches.
    """
    base = _require_iid(space, n)
    kernels = hoeffding_kernels(h, base)
    groups = []
    for k, hk in enumerate(kernels.conditional_means, start=1):
        # sum_{b in B} D_b h_k(X_B) places one table, sum_j (h_k - E_j h_k) = -L h_k
        sp = iid_space(base, k)
        table = -number_operator(sp, sp.from_table(hk))
        groups.append(_subset_sum(space, table.data, n, 1.0 / (k * comb(n, k))))
    return groups


def check_total_against_symmetric_clark(
    space: ProductSpace, h: SymmetricKernel, n: int
) -> float:
    """Residual between U_n - theta and the full order-free Clark expansion."""
    return clark_symmetric(space, u_statistic(space, h, n)).residual
