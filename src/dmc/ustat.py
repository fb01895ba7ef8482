"""U-statistics and their Hoeffding decomposition on iid coordinates.

The decomposition is built twice and compared: once from the recursive
degenerate kernels g_k, and once as orthogonal projections of the
U-statistic onto interaction orders.  The k-th layer is

    H^(k) = C(m,k) * C(n,k)^{-1} * sum_{|B|=k} g_k(X_B).

Beware: the layer is often displayed without the C(m,k) factor, but then
the layers do not sum to U_n - theta (already for h(x,y) = x + y); the
factor is forced by the induction that proves the decomposition and by the
classical projection form.  See also `symmetric_clark_groups` for a related
regrouping whose per-size groups do *not* coincide with the layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Callable

import numpy as np

from .errors import ArityError, BadKernel, NotIID
from .space import Coordinate, Functional, ProductSpace, expectation, variance
from .calculus import anova, gradient_component
from .decompose import clark_symmetric

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
        """Dense evaluation over the m-fold outcome grid of `base`."""
        if base.embedding is None:
            raise BadKernel("kernel evaluation needs a real embedding")
        s = base.size
        out = np.empty((s,) * self.arity)
        for idx in np.ndindex(*out.shape):
            out[idx] = self.fn(*(base.embedding[i] for i in idx))
        return out


@dataclass
class HoeffdingKernels:
    theta: float
    conditional_means: list  # h_1 .. h_m as dense tables
    degenerate: list  # g_1 .. g_m as dense tables


@dataclass
class HoeffdingReport:
    theta: float
    layers: list  # Functionals H^(1) .. H^(m)
    residual: float
    gram: np.ndarray
    variance_pair: tuple

    @property
    def max_off_diagonal(self) -> float:
        off = self.gram - np.diag(np.diag(self.gram))
        return float(np.max(np.abs(off))) if off.size else 0.0


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


def _place(space: ProductSpace, table: np.ndarray, axes: tuple) -> Functional:
    """Place a |axes|-dim symmetric table on the given coordinates."""
    shape = [1] * space.n
    for a in axes:
        shape[a] = space.shape[a]
    return Functional(space, table.reshape(shape), deps=frozenset(axes))


def u_statistic(space: ProductSpace, h: SymmetricKernel, n: int) -> Functional:
    """C(n,m)^{-1} sum over m-subsets of the first n coordinates of h(X_B)."""
    m = h.arity
    if n < m:
        raise ArityError(f"need n >= m, got n={n} < m={m}")
    base = _require_iid(space, n)
    table = h.table(base)
    out = space.constant(0.0)
    for B in combinations(range(n), m):
        out = out + _place(space, table, B)
    return out * (1.0 / comb(n, m))


def hoeffding_kernels(h: SymmetricKernel, base: Coordinate) -> HoeffdingKernels:
    """theta, conditional means h_k, and degenerate kernels g_k over `base`."""
    m = h.arity
    full = h.table(base)
    pmf = base.pmf
    h_tables = [None] * (m + 1)
    h_tables[m] = full
    for k in range(m - 1, 0, -1):
        h_tables[k] = np.tensordot(h_tables[k + 1], pmf, axes=([k], [0]))
    theta = float(np.tensordot(h_tables[1], pmf, axes=([0], [0])))
    g = [None] * (m + 1)
    g[1] = h_tables[1] - theta
    for k in range(2, m + 1):
        acc = np.full((base.size,) * k, theta)
        for j in range(1, k):
            for B in combinations(range(k), j):
                shape = [1] * k
                for a in B:
                    shape[a] = base.size
                acc = acc + g[j].reshape(shape)
        g[k] = h_tables[k] - acc
    # each g_k must be degenerate: averaging out any argument gives zero
    for k in range(1, m + 1):
        for axis in range(k):
            margin = np.tensordot(g[k], pmf, axes=([axis], [0]))
            if np.max(np.abs(margin)) > 1e-10 * max(1.0, np.max(np.abs(full))):
                raise BadKernel(f"g_{k} failed the degeneracy check")
    return HoeffdingKernels(
        theta=theta,
        conditional_means=[h_tables[k] for k in range(1, m + 1)],
        degenerate=[g[k] for k in range(1, m + 1)],
    )


def degeneracy_order(h: SymmetricKernel, base: Coordinate) -> int | None:
    """Smallest k with g_k not identically zero; None for constant kernels."""
    kernels = hoeffding_kernels(h, base)
    scale = max(1.0, float(np.max(np.abs(kernels.conditional_means[-1]))))
    for k, g in enumerate(kernels.degenerate, start=1):
        if np.max(np.abs(g)) > DEGENERACY_TOL * scale:
            return k
    return None


def hoeffding_decompose(space: ProductSpace, h: SymmetricKernel, n: int) -> HoeffdingReport:
    """Layers H^(k) from the recursive kernels; sums to U_n - theta exactly."""
    m = h.arity
    if n < m:
        raise ArityError(f"need n >= m, got n={n} < m={m}")
    base = _require_iid(space, n)
    kernels = hoeffding_kernels(h, base)
    U = u_statistic(space, h, n)
    layers = []
    for k in range(1, m + 1):
        layer = space.constant(0.0)
        for B in combinations(range(n), k):
            layer = layer + _place(space, kernels.degenerate[k - 1], B)
        layers.append(layer * (comb(m, k) / comb(n, k)))
    recon = space.constant(kernels.theta)
    for L in layers:
        recon = recon + L
    residual = (recon - U).sup_norm()
    gram = np.empty((m, m))
    for i in range(m):
        for j in range(i, m):
            gram[i, j] = gram[j, i] = expectation(space, layers[i] * layers[j])
    var_pair = (variance(space, U), float(np.trace(gram)))
    return HoeffdingReport(
        theta=kernels.theta,
        layers=layers,
        residual=residual,
        gram=gram,
        variance_pair=var_pair,
    )


def hoeffding_via_projections(space: ProductSpace, h: SymmetricKernel, n: int) -> list:
    """Independent route: interaction-order projections of U_n.

    The k-th Hoeffding layer is the sum of the orthogonal components of U_n
    supported on exactly k coordinates; built here from the orthogonal
    subset expansion, with no reference to the recursive kernels.
    """
    U = u_statistic(space, h, n)
    dec = anova(space, U)
    return [dec.order_sum(k) for k in range(1, h.arity + 1)]


def symmetric_clark_groups(space: ProductSpace, h: SymmetricKernel, n: int) -> list:
    """Group the order-free Clark expansion of each h(X_A) by subset size.

    Returns G_1..G_m with sum_k G_k = U_n - theta exactly.  The individual
    groups do not equal the Hoeffding layers: for h(x,y) = x + y on three
    fair +-1 coordinates, G_1 = G_2 = (1/3) sum X_i while the layers are
    H^(1) = (2/3) sum X_i and H^(2) = 0.  Only the ungrouped total matches.
    """
    m = h.arity
    base = _require_iid(space, n)
    kernels = hoeffding_kernels(h, base)
    groups = []
    for k in range(1, m + 1):
        hk = kernels.conditional_means[k - 1]
        group = space.constant(0.0)
        for B in combinations(range(n), k):
            cond = _place(space, hk, B)
            for b in B:
                group = group + gradient_component(space, cond, b)
        groups.append(group * (1.0 / (k * comb(n, k))))
    return groups


def check_total_against_symmetric_clark(
    space: ProductSpace, h: SymmetricKernel, n: int
) -> float:
    """Residual between U_n - theta and the full order-free Clark expansion."""
    U = u_statistic(space, h, n)
    rep = clark_symmetric(space, U)
    total = space.constant(0.0)
    for T in rep.terms:
        total = total + T
    return (total - (U - rep.mean)).sup_norm()
