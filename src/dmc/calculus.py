"""Operator core: gradient, divergence, number operator, ANOVA, trace form.

The gradient of F along coordinate a is F minus its conditional expectation
given all other coordinates; the divergence of a coordinate field U is the
sum of the per-coordinate gradients of its components.  The number operator
L = -sum_a D_a acts as multiplication by -|S| on the ANOVA component
supported on the coordinate subset S.

The generating operator M_u = prod_a (u I + (1-u) E_a) multiplies that
component by u^|S|, so M_u F = sum_k u^k H_k over the ANOVA layers H_k;
`order_layers` takes the H_k as its coefficients, and `anova` reads its
layers from there.  Integrals of M_u over u in [0, 1] are polynomial in u;
Gauss-Legendre quadrature evaluates them exactly from a few mixing passes,
which gives the pseudo-inverse of L (and the resolvent in `semigroup`).
Only `anova`'s `components` name coordinate subsets, one view each of a
Hoeffding table that is filled on their first read.

`mix` applies M_u to a table of at most `SMALL_TABLE` entries one
coordinate at a time.  On a larger one, each run of adjacent mixed axes
(`space._runs`, at most `MIX_RUN_CAP` entries) is one contraction against
the run's matrix, the Kronecker product of its factors u I + (1-u) 1 p_a^T,
through `space._contract`, the routine that also takes `_average`'s runs;
the matrices and their Kronecker blocks are cached on the space under
(run, u).
"""

from __future__ import annotations

from functools import cached_property, lru_cache, reduce
from typing import Dict, FrozenSet, Iterable, Mapping

import numpy as np

from .errors import NotCentered
from .space import (
    SMALL_TABLE,
    Functional,
    ProductSpace,
    _average,
    _cached,
    _contract,
    _runs,
    _view,
    conditional_drop,
    conditional_prefix,
    expectation,
)

MIX_RUN_CAP = 16  # entries of one run of `mix`, so its matrix has at most 256
MIX_BLOCK_BYTES = 1 << 16  # the block in which a later pass of `mix` writes back


class CoordinateField:
    """Indexed family of functionals U = (U_a); absent indices mean zero."""

    def __init__(self, space: ProductSpace, components: Mapping[int, Functional]):
        self.space = space
        self.components = dict(components)
        for a in self.components:
            space.check_axis(a)

    def indices(self):
        return sorted(self.components)

    def __getitem__(self, a: int) -> Functional:
        return self.components.get(a) or self.space.constant(0.0)

    def __contains__(self, a: int) -> bool:
        return a in self.components


def gradient_component(space: ProductSpace, F: Functional, a: int) -> Functional:
    """D_a F = F - E[F | G_a]."""
    if a not in F.deps:
        space.check_axis(a)
        return space.constant(0.0)
    return Functional(space, F.data - _average(space, F.data, (a,)), F.deps)


def gradient(space: ProductSpace, F: Functional) -> CoordinateField:
    return CoordinateField(
        space, {a: gradient_component(space, F, a) for a in sorted(F.deps)}
    )


def divergence(space: ProductSpace, U: CoordinateField) -> Functional:
    return sum((gradient_component(space, U[a], a) for a in U.indices()), space.constant(0.0))


def number_operator(space: ProductSpace, F: Functional) -> Functional:
    """L F = -sum_a D_a F = sum_a E_a F - |dep(F)| F.

    The averages are added one by one into a single table of F's shape, so
    L holds that table and one average at a time, never n gradients.
    """
    deps = sorted(F.deps)
    if not deps:
        return space.constant(0.0)
    out = F.data * -float(len(deps))
    for a in deps:
        out += _average(space, F.data, [a])
    return Functional(space, out, F.deps)


class AnovaDecomposition:
    """F's ANOVA layers from `order_layers`, and its Hoeffding table: slot 0 of
    dependency axis a holds E_a, slots 1: D_a, so F_S is the read-only view at
    slots 1: on S and slot 0 on the other dependencies.  The table is filled,
    and its views taken, on the first read of `components`."""

    def __init__(self, space: ProductSpace, F: Functional, table: np.ndarray, layers: list):
        self.space, self.F, self.table, self.deps, self.layers = space, F, table, F.deps, layers

    @cached_property
    def components(self) -> Dict[FrozenSet[int], Functional]:
        """{S: F_S}, keyed as the node split was (first dependency most significant);
        exactly 0 blocks are dropped, except the empty one, and NaN blocks are kept.
        One pass per dependency a grows G along a to [E_a G, G - E_a G], the last into
        the table."""
        space, deps, T, every = self.space, sorted(self.deps), self.table, slice(None)
        G = self.F.data
        for a in deps:
            grown = G.shape[:a] + (G.shape[a] + 1,) + G.shape[a + 1:]
            E = _average(space, G, [a])
            G = np.concatenate([E, G - E], axis=a, out=T if a == deps[-1] else np.empty(grown))
        if not deps:
            T[...] = G
        T.flags.writeable = False  # the components are views of it
        nonzero = (T != 0).any(tuple(set(range(T.ndim)) - self.deps), keepdims=True)
        nodes = {frozenset(): T}
        for a in deps:
            lo, hi = (every,) * a + (slice(0, 1),), (every,) * a + (slice(1, None),)
            nonzero = np.concatenate([nonzero[lo], nonzero[hi].any(a, keepdims=True)], a)
            nodes = {K: v for S, G in nodes.items() for K, v in ((S, G[lo]), (S | {a}, G[hi]))}
        return {S: Functional(space, G, S)
                for (S, G), kept in zip(nodes.items(), nonzero.ravel()) if kept or not S}

    def component(self, subset: Iterable[int]) -> Functional:
        return self.components.get(frozenset(subset)) or self.space.constant(0.0)

    def reconstruct(self) -> Functional:
        return Functional(self.space, sum(self.layers[1:], self.layers[0]), self.deps)

    def order_sum(self, k: int) -> Functional:
        """Sum of all components supported on subsets of size k."""
        if not 0 <= k < len(self.layers):
            return self.space.constant(0.0)
        return Functional(self.space, self.layers[k], self.deps if k else frozenset())


def anova(space: ProductSpace, F: Functional) -> AnovaDecomposition:
    """Hoeffding decomposition F_S = prod_{a in S} (I - E_a) prod_{a not in S} E_a F.

    The layers H_k = sum_{|S|=k} F_S are `order_layers`' arrays.  The table of
    prod_a (1 + s_a) entries is checked against the ceiling first, but filled
    only when `components` is read.
    """
    table = space.empty(tuple(k + (a in F.deps) for a, k in enumerate(F.data.shape)))
    # with no dependency `order_layers` hands back F.data itself, which stays the caller's
    layers = [H.data for H in order_layers(space, F)] if F.deps else [F.data.copy()]
    for H in layers:
        H.flags.writeable = False  # `order_sum` hands the same arrays to every caller
    return AnovaDecomposition(space, F, table, layers)


def order_layers(space: ProductSpace, F: Functional) -> list:
    """The ANOVA layers [H_0, ..., H_|deps|]: H_k sums F_S over |S| = k.

    They are the u^k coefficients of M_u F = prod_a (E_a + u D_a) F, so
    coordinate a maps L_k to E_a L_k + D_a L_{k-1}.  Run from the top order
    down, each E_a L_k serves L_k and L_{k+1}; H_0 = E F is stored 1 x ... x 1.
    """
    layers = [F.data]
    for a in sorted(F.deps):
        above = 0.0  # E_a of the layer one order up; the new top layer has none
        for k in range(len(layers) - 1, 0, -1):
            below = _average(space, layers[k], [a])
            layers[k] = layers[k] - below  # D_a L_k, the new L_{k+1} once `above` is added
            layers[k] += above
            above = below
        below = _average(space, layers[0], [a])
        layers[0:1] = [below, layers[0] - below + above]
    return [Functional(space, L, F.deps if k else frozenset()) for k, L in enumerate(layers)]


def mix(space: ProductSpace, F: Functional, u: float, frozen=()) -> Functional:
    """M_u F = prod_a (u I + (1-u) E_a) F over the coordinates not in `frozen`.

    Each coordinate is kept with probability u and averaged out otherwise,
    so the ANOVA component on S is multiplied by u^|S - frozen|.  F's own
    array is never written.

    A table of at most `SMALL_TABLE` entries is updated one coordinate at a
    time in place, out = u out + (1-u) E_a out, so only the first coordinate
    allocates it.  On a larger table each run of `_runs` (capped at
    `MIX_RUN_CAP` entries) is one `_contract` pass of the run's matrix, the
    Kronecker product of its factors u I + (1-u) 1 p_a^T; only the first
    pass allocates the result, and each later one writes back into it in
    blocks of `MIX_BLOCK_BYTES`, so `mix` holds one table and one block.  As
    in `_average`, the Kronecker block's zeros turn a non-finite entry into
    NaN across its row of the table.
    """
    for a in frozen:
        space.check_axis(a)
    axes = sorted(F.deps - frozenset(frozen))
    if not axes:
        return F
    if F.data.size <= SMALL_TABLE:
        out, owned = F.data, False
        for a in axes:
            averaged = _average(space, out, [a])
            if out.shape[a] == 1:  # E_a is the identity and returned a view of `out`
                averaged = averaged * (1.0 - u)
            else:
                averaged *= 1.0 - u
            if owned:
                out *= u
            else:
                out, owned = out * u, True
            out += averaged
            del averaged  # before the next average is allocated
        return Functional(space, out, F.deps)
    shape, out = F.data.shape, None
    for run in _runs(shape, axes, MIX_RUN_CAP):
        A = _cached(space, ("mix", run, u), lambda: reduce(np.kron, [
            u * np.eye(space.coords[a].size) + (1.0 - u) * space.coords[a].pmf for a in run
        ]))
        pre, K, post = _view(shape, run)
        if out is None:
            out = _contract(space, ("mix-kron", run, u), A, F.data.reshape(pre, K, post))
            out = out.reshape(shape)
            continue
        # a stored axis of an earlier run comes first, so pre > 1: blocks of rows
        v = out.reshape(pre, K, post)
        step = max(1, MIX_BLOCK_BYTES // (v.itemsize * K * post))
        for i in range(0, pre, step):
            block = v[i:i + step]
            block[...] = _contract(space, ("mix-kron", run, u), A, block).reshape(block.shape)
    if out is None:  # every mixed axis has one outcome, where M_u is the identity
        return F
    return Functional(space, out, F.deps)


def legendre_integral(space: ProductSpace, integrand, degree: int) -> Functional:
    """int_0^1 integrand(u) du by Gauss-Legendre quadrature on [0, 1].

    `integrand` maps u to a Functional.  With degree // 2 + 1 nodes the rule
    is exact when the integrand is a polynomial in u of degree <= `degree`.
    """
    return sum((integrand(u) * w for u, w in legendre_nodes(degree)), space.constant(0.0))


@lru_cache(maxsize=64)
def legendre_nodes(degree: int) -> tuple:
    """(u, weight) of the degree // 2 + 1 Gauss-Legendre nodes on [0, 1].

    Cached: `leggauss` solves an eigenproblem, as costly as a whole call on
    a space of a few coordinates.
    """
    x, w = np.polynomial.legendre.leggauss(max(degree, 0) // 2 + 1)
    return tuple((0.5 * (1.0 + float(xi)), 0.5 * float(wi)) for xi, wi in zip(x, w))


def invert_number_operator(space: ProductSpace, F: Functional) -> Functional:
    """Pseudo-inverse of L on centered functionals.

    L^-1 F = -sum_{S nonempty} F_S / |S| = -int_0^1 (M_u F - E F) / u du; the
    integrand has degree |dep(F)| - 1 in u.  A mean within the centering
    tolerance is removed first, so the result is L^-1 (F - E F).
    """
    mean = expectation(space, F)
    if abs(mean) > 1e-10 * F.scale():
        raise NotCentered(f"functional has mean {mean!r}")
    centred = F - mean

    # E M_u G = E G, so the result is centred once, not at every node
    R = legendre_integral(space, lambda u: mix(space, centred, u) * (-1.0 / u), len(F.deps) - 1)
    return R - expectation(space, R)


def trace_form(space: ProductSpace, U: CoordinateField, V: CoordinateField) -> float:
    """E[trace(DU o DV)] = E[sum_{a,b} D_a U_b D_b V_a]."""
    products = (
        gradient_component(space, U[b], a) * gradient_component(space, V[a], b)
        for b in U.indices()
        for a in V.indices()
    )
    return expectation(space, sum(products, space.constant(0.0)))


def field_inner(space: ProductSpace, U: CoordinateField, V: CoordinateField) -> float:
    """<U, V> in L2(A x E_A): sum_a E[U_a V_a]."""
    products = (U[a] * V[a] for a in set(U.indices()) | set(V.indices()))
    return expectation(space, sum(products, space.constant(0.0)))


# -- identity validators ----------------------------------------------------


def check_integration_by_parts(space, F: Functional, U: CoordinateField):
    """<DF, U> vs E[F * sum_a D_a U_a]; returns (lhs, rhs, residual)."""
    lhs = field_inner(space, gradient(space, F), U)
    rhs = expectation(space, F * divergence(space, U))
    return lhs, rhs, abs(lhs - rhs)


def check_product_rule(space, F: Functional, G: Functional, a: int):
    """Pointwise residual of the gradient product rule for D_a(FG)."""
    lhs = gradient_component(space, F * G, a)
    rhs = (
        F * gradient_component(space, G, a)
        + G * gradient_component(space, F, a)
        - gradient_component(space, F, a) * gradient_component(space, G, a)
        - conditional_drop(space, F * G, a)
        + conditional_drop(space, F, a) * conditional_drop(space, G, a)
    )
    return (lhs - rhs).sup_norm()


def check_gradient_commutation(space, F: Functional, a: int, b: int) -> float:
    """Residual of D_a D_b F = D_b D_a F (and idempotence when a == b)."""
    ab = gradient_component(space, gradient_component(space, F, b), a)
    if a == b:
        return (ab - gradient_component(space, F, a)).sup_norm()
    ba = gradient_component(space, gradient_component(space, F, a), b)
    return (ab - ba).sup_norm()


def check_weitzenbock(space, U: CoordinateField, V: CoordinateField):
    """E[delta U delta V] vs E[trace(DU o DV)]."""
    lhs = expectation(space, divergence(space, U) * divergence(space, V))
    rhs = trace_form(space, U, V)
    return lhs, rhs, abs(lhs - rhs)


def check_innovation_identity(space, U: CoordinateField):
    """For U adapted to the coordinate order: E[(delta U)^2] vs innovation norm."""
    dU = divergence(space, U)
    lhs = expectation(space, dU * dU)
    innovations = (U[k] - conditional_prefix(space, U[k], k) for k in U.indices())
    rhs = expectation(space, sum((d * d for d in innovations), space.constant(0.0)))
    return lhs, rhs, abs(lhs - rhs)
