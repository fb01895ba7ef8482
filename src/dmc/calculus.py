"""Operator core: gradient, divergence, number operator, ANOVA, trace form.

The gradient of F along coordinate a is F minus its conditional expectation
given all other coordinates; the divergence of a coordinate field U is the
sum of the per-coordinate gradients of its components.  The number operator
L = -sum_a D_a acts as multiplication by -|S| on the ANOVA component
supported on the coordinate subset S.

The generating operator M_u = prod_a (u I + (1-u) E_a) multiplies that
component by u^|S|, so M_u F = sum_k u^k H_k over the ANOVA layers H_k;
`order_layers` takes the H_k as its coefficients.  Integrals of M_u over u
in [0, 1] are polynomial in u; Gauss-Legendre quadrature evaluates them
exactly from a few mixing passes, which gives the pseudo-inverse of L (and
the resolvent in `semigroup`).  Only `anova` enumerates coordinate subsets.

`mix` applies M_u to a table of at most `SMALL_TABLE` entries one
coordinate at a time.  On a larger one, each run of adjacent mixed axes
(`space._runs`, at most `MIX_RUN_CAP` entries) is one contraction against
the run's matrix, the Kronecker product of its factors u I + (1-u) 1 p_a^T,
with the kernel `space._kernel` picks from the shape; the matrices and
their Kronecker blocks are cached on the space under (run, u).
"""

from __future__ import annotations

from functools import lru_cache, reduce
from math import prod
from typing import Dict, FrozenSet, Iterable, Mapping

import numpy as np

from .errors import ExactModeOverflow, NotCentered
from .space import (
    SMALL_TABLE,
    Functional,
    ProductSpace,
    _average,
    _cached,
    _kernel,
    _runs,
    conditional_drop,
    conditional_prefix,
    expectation,
)

MAX_ANOVA_COORDS = 20
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
        if a in self.components:
            return self.components[a]
        return self.space.constant(0.0)

    def __contains__(self, a: int) -> bool:
        return a in self.components


def gradient_component(space: ProductSpace, F: Functional, a: int) -> Functional:
    """D_a F = F - E[F | G_a]."""
    if a not in F.deps:
        return space.constant(0.0)
    return Functional(space, F.data - _average(space, F.data, (a,)), F.deps)


def gradient(space: ProductSpace, F: Functional) -> CoordinateField:
    return CoordinateField(
        space, {a: gradient_component(space, F, a) for a in sorted(F.deps)}
    )


def divergence(space: ProductSpace, U: CoordinateField) -> Functional:
    out = space.constant(0.0)
    for a in U.indices():
        out = out + gradient_component(space, U[a], a)
    return out


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
    """Orthogonal expansion of F over subsets of its dependency set."""

    def __init__(self, space: ProductSpace, components: Dict[FrozenSet[int], Functional]):
        self.space = space
        self.components = components

    def component(self, subset: Iterable[int]) -> Functional:
        key = frozenset(subset)
        if key in self.components:
            return self.components[key]
        return self.space.constant(0.0)

    def reconstruct(self) -> Functional:
        out = self.space.constant(0.0)
        for comp in self.components.values():
            out = out + comp
        return out

    def order_sum(self, k: int) -> Functional:
        """Sum of all components supported on subsets of size k."""
        out = self.space.constant(0.0)
        for S, comp in self.components.items():
            if len(S) == k:
                out = out + comp
        return out


def anova(space: ProductSpace, F: Functional) -> AnovaDecomposition:
    """Hoeffding decomposition F_S = prod_{a in S} (I - E_a) prod_{a not in S} E_a F.

    Each coordinate a splits every node G (keyed by S) into E_a G under S and
    G - E_a G under S + {a}: 2^|deps| - 1 applications of E_a, on bare
    arrays.  An exactly zero node has zero descendants and is dropped; the
    empty node is kept.  A node holding NaN is kept, so `reconstruct` shows it.
    """
    deps = sorted(F.deps)
    if len(deps) > MAX_ANOVA_COORDS:
        raise ExactModeOverflow(
            f"ANOVA over {len(deps)} coordinates exceeds the {MAX_ANOVA_COORDS}-coordinate cap"
        )
    nodes = {frozenset(): F.data}
    for a in deps:
        split = {}
        for S, G in nodes.items():
            averaged = _average(space, G, [a])
            kept = G - averaged
            if not S or averaged.any():
                split[S] = averaged
            if kept.any():
                split[S | {a}] = kept
        nodes = split
    return AnovaDecomposition(space, {S: Functional(space, G, S) for S, G in nodes.items()})


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
    `MIX_RUN_CAP` entries) takes one pass of `_mix_run`; only the first pass
    allocates the result, and each later one writes back into it in blocks
    of `MIX_BLOCK_BYTES`, so `mix` holds one table and one block.  As in
    `_average`, the Kronecker block's zeros turn a non-finite entry into NaN
    across its row of the table.
    """
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
    for run, pre, K, post, kernel in _mix_passes(shape, axes):
        if out is None:
            out = _mix_run(space, run, u, kernel, F.data.reshape(pre, K, post)).reshape(shape)
            continue
        # a stored axis of an earlier run comes first, so pre > 1: blocks of rows
        v = out.reshape(pre, K, post)
        step = max(1, MIX_BLOCK_BYTES // (v.itemsize * K * post))
        for i in range(0, pre, step):
            v[i:i + step] = _mix_run(space, run, u, kernel, v[i:i + step])
    if out is None:  # every mixed axis has one outcome, where M_u is the identity
        return F
    return Functional(space, out, F.deps)


def _mix_passes(shape, axes):
    """(run, pre, K, post, kernel) for each run `mix` contracts on a table of `shape`.

    M_u keeps the table's shape, so each run is viewed as (pre, K, post)
    within the whole table, whichever runs went before.
    """
    for run in _runs(shape, axes, MIX_RUN_CAP):
        pre, post = prod(shape[:run[0]]), prod(shape[run[-1] + 1:])
        K = prod(shape[a] for a in run)
        yield run, pre, K, post, _kernel(pre, K, post, rows=K)


def _mix_run(space: ProductSpace, run: tuple, u: float, kernel: str, v: np.ndarray) -> np.ndarray:
    """The run's mixing matrix A applied along axis 1 of the (rows, K, cols) view `v`.

    A is the Kronecker product over the run of u I + (1-u) 1 p_a^T,
    C-ordered like the run's block of the table.  Returns a new array of
    v's shape; `kernel` is `_kernel`'s for the table: a gemm at either end
    ("gemv-left" has one row, "gemv-right" one column), a batched matmul,
    or a gemm against the block kron(A^T, I_cols).
    """
    A = _cached(space, ("mix", run, u), lambda: reduce(np.kron, [
        u * np.eye(space.coords[a].size) + (1.0 - u) * space.coords[a].pmf for a in run
    ]))
    rows, K, cols = v.shape
    if kernel == "gemv-left":
        return A.dot(v[0]).reshape(v.shape)
    if kernel == "gemv-right":
        return v.reshape(rows, K).dot(A.T).reshape(v.shape)
    if kernel == "kron":
        block = _cached(space, ("mix-kron", run, u, cols), lambda: np.kron(A.T, np.eye(cols)))
        return v.reshape(rows, K * cols).dot(block).reshape(v.shape)
    return np.matmul(A, v)


def legendre_integral(space: ProductSpace, integrand, degree: int) -> Functional:
    """int_0^1 integrand(u) du by Gauss-Legendre quadrature on [0, 1].

    `integrand` maps u to a Functional.  With degree // 2 + 1 nodes the rule
    is exact when the integrand is a polynomial in u of degree <= `degree`.
    """
    out = space.constant(0.0)
    for u, weight in legendre_nodes(degree):
        out = out + integrand(u) * weight
    return out


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
