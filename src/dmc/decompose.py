"""Clark representations, Helmholtz decomposition, covariance and Poincare.

A Clark representation writes F - E[F] as a sum of predictable increments
T_k = D_k E[F | F_k] along a coordinate ordering; the reverse form uses the
backward filtration, and the symmetric form averages the forward form over
all orderings, one term per coordinate.  The forward and reverse terms are
differences of conditional expectations taken from one chain of
single-coordinate averages; the symmetric terms are Gauss-Legendre integrals
of the mixing operator M_u with one coordinate left out.  The Helmholtz
decomposition splits a coordinate field into a gradient part and a
divergence-free part.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .space import (
    Functional,
    ProductSpace,
    _average,
    conditional_drop,
    conditional_prefix,
    expectation,
    resolve_order,
    variance,
)
from .calculus import (
    CoordinateField,
    divergence,
    gradient,
    gradient_component,
    invert_number_operator,
    legendre_nodes,
    mix,
    number_operator,
)
from .semigroup import resolvent


@dataclass
class DecompositionReport:
    """Terms of one representation F = mean + sum(terms), with diagnostics.

    `functional` is the decomposed F.  `order` indexes the terms: the
    coordinates for the Clark forms (E[F] is their mean), the interaction
    orders 1..m for the Hoeffding layers of a U-statistic (theta is theirs).
    """

    functional: Functional
    order: tuple
    mean: float
    terms: list
    residual: float
    gram: np.ndarray
    variance_pair: tuple  # (var(F), sum of term second moments)

    @property
    def max_off_diagonal(self) -> float:
        if self.gram.size == 0:
            return 0.0
        off = self.gram - np.diag(np.diag(self.gram))
        return float(np.max(np.abs(off)))


def _gram(space: ProductSpace, terms) -> np.ndarray:
    """E[T_i T_j] for all pairs, read from the terms in place.

    The grid spans the axes some term stores (the others carry probability
    1) and P is the product law on it.  Row i, T_i P, fills one reused
    buffer and meets each later term in one vdot; a term stored on fewer
    axes meets the row summed over the axes it lacks.
    """
    m = len(terms)
    tables = [T.data for T in terms]
    shape = tuple(max(dims) for dims in zip(*(x.shape for x in tables)))
    laws = (c.pmf if k > 1 else np.ones(1) for c, k in zip(space.coords, shape))
    P = reduce(np.multiply.outer, laws, np.ones(()))
    lacks = [tuple(a for a, (k, kx) in enumerate(zip(shape, x.shape)) if kx < k) for x in tables]
    row = np.empty(shape)
    gram = np.zeros((m, m))
    for i, x in enumerate(tables):
        np.multiply(x, P, out=row)
        for j in range(i, m):
            summed = row.sum(axis=lacks[j]) if lacks[j] else row
            gram[i, j] = gram[j, i] = np.vdot(summed, tables[j])
    return gram


def _chain_gram(space: ProductSpace, increments, axes) -> np.ndarray:
    """E[T_i T_j] for the increments of one drop chain along `axes`.

    T_j ignores axes[:j], so E[T_i T_j] = E[(E_{axes[j-1]} ... E_{axes[i]} T_i) T_j]:
    row i averages T_i down the chain and meets each later term on that
    term's compact grid.  The supports shrink along the chain, so no row
    reaches the full grid and a row costs about as much as its T_i.
    """
    tables = [T.data for T in increments]
    every = range(space.n)
    m = len(tables)
    gram = np.zeros((m, m))
    for i, G in enumerate(tables):
        gram[i, i] = _average(space, G * G, every).item()
        for j in range(i + 1, m):
            G = _average(space, G, [axes[j - 1]])
            gram[i, j] = gram[j, i] = _average(space, G * tables[j], every).item()
    return gram


def _report(space, F, mean, order, terms, gram) -> DecompositionReport:
    """Diagnostics of F = mean + sum(terms), given the terms' Gram matrix.

    The Clark forms pass mean = E[F], and `clark` and `clark_reverse` pass
    `_chain_gram` of their drop chain; `clark_symmetric` and the Hoeffding
    layers, whose term supports are not nested, pass `_gram`.
    The residual adds the terms smallest first, so the running sum stays
    compact until the largest term joins it, and adds each into the sum's
    own array once the sum covers that term's shape.
    """
    total = np.full((1,) * space.n, mean)
    for x in sorted((T.data for T in terms), key=np.size):
        total = _add_into(total, x)
    total = _add_into(total, F.data, np.subtract)
    residual = float(np.max(np.abs(total, out=total)))
    del total  # before variance makes its own full-grid temporary
    var_pair = (variance(space, F), float(np.trace(gram)))
    return DecompositionReport(
        functional=F,
        order=tuple(order),
        mean=mean,
        terms=list(terms),
        residual=residual,
        gram=gram,
        variance_pair=var_pair,
    )


def _add_into(total: np.ndarray, x: np.ndarray, op=np.add) -> np.ndarray:
    """op(total, x), written into `total` when its compact shape covers x's."""
    if all(map(int.__ge__, total.shape, x.shape)):
        return op(total, x, out=total)
    return op(total, x)


def _drop_chain_increments(space: ProductSpace, F: Functional, axes) -> list:
    """G - E_a G for each a in `axes`, along G = F, then G = E_a G.

    A coordinate G does not depend on gives the constant 0 and leaves G as is.
    """
    increments, G = [], F
    for a in axes:
        if a not in G.deps:
            increments.append(space.constant(0.0))
            continue
        averaged = conditional_drop(space, G, a)
        increments.append(G - averaged)
        G = averaged
    return increments


def clark(space: ProductSpace, F: Functional, order=None) -> DecompositionReport:
    """Forward form: T_k = D_k E[F | F_k], F_k = sigma(first k coordinates).

    E[F | F_{k-1}] = E_{order[k]} E[F | F_k], so T_k = E[F | F_k] - E[F | F_{k-1}]
    and one chain of averages, from the last coordinate back, gives every term.
    """
    order = resolve_order(space, order)
    axes = order[::-1]
    increments = _drop_chain_increments(space, F, axes)
    gram = _chain_gram(space, increments, axes)[::-1, ::-1]
    return _report(space, F, expectation(space, F), order, increments[::-1], gram)


def clark_reverse(space: ProductSpace, F: Functional, order=None) -> DecompositionReport:
    """Reverse form: T_k = D_k E[F | H_{k-1}], H_j = sigma(coordinates after j).

    H_{k-1} still contains coordinate k and E[F | H_k] = E_{order[k]} E[F | H_{k-1}],
    so T_k = E[F | H_{k-1}] - E[F | H_k]: one chain from the first coordinate on.
    """
    order = resolve_order(space, order)
    increments = _drop_chain_increments(space, F, order)
    gram = _chain_gram(space, increments, order)
    return _report(space, F, expectation(space, F), order, increments, gram)


def clark_symmetric(space: ProductSpace, F: Functional) -> DecompositionReport:
    """Order-free form: terms[b] is coordinate b's forward term averaged over all orders.

    That average is D_b int_0^1 prod_{a != b} (uI + (1-u)E_a) F du, the
    `symmetric_coordinate_term` of b (the constant 0 if F ignores b), so the
    n terms sum to F - E[F].  They are not orthogonal: the Gram entries sum
    to var(F), and row b sums to E[T_b (F - E F)], the Shapley effect of
    coordinate b (Owen 2014).

    The integrand has degree |dep(F)| - 1 in u.  At each Gauss-Legendre node
    one divide and conquer over the coordinates gives every leave-one-out
    product: apply one half's factors and recurse into the other half, then
    swap the halves.  A node costs n log2 n applications of E_a, not n(n-1),
    and holds log2 n tables besides the n running integrals.
    """
    deps = sorted(F.deps)
    every = frozenset(range(space.n))
    integrals = {}

    def leave_one_out(G, coords, u, weight):
        if len(coords) == 1:
            b = coords[0]
            if b in integrals:
                integrals[b] += G.data * weight
            else:
                integrals[b] = G.data * weight
            return
        half = len(coords) // 2
        left, right = coords[:half], coords[half:]
        leave_one_out(mix(space, G, u, every.difference(right)), left, u, weight)
        leave_one_out(mix(space, G, u, every.difference(left)), right, u, weight)

    if deps:
        for u, weight in legendre_nodes(len(deps) - 1):
            leave_one_out(F, deps, u, weight)
    terms = []
    for b in range(space.n):
        if b not in integrals:
            terms.append(space.constant(0.0))
            continue
        R = integrals.pop(b)
        R -= _average(space, R, [b])
        terms.append(Functional(space, R, F.deps))
    return _report(
        space, F, expectation(space, F), tuple(range(space.n)), terms, _gram(space, terms)
    )


def symmetric_coordinate_term(space: ProductSpace, F: Functional, b: int) -> Functional:
    """Coordinate b's share of the symmetric form: sum over subsets containing b.

    Equals the average over all orderings of the forward Clark term of
    coordinate b.  The subset weight is Owen's multilinear-extension integral
    1/(r C(n,r)) = int_0^1 u^{r-1} (1-u)^{n-r} du, so the share is
    D_b int_0^1 M_u F du with coordinate b frozen: D_b of the resolvent.
    """
    return gradient_component(space, resolvent(space, F, frozen={b}), b)


def helmholtz(space: ProductSpace, U: CoordinateField):
    """Unique split U_a = D_a(phi) + V_a with E[phi] = 0 and delta(V) = 0.

    phi is the negative pseudo-inverse of the number operator at delta(U);
    then V = U - D(phi) is divergence-free because delta(D(phi)) = -L(phi)
    = delta(U).  The alternative construction V_a = E[U_a | G_a] with phi
    assembled from predictable projections satisfies the decomposition only
    for special fields (see `helmholtz_conditional`); by the uniqueness
    argument the pair below is the only valid one.
    """
    phi = -1.0 * invert_number_operator(space, divergence(space, U))
    Dphi = gradient(space, phi)
    indices = sorted(set(U.indices()) | set(Dphi.indices()))
    V = CoordinateField(space, {a: U[a] - Dphi[a] for a in indices})
    return phi, V


def helmholtz_conditional(space: ProductSpace, U: CoordinateField, order=None):
    """Source construction: V_a = E[U_a|G_a], phi = sum_k E[D_kU_k|F_k].

    delta(V) = 0 always holds (each V_a ignores coordinate a), but
    U_a = D_a(phi) + V_a can fail, e.g. for U = (0, X1*X2); kept so the gap
    against `helmholtz` stays observable.
    """
    order = resolve_order(space, order)
    phi = space.constant(0.0)
    for pos, k in enumerate(order, start=1):
        phi = phi + conditional_prefix(
            space, gradient_component(space, U[k], k), pos, order
        )
    V = CoordinateField(
        space, {a: conditional_drop(space, U[a], a) for a in U.indices()}
    )
    return phi, V


def covariance_identity(
    space: ProductSpace,
    F: Functional,
    G: Functional,
    order=None,
) -> tuple[float, float]:
    """Both sides of cov(F,G) = E[sum_k D_k E[F|F_k] * D_k G]."""
    order = resolve_order(space, order)
    lhs = expectation(space, F * G) - expectation(space, F) * expectation(space, G)
    terms = _drop_chain_increments(space, F, order[::-1])[::-1]
    rhs = 0.0
    for T, k in zip(terms, order):
        rhs += expectation(space, T * gradient_component(space, G, k))
    return lhs, rhs


def poincare(space: ProductSpace, F: Functional) -> tuple[float, float]:
    """(var(F), gradient energy sum_a E[(D_aF)^2]); variance never exceeds energy.

    The energy is the Dirichlet form E(F, F) = -E[F LF] = -E[(F - E F) LF]
    (each D_a is an orthogonal projection and L = -sum_a D_a), taken from one
    application of L instead of n gradient tables.  Its rounding error
    relative to the energy is about n eps, since var(F) <= energy.
    """
    var = variance(space, F)
    if not F.deps:
        return var, 0.0
    product = number_operator(space, F).data  # a fresh table of F's shape
    product *= F.data - expectation(space, F)
    return var, -_average(space, product, range(space.n)).item()


# -- validators -------------------------------------------------------------


def check_conditional_commutation(space, F: Functional, k_pos: int, order=None) -> float:
    """Residual of D_k E[F|F_k] = E[D_kF | F_k] at prefix position k_pos."""
    order = resolve_order(space, order)
    k = order[k_pos - 1]
    lhs = gradient_component(space, conditional_prefix(space, F, k_pos, order), k)
    rhs = conditional_prefix(space, gradient_component(space, F, k), k_pos, order)
    return (lhs - rhs).sup_norm()
