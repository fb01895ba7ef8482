"""Clark representations, Helmholtz decomposition, covariance and Poincare.

A Clark representation writes F - E[F] as a sum of predictable increments
T_k = D_k E[F | F_k] along a coordinate ordering; the reverse form uses the
backward filtration, and the symmetric form averages over all orderings via
a subset expansion.  The Helmholtz decomposition splits a coordinate field
into a gradient part and a divergence-free part.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Sequence

import numpy as np

from .errors import ExactModeOverflow
from .space import (
    Functional,
    ProductSpace,
    conditional_drop,
    conditional_on,
    conditional_prefix,
    expectation,
    variance,
)
from .calculus import (
    CoordinateField,
    divergence,
    gradient,
    gradient_component,
    invert_number_operator,
)
from .semigroup import resolvent

MAX_SYMMETRIC_COORDS = 12


@dataclass
class DecompositionReport:
    """Terms of one representation F = E[F] + sum(terms), with diagnostics."""

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


def _report(space, F, order, terms) -> DecompositionReport:
    mean = expectation(space, F)
    recon = space.constant(mean)
    for T in terms:
        recon = recon + T
    residual = (recon - F).sup_norm()
    m = len(terms)
    gram = np.empty((m, m))
    for i in range(m):
        # one weighted row per term; stacking every term would hold all m tensors
        row = terms[i].values * space.weights
        for j in range(i, m):
            gram[i, j] = gram[j, i] = float(np.vdot(row, terms[j].values))
    var_pair = (variance(space, F), float(np.trace(gram)) if m else 0.0)
    return DecompositionReport(
        order=tuple(order),
        mean=mean,
        terms=list(terms),
        residual=residual,
        gram=gram,
        variance_pair=var_pair,
    )


def _resolve_order(space: ProductSpace, order) -> list:
    if order is None:
        return list(range(space.n))
    order = list(order)
    conditional_prefix(space, space.constant(0.0), 0, order)  # validates
    return order


def clark(space: ProductSpace, F: Functional, order=None) -> DecompositionReport:
    """Forward form: T_k = D_k E[F | F_k], F_k = sigma(first k coordinates)."""
    space.require_exact()
    order = _resolve_order(space, order)
    terms = []
    for pos, k in enumerate(order, start=1):
        terms.append(
            gradient_component(space, conditional_prefix(space, F, pos, order), k)
        )
    return _report(space, F, order, terms)


def clark_reverse(space: ProductSpace, F: Functional, order=None) -> DecompositionReport:
    """Reverse form: T_k = D_k E[F | H_{k-1}], H_j = sigma(coordinates after j)."""
    space.require_exact()
    order = _resolve_order(space, order)
    terms = []
    for pos, k in enumerate(order, start=1):
        tail = set(order[pos - 1 :])  # H_{k-1} still contains coordinate k
        terms.append(gradient_component(space, conditional_on(space, F, tail), k))
    return _report(space, F, order, terms)


def clark_symmetric(space: ProductSpace, F: Functional) -> DecompositionReport:
    """Order-free form: sum over subsets B of C(n,|B|)^{-1} |B|^{-1} sum_b D_b E[F|X_B].

    Every E[F|X_B] comes from one drop tree, E[F|X_{B-a}] = E_a E[F|X_B], and
    D_b E[F|X_B] = E[F|X_B] - E[F|X_{B-b}] for b in B, so the size-r terms
    need only the size-r and size-(r-1) conditionals; smaller ones are freed.

    The per-subset terms reconstruct F - E[F] exactly but are not mutually
    orthogonal (components of different subsets overlap), so the Gram matrix
    of this report is informational only.
    """
    space.require_exact()
    n = space.n
    if n > MAX_SYMMETRIC_COORDS:
        raise ExactModeOverflow(
            f"symmetric form over {n} coordinates exceeds the "
            f"{MAX_SYMMETRIC_COORDS}-coordinate cap"
        )
    cond = {frozenset(range(n)): F}
    for a in range(n):
        for B, G in list(cond.items()):
            cond[B - {a}] = conditional_drop(space, G, a)
    terms = []
    for r in range(1, n + 1):
        w = 1.0 / (comb(n, r) * r)
        for B in combinations(range(n), r):
            key = frozenset(B)
            term = space.constant(0.0)
            for b in B:
                term = term + (cond[key] - cond[key - {b}])
            terms.append(term * w)
        cond = {B: G for B, G in cond.items() if len(B) >= r}
    return _report(space, F, tuple(range(n)), terms)


def symmetric_coordinate_term(space: ProductSpace, F: Functional, b: int) -> Functional:
    """Coordinate b's share of the symmetric form: sum over subsets containing b.

    Equals the average over all orderings of the forward Clark term of
    coordinate b.  The subset weight is Owen's multilinear-extension integral
    1/(r C(n,r)) = int_0^1 u^{r-1} (1-u)^{n-r} du, so the share is
    D_b int_0^1 M_u F du with coordinate b frozen: D_b of the resolvent.
    """
    space.require_exact()
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
    space.require_exact()
    dU = divergence(space, U)
    if dU.sup_norm() <= 1e-14:
        phi = space.constant(0.0)
    else:
        phi = -1.0 * invert_number_operator(space, dU)
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
    space.require_exact()
    order = _resolve_order(space, order)
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
    space.require_exact()
    order = _resolve_order(space, order)
    lhs = expectation(space, F * G) - expectation(space, F) * expectation(space, G)
    rhs = 0.0
    for pos, k in enumerate(order, start=1):
        T = gradient_component(space, conditional_prefix(space, F, pos, order), k)
        rhs += expectation(space, T * gradient_component(space, G, k))
    return lhs, rhs


def poincare(space: ProductSpace, F: Functional) -> tuple[float, float]:
    """(var(F), gradient energy sum_a E[(D_aF)^2]); variance never exceeds energy."""
    space.require_exact()
    energy = 0.0
    for a in sorted(F.deps):
        DaF = gradient_component(space, F, a)
        energy += expectation(space, DaF * DaF)
    return variance(space, F), energy


# -- validators -------------------------------------------------------------


def check_conditional_commutation(space, F: Functional, k_pos: int, order=None) -> float:
    """Residual of D_k E[F|F_k] = E[D_kF | F_k] at prefix position k_pos."""
    order = _resolve_order(space, order)
    k = order[k_pos - 1]
    lhs = gradient_component(space, conditional_prefix(space, F, k_pos, order), k)
    rhs = conditional_prefix(space, gradient_component(space, F, k), k_pos, order)
    return (lhs - rhs).sup_norm()
