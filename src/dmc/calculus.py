"""Operator core: gradient, divergence, number operator, ANOVA, trace form.

The gradient of F along coordinate a is F minus its conditional expectation
given all other coordinates; the divergence of a coordinate field U is the
sum of the per-coordinate gradients of its components.  The number operator
L = -sum_a D_a acts as multiplication by -|S| on the ANOVA component
supported on the coordinate subset S.

The generating operator M_u = prod_a (u I + (1-u) E_a) multiplies that
component by u^|S|, so M_u F = sum_k u^k H_k over the ANOVA layers H_k.
Integrals of M_u over u in [0, 1] are polynomial in u; Gauss-Legendre
quadrature evaluates them exactly from a few mixing passes, which gives the
pseudo-inverse of L (and the resolvent in `semigroup`) without enumerating
coordinate subsets.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Mapping

import numpy as np

from .errors import ExactModeOverflow, NotCentered
from .space import (
    Functional,
    ProductSpace,
    conditional_drop,
    expectation,
)

MAX_ANOVA_COORDS = 20


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
    return F - conditional_drop(space, F, a)


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
    out = space.constant(0.0)
    for a in sorted(F.deps):
        out = out - gradient_component(space, F, a)
    return out


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
    G - E_a G under S + {a}: 2^|deps| - 1 applications of E_a.  An exactly
    zero node has zero descendants and is dropped; the empty node is kept.
    """
    space.require_exact()
    deps = sorted(F.deps)
    if len(deps) > MAX_ANOVA_COORDS:
        raise ExactModeOverflow(
            f"ANOVA over {len(deps)} coordinates exceeds the {MAX_ANOVA_COORDS}-coordinate cap"
        )
    components: Dict[FrozenSet[int], Functional] = {frozenset(): F}
    for a in deps:
        split = {}
        for S, G in components.items():
            averaged = conditional_drop(space, G, a)
            kept = G - averaged
            if not S or averaged.sup_norm() > 0.0:
                split[S] = averaged
            if kept.sup_norm() > 0.0:
                split[S | {a}] = kept
        components = split
    return AnovaDecomposition(space, components)


def mix(space: ProductSpace, F: Functional, u: float, frozen=()) -> Functional:
    """M_u F = prod_a (u I + (1-u) E_a) F over the coordinates not in `frozen`.

    Each coordinate is kept with probability u and averaged out otherwise,
    so the ANOVA component on S is multiplied by u^|S - frozen|.
    """
    out = F
    for a in sorted(F.deps - frozenset(frozen)):
        out = out * u + conditional_drop(space, out, a) * (1.0 - u)
    return out


def legendre_integral(space: ProductSpace, integrand, degree: int) -> Functional:
    """int_0^1 integrand(u) du by Gauss-Legendre quadrature on [0, 1].

    `integrand` maps u to a Functional.  With degree // 2 + 1 nodes the rule
    is exact when the integrand is a polynomial in u of degree <= `degree`.
    """
    x, w = np.polynomial.legendre.leggauss(max(degree, 0) // 2 + 1)
    out = space.constant(0.0)
    for xi, wi in zip(x, w):
        out = out + integrand(0.5 * (1.0 + float(xi))) * (0.5 * float(wi))
    return out


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

    def integrand(u):
        M = mix(space, centred, u)
        return (M - expectation(space, M)) * (-1.0 / u)

    return legendre_integral(space, integrand, len(F.deps) - 1)


def trace_form(space: ProductSpace, U: CoordinateField, V: CoordinateField) -> float:
    """E[trace(DU o DV)] = E[sum_{a,b} D_a U_b D_b V_a]."""
    space.require_exact()
    total = 0.0
    for b in U.indices():
        for a in V.indices():
            dU = gradient_component(space, U[b], a)
            dV = gradient_component(space, V[a], b)
            total += expectation(space, dU * dV)
    return total


def field_inner(space: ProductSpace, U: CoordinateField, V: CoordinateField) -> float:
    """<U, V> in L2(A x E_A): sum_a E[U_a V_a]."""
    total = 0.0
    for a in set(U.indices()) | set(V.indices()):
        total += expectation(space, U[a] * V[a])
    return total


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
    from .space import conditional_prefix

    dU = divergence(space, U)
    lhs = expectation(space, dU * dU)
    rhs = 0.0
    for k in U.indices():
        innov = U[k] - conditional_prefix(space, U[k], k)
        rhs += expectation(space, innov * innov)
    return lhs, rhs, abs(lhs - rhs)
