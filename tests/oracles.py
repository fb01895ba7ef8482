"""Subset-enumeration oracles for the Gauss-Legendre routes of the library.

`resolvent`, `invert_number_operator` and `symmetric_coordinate_term` are
integrals of the mixing operator M_u; each function here computes the same
quantity independently, by summing over the 2^n coordinate subsets.  They
are exact but exponential in n, so the tests call them at n <= 8 only.
"""

from itertools import combinations
from math import comb, factorial

from dmc.calculus import anova, gradient_component
from dmc.space import conditional_on, integrate_out


def beta_weight(k: int, n: int) -> float:
    """int_0^1 u^k (1-u)^{n-k} du = k! (n-k)! / (n+1)!."""
    return factorial(k) * factorial(n - k) / factorial(n + 1)


def subset_resolvent(space, G, frozen=()):
    """int_0^inf e^{-t} P_t G dt as a beta-weighted sum over kept subsets."""
    deps = sorted(G.deps - frozenset(frozen))
    n = len(deps)
    out = space.constant(0.0)
    for r in range(n + 1):
        w = beta_weight(r, n)
        for K in combinations(deps, r):
            out = out + integrate_out(space, G, set(deps) - set(K)) * w
    return out


def anova_inverse(space, F):
    """L^-1 F: rescale each non-empty ANOVA component F_S by -1/|S|."""
    out = space.constant(0.0)
    for S, comp in anova(space, F).components.items():
        if S:
            out = out + comp * (-1.0 / len(S))
    return out


def subset_symmetric_term(space, F, b):
    """sum over subsets B containing b of D_b E[F | X_B] / (|B| C(n, |B|))."""
    n = space.n
    out = space.constant(0.0)
    for r in range(1, n + 1):
        w = 1.0 / (comb(n, r) * r)
        for B in combinations(range(n), r):
            if b in B:
                out = out + gradient_component(space, conditional_on(space, F, B), b) * w
    return out
