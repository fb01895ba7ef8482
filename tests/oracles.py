"""Slow reference routes for the fast routes of the library.

`resolvent`, `invert_number_operator` and `symmetric_coordinate_term` are
integrals of the mixing operator M_u, and `anova` and `clark_symmetric` are
trees of single-coordinate averages; the subset oracles here compute the
same quantities independently, by summing over the 2^n coordinate subsets.
They are exact but exponential in n, so the tests call them at n <= 8 only.

`jump_kernel_matrix` is the dense m x m one-jump kernel behind the operator
form of `check_stationarity`, for tiny m only, and `loop_simulate_terminal`
is the per-jump loop that `simulate_terminal` vectorises.
"""

from itertools import combinations
from math import comb, factorial

import numpy as np

from dmc.calculus import anova, gradient_component
from dmc.space import Functional, conditional_on, integrate_out


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


def mobius_anova(space, F):
    """{S: F_S} by the literal Moebius sum F_S = sum_{T in S} (-1)^{|S-T|} E[F | X_T]."""
    deps = sorted(F.deps)
    components = {}
    for r in range(len(deps) + 1):
        for S in combinations(deps, r):
            comp = space.constant(0.0)
            for k in range(r + 1):
                for T in combinations(S, k):
                    comp = comp + conditional_on(space, F, T) * (-1.0) ** (r - k)
            components[frozenset(S)] = Functional(space, comp.values, frozenset(S))
    return components


def subset_clark_symmetric_terms(space, F):
    """The symmetric Clark terms C(n,r)^{-1} r^{-1} sum_{b in B} D_b E[F | X_B], B by size."""
    n = space.n
    terms = []
    for r in range(1, n + 1):
        w = 1.0 / (comb(n, r) * r)
        for B in combinations(range(n), r):
            cond = conditional_on(space, F, B)
            term = space.constant(0.0)
            for b in B:
                term = term + gradient_component(space, cond, b)
            terms.append(term * w)
    return terms


def jump_kernel_matrix(space):
    """One-jump transition matrix on configuration indices."""
    m = space.config_count
    P = np.zeros((m, m))
    n = space.n
    for idx in range(m):
        cfg = space.index_to_config(idx)
        for a in range(n):
            for v, p in enumerate(space.coords[a].pmf):
                new = list(cfg)
                new[a] = v
                P[idx, space.config_to_index(new)] += p / n
    return P


def kernel_stationarity(space):
    """Sup distance between the product law and its pushforward by the dense kernel."""
    pi = space.weights.reshape(-1)
    return float(np.max(np.abs(pi @ jump_kernel_matrix(space) - pi)))


def loop_simulate_terminal(space, x0, t, rng, size):
    """`simulate_terminal` with its last-jump step as a loop over paths and jumps."""
    n = space.n
    counts = rng.poisson(n * t, size=size)
    total = int(counts.sum())
    coords_hit = rng.integers(n, size=total)
    out = np.tile(np.asarray(x0, dtype=np.int64), (size, 1))
    resampled = np.empty(total, dtype=np.int64)
    for a in range(n):
        mask = coords_hit == a
        if mask.any():
            resampled[mask] = rng.choice(
                space.coords[a].size, size=int(mask.sum()), p=space.coords[a].pmf
            )
    offsets = np.concatenate([[0], np.cumsum(counts)])
    for i in range(size):
        for j in range(offsets[i], offsets[i + 1]):
            out[i, coords_hit[j]] = resampled[j]
    return out
