"""Coordinate-resampling semigroup: exact evaluation, jump simulator, resolvent.

P_t acts coordinate-wise: each coordinate is independently kept with
probability e^{-t} and resampled from its marginal otherwise.  The keep
probability is e^{-t}; the resampled branch has probability 1 - e^{-t},
which is the orientation forced by the commutation identity
D_a P_t = e^{-t} P_t D_a and by stationarity (see also
`mehler_apply_swapped`, kept so both conventions can be compared).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import exp
from typing import Sequence

import numpy as np

from .errors import NegativeTime
from .space import (
    Functional,
    ProductSpace,
    conditional_prefix,
    expectation,
)
from .calculus import gradient_component, legendre_integral, mix


@dataclass
class Trajectory:
    """Jump record of the resampling process on [0, horizon]."""

    initial: tuple
    horizon: float
    events: list = field(default_factory=list)  # (time, coordinate, new outcome)

    def state_at(self, t: float) -> tuple:
        cfg = list(self.initial)
        for s, a, v in self.events:
            if s > t:
                break
            cfg[a] = v
        return tuple(cfg)


def mehler_apply(space: ProductSpace, F: Functional, t: float, frozen=()) -> Functional:
    """P_t F: keep each coordinate with probability e^{-t}, else resample.

    `frozen` lists coordinates exempt from resampling; this realizes the
    semigroup acting on a gradient process, where the differentiated
    coordinate stays fixed.
    """
    if t < 0:
        raise NegativeTime(f"negative time {t}")
    return mix(space, F, exp(-t), frozen)


def mehler_apply_swapped(space: ProductSpace, F: Functional, t: float) -> Functional:
    """Same mixture with the keep/resample weights exchanged (for comparison)."""
    if t < 0:
        raise NegativeTime(f"negative time {t}")
    return mix(space, F, 1.0 - exp(-t))


def simulate(
    space: ProductSpace,
    x0: Sequence[int],
    horizon: float,
    rng: np.random.Generator,
) -> Trajectory:
    """Jump-chain sampler: Poisson clock of rate n, uniform coordinate, resample."""
    if horizon < 0:
        raise NegativeTime(f"negative horizon {horizon}")
    traj = Trajectory(initial=tuple(int(v) for v in x0), horizon=horizon)
    n = space.n
    t = rng.exponential(1.0 / n)
    while t <= horizon:
        a = int(rng.integers(n))
        v = int(rng.choice(space.coords[a].size, p=space.coords[a].pmf))
        traj.events.append((t, a, v))
        t += rng.exponential(1.0 / n)
    return traj


def simulate_terminal(
    space: ProductSpace,
    x0: Sequence[int],
    t: float,
    rng: np.random.Generator,
    size: int,
) -> np.ndarray:
    """Terminal states of `size` independent jump chains started at x0.

    Batched version of `simulate` keeping only the time-t state: draws the
    jump counts, coordinate choices and resampled outcomes for all
    replications at once.
    """
    if t < 0:
        raise NegativeTime(f"negative time {t}")
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
    # jumps within one trajectory are exchangeable given the count, so the
    # last resample of each (path, coordinate) cell can be read off in draw
    # order: the first hit of each cell in the reversed sequence
    cells = np.repeat(np.arange(size), counts) * n + coords_hit
    hit, first_from_end = np.unique(cells[::-1], return_index=True)
    out.reshape(-1)[hit] = resampled[total - 1 - first_from_end]
    return out


def resolvent(space: ProductSpace, G: Functional, frozen=()) -> Functional:
    """int_0^inf e^{-t} P_t G dt = int_0^1 M_u G du (substituting u = e^{-t}).

    The integrand has degree |dep(G) - frozen| in u, so Gauss-Legendre
    quadrature over the mixing pass is exact.  Coordinates in `frozen` are
    exempt from resampling, matching `mehler_apply(..., frozen=...)`.
    """
    return legendre_integral(
        space, lambda u: mix(space, G, u, frozen), len(G.deps - frozenset(frozen))
    )


def covariance_semigroup(
    space: ProductSpace,
    F: Functional,
    G: Functional,
    order: Sequence[int] | None = None,
    conditioned: bool = False,
) -> tuple[float, float]:
    """Both sides of the semigroup covariance identity.

    Default (exact) form::

        cov(F, G) = E[sum_k D_kF  int_0^inf e^{-t} P_t D_kG dt]

    where the semigroup inside the integral leaves coordinate k frozen — the
    integral is then exactly -D_k applied to the pseudo-inverse of the
    number operator at G, so the identity reduces to integration by parts
    and holds to machine precision.

    With ``conditioned=True``, D_kG is first replaced by E[D_kG | F_k]
    (conditioning on the first coordinates of `order`, up to and including
    k).  That is how the identity is sometimes stated, but the conditioned
    form is *not* exact: on fair +-1 coordinates with F = G = X1*X2 it
    yields 1/2 against cov = 1, because the cross-terms
    E[D_k E[F|F_k] * D_l P_t E[G|F_k]] with l != k do not vanish.  It is
    kept so the discrepancy stays observable.
    """
    space.require_exact()
    if order is None:
        order = list(range(space.n))
    order = list(order)
    lhs = expectation(space, F * G) - expectation(space, F) * expectation(space, G)
    rhs = 0.0
    for pos, k in enumerate(order, start=1):
        inner = gradient_component(space, G, k)
        if conditioned:
            inner = conditional_prefix(space, inner, pos, order)
        rhs += expectation(
            space,
            gradient_component(space, F, k) * resolvent(space, inner, frozen={k}),
        )
    return lhs, rhs


# -- validators -------------------------------------------------------------


def check_semigroup_law(space, F: Functional, s: float, t: float) -> float:
    lhs = mehler_apply(space, mehler_apply(space, F, s), t)
    rhs = mehler_apply(space, F, s + t)
    return (lhs - rhs).sup_norm()


def check_commutation(space, F: Functional, a: int, t: float) -> float:
    """Residual of D_a P_t F = e^{-t} P_t D_a F.

    On the right the semigroup acts on the gradient as a process: the
    differentiated coordinate a stays frozen (it is the argument of the
    process, not a coordinate to resample).  With the full semigroup on the
    right the identity would pick up a spurious extra factor e^{-t}.
    """
    lhs = gradient_component(space, mehler_apply(space, F, t), a)
    rhs = mehler_apply(space, gradient_component(space, F, a), t, frozen={a}) * exp(-t)
    return (lhs - rhs).sup_norm()


def check_contraction(space, F: Functional, t: float) -> tuple[float, float]:
    PtF = mehler_apply(space, F, t)
    return expectation(space, PtF * PtF), expectation(space, F * F)


def check_stationarity(space: ProductSpace) -> float:
    """Sup distance between the product law pi and its one-jump pushforward pi P.

    A jump resamples a uniformly chosen coordinate a from its marginal, so
    pi P = (1/n) sum_a (pi summed over axis a) * pmf_a, which costs O(n m)
    on m configurations and never forms the m x m jump kernel.
    """
    pi = space.weights
    pushed = np.zeros(space.shape)
    for a, c in enumerate(space.coords):
        along_a = [1] * space.n
        along_a[a] = c.size
        pushed += pi.sum(axis=a, keepdims=True) * c.pmf.reshape(along_a)
    return float(np.max(np.abs(pushed / space.n - pi)))
