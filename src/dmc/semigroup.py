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
from math import exp, prod
from typing import Sequence

import numpy as np

from .errors import NegativeTime
from .space import (
    Functional,
    ProductSpace,
    conditional_prefix,
    expectation,
    resolve_order,
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


def _check_time(t: float, what: str = "time"):
    """Refuse a negative or NaN time; t = inf is the limit, P_inf F = E F."""
    if not t >= 0:
        raise NegativeTime(f"{what} must be >= 0, got {t}")


def mehler_apply(space: ProductSpace, F: Functional, t: float, frozen=()) -> Functional:
    """P_t F: keep each coordinate with probability e^{-t}, else resample.

    `frozen` lists coordinates exempt from resampling; this realizes the
    semigroup acting on a gradient process, where the differentiated
    coordinate stays fixed.
    """
    _check_time(t)
    return mix(space, F, exp(-t), frozen)


def mehler_apply_swapped(space: ProductSpace, F: Functional, t: float) -> Functional:
    """Same mixture with the keep/resample weights exchanged (for comparison)."""
    _check_time(t)
    return mix(space, F, 1.0 - exp(-t))


def simulate(
    space: ProductSpace,
    x0: Sequence[int],
    horizon: float,
    rng: np.random.Generator,
) -> Trajectory:
    """Jump-chain sampler: Poisson clock of rate n, uniform coordinate, resample."""
    _check_time(horizon, "horizon")
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
    replications at once.  The jumps are stored path by path, so the hits of
    coordinate `a`, in draw order, fall into runs of one path each, and the
    last entry of a run is that path's last resample of `a`: only it is
    written.  Besides the `(size, n)` result it holds the per-path end
    offsets and the coordinate of every jump, and the hits of one coordinate
    at a time.
    """
    _check_time(t)
    n = space.n
    ends = rng.poisson(n * t, size=size)
    np.cumsum(ends, out=ends)
    coords_hit = rng.integers(n, size=int(ends[-1]) if size else 0)
    out = np.tile(np.asarray(x0, dtype=np.int64), (size, 1))
    for a in range(n):
        at = np.flatnonzero(coords_hit == a)
        if at.size:
            draws = rng.choice(space.coords[a].size, size=at.size, p=space.coords[a].pmf)
            path = np.searchsorted(ends, at, side="right")
            last = np.append(path[1:] != path[:-1], True)
            out[path[last], a] = draws[last]
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
    order = resolve_order(space, order)
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
    on m configurations and never forms the m x m jump kernel.  pi is the
    product of the coordinates' pmfs as functionals, so the space refuses it
    before it would pass the exact-mode ceiling.
    """
    laws = [
        Functional(space, c.pmf.reshape([c.size if b == a else 1 for b in range(space.n)]), {a})
        for a, c in enumerate(space.coords)
    ]
    pi = prod(laws, start=space.constant(1.0))
    pushed = np.zeros(pi.data.shape)
    for a, law in enumerate(laws):
        pushed += pi.data.sum(axis=a, keepdims=True) * law.data
    return float(np.max(np.abs(pushed / space.n - pi.data)))
