"""Log-Sobolev and concentration inequalities as computable reports."""

from __future__ import annotations

import numpy as np

from .errors import NonPositiveFunctional
from .space import (
    Functional,
    ProductSpace,
    _average,
    conditional_drop,
    conditional_prefix,
    expectation,
    resolve_order,
)


def entropy(space: ProductSpace, G: Functional) -> float:
    """E[G log G] - E[G] log E[G] for positive G."""
    if float(np.min(G.data)) <= 0.0:
        raise NonPositiveFunctional("entropy needs a pointwise positive functional")
    m = expectation(space, G)
    return expectation(space, G * G.apply(np.log)) - m * float(np.log(m))


def log_sobolev(space: ProductSpace, G: Functional) -> tuple[float, float]:
    """(entropy, modified gradient energy sum_k E[(D_kG)^2 / E[G|G_k]])."""
    ent = entropy(space, G)
    rhs = 0.0
    for k in sorted(G.deps):
        denom = conditional_drop(space, G, k)
        DkG = G - denom
        rhs += expectation(space, DkG * DkG / denom)
    return ent, rhs


def ell(x: float, y: float) -> float:
    """(x+y)log(x+y) - x log x - (log x + 1)y; the Bregman gap of u log u.

    Satisfies 0 <= ell(x, y) <= y^2/x for x > 0, x + y >= 0.
    """
    xy = x + y
    first = 0.0 if xy == 0.0 else xy * np.log(xy)
    return float(first - x * np.log(x) - (np.log(x) + 1.0) * y)


def concentration(space: ProductSpace, F: Functional, order=None):
    """(M, tail bound x -> exp(-x^2 / 2M)) for P(F - E[F] >= x).

    M = sup over configurations of sum_k |D_kF| * E[|D_kF| | F_k].

    Each coordinate fills one |D_kF| table in place (the difference, its
    absolute value, then the product with its prefix average) and adds it
    to the running total; E_kF and the prefix average are freed once used.
    A coordinate F ignores adds zero and is skipped.
    """
    order = resolve_order(space, order)
    total = None
    for pos, k in enumerate(order, start=1):
        if k not in F.deps:
            continue
        term = F.data - _average(space, F.data, [k])
        np.abs(term, out=term)
        term *= conditional_prefix(space, Functional(space, term, F.deps), pos, order).data
        if total is None:
            total = term
        else:
            total += term
        del term  # before the next coordinate's table is allocated
    M = 0.0 if total is None else float(np.max(total))

    def tail_bound(x: float) -> float:
        if M == 0.0:
            return 1.0 if x <= 0.0 else 0.0
        if x <= 0.0:
            return 1.0
        return float(np.exp(-(x * x) / (2.0 * M)))

    return M, tail_bound


def exact_tail(space: ProductSpace, F: Functional, x) -> np.ndarray:
    """P(F - E[F] >= t) by enumeration, for every threshold t in the array `x`."""
    centred = F.data - expectation(space, F)
    x = np.asarray(x, dtype=float)
    axes = range(space.n)
    tails = [_average(space, (centred >= t).astype(float), axes).item() for t in x.flat]
    return np.reshape(tails, x.shape)
