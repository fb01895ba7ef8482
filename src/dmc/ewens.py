"""Ewens random permutations through the transposition-coordinate bijection.

A permutation of {1..N} is encoded by independent coordinates I_k in {1..k}:
sigma = (N, i_N) o ... o (2, i_2).  With P(I_k = k) = t/(t+k-1) and
P(I_k = j) = 1/(t+k-1) otherwise, the push-forward is the Ewens measure.
All fixed-point analytics run on the coordinate (index) space; the N!
enumeration of permutations serves only as an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product

import numpy as np

from .errors import BadParameters, EnumOverflow, IndexOutOfRange
from .space import (
    Coordinate,
    Functional,
    ProductSpace,
    build_space,
    expectation,
)
from .decompose import clark_reverse

MAX_ENUM_N = 8


@dataclass
class EwensModel:
    N: int
    t: float

    def __post_init__(self):
        if self.N < 1:
            raise BadParameters(f"N must be >= 1, got {self.N}")
        if not 0 < self.t < np.inf:
            raise BadParameters(f"t must be finite and > 0, got {self.t}")
        self.space = index_space(self.N, self.t)

    def p(self, k: int) -> float:
        return 1.0 / (self.t + k - 1)

    def alpha_printed(self, k: int) -> float:
        """Literal displayed survival factor prod (j-1)/(t+j-1); see `alpha`."""
        out = 1.0
        for j in range(k + 1, self.N + 1):
            out *= (j - 1) / (self.t + j - 1)
        return out

    def alpha(self, k: int) -> float:
        """prod_{j>k} (1 - p_j) = (t+k-1)/(t+N-1).

        The displayed factor replaces t+j-2 by j-1 in the numerator; the two
        agree only at t = 1.  With this corrected factor the fixed-point
        indicator is Bernoulli(t p_k alpha_k) = Bernoulli(t/(t+N-1)), the
        same for every position, as forced by exact enumeration.
        """
        return (self.t + k - 1) / (self.t + self.N - 1)


def index_space(N: int, t: float) -> ProductSpace:
    coords = []
    for k in range(1, N + 1):
        pmf = np.full(k, 1.0 / (t + k - 1))
        pmf[-1] = t / (t + k - 1)
        coords.append(
            Coordinate(id=f"i{k}", labels=tuple(str(j) for j in range(1, k + 1)), pmf=pmf)
        )
    return build_space(coords)


# -- bijection with permutations --------------------------------------------


def gamma_map(i: tuple) -> tuple:
    """Index vector (1-based values i_k in {1..k}) -> permutation image array."""
    N = len(i)
    for k, ik in enumerate(i, start=1):
        if not 1 <= ik <= k:
            raise IndexOutOfRange(f"index {ik} invalid at position {k}")
    sigma = list(range(1, N + 1))
    for k in range(2, N + 1):
        a, b = k, i[k - 1]
        # left-compose with the transposition (k, i_k)
        for x in range(N):
            if sigma[x] == a:
                sigma[x] = b
            elif sigma[x] == b:
                sigma[x] = a
    return tuple(sigma)


def gamma_inverse(sigma: tuple) -> tuple:
    """Peel transpositions from the top: i_k = sigma_k(k)."""
    N = len(sigma)
    if sorted(sigma) != list(range(1, N + 1)):
        raise IndexOutOfRange("not a permutation of 1..N")
    work = list(sigma)
    out = [1] * N
    for k in range(N, 1, -1):
        ik = work[k - 1]
        out[k - 1] = ik
        a, b = k, ik
        for x in range(N):
            if work[x] == a:
                work[x] = b
            elif work[x] == b:
                work[x] = a
    return tuple(out)


def cycle_count(sigma: tuple) -> int:
    N = len(sigma)
    seen = [False] * N
    cycles = 0
    for start in range(N):
        if not seen[start]:
            cycles += 1
            x = start
            while not seen[x]:
                seen[x] = True
                x = sigma[x] - 1
    return cycles


def all_index_vectors(N: int):
    if N > MAX_ENUM_N:
        raise EnumOverflow(f"enumeration capped at N = {MAX_ENUM_N}, got {N}")
    return iter_product(*(range(1, k + 1) for k in range(1, N + 1)))


def ewens_pmf(sigma: tuple, t: float) -> float:
    """Ground truth: product of coordinate probabilities of gamma_inverse(sigma).

    Equals t^{cyc(sigma) - 1} / ((t+1)...(t+N-1)).
    """
    if not 0 < t < np.inf:
        raise BadParameters(f"t must be finite and > 0, got {t}")
    i = gamma_inverse(sigma)
    out = 1.0
    for k, ik in enumerate(i, start=1):
        out *= (t if ik == k else 1.0) / (t + k - 1)
    return out


def ewens_pmf_printed(sigma: tuple, t: float) -> float:
    """Displayed closed form t^{cyc} / ((t+1)...(t+N-1)).

    Off by one factor of t from the coordinate-product law: it does not
    normalize for t != 1.  Reported alongside, never used as ground truth.
    """
    N = len(sigma)
    denom = 1.0
    for k in range(2, N + 1):
        denom *= t + k - 1
    return t ** cycle_count(sigma) / denom


# -- sampling ---------------------------------------------------------------


def sample_indices(model: EwensModel, rng: np.random.Generator, size: int) -> np.ndarray:
    """iid index matrices, shape (size, N), entries are 1-based values."""
    return model.space.sample_configs(rng, size) + 1


def sample(model: EwensModel, rng: np.random.Generator) -> tuple:
    """One Ewens permutation via the transposition coordinates."""
    return gamma_map(tuple(int(v) for v in sample_indices(model, rng, 1)[0]))


def feller_map(i: tuple) -> tuple:
    """Insertion coupling sigma_k = sigma_{k-1} o (sigma_{k-1}^{-1}(i_k), k)."""
    N = len(i)
    sigma = [1]
    for k in range(2, N + 1):
        sigma.append(k)
        ik = int(i[k - 1])
        # right-compose with (sigma^{-1}(i_k), k): swap the images at those spots
        pos = sigma.index(ik)
        sigma[pos], sigma[k - 1] = sigma[k - 1], sigma[pos]
    return tuple(sigma)


# -- fixed-point analytics on the index space --------------------------------


def _indicator_eq(model: EwensModel, pos: int, value: int) -> Functional:
    """1(I_pos = value), positions and values 1-based."""
    sp = model.space
    return sp.indicator(lambda cfg, p=pos, v=value: cfg[p - 1] + 1 == v, deps={pos - 1})


def _indicator_ne(model: EwensModel, pos: int, value: int) -> Functional:
    sp = model.space
    return sp.indicator(lambda cfg, p=pos, v=value: cfg[p - 1] + 1 != v, deps={pos - 1})


def _survival_term(model: EwensModel, pos: int, k: int, shift: float) -> Functional:
    """(1(I_pos = k) - shift) prod_{m>pos} 1(I_m != k)."""
    out = _indicator_eq(model, pos, k) - shift
    for m in range(pos + 1, model.N + 1):
        out = out * _indicator_ne(model, m, k)
    return out


def fixed_point_functional(model: EwensModel, k: int) -> Functional:
    """U~_k = 1(I_k = k) prod_{m>k} 1(I_m != k)."""
    return _survival_term(model, k, k, 0.0)


def fixed_point_field(model: EwensModel) -> list:
    return [fixed_point_functional(model, k) for k in range(1, model.N + 1)]


def fixed_point_count(model: EwensModel) -> Functional:
    """C_1 = sum_k U~_k, as the suffix sums S_k = U~_k + S_{k+1}.

    U~_k depends on positions k..N, so S_{k+1} broadcasts into the fresh
    U~_k table and is added there in place.  The terms are 0/1, so every
    order of addition gives the same exact counts.
    """
    total = fixed_point_functional(model, model.N)
    for k in range(model.N - 1, 0, -1):
        U = fixed_point_functional(model, k)
        U.data += total.data
        total = U
    return total


def u_k_blocks(model: EwensModel, k: int, printed: bool = False):
    """Reverse-increment expansion of U~_k: (constant, main term, corrections).

    constant  = t p_k alpha_k = t/(t+N-1)
    main      = (1(I_k=k) - t p_k) prod_{m=k+1}^N 1(I_m != k)
    correction j (1 <= j <= N-k):
        -t/(t+k+j-2) (1(I_{k+j}=k) - p_{k+j}) prod_{l=j+1}^{N-k} 1(I_{k+l} != k)

    The blocks sum to U~_k pointwise; main and corrections are the
    reverse-filtration predictable increments at positions k..N, hence
    centered and mutually orthogonal.

    With printed=True the literal displayed expansion is returned instead:
    constant t p_k alpha_printed(k) and corrections stopping at j = N-k-1.
    It drops the position-N increment and (for t != 1) miscomputes the
    constant, so its blocks do not sum back to U~_k; kept as an observable
    of the discrepancy, never used downstream.
    """
    t, N = model.t, model.N
    alpha = model.alpha_printed(k) if printed else model.alpha(k)
    const = t * model.p(k) * alpha
    main = _survival_term(model, k, k, t * model.p(k))
    corrections = []
    stop = N - k - 1 if printed else N - k
    for j in range(1, stop + 1):
        coeff = -t / (t + k + j - 2)
        corrections.append(_survival_term(model, k + j, k, model.p(k + j)) * coeff)
    return const, main, corrections


def c1_decomposition_value(model: EwensModel, printed: bool = False) -> Functional:
    """Closed-form expansion of the fixed-point count.

    C~_1 = tN/(t+N-1)
           + sum_l (1(I_l=l) - t/(t+l-1)) prod_{m>l} 1(I_m != l)
           - sum_{l=2}^{N} t/(t+l-2) sum_{k<l}
                 (1(I_l=k) - 1/(t+l-1)) prod_{m>l} 1(I_m != k)

    With printed=True the correction sum stops at l = N-1 as displayed,
    dropping the position-N increments; the result then fails to equal C~_1
    pointwise.  Kept as an observable of the discrepancy.
    """
    sp = model.space
    t, N = model.t, model.N
    out = sp.constant(t * (1.0 - (t - 1.0) / (N + t - 1.0)))
    for l in range(1, N + 1):
        out = out + _survival_term(model, l, l, t / (t + l - 1))
    stop = N - 1 if printed else N
    for l in range(2, stop + 1):
        coeff = t / (t + l - 2)
        for k in range(1, l):
            out = out - _survival_term(model, l, k, 1.0 / (t + l - 1)) * coeff
    return out


def variance_printed(model: EwensModel) -> float:
    """Literal displayed variance formula; disagrees with enumeration at small N."""
    t, N = model.t, model.N
    s = sum(1.0 / (t + k - 1) for k in range(1, N + 1))
    return (N * t / (t + N - 1)) * (t / (t + N - 1) + 1.0 - (2.0 * t * t / N) * s)


@dataclass
class C1Report:
    N: int
    t: float
    mean_formula: float
    mean_enum: float
    var_paper_formula: float
    var_clark: float
    var_enum: float
    paper_formula_discrepancy: float
    flagged: bool


def c1_stats(model: EwensModel, tol: float = 1e-9) -> C1Report:
    sp = model.space
    C1 = fixed_point_count(model)
    mean_enum = expectation(sp, C1)
    mean_formula = model.t * model.N / (model.t + model.N - 1)
    rep = clark_reverse(sp, C1)
    var_enum = rep.variance_pair[0]
    var_clark = sum(rep.gram.diagonal().tolist())
    var_paper = variance_printed(model)
    gap = abs(var_paper - var_enum)
    return C1Report(
        N=model.N,
        t=model.t,
        mean_formula=mean_formula,
        mean_enum=mean_enum,
        var_paper_formula=var_paper,
        var_clark=var_clark,
        var_enum=var_enum,
        paper_formula_discrepancy=gap,
        flagged=gap > tol,
    )


def mc_fixed_point_counts(
    model: EwensModel, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Fixed-point counts of `size` sampled permutations, without building them."""
    S = sample_indices(model, rng, size)  # (size, N), 1-based
    counts = np.zeros(size, dtype=np.int64)
    for k in range(1, model.N + 1):
        hit = S[:, k - 1] == k
        if k < model.N:
            hit &= ~np.any(S[:, k:] == k, axis=1)
        counts += hit
    return counts
