"""Independent routes that check what the library returns.

Nothing here imports dmc.  Each helper recomputes a quantity from the raw
tables and coordinate laws with plain numpy, by another route where one
exists: the Walsh transform on fair +-1 coordinates, binomial laws for
symmetric sums, and closed forms for the Monte-Carlo limit experiments.
"""

from __future__ import annotations

from math import comb, exp, sqrt

import numpy as np


def product_law(pmfs) -> np.ndarray:
    """Probability of every configuration, shape == tuple(len(p) for p in pmfs)."""
    w = np.ones(())
    for p in pmfs:
        w = np.multiply.outer(w, p)
    return w


def mean_over(values: np.ndarray, pmfs, axes) -> np.ndarray:
    """Average `values` over the coordinates in `axes`, keeping them as size-1 axes."""
    out = values
    for a in sorted(axes):
        shape = [1] * out.ndim
        shape[a] = -1
        out = np.sum(out * np.reshape(pmfs[a], shape), axis=a, keepdims=True)
    return out


def expectation(values: np.ndarray, pmfs) -> float:
    return float(np.sum(values * product_law(pmfs)))


def number_operator(values: np.ndarray, pmfs) -> np.ndarray:
    """L F = sum_a E_a F - n F, from one-coordinate averages."""
    out = -values.ndim * values
    for a in range(values.ndim):
        out = out + mean_over(values, pmfs, [a])
    return out


def max_gap(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


# -- fair +-1 coordinates: Walsh transform ------------------------------------


def walsh(values: np.ndarray) -> np.ndarray:
    """Coefficients E[F prod_{i in S} x_i], outcome index 1 being x = +1."""
    v = np.array(values, dtype=float)
    for a in range(v.ndim):
        v3 = v.reshape(2**a, 2, -1)
        lo, hi = v3[:, 0, :].copy(), v3[:, 1, :].copy()
        v3[:, 0, :] = (lo + hi) * 0.5
        v3[:, 1, :] = (hi - lo) * 0.5
    return v


def inverse_walsh(coeffs: np.ndarray) -> np.ndarray:
    v = np.array(coeffs, dtype=float)
    for a in range(v.ndim):
        v3 = v.reshape(2**a, 2, -1)
        mean, slope = v3[:, 0, :].copy(), v3[:, 1, :].copy()
        v3[:, 0, :] = mean - slope
        v3[:, 1, :] = mean + slope
    return v


def subset_sizes(n: int) -> np.ndarray:
    """|S| for every Walsh index of n fair coordinates."""
    return np.bitwise_count(np.arange(2**n, dtype=np.uint64)).reshape((2,) * n).astype(float)


def pm1_sum(n: int) -> np.ndarray:
    """S = x_1 + ... + x_n on the grid of n fair +-1 coordinates."""
    s = np.zeros((2,) * n)
    for a in range(n):
        shape = [1] * n
        shape[a] = 2
        s = s + np.array([-1.0, 1.0]).reshape(shape)
    return s


def pm1_quadratic(w, pairs) -> np.ndarray:
    """sum_a w_a x_a + sum_(a, b, c) c x_a x_b on the grid of len(w) fair +-1 coordinates."""
    n = len(w)
    x = [np.array([-1.0, 1.0]).reshape([2 if i == a else 1 for i in range(n)]) for a in range(n)]
    s = np.zeros((2,) * n)
    for a, wa in enumerate(w):
        s = s + wa * x[a]
    for a, b, c in pairs:
        s = s + c * (x[a] * x[b])
    return s


def _sum_law(n: int):
    """Values and probabilities of a sum of n fair +-1 coordinates."""
    k = np.arange(n + 1)
    return 2.0 * k - n, np.array([comb(n, int(j)) for j in k], dtype=float) / 2.0**n


def gaussian_bound_standardized(n: int) -> tuple[float, float]:
    """(t1, t2) of the Gaussian bound at S / sqrt(n): L^-1 F = -F, so t1 = 0."""
    return 0.0, 2.0 / sqrt(n)


def gamma_bound_quadratic(n: int, c: float, r: float, lam: float) -> tuple[float, float]:
    """(b1, b2) of the Gamma bound at F = c (S^2 - n) over n fair coordinates.

    F is a pure second chaos, so -D_a L^-1 F = D_a F / 2 = c x_a R_a with
    R_a = S - x_a; the carre du champ is 2 c^2 ((n - 2) S^2 + n) and the
    resampling integral is 8 c^2 R_a^2.
    """
    s, p = _sum_law(n)
    inside = c * (s * s - n) / lam + r / lam**2 - 2.0 * c * c * ((n - 2) * s * s + n)
    b1 = float(np.sum(p * np.abs(inside)))
    rv, rp = _sum_law(n - 1)
    b2 = float(n * 8.0 * c**3 * np.sum(rp * np.abs(rv) ** 3))
    return b1, b2


def concentration_constant(values: np.ndarray, pmfs) -> float:
    """sup of sum_k |D_k F| E[|D_k F| | first k+1 coordinates]."""
    n = values.ndim
    total = np.zeros_like(values)
    for k in range(n):
        absd = np.abs(values - mean_over(values, pmfs, [k]))
        total += absd * mean_over(absd, pmfs, range(k + 1, n))
    return float(np.max(total))


def forward_martingale(values: np.ndarray, pmfs) -> list:
    """E[F | first j coordinates] for j = 0..n, as size-1-padded arrays."""
    n = values.ndim
    out = [values]
    for j in range(n - 1, -1, -1):
        out.append(mean_over(out[-1], pmfs, [j]))
    return out[::-1]


def reverse_martingale(values: np.ndarray, pmfs) -> list:
    """E[F | coordinates j..n-1] for j = 0..n."""
    out = [values]
    for j in range(values.ndim):
        out.append(mean_over(out[-1], pmfs, [j]))
    return out


# -- CLI experiments with closed forms ----------------------------------------


def poisson_capped_trial(N: int) -> tuple[float, float]:
    """Mean and variance of one Monte-Carlo trial of the capped-mass form.

    F = min(total mass, 1) on N equal cells of a unit-mass Poisson process.
    A cell contributes only when every other cell is empty, so a trial is
    N (1 - e^{-p})^2 when no cell holds a point (probability e^{-1}),
    e^{-2p} when exactly one cell does (probability e^{-1} N (e^p - 1)),
    and 0 otherwise, with p = 1/N.  The mean is e^{-1} N (1 - e^{-p}).
    """
    p = 1.0 / N
    values = (N * (1.0 - exp(-p)) ** 2, exp(-2.0 * p))
    probs = (exp(-1.0), exp(-1.0) * N * (exp(p) - 1.0))
    mean = sum(v * q for v, q in zip(values, probs))
    second = sum(v * v * q for v, q in zip(values, probs))
    return mean, second - mean * mean


def walk_time_integral_form(N: int) -> float:
    """sum_k c_k^2 with c_k = (1 - (k - 1/2)/N) / sqrt(N)."""
    k = np.arange(1, N + 1)
    return float(np.sum((1.0 - (k - 0.5) / N) ** 2) / N)


def homogeneous_bracket(f: np.ndarray, m4: float) -> dict:
    star11 = f @ f.T
    star21 = np.sum(f * f, axis=1)
    contraction = float(np.sum((f - star11) ** 2))
    terms = float(np.sum(f**4)) + float(np.sum(star21**2)) + contraction
    return {
        "bracket": m4 * m4 * terms,
        "influence_bound": m4 * m4 * (float(np.max(np.sum(f * f, axis=0))) + contraction),
    }
