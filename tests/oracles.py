"""Slow reference routes for the fast routes of the library.

`resolvent`, `invert_number_operator`, `symmetric_coordinate_term` and the
terms of `clark_symmetric` are integrals of the mixing operator M_u, and
`anova` is a tree of single-coordinate averages; the subset oracles here
compute the same quantities independently, by summing over the 2^n
coordinate subsets.
They are exact but exponential in n, so the tests call them at n <= 8 only.

`jump_kernel_matrix` is the dense m x m one-jump kernel behind the operator
form of `check_stationarity`, for tiny m only, and `loop_simulate_terminal`
is the per-jump loop that `simulate_terminal` vectorises.
`unique_simulate_terminal` reads each path's last jumps by sorting a cell
index per jump with `np.unique`, the route that the run ends of
`simulate_terminal` replaced.

`weight_table` is the full-grid product law that expectations no longer
need, and `sliced_weighted_sum` is the expectation route that read it: the
table sliced at each coordinate's likeliest outcome and renormalised.

`tensordot_integrate_out` averages each axis by `np.tensordot` (a transposed
copy of the table, then a product) and puts the axis back with
`np.expand_dims`, and `tensordot_hoeffding_kernels` builds h_k and
g_k = prod_j (I - E_j) h_k by the same contractions on k-dimensional tables:
the routes that the one averaging kernel of `space` replaced.
`tensordot_average` is that route on bare arrays: the dense-route tests
patch it in for `space._average` in every module that binds it by name.
`axis_by_axis_average` is the one-pass-per-stored-axis kernel that runs of
averaged axes replaced on tables past `space.SMALL_TABLE` entries.
`take_resample_integral` is the per-outcome `np.take` loop that
`stein.resample_integral` replaced with (D_aF)^2 + E_a (D_aF)^2.

`dense_integrate_out` and `dense_from_evaluator` store every result on the
full grid: the dense route that compact storage is checked against.
`config_list_from_evaluator` fills a configuration list per point of the
dependency grid and reshapes at the end, the loop that `from_evaluator`
replaced by one pass over the compact grid; `dense_from_evaluator` copies
its table onto the full grid.

`prefix_clark_terms` and `tail_clark_terms` build each Clark term from its
own conditional expectation, and `pairwise_gram` is the Gram matrix of a
report entry by entry.

The remaining routes are private copies that the library replaced with its
shared routines: the subset recursion for the degenerate Hoeffding kernels,
the per-(B, b) gradients of the symmetric Clark groups, the prefix-conditional
covariance identity, the per-coordinate and per-outcome loop of the
resampled Gaussian bound (the library takes one carre-du-champ weight), the
two-average log-Sobolev energy, the full-grid mask of `exact_tail`, and
the Poisson form that evaluates F at a trial's configuration once per cell.

`dense_counts_poisson_form` builds each perturbed configuration of the
Poisson form from all N counts, the route that `poisson_form` replaced by
editing the trial's occupied cells, and `per_draw_cdf_poisson_limit`
tabulates the process CDF again for every draw of `poisson_limit`.  Both
Poisson forms take each cell's law from `limits._poisson_law`, so they
compare the configuration routes bit for bit; `_truncation_order` and
`scipy_poisson_law` are the scipy route that `_poisson_law` replaced, the
truncation order from `poisson.sf` and the law from `poisson.pmf`.

The full-grid operators hold O(1) tables; these are the routes they
replaced, each holding a table per coordinate or per term:
`gradient_sum_number_operator` subtracts the n gradients D_aF one by one,
`gradient_energy_poincare` squares each D_aF, `allocating_mix` and
`allocating_concentration` make a new table for every arithmetic step,
`full_row_gram` is one GEMM over every term times sqrt(P) as a full-grid
row, the route that `decompose._gram` replaced by reading the terms in
place, `in_order_residual` adds the Clark terms in report order, and
`column_loop_walk_form` adds the Monte-Carlo walk form one step column at a
time.  `fresh_steps_walk_form` is the walk form that averages a table of
`inner` fresh steps per trial, the route that `walk_form` replaced by
drawing the inner mean and sample variance from their exact law.

`drop_tree_clark_symmetric` is the symmetric Clark report over the 2^n - 1
subset terms, every E[F | X_B] taken from one drop tree, with the dense
subset Gram: the route that the per-coordinate report replaced.
`functional_node_anova` is the ANOVA node split with every node wrapped in a
`Functional` and kept when its sup norm is positive, the route that the
split on bare arrays replaced.  `new_table_residual` adds the report terms
smallest first as new tables, and `squared_difference_variance` squares
F - E[F] into a second table: the routes that `_report` and `variance`
replaced by arithmetic in place.

`functional_stein_terms` is the Stein loop with every gradient, product and
sum a `Functional` and all 2n gradients held to the end, the route that
`stein._stein_terms` replaced by adding each coordinate's share in place.
`summed_fixed_point_count` adds the list of the U~_k into a new table per
partial sum, the route that the suffix sums of `fixed_point_count` replaced.
`allocating_subset_sum` places a kernel table on each k-subset with a new
table per partial sum, the route that `ustat._subset_sum` replaced by adding
into one table in place.

`ndindex_kernel_table` evaluates a symmetric kernel at every point of its
m-fold grid by its own `np.ndindex` loop, and `column_sample_indices` draws
the Ewens index matrix one `rng.choice` column at a time: the routes that
`SymmetricKernel.table` and `ewens.sample_indices` replaced by
`ProductSpace.from_evaluator` and `ProductSpace.sample_configs`.

`drop_gradient_component` takes D_aF as F minus the `Functional` that
`conditional_drop` returns, and `laggauss_quadrature_resolvent` solves the
Gauss-Laguerre rule again on every call: the routes that `gradient_component`
and the cached nodes of `cli._quadrature_resolvent` replaced.

`own_report_hoeffding_decompose` is the Hoeffding report with its own
residual (theta plus the layers in order, against U_n), Gram and variance
pair, the route that `hoeffding_decompose` replaced by `decompose._report`.
`row_major_homogeneous_samples` draws the outcome matrix of the homogeneous
sum in one row-major `rng.choice`, the route that `stein.homogeneous_samples`
replaced by `ProductSpace.sample_configs`.

`traced_peak` is the tracemalloc measure that the memory tests share.
"""

from functools import reduce
from itertools import combinations
from math import comb, factorial, prod, sqrt
import tracemalloc

import numpy as np
from scipy.stats import poisson

from dmc.calculus import (
    AnovaDecomposition,
    anova,
    gradient_component,
    invert_number_operator,
)
from dmc.decompose import _gram, _report
from dmc.errors import TruncationFailure
from dmc.ewens import fixed_point_field
from dmc.limits import (
    FormReport,
    _poisson_law,
    configuration_from_counts,
    sample_poisson_process,
)
from dmc.semigroup import mehler_apply
from dmc.space import (
    Functional,
    conditional_drop,
    conditional_on,
    conditional_prefix,
    expectation,
    integrate_out,
    resolve_order,
    variance,
)
from dmc.ustat import _require_iid, _subset_sum, hoeffding_kernels


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
    pi = weight_table(space).reshape(-1)
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


def unique_simulate_terminal(space, x0, t, rng, size):
    """`simulate_terminal` reading the last jumps from `np.unique` of a cell per jump."""
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
    cells = np.repeat(np.arange(size), counts) * n + coords_hit
    hit, first_from_end = np.unique(cells[::-1], return_index=True)
    out.reshape(-1)[hit] = resampled[total - 1 - first_from_end]
    return out


def weight_table(space):
    """Product probability of every configuration, shape == space.shape."""
    w = np.ones(())
    for c in space.coords:
        w = np.multiply.outer(w, c.pmf)
    return w


def sliced_weighted_sum(space, data):
    """sum of data * weight over all configurations, for compact `data`.

    On the stored axes the product law is the weight table taken at the
    likeliest outcome of every length-1 axis, renormalised.
    """
    w = weight_table(space)
    if data.shape == space.shape:
        return float((data * w).sum())
    w = w[tuple(
        slice(None) if k > 1 else slice(i, i + 1)
        for k, i in zip(data.shape, (int(np.argmax(c.pmf)) for c in space.coords))
    )]
    return float((data * w).sum() / w.sum())


def tensordot_integrate_out(space, F, axes):
    """`integrate_out` by one `tensordot` per stored axis, compact like the library."""
    vals = F.data
    axes = sorted(set(axes))
    for a in axes:
        space.check_axis(a)
        if vals.shape[a] > 1:
            vals = np.tensordot(vals, space.coords[a].pmf, axes=([a], [0]))
            vals = np.expand_dims(vals, a)
    return Functional(space, vals, F.deps - set(axes))


def tensordot_hoeffding_kernels(h, base):
    """(theta, [h_1..h_m], [g_1..g_m]) from k-dimensional tables, one space per k."""
    m, pmf = h.arity, base.pmf
    h_tables = [None] * (m + 1)
    h_tables[m] = h.table(base)
    for k in range(m - 1, 0, -1):
        h_tables[k] = np.tensordot(h_tables[k + 1], pmf, axes=([k], [0]))
    theta = float(np.tensordot(h_tables[1], pmf, axes=([0], [0])))
    degenerate = []
    for k in range(1, m + 1):
        G = h_tables[k]
        for j in range(k):
            G = G - np.expand_dims(np.tensordot(G, pmf, axes=([j], [0])), j)
        degenerate.append(G)
    return theta, h_tables[1:], degenerate


def take_resample_integral(space, F, a):
    """int (F - F(X_{A-a}; x))^2 dP_a(x), summed over the outcomes x of coordinate a."""
    space.check_axis(a)
    if a not in F.deps:
        return space.constant(0.0)
    vals = F.data
    pmf = space.coords[a].pmf
    out = np.zeros_like(vals)
    for o in range(space.shape[a]):
        replaced = np.take(vals, [o], axis=a)
        out += pmf[o] * (vals - replaced) ** 2
    return Functional(space, out, deps=F.deps)


def dense_integrate_out(space, F, axes):
    """`integrate_out` ending in a full-grid copy of the averaged table."""
    vals = F.values
    axes = sorted(set(axes))
    for a in axes:
        space.check_axis(a)
        vals = np.tensordot(vals, space.coords[a].pmf, axes=([a], [0]))
        vals = np.expand_dims(vals, a)
    vals = np.broadcast_to(vals, space.shape).copy()
    return Functional(space, vals, F.deps - set(axes))


def tensordot_average(space, data, axes):
    """`space._average` by one `tensordot` per stored axis, compact like the library."""
    for a in sorted(set(axes)):
        if data.shape[a] > 1:
            data = np.expand_dims(np.tensordot(data, space.coords[a].pmf, axes=([a], [0])), a)
    return data


def axis_by_axis_average(space, data, axes):
    """`space._average` one stored axis at a time, every table viewed as (pre, k, post).

    A gemv if pre or post is 1, else one einsum pass: the form every table
    took before averaged axes were grouped into runs, and the one tables of
    at most `SMALL_TABLE` entries still take.
    """
    coords, out, v = space.coords, list(data.shape), data
    for i, a in enumerate(axes):
        k = out[a]
        if k == 1:
            continue
        pmf = coords[a].pmf
        # a == i: every axis before a was averaged or is constant, so pre == 1
        if a == i or (pre := prod(out[:a])) == 1:
            v = pmf.dot(v.reshape(k, -1))
        elif v.size == pre * k:
            v = v.reshape(-1, k).dot(pmf)
        else:
            v = np.einsum("j,ijk->ik", pmf, v.reshape(pre, k, -1))
        out[a] = 1
    return v.reshape(out)


def config_list_from_evaluator(space, fn, deps):
    """`from_evaluator` building each configuration as a list over the dependency grid."""
    deps = frozenset(deps)
    for a in deps:
        space.check_axis(a)
    dep_axes = sorted(deps)
    sub_shape = tuple(space.shape[a] for a in dep_axes)
    space.require_exact(prod(sub_shape))
    sub = np.empty(sub_shape if sub_shape else (), dtype=float)
    base = [0] * space.n
    for sub_idx in np.ndindex(*sub_shape) if sub_shape else [()]:
        cfg = list(base)
        for a, v in zip(dep_axes, sub_idx):
            cfg[a] = v
        sub[sub_idx] = fn(tuple(cfg))
    compact = tuple(
        space.shape[a] if a in deps else 1 for a in range(space.n)
    )
    return Functional(space, sub.reshape(compact), deps=deps)


def dense_from_evaluator(space, fn, deps):
    """`config_list_from_evaluator` with the table copied onto the full grid."""
    F = config_list_from_evaluator(space, fn, deps)
    return Functional(space, np.array(F.values), F.deps)


def prefix_clark_terms(space, F, order):
    """Forward Clark terms D_k E[F | F_k], one prefix conditional per term."""
    return [
        gradient_component(space, conditional_prefix(space, F, pos, order), k)
        for pos, k in enumerate(order, start=1)
    ]


def tail_clark_terms(space, F, order):
    """Reverse Clark terms D_k E[F | H_{k-1}], one tail conditional per term."""
    return [
        gradient_component(space, conditional_on(space, F, order[pos - 1 :]), k)
        for pos, k in enumerate(order, start=1)
    ]


def pairwise_gram(space, terms):
    """E[T_i T_j], one weighted inner product per pair."""
    m = len(terms)
    gram = np.empty((m, m))
    weights = weight_table(space)
    for i in range(m):
        row = terms[i].values * weights
        for j in range(i, m):
            gram[i, j] = gram[j, i] = float(np.vdot(row, terms[j].values))
    return gram


def recursive_degenerate_kernels(h, base):
    """g_1..g_m by g_k = h_k - theta - sum over proper non-empty subsets B of g_|B|(x_B)."""
    kernels = hoeffding_kernels(h, base)
    theta, h_tables = kernels.theta, kernels.conditional_means
    g = [h_tables[0] - theta]
    for k in range(2, h.arity + 1):
        acc = np.full((base.size,) * k, theta)
        for j in range(1, k):
            for B in combinations(range(k), j):
                shape = [1] * k
                for a in B:
                    shape[a] = base.size
                acc = acc + g[j - 1].reshape(shape)
        g.append(h_tables[k - 1] - acc)
    return g


def pairwise_symmetric_clark_groups(space, h, n):
    """G_k = (k C(n,k))^{-1} sum_{|B|=k} sum_{b in B} D_b h_k(X_B), one gradient per (B, b)."""
    kernels = hoeffding_kernels(h, _require_iid(space, n))
    groups = []
    for k, hk in enumerate(kernels.conditional_means, start=1):
        group = space.constant(0.0)
        for B in combinations(range(n), k):
            shape = [space.shape[a] if a in B else 1 for a in range(space.n)]
            cond = Functional(space, hk.reshape(shape), frozenset(B))
            for b in B:
                group = group + gradient_component(space, cond, b)
        groups.append(group * (1.0 / (k * comb(n, k))))
    return groups


def prefix_covariance_identity(space, F, G, order):
    """Both sides of cov(F,G) = E[sum_k D_k E[F|F_k] D_k G], one prefix conditional per k."""
    lhs = expectation(space, F * G) - expectation(space, F) * expectation(space, G)
    rhs = 0.0
    for T, k in zip(prefix_clark_terms(space, F, order), order):
        rhs += expectation(space, T * gradient_component(space, G, k))
    return lhs, rhs


def take_loop_resampled_first_term(space, F, family):
    """First term of `gaussian_bound_resampled`, psi summed outcome by outcome."""
    grads, inv_grads, _, _ = functional_stein_terms(space, F)
    best = 0.0
    for fn in family:
        val = expectation(space, F.apply(fn))
        for a, grad in grads.items():
            pmf = space.coords[a].pmf
            mixed = 0.0
            for o in range(space.shape[a]):
                mixed = mixed + pmf[o] * fn(np.take(F.data, [o], axis=a))
            psi = Functional(space, mixed, deps=F.deps - {a})
            val -= expectation(space, psi * grad * inv_grads[a])
        best = max(best, abs(val))
    return best


def two_average_log_sobolev_energy(space, G):
    """sum_k E[(D_kG)^2 / E[G|G_k]], with D_k and E_k averaging separately."""
    rhs = 0.0
    for k in sorted(G.deps):
        DkG = gradient_component(space, G, k)
        rhs += expectation(space, DkG * DkG / conditional_drop(space, G, k))
    return rhs


def masked_exact_tail(space, F, x):
    """P(F - E[F] >= x) as the weight of a full-grid mask."""
    mask = (F.values - expectation(space, F)) >= x
    return float(np.sum(weight_table(space)[mask]))


def _truncation_order(p, tail_eps, max_order):
    """Smallest T with Poisson(p) tail mass beyond T below tail_eps, by scipy's sf.

    One vectorised `poisson.sf` call gives the same tails as a call per order.
    """
    below = np.flatnonzero(poisson.sf(np.arange(max_order + 1), p) < tail_eps)
    if below.size == 0:
        raise TruncationFailure(
            f"Poisson({p}) tail stays above {tail_eps} up to order {max_order}"
        )
    return int(below[0])


def scipy_poisson_law(q, tail_eps, max_order):
    """(pmf over 0..T, tail mass beyond T) of Poisson(q) from scipy's pmf and sf."""
    T = _truncation_order(q, tail_eps, max_order)
    return poisson.pmf(np.arange(T + 1), q), float(poisson.sf(T, q))


def per_cell_poisson_form(F, scheme, rng, trials, tail_eps=1e-9, max_order=400):
    """Monte-Carlo Poisson form evaluating F(w) once per cell and trial."""
    p = scheme.masses
    pmf = []
    for m in range(scheme.N):
        w, _ = _poisson_law(p[m], tail_eps, max_order)
        pmf.append(w / w.sum())
    per_trial = np.empty(trials)
    for s in range(trials):
        counts = rng.poisson(p)
        total = 0.0
        for m in range(scheme.N):
            saved = counts[m]
            actual = F.fn(configuration_from_counts(scheme.anchors, counts))
            inner = 0.0
            for tau, w in enumerate(pmf[m]):
                counts[m] = tau
                inner += w * F.fn(configuration_from_counts(scheme.anchors, counts))
            counts[m] = saved
            total += (actual - inner) ** 2
        per_trial[s] = total
    return FormReport(
        value=float(per_trial.mean()),
        se=float(per_trial.std(ddof=1) / sqrt(trials)),
        exact=False,
    )


def dense_counts_poisson_form(
    F, scheme, tail_eps=1e-9, rng=None, trials=0, max_order=400
):
    """Monte-Carlo Poisson form rebuilding every configuration from all N counts."""
    p = scheme.masses
    N = scheme.N
    pmf, tails = [], []
    for m in range(N):
        w, tail = _poisson_law(p[m], tail_eps, max_order)
        pmf.append(w / w.sum())
        tails.append(tail)
    trunc = float(sum(tails))
    per_trial = np.empty(trials)
    for s in range(trials):
        counts = rng.poisson(p)
        actual = F.fn(configuration_from_counts(scheme.anchors, counts))
        total = 0.0
        for m in range(N):
            saved = counts[m]
            inner = 0.0
            for tau, w in enumerate(pmf[m]):
                counts[m] = tau
                inner += w * F.fn(configuration_from_counts(scheme.anchors, counts))
            counts[m] = saved
            total += (actual - inner) ** 2
        per_trial[s] = total
    return FormReport(
        value=float(per_trial.mean()),
        se=float(per_trial.std(ddof=1) / sqrt(trials)),
        exact=False,
        truncation_bound=trunc,
    )


def per_draw_cdf_poisson_limit(F, density, rng, trials=2000, quad_points=32):
    """Poisson limit form tabulating the process CDF again for every draw."""
    nodes, weights = np.polynomial.legendre.leggauss(quad_points)
    x = 0.5 * (nodes + 1.0)
    w = 0.5 * weights * np.asarray(density(x), dtype=float)
    per_trial = np.empty(trials)
    for s in range(trials):
        cfg = sample_poisson_process(density, rng)
        base = F.fn(cfg)
        diffs = np.array([F.fn(cfg.add(float(xi))) - base for xi in x])
        per_trial[s] = float(np.sum(w * diffs**2))
    return FormReport(
        value=float(per_trial.mean()),
        se=float(per_trial.std(ddof=1) / sqrt(trials)),
        exact=False,
    )


def gradient_sum_number_operator(space, F):
    """L F = -sum_a D_a F, subtracting one gradient table per coordinate."""
    out = space.constant(0.0)
    for a in sorted(F.deps):
        out = out - gradient_component(space, F, a)
    return out


def gradient_energy_poincare(space, F):
    """(var(F), sum_a E[(D_aF)^2]), squaring one gradient table per coordinate."""
    energy = 0.0
    for a in sorted(F.deps):
        DaF = gradient_component(space, F, a)
        energy += expectation(space, DaF * DaF)
    return variance(space, F), energy


def allocating_mix(space, F, u, frozen=()):
    """M_u F with a new running table for every product and sum."""
    out = F
    for a in sorted(F.deps - frozenset(frozen)):
        out = out * u + conditional_drop(space, out, a) * (1.0 - u)
    return out


def allocating_concentration(space, F, order=None):
    """M = sup sum_k |D_kF| E[|D_kF| | F_k], a new table for every step."""
    order = resolve_order(space, order)
    total = space.constant(0.0)
    for pos, k in enumerate(order, start=1):
        absD = gradient_component(space, F, k).abs()
        total = total + absD * conditional_prefix(space, absD, pos, order)
    return float(np.max(total.data))


def full_row_gram(space, terms):
    """E[T_i T_j] by one GEMM over every term times sqrt(P) as a full-grid row."""
    m = len(terms)
    shape = tuple(max(dims) for dims in zip(*(T.data.shape for T in terms)))
    roots = [np.sqrt(c.pmf) if k > 1 else np.ones(1) for c, k in zip(space.coords, shape)]
    root = reduce(np.multiply.outer, roots, np.ones(()))
    rows = np.empty((m,) + shape)
    for row, T in zip(rows, terms):
        np.multiply(T.data, root, out=row)
    flat = rows.reshape(m, -1)
    return flat @ flat.T


def in_order_residual(space, F, terms):
    """sup |E[F] + sum(terms) - F|, adding the terms in report order."""
    return (sum(terms, space.constant(expectation(space, F))) - F).sup_norm()


def _column_loop(c, steps, inner_mean, inner_var, inner):
    """Per-trial walk estimates, adding (c_k (step_k - inner mean))^2 column by column."""
    per_trial = -np.sum(c * c) * inner_var / inner
    for k in range(steps.shape[1]):
        per_trial += (c[k] * (steps[:, k] - inner_mean)) ** 2
    trials = steps.shape[0]
    return FormReport(
        value=float(per_trial.mean()),
        se=float(per_trial.std(ddof=1) / sqrt(trials)),
        exact=False,
    )


def column_loop_walk_form(F, scheme, rng, trials, inner=64):
    """Monte-Carlo walk form over one (trials, N) step table, column by column.

    Draws the inner mean and sample variance from their exact law, in the
    order `walk_form` draws them: the steps, the means, then the variances.
    """
    c = np.asarray(F.coeffs(scheme.N), dtype=float)
    steps = rng.normal(size=(trials, scheme.N))
    inner_mean = rng.standard_normal(trials) / sqrt(inner)
    inner_var = rng.chisquare(inner - 1, trials) / (inner - 1)
    return _column_loop(c, steps, inner_mean, inner_var, inner)


def fresh_steps_walk_form(F, scheme, rng, trials, inner=64):
    """Monte-Carlo walk form whose inner mean and variance come from a (trials, inner) table."""
    c = np.asarray(F.coeffs(scheme.N), dtype=float)
    steps = rng.normal(size=(trials, scheme.N))
    fresh = rng.normal(size=(trials, inner))
    return _column_loop(c, steps, fresh.mean(axis=1), fresh.var(axis=1, ddof=1), inner)


def drop_tree_clark_symmetric(space, F):
    """Order-free form: sum over subsets B of C(n,|B|)^{-1} |B|^{-1} sum_b D_b E[F|X_B].

    Every E[F|X_B] comes from one drop tree, E[F|X_{B-a}] = E_a E[F|X_B], and
    D_b E[F|X_B] = E[F|X_B] - E[F|X_{B-b}] for b in B, so the size-r terms
    need only the size-r and size-(r-1) conditionals; smaller ones are freed.

    The per-subset terms reconstruct F - E[F] exactly but are not mutually
    orthogonal (components of different subsets overlap), so the Gram matrix
    of this report is informational only.
    """
    n = space.n
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
    mean = expectation(space, F)
    return _report(space, F, mean, tuple(range(n)), terms, _gram(space, terms))


def functional_node_anova(space, F):
    """Hoeffding decomposition by the node split, each node a `Functional`."""
    components = {frozenset(): F}
    for a in sorted(F.deps):
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


def new_table_residual(space, F, terms):
    """sup |E[F] + sum(terms) - F|, smallest term first, a new table per step."""
    by_size = sorted(terms, key=lambda T: T.data.size)
    return (sum(by_size, space.constant(expectation(space, F))) - F).sup_norm()


def squared_difference_variance(space, F):
    """E[(F - E F)^2] from the table (F - E F) ** 2."""
    m = expectation(space, F)
    return expectation(space, Functional(space, (F.data - m) ** 2, F.deps))


def functional_stein_terms(space, F):
    """D_aF, -D_a L^-1 F, carre and T2 with every gradient, product and sum a `Functional`."""
    neg_inverse = invert_number_operator(space, F) * (-1.0)
    grads, inv_grads = {}, {}
    carre, remainder = space.constant(0.0), space.constant(0.0)
    for a in sorted(F.deps):
        grads[a] = gradient_component(space, F, a)
        inv_grads[a] = gradient_component(space, neg_inverse, a)
        carre = carre + grads[a] * inv_grads[a]
        square = grads[a] * grads[a]
        resampled = square + conditional_drop(space, square, a)
        remainder = remainder + resampled * inv_grads[a].apply(np.abs)
    return grads, inv_grads, carre, expectation(space, remainder)


def summed_fixed_point_count(model):
    """C_1 as a new table for every partial sum of the list of U~_k."""
    out = model.space.constant(0.0)
    for U in fixed_point_field(model):
        out = out + U
    return out


def allocating_subset_sum(space, table, n):
    """`ustat._subset_sum` with a new table for every partial sum."""
    out = space.constant(0.0)
    for B in combinations(range(n), table.ndim):
        shape = [space.shape[a] if a in B else 1 for a in range(space.n)]
        out = out + Functional(space, table.reshape(shape), deps=frozenset(B))
    return out


def ndindex_kernel_table(h, base):
    """h on the m-fold outcome grid of `base`, one `np.ndindex` point at a time."""
    out = np.empty((base.size,) * h.arity)
    for idx in np.ndindex(*out.shape):
        out[idx] = h.fn(*(base.embedding[i] for i in idx))
    return out


def column_sample_indices(model, rng, size):
    """iid Ewens index matrices, shape (size, N), drawn column by column, 1-based."""
    cols = []
    for k in range(1, model.N + 1):
        pmf = model.space.coords[k - 1].pmf
        cols.append(rng.choice(k, size=size, p=pmf) + 1)
    return np.stack(cols, axis=1)


def drop_gradient_component(space, F, a):
    """D_a F = F - E[F | G_a], through `conditional_drop` and `Functional.__sub__`."""
    if a not in F.deps:
        return space.constant(0.0)
    return F - conditional_drop(space, F, a)


def laggauss_quadrature_resolvent(space, G, nodes=64):
    """int_0^inf e^-t P_t G dt by a Gauss-Laguerre rule solved on every call."""
    t, w = np.polynomial.laguerre.laggauss(nodes)
    out = space.constant(0.0)
    for ti, wi in zip(t, w):
        out = out + mehler_apply(space, G, float(ti)) * float(wi)
    return out


def own_report_hoeffding_decompose(space, h, n):
    """theta, U_n, the layers H^(1..m), residual, Gram and variance pair, as a dict."""
    m = h.arity
    kernels = hoeffding_kernels(h, _require_iid(space, n))
    U = _subset_sum(space, kernels.conditional_means[-1], n, 1.0 / comb(n, m))
    layers = [
        _subset_sum(space, g, n, comb(m, k) / comb(n, k))
        for k, g in enumerate(kernels.degenerate, start=1)
    ]
    recon = space.constant(kernels.theta)
    for L in layers:
        recon = recon + L
    gram = _gram(space, layers)
    return {
        "theta": kernels.theta,
        "statistic": U,
        "layers": layers,
        "residual": (recon - U).sup_norm(),
        "gram": gram,
        "variance_pair": (variance(space, U), float(np.trace(gram))),
    }


def row_major_homogeneous_samples(K, base, rng, size):
    """Draws of the homogeneous sum from one (size, K.n) row-major `rng.choice`."""
    outcomes = rng.choice(base.size, size=(size, K.n), p=base.pmf)
    X = base.embedding[outcomes]
    return np.einsum("si,ij,sj->s", X, K.f, X)


def traced_peak(call):
    """Bytes that one `call()` holds at its peak under tracemalloc, after a warm-up call."""
    call()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
