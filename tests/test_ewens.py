from collections import Counter
from itertools import permutations

import numpy as np
import pytest

from dmc.errors import BadParameters, EnumOverflow, ExactModeOverflow, IndexOutOfRange
from dmc.decompose import clark_reverse
from dmc.ewens import (
    EwensModel,
    all_index_vectors,
    c1_decomposition_value,
    c1_stats,
    cycle_count,
    ewens_pmf,
    ewens_pmf_printed,
    feller_map,
    fixed_point_count,
    fixed_point_functional,
    gamma_inverse,
    gamma_map,
    mc_fixed_point_counts,
    sample,
    sample_indices,
    u_k_blocks,
    variance_printed,
)
from dmc.space import expectation

from .oracles import column_sample_indices, summed_fixed_point_count, weight_table
from .test_full_grid_operators import _peak_in_tables, _same

TOL = 1e-12


class TestBijection:
    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6])
    def test_round_trip_exhaustive(self, N):
        seen = set()
        for i in all_index_vectors(N):
            sigma = gamma_map(i)
            assert gamma_inverse(sigma) == i
            seen.add(sigma)
        assert seen == set(permutations(range(1, N + 1)))

    def test_new_cycle_exactly_at_self_indices(self):
        for i in all_index_vectors(5):
            assert cycle_count(gamma_map(i)) == sum(
                1 for k, ik in enumerate(i, start=1) if ik == k
            )

    def test_identity_and_swap(self):
        assert gamma_map((1, 2, 3)) == (1, 2, 3)
        assert gamma_map((1, 1, 3)) == (2, 1, 3)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(IndexOutOfRange):
            gamma_map((1, 3))
        with pytest.raises(IndexOutOfRange):
            gamma_inverse((1, 1))
        with pytest.raises(EnumOverflow):
            all_index_vectors(9)
        with pytest.raises(BadParameters):
            EwensModel(3, 0.0)
        with pytest.raises(BadParameters):
            EwensModel(0, 1.0)


class TestLaw:
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 5.0])
    @pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
    def test_pmf_normalizes(self, N, t):
        total = sum(ewens_pmf(s, t) for s in permutations(range(1, N + 1)))
        assert abs(total - 1.0) <= TOL

    def test_pmf_proportional_to_cycle_power(self):
        t = 2.0
        for s in permutations(range(1, 5)):
            want = t ** (cycle_count(s) - 1)
            want /= (t + 1) * (t + 2) * (t + 3)
            assert abs(ewens_pmf(s, t) - want) <= TOL

    def test_printed_closed_form_off_by_factor_t(self):
        # the displayed closed form carries an extra factor t and does not
        # normalize away from t = 1
        t = 2.0
        total = sum(ewens_pmf_printed(s, t) for s in permutations(range(1, 5)))
        assert abs(total - t) <= TOL
        for s in permutations(range(1, 5)):
            assert abs(ewens_pmf_printed(s, t) - t * ewens_pmf(s, t)) <= TOL

    def test_uniform_at_t_one(self):
        for s in permutations(range(1, 5)):
            assert abs(ewens_pmf(s, 1.0) - 1.0 / 24.0) <= TOL

    @pytest.mark.parametrize("t", [0.0, -1.0, float("inf"), float("nan")])
    def test_pmf_refuses_a_bad_t(self, t):
        # at t = inf the coordinate product is inf / inf, which read nan
        with pytest.raises(BadParameters, match="finite"):
            ewens_pmf((1, 2, 3), t)

    def test_feller_coupling_same_law(self):
        # insertion coupling and transposition product induce the same
        # push-forward measure, though not the same map
        for N, t in [(4, 0.5), (4, 2.0), (5, 1.3)]:
            m = EwensModel(N, t)
            flat = weight_table(m.space).reshape(-1)
            law_gamma, law_feller = {}, {}
            for cfg_idx in range(m.space.config_count):
                cfg = m.space.index_to_config(cfg_idx)
                i = tuple(c + 1 for c in cfg)
                p = float(flat[cfg_idx])
                g, f = gamma_map(i), feller_map(i)
                law_gamma[g] = law_gamma.get(g, 0.0) + p
                law_feller[f] = law_feller.get(f, 0.0) + p
            for s in permutations(range(1, N + 1)):
                assert abs(law_gamma[s] - ewens_pmf(s, t)) <= TOL
                assert abs(law_feller[s] - ewens_pmf(s, t)) <= TOL

    def test_sampler_matches_pmf(self):
        rng = np.random.default_rng(7)
        m = EwensModel(3, 2.0)
        n = 40_000
        counts = Counter(sample(m, rng) for _ in range(n))
        for s in permutations(range(1, 4)):
            p = ewens_pmf(s, 2.0)
            sd = (p * (1 - p) / n) ** 0.5
            assert abs(counts[s] / n - p) <= 4 * sd


class TestFixedPoints:
    def test_indicator_matches_permutation_fixed_points(self):
        for N, t in [(4, 1.0), (5, 1.7)]:
            m = EwensModel(N, t)
            for k in range(1, N + 1):
                U = fixed_point_functional(m, k)
                for cfg_idx in range(m.space.config_count):
                    cfg = m.space.index_to_config(cfg_idx)
                    sigma = gamma_map(tuple(c + 1 for c in cfg))
                    assert U.values.reshape(-1)[cfg_idx] == (sigma[k - 1] == k)

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 5.0])
    @pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
    def test_count_mean_formula(self, N, t):
        rep = c1_stats(EwensModel(N, t))
        assert abs(rep.mean_enum - rep.mean_formula) <= TOL

    def test_each_indicator_bernoulli_same_parameter(self):
        # every position is a fixed point with probability t/(t+N-1); the
        # displayed per-position parameter t p_k alpha_printed(k) agrees
        # only at t = 1
        m = EwensModel(4, 1.3)
        for k in range(1, 5):
            EU = expectation(m.space, fixed_point_functional(m, k))
            assert abs(EU - 1.3 / 4.3) <= TOL
            assert abs(m.t * m.p(k) * m.alpha(k) - EU) <= TOL
        assert abs(m.t * m.p(1) * m.alpha_printed(1) - 1.3 / 4.3) > 0.1


class TestBlockExpansion:
    @pytest.mark.parametrize("N,t", [(3, 1.0), (4, 1.3), (5, 0.7), (5, 2.5)])
    def test_blocks_reconstruct_and_are_reverse_increments(self, N, t):
        m = EwensModel(N, t)
        sp = m.space
        for k in range(1, N + 1):
            U = fixed_point_functional(m, k)
            const, main, corr = u_k_blocks(m, k)
            assert abs(const - expectation(sp, U)) <= TOL
            total = sp.constant(const) + main
            for c in corr:
                total = total + c
            assert (total - U).sup_norm() <= TOL
            blocks = [main] + corr
            rep = clark_reverse(sp, U)
            for i, b in enumerate(blocks):
                assert (b - rep.terms[k - 1 + i]).sup_norm() <= TOL
                for j in range(i + 1, len(blocks)):
                    assert abs(expectation(sp, b * blocks[j])) <= TOL

    def test_printed_expansion_fails_to_reconstruct(self):
        # documented discrepancy: the displayed expansion stops one
        # increment early and (t != 1) miscomputes the constant
        m = EwensModel(4, 1.3)
        U = fixed_point_functional(m, 1)
        const, main, corr = u_k_blocks(m, 1, printed=True)
        total = m.space.constant(const) + main
        for c in corr:
            total = total + c
        assert (total - U).sup_norm() > 0.1

    @pytest.mark.parametrize("N,t", [(3, 1.0), (4, 1.3), (5, 0.7)])
    def test_count_decomposition_pointwise(self, N, t):
        m = EwensModel(N, t)
        C1 = fixed_point_count(m)
        assert (c1_decomposition_value(m) - C1).sup_norm() <= TOL
        assert (c1_decomposition_value(m, printed=True) - C1).sup_norm() > 0.1


class TestVariance:
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 5.0])
    @pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
    def test_clark_pythagoras_matches_enumeration(self, N, t):
        rep = c1_stats(EwensModel(N, t))
        assert abs(rep.var_clark - rep.var_enum) <= 1e-10

    def test_exact_statistics_past_the_enumeration_cap(self):
        # c1_stats runs on the index space (9! entries), not on a list of permutations
        t, N = 1.5, 9
        rep = c1_stats(EwensModel(N, t))
        assert abs(rep.mean_enum - t * N / (t + N - 1)) <= 1e-12
        assert abs(rep.var_enum - rep.var_clark) <= 1e-12
        with pytest.raises(EnumOverflow):
            all_index_vectors(N)

    def test_exact_statistics_stop_at_the_space_ceiling(self):
        with pytest.raises(ExactModeOverflow):
            c1_stats(EwensModel(11, 1.5))

    def test_printed_formula_flagged(self):
        # documented discrepancy: the displayed variance formula evaluates
        # to 0 at (N,t)=(2,1) and 1/9 at (3,1), against enumerated value 1
        rep2 = c1_stats(EwensModel(2, 1.0))
        assert abs(variance_printed(EwensModel(2, 1.0))) <= TOL
        assert abs(rep2.var_enum - 1.0) <= TOL
        assert rep2.flagged
        rep3 = c1_stats(EwensModel(3, 1.0))
        assert abs(rep3.var_paper_formula - 1.0 / 9.0) <= TOL
        assert abs(rep3.var_enum - 1.0) <= TOL
        assert rep3.flagged

    def test_monte_carlo_near_poisson_limit(self):
        # at t = 1 the fixed-point count tends to Poisson(1); N = 200
        rng = np.random.default_rng(20240817)
        m = EwensModel(200, 1.0)
        counts = mc_fixed_point_counts(m, rng, 20_000)
        v = counts.var(ddof=1)
        # var of the sample variance of ~Poisson(1): (mu4 - var^2)/n ~ 3/n
        sd = (3.0 / counts.size) ** 0.5
        assert abs(v - 1.0) <= 3 * sd

    def test_mc_counts_agree_with_exact_law_small(self):
        rng = np.random.default_rng(11)
        m = EwensModel(5, 1.0)
        counts = mc_fixed_point_counts(m, rng, 30_000)
        exact_mean = expectation(m.space, fixed_point_count(m))
        assert abs(counts.mean() - exact_mean) <= 0.03


@pytest.mark.parametrize("t", [0.4, 1.0, 3.5])
@pytest.mark.parametrize("N", range(3, 11))
def test_fixed_point_count_suffix_sums_are_bit_identical(N, t):
    model = EwensModel(N, t)
    _same(fixed_point_count(model), summed_fixed_point_count(model))


def test_fixed_point_count_holds_about_two_tables():
    # N = 9, in full index-grid tables: 2.16 here, 4.75 for the summed list
    model = EwensModel(9, 1.7)
    C1 = fixed_point_count(model)
    assert _peak_in_tables(lambda: fixed_point_count(model), C1) <= 2.2


@pytest.mark.parametrize("size", [0, 1, 1000])
@pytest.mark.parametrize("N", [1, 2, 5, 10])
def test_sample_indices_draw_as_the_column_route(N, size):
    model = EwensModel(N, 1.3)
    rng, oracle_rng = np.random.default_rng(N * size + 3), np.random.default_rng(N * size + 3)
    got, want = sample_indices(model, rng, size), column_sample_indices(model, oracle_rng, size)
    assert got.dtype == want.dtype and got.shape == want.shape == (size, N)
    assert np.array_equal(got, want)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
