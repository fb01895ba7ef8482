"""Expectations as a chain of one-coordinate averages, without a weight table.

`expectation`, `variance` and `exact_tail` average the stored axes out one at
a time.  They are checked against `oracles.sliced_weighted_sum`, the route
through the full-grid weight table, and on a functional of 3 of 40
coordinates, whose grid (2^40) no route through that table could hold.
"""


import numpy as np
import pytest

from dmc.decompose import clark, covariance_identity, poincare
from dmc.inequalities import exact_tail
from dmc.space import expectation, rademacher_space, variance

from .oracles import sliced_weighted_sum, traced_peak
from .test_drop_routes import KINDS, _functionals, _space

REL = 1e-15


def _thresholds(centred):
    """Below, between and above the distinct values, so no mean rounding flips a mask."""
    values = np.unique(centred)
    return np.concatenate(
        [[values[0] - 1.0], 0.5 * (values[1:] + values[:-1]), [values[-1] + 1.0]]
    )


@pytest.mark.parametrize("kind", KINDS)
def test_expectation_variance_and_tails_match_the_weight_table(kind):
    sp = _space(kind)
    rng = np.random.default_rng(KINDS.index(kind))
    for F in _functionals(sp, rng) + (sp.constant(1.5),):
        scale = F.scale()
        mean = sliced_weighted_sum(sp, F.data)
        assert abs(expectation(sp, F) - mean) <= REL * scale
        var = sliced_weighted_sum(sp, (F.data - mean) ** 2)
        assert abs(variance(sp, F) - var) <= REL * scale**2
        xs = _thresholds(F.data - mean)
        want = [sliced_weighted_sum(sp, (F.data - mean >= x).astype(float)) for x in xs]
        got = exact_tail(sp, F, xs)
        assert got.shape == xs.shape
        assert np.max(np.abs(got - want)) <= REL


def test_three_of_forty_coordinates():
    sp = rademacher_space(40)
    X0, X3, X7 = (sp.coordinate_functional(a) for a in (0, 3, 7))
    F = X0 * X7 + X3
    assert expectation(sp, F) == 0.0
    assert variance(sp, F) == 2.0
    assert poincare(sp, F) == (2.0, 3.0)
    tails = exact_tail(sp, F, [-2.0, 0.5, 1.5, 2.5])
    assert tails.tolist() == [1.0, 0.25, 0.25, 0.0]
    assert covariance_identity(sp, F, X3) == (1.0, 1.0)
    rep = clark(sp, F)
    assert rep.residual == 0.0
    # the Gram weights rows by sqrt(pmf) products, which round
    assert np.trace(rep.gram) == pytest.approx(2.0, abs=1e-14)
    assert rep.variance_pair == pytest.approx((2.0, 2.0), abs=1e-14)


def test_expectation_of_a_full_table_holds_three_quarters_of_it():
    sp = rademacher_space(16)
    F = sp.from_table(np.random.default_rng(0).normal(size=sp.config_count))
    peak = traced_peak(lambda: expectation(sp, F))
    # the first two averages (1/2 and 1/4 of the table) are alive at once;
    # 4 KiB covers the array headers
    assert peak <= 0.75 * F.data.nbytes + 4096
