"""The exact-mode ceiling, checked by `space` wherever an array is stored.

No array stored on a space exceeds `exact_ceiling` entries: a call on a
space past the ceiling either raises `ExactModeOverflow` or returns what it
returns on the same coordinates under the default ceiling.  Expectations
average the stored axes only, so every call on a functional whose arrays
fit returns the numbers.
"""

from pathlib import Path

import numpy as np
import pytest

import dmc
from dmc import calculus
from dmc.calculus import CoordinateField, anova, order_layers, trace_form
from dmc.cli import main
from dmc.decompose import (
    DecompositionReport,
    clark,
    clark_reverse,
    clark_symmetric,
    covariance_identity,
    helmholtz,
    helmholtz_conditional,
    poincare,
    symmetric_coordinate_term,
)
from dmc.errors import ExactModeOverflow
from dmc.inequalities import concentration, log_sobolev
from dmc.semigroup import check_stationarity, covariance_semigroup
from dmc.space import Functional, build_space, rademacher_space
from dmc.stein import (
    KernelMatrix,
    SteinReport,
    gamma_bound,
    gaussian_bound,
    gaussian_bound_resampled,
    homogeneous_functional,
    smooth_test_family,
)
from dmc.ustat import SymmetricKernel, hoeffding_decompose, u_statistic

CEILING = 64
DEPS = (0, 2, 3, 5, 6, 7)  # 2^6 = 64 entries: the most the small ceiling stores
REL = 1e-14


@pytest.fixture
def stored(monkeypatch):
    """Entry count of every array a Functional is built on, in call order."""
    sizes = []
    init = Functional.__init__

    def spy(self, space, data, deps):
        sizes.append(np.size(data))
        init(self, space, data, deps)

    monkeypatch.setattr(Functional, "__init__", spy)
    return sizes


def _small():
    """8 fair coordinates whose grid (256) is past a 64-entry ceiling."""
    return build_space(rademacher_space(8).coords, exact_ceiling=CEILING)


def test_compact_arithmetic_stops_at_the_ceiling(stored):
    sp = _small()
    h = SymmetricKernel(2, lambda x, y: x * y)
    K = KernelMatrix.constant(8, 1.0 / 7.0)
    for call in (
        lambda: u_statistic(sp, h, 8),
        lambda: hoeffding_decompose(sp, h, 8),
        lambda: homogeneous_functional(sp, K),
    ):
        with pytest.raises(ExactModeOverflow):
            call()
    assert stored and max(stored) <= CEILING


def test_overflow_message_counts_stored_entries():
    sp = _small()
    X = [sp.coordinate_functional(a) for a in range(8)]
    F = X[0] * X[1] * X[2] * X[3] * X[4] * X[5]
    message = "^128 stored entries exceed the exact-mode ceiling 64$"
    with pytest.raises(ExactModeOverflow, match=message):
        F * X[6]
    with pytest.raises(ExactModeOverflow):
        sp.from_evaluator(lambda cfg: 0.0, range(7))
    assert sp.from_evaluator(lambda cfg: 1.0, DEPS).data.size == CEILING


@pytest.mark.parametrize("argv", [["hoeffding", "--n", "24"], ["stein-gamma", "--n", "24"]])
def test_cli_stops_before_gigabytes(argv, stored, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "exceed the exact-mode ceiling" in err
    assert "Traceback" not in err
    assert max(stored) <= 10**7


def _twins(seed):
    """The same functionals on the small-ceiling space and on its exact twin."""
    rng = np.random.default_rng(seed)
    tables = [t - t.mean() for t in rng.normal(size=(4,) + (2,) * len(DEPS))]  # centred
    out = []
    for sp in (_small(), rademacher_space(8)):
        F, G, H, W = (
            sp.from_evaluator(lambda cfg, t=t: t[tuple(cfg[a] for a in DEPS)], DEPS)
            for t in tables
        )
        U = CoordinateField(sp, {0: G, 3: H, 4: W})
        V = CoordinateField(sp, {2: F, 3: W})
        out.append((sp, F, G, U, V))
    return out


# name -> (seed of its inputs, call); each seed is pinned, so a new row
# leaves every other row's inputs as they were
GUARDED = {
    "anova": (0, lambda sp, F, G, U, V: anova(sp, F)),
    "order_layers": (16, lambda sp, F, G, U, V: order_layers(sp, F)),
    "trace_form": (15, lambda sp, F, G, U, V: trace_form(sp, U, V)),
    "clark": (1, lambda sp, F, G, U, V: clark(sp, F)),
    "clark_reverse": (2, lambda sp, F, G, U, V: clark_reverse(sp, F)),
    "clark_symmetric": (3, lambda sp, F, G, U, V: clark_symmetric(sp, F)),
    "symmetric_coordinate_term": (
        14, lambda sp, F, G, U, V: symmetric_coordinate_term(sp, F, 3)
    ),
    "helmholtz": (10, lambda sp, F, G, U, V: helmholtz(sp, U)),
    "helmholtz_conditional": (11, lambda sp, F, G, U, V: helmholtz_conditional(sp, U)),
    "covariance_identity": (5, lambda sp, F, G, U, V: covariance_identity(sp, F, G)),
    "poincare": (13, lambda sp, F, G, U, V: poincare(sp, F)),
    "covariance_semigroup": (6, lambda sp, F, G, U, V: covariance_semigroup(sp, F, G)),
    "gaussian_bound": (8, lambda sp, F, G, U, V: gaussian_bound(sp, F)),
    "gaussian_bound_resampled": (
        9, lambda sp, F, G, U, V: gaussian_bound_resampled(sp, F, smooth_test_family()[:4])
    ),
    "gamma_bound": (7, lambda sp, F, G, U, V: gamma_bound(sp, F, 0.5, 0.5)),
    "log_sobolev": (12, lambda sp, F, G, U, V: log_sobolev(sp, F.apply(np.exp))),
    "concentration": (4, lambda sp, F, G, U, V: concentration(sp, F)),
}


def _numbers(result):
    """Every number a result holds, as one flat list of arrays."""
    if isinstance(result, Functional):
        return [np.array(result.values)]
    if isinstance(result, DecompositionReport):
        return _numbers(
            (result.mean, result.terms, result.residual, result.gram, result.variance_pair)
        )
    if isinstance(result, SteinReport):
        return _numbers((result.t1, result.t2, result.total))
    if isinstance(result, CoordinateField):
        return [v for a in result.indices() for v in _numbers(result[a])]
    if hasattr(result, "components"):  # AnovaDecomposition
        keys = sorted(result.components, key=sorted)
        return [np.array(sorted(k), dtype=float) for k in keys] + [
            v for k in keys for v in _numbers(result.components[k])
        ]
    if isinstance(result, (tuple, list)):
        return [v for item in result for v in _numbers(item)]
    if callable(result):  # concentration's tail bound
        return [np.array([result(x) for x in np.linspace(-1.0, 4.0, 11)])]
    return [np.atleast_1d(np.asarray(result, dtype=float))]


# rows that store more than the small ceiling, and the message they raise:
# the Hoeffding table of 6 binary dependencies holds 3^6 entries
RAISES = {"anova": "^729 stored entries exceed the exact-mode ceiling 64$"}


@pytest.mark.parametrize("name", sorted(GUARDED))
def test_formerly_guarded_call_raises_or_matches_exact_twin(name, stored):
    seed, call = GUARDED[name]
    (small, *args), (exact, *twin_args) = _twins(seed)
    want = _numbers(call(exact, *twin_args))
    del stored[:]
    if name in RAISES:
        with pytest.raises(ExactModeOverflow, match=RAISES[name]):
            call(small, *args)
        assert max(stored, default=0) <= CEILING
        return
    got = _numbers(call(small, *args))
    scale = max(1.0, max(float(np.max(np.abs(w), initial=0.0)) for w in want))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.max(np.abs(g - w), initial=0.0) <= REL * scale
    assert max(stored, default=0) <= CEILING


def test_anova_refuses_its_table_before_any_pass(monkeypatch):
    sp = rademacher_space(15)  # 2^15 entries, a Hoeffding table of 3^15
    F = sp.from_table(np.arange(sp.config_count, dtype=float))

    def no_pass(*args):
        raise AssertionError("an axis was averaged before the ceiling check")

    monkeypatch.setattr(calculus, "_average", no_pass)
    message = "^14348907 stored entries exceed the exact-mode ceiling 10000000$"
    with pytest.raises(ExactModeOverflow, match=message):
        anova(sp, F)


def test_stationarity_stops_at_the_ceiling(stored):
    with pytest.raises(ExactModeOverflow, match="^128 stored entries"):
        check_stationarity(_small())
    assert stored and max(stored) <= CEILING


def test_only_space_checks_the_ceiling():
    src = Path(dmc.__file__).parent
    callers = sorted(p.name for p in src.glob("*.py") if "require_exact(" in p.read_text())
    assert callers == ["space.py"]
