"""Routes that skip a wrapper or a repeated solve, bitwise against the routes they replaced.

`gradient_component` subtracts one `_average` from F's table instead of going
through `conditional_drop` and `Functional.__sub__`, and the quadrature
resolvent of the `semigroup` report takes its Gauss-Laguerre nodes from a
cache instead of solving the rule on every call.  Both must give the same
bytes, so the reports built on them stay byte-identical.
"""

import json
import sys

import numpy as np
import pytest

from dmc import calculus, cli
from dmc.calculus import gradient_component
from dmc.cli import _laguerre_nodes, _quadrature_resolvent, main
from dmc.randomized import random_space
from dmc.space import Functional
from .oracles import drop_gradient_component, laggauss_quadrature_resolvent


def _same(new, old):
    assert new.deps == old.deps
    assert new.data.shape == old.data.shape
    assert new.data.tobytes() == old.data.tobytes()


def _compact(sp, rng):
    """F on a random half of the coordinates, one entry -0.0 and one NaN."""
    deps = frozenset(np.flatnonzero(rng.random(sp.n) < 0.5).tolist())
    shape = tuple(k if a in deps else 1 for a, k in enumerate(sp.shape))
    table = rng.normal(size=shape)
    flat = table.reshape(-1)
    flat[0] = -0.0
    if flat.size > 1:
        flat[-1] = np.nan
    return Functional(sp, table, deps)


@pytest.mark.parametrize("seed", range(8))
def test_gradient_component_matches_the_conditional_drop_route(seed):
    rng = np.random.default_rng(seed)
    sp = random_space(rng)
    full = sp.from_table(rng.normal(size=sp.config_count))
    for F in (full, _compact(sp, rng), sp.constant(2.5)):
        for a in range(sp.n):  # a compact F leaves some a outside F.deps
            _same(gradient_component(sp, F, a), drop_gradient_component(sp, F, a))


def test_laguerre_nodes_are_the_solved_rule():
    t, w = np.polynomial.laguerre.laggauss(64)
    cached_t, cached_w = np.array(_laguerre_nodes(64)).T
    assert cached_t.tobytes() == t.tobytes() and cached_w.tobytes() == w.tobytes()
    assert _laguerre_nodes(64) is _laguerre_nodes(64)


def test_quadrature_resolvent_matches_the_solved_rule():
    rng = np.random.default_rng(4)
    for _ in range(3):
        sp = random_space(rng)
        F = sp.from_table(rng.normal(size=sp.config_count))
        _same(_quadrature_resolvent(sp, F), laggauss_quadrature_resolvent(sp, F))


def _report(capsys, argv):
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    report.pop("timestamp")
    return report


@pytest.mark.parametrize("argv", [
    ["identities", "--trials", "30", "--seed", "3"],
    ["semigroup", "--trials", "2000", "--repeats", "4", "--seed", "3"],
])
def test_reports_match_the_old_routes(capsys, monkeypatch, argv):
    new = _report(capsys, argv)
    monkeypatch.setattr(cli, "_quadrature_resolvent", laggauss_quadrature_resolvent)
    binders = [
        module for name, module in sys.modules.items()
        if name.startswith("dmc.")
        and getattr(module, "gradient_component", None) is calculus.gradient_component
    ]
    assert {"dmc.calculus", "dmc.semigroup"} <= {module.__name__ for module in binders}
    for module in binders:
        monkeypatch.setattr(module, "gradient_component", drop_gradient_component)
    assert _report(capsys, argv) == new
