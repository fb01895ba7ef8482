"""Seeded builders for randomized exact-mode suites (tests and CLI)."""

import numpy as np

from .calculus import CoordinateField
from .space import Coordinate, Functional, ProductSpace, build_space


def random_space(
    rng: np.random.Generator, max_coords: int = 4, max_outcomes: int = 4
) -> ProductSpace:
    n = int(rng.integers(1, max_coords + 1))
    coords = []
    for i in range(n):
        size = int(rng.integers(2, max_outcomes + 1))
        raw = rng.uniform(0.1, 1.0, size=size)
        pmf = raw / raw.sum()
        coords.append(
            Coordinate(
                id=f"c{i}",
                labels=tuple(str(v) for v in range(size)),
                pmf=pmf,
                embedding=rng.normal(size=size),
            )
        )
    return build_space(coords)


def random_functional(space: ProductSpace, rng: np.random.Generator) -> Functional:
    return space.from_table(rng.normal(size=space.config_count))


def random_field(space: ProductSpace, rng: np.random.Generator) -> CoordinateField:
    return CoordinateField(
        space, {a: random_functional(space, rng) for a in range(space.n)}
    )


def adapted_field(space: ProductSpace, rng: np.random.Generator) -> CoordinateField:
    """U with U_k depending only on coordinates 0..k."""
    comps = {}
    for k in range(space.n):
        table = rng.normal(size=tuple(space.shape[: k + 1]))
        compact = table.reshape(space.shape[: k + 1] + (1,) * (space.n - k - 1))
        comps[k] = Functional(space, compact, deps=frozenset(range(k + 1)))
    return CoordinateField(space, comps)
