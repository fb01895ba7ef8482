"""Finite product probability spaces and functionals on them.

A space is an ordered family of finitely supported coordinates.  A
`Functional` is a real random variable, always tabulated over the
configuration grid and stored compactly: its array has the full length on
the coordinates it depends on and length 1 on every other axis, so a
conditional expectation E[F | X_S] holds only the X_S grid.
`Functional.values` is the read-only dense view over the whole grid.  A
black-box evaluator is a plain callable on configurations, which
`from_evaluator` tabulates over its declared dependencies and which
`expectation_mc` and `check_declared_dependencies` call on sampled
configurations.  `ProductSpace` is the only code that turns a per-point rule
into a table (`from_evaluator`) or draws a space's configurations
(`sample_configs`).
Everything downstream (gradient, divergence, semigroup, Clark
decompositions, ...) is built from one operation, the one-coordinate average
E_a.  `_average` is its only implementation: `integrate_out` and the
conditionals, `expectation` and `variance` (E_a over every axis, by Fubini)
all go through it.  A table of at most `SMALL_TABLE` entries takes one
product with the pmf per stored axis.  On a larger one, averaged axes with
no kept stored axis between them form a run, contracted in one pass against
the product of their pmfs (at most `RUN_LAW_CAP` entries); the kernel of
each pass (a gemv, a batched matmul, a gemm against a Kronecker block, or
one einsum pass) follows from the shape alone, and each space caches its
run laws and Kronecker blocks within `KERNEL_CACHE_BYTES`.  An expectation
holds less than the array it is given.

Exact mode has one rule, checked here only and before allocating: no array
stored on a space exceeds `exact_ceiling` entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import prod
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    BadInput,
    BadParameters,
    EmptySupport,
    ExactModeOverflow,
    IndexOutOfRange,
    UnnormalizedPmf,
)

PMF_TOL = 1e-9
DEFAULT_EXACT_CEILING = 10**7

# `_average` (sizes in table entries unless stated)
SMALL_TABLE = 256  # tables up to this size go one stored axis at a time
RUN_LAW_CAP = 4096  # the product law of one run of averaged axes
MATMUL_ROW = 128  # a row of K * post from which a batched matmul pays
KRON_POST = 8  # the longest post contracted against a Kronecker block
KRON_BLOCK_CAP = 1024  # one kron(law, I_post) block, checked before it is built
KERNEL_CACHE_BYTES = 1 << 20  # every law and block cached on one space


@dataclass(frozen=True)
class Coordinate:
    """One coordinate space: finite support with pmf and optional real embedding."""

    id: str
    labels: tuple
    pmf: np.ndarray
    embedding: np.ndarray | None = None

    def __post_init__(self):
        if len(self.labels) == 0:
            raise EmptySupport(f"coordinate {self.id!r} has empty support")
        if len(set(self.labels)) != len(self.labels):
            raise BadInput(f"coordinate {self.id!r} has duplicate outcome labels")
        pmf = np.asarray(self.pmf, dtype=float)
        object.__setattr__(self, "pmf", pmf)
        if len(pmf) != len(self.labels):
            raise BadInput(f"coordinate {self.id!r}: pmf length does not match support size")
        if np.any(pmf <= 0):
            raise UnnormalizedPmf(f"coordinate {self.id!r} has non-positive pmf entries")
        if abs(pmf.sum() - 1.0) > PMF_TOL:
            raise UnnormalizedPmf(
                f"coordinate {self.id!r} pmf sums to {pmf.sum()!r}"
            )
        if self.embedding is not None:
            emb = np.asarray(self.embedding, dtype=float)
            if len(emb) != len(self.labels):
                raise BadInput(
                    f"coordinate {self.id!r}: embedding length does not match support size"
                )
            object.__setattr__(self, "embedding", emb)

    @property
    def size(self) -> int:
        return len(self.labels)


class ProductSpace:
    """Ordered product of coordinates; the order realizes the filtration.

    No array stored on it exceeds `exact_ceiling` entries (`require_exact`).
    `exact`: the whole grid fits, so no broadcast result can pass the ceiling.
    """

    def __init__(self, coords: Sequence[Coordinate], exact_ceiling: int = DEFAULT_EXACT_CEILING):
        self.coords = tuple(coords)
        if not self.coords:
            raise EmptySupport("a product space needs at least one coordinate")
        self.shape = tuple(c.size for c in self.coords)
        self.config_count = int(np.prod([c.size for c in self.coords], dtype=object))
        self.exact_ceiling = exact_ceiling
        self.exact = self.config_count <= exact_ceiling
        self._kernels = {}  # `_average`'s run laws and Kronecker blocks, by run

    @property
    def n(self) -> int:
        return len(self.coords)

    def require_exact(self, entries: int | None = None):
        """Refuse to store `entries` values (default: the whole grid) past the ceiling."""
        entries = self.config_count if entries is None else entries
        if entries > self.exact_ceiling:
            raise ExactModeOverflow(
                f"{entries} stored entries exceed the exact-mode ceiling {self.exact_ceiling}"
            )

    def check_axis(self, a: int):
        if not 0 <= a < self.n:
            raise IndexOutOfRange(f"coordinate index {a} out of range [0, {self.n})")

    def index_to_config(self, idx: int) -> tuple:
        return tuple(int(v) for v in np.unravel_index(idx, self.shape))

    def config_to_index(self, config: Sequence[int]) -> int:
        for a, v in enumerate(config):
            if not 0 <= v < self.shape[a]:
                raise IndexOutOfRange(f"outcome {v} invalid for coordinate {a}")
        return int(np.ravel_multi_index(tuple(config), self.shape))

    def embedding(self, a: int) -> np.ndarray:
        self.check_axis(a)
        emb = self.coords[a].embedding
        if emb is None:
            raise BadInput(f"coordinate {self.coords[a].id!r} has no real embedding")
        return emb

    # -- functional constructors -------------------------------------------

    def from_table(self, values) -> "Functional":
        self.require_exact()
        vals = np.asarray(values, dtype=float)
        if vals.size != self.config_count:
            raise BadInput(
                f"table length {vals.size} does not match configuration count "
                f"{self.config_count}"
            )
        vals = vals.reshape(self.shape)
        return Functional(self, vals, deps=frozenset(range(self.n)))

    def from_evaluator(self, fn: Callable, deps: Iterable[int]) -> "Functional":
        """Tabulate a black-box functional over its dependency grid only.

        `fn` maps a configuration (tuple of outcome indices, one per
        coordinate, 0 outside `deps`) to a real; it must only look at
        coordinates in `deps`.
        """
        F = self.zeros(deps)
        table = F.data
        for idx in np.ndindex(*table.shape):
            table[idx] = fn(idx)
        return F

    def zeros(self, deps: Iterable[int]) -> "Functional":
        """The zero functional stored on the grid of `deps`, to be filled in place."""
        deps = frozenset(deps)
        for a in deps:
            self.check_axis(a)
        compact = tuple(k if a in deps else 1 for a, k in enumerate(self.shape))
        self.require_exact(prod(compact))
        return Functional(self, np.zeros(compact), deps=deps)

    def constant(self, c: float) -> "Functional":
        return Functional(self, np.full((1,) * self.n, float(c)), deps=frozenset())

    def coordinate_functional(self, a: int) -> "Functional":
        """X_a through the coordinate's real embedding."""
        emb = self.embedding(a)
        shape = tuple(self.shape[a] if i == a else 1 for i in range(self.n))
        return Functional(self, emb.reshape(shape).copy(), deps=frozenset({a}))

    def indicator(self, predicate: Callable, deps: Iterable[int]) -> "Functional":
        return self.from_evaluator(lambda cfg: 1.0 if predicate(cfg) else 0.0, deps)

    # -- sampling ----------------------------------------------------------

    def sample_configs(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """iid configurations, shape (size, n), entries are outcome indices."""
        cols = [
            rng.choice(c.size, size=size, p=c.pmf) for c in self.coords
        ]
        return np.stack(cols, axis=1)


class Functional:
    """Real random variable on a ProductSpace, stored compactly.

    `data` has one axis per coordinate: the full length on the coordinates
    in `deps` and length 1 on the others.  Arithmetic is numpy broadcasting
    on these arrays, so results stay compact, and `apply` hands its `fn` the
    stored array, so `fn` must act entrywise.  `values` is the read-only
    dense view of shape `space.shape`; it copies nothing.
    """

    __slots__ = ("space", "data", "deps")

    def __init__(self, space: ProductSpace, data: np.ndarray, deps: frozenset):
        self.space = space
        self.data = data
        self.deps = frozenset(deps)

    @property
    def values(self) -> np.ndarray:
        return np.broadcast_to(self.data, self.space.shape)

    def __call__(self, config: Sequence[int]) -> float:
        return float(self.values[tuple(config)])

    def _coerce(self, other):
        if isinstance(other, Functional):
            if other.space is not self.space:
                raise BadInput("functionals live on different spaces")
            if not self.space.exact:
                # the broadcast size, before numpy allocates (np.broadcast_shapes stops at 32 dims)
                self.space.require_exact(prod(map(max, self.data.shape, other.data.shape)))
            return other.data, other.deps
        return float(other), frozenset()

    def __add__(self, other):
        v, d = self._coerce(other)
        return Functional(self.space, self.data + v, self.deps | d)

    __radd__ = __add__

    def __sub__(self, other):
        v, d = self._coerce(other)
        return Functional(self.space, self.data - v, self.deps | d)

    def __rsub__(self, other):
        v, d = self._coerce(other)
        return Functional(self.space, v - self.data, self.deps | d)

    def __mul__(self, other):
        v, d = self._coerce(other)
        return Functional(self.space, self.data * v, self.deps | d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v, d = self._coerce(other)
        return Functional(self.space, self.data / v, self.deps | d)

    def __neg__(self):
        return Functional(self.space, -self.data, self.deps)

    def abs(self) -> "Functional":
        return Functional(self.space, np.abs(self.data), self.deps)

    def apply(self, fn) -> "Functional":
        return Functional(self.space, fn(self.data), self.deps)

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.data)))

    def scale(self) -> float:
        return max(1.0, self.sup_norm())


# -- core primitives -------------------------------------------------------


def build_space(coords: Sequence[Coordinate], exact_ceiling: int = DEFAULT_EXACT_CEILING) -> ProductSpace:
    return ProductSpace(coords, exact_ceiling=exact_ceiling)


def _average(space: ProductSpace, data: np.ndarray, axes: Iterable[int]) -> np.ndarray:
    """E_a for each a in the strictly ascending `axes` of compact `data`.

    Returns the averaged array at its compact shape (each averaged axis at
    length 1).  Length-1 axes cost nothing: if every averaged axis has
    length 1 the result is a view of `data`, and any other call returns a
    fresh array (`mix` relies on both on tables of at most `SMALL_TABLE`
    entries, the only ones it averages through here).

    A table of at most `SMALL_TABLE` entries, where the per-call cost shows,
    takes one product with the pmf per stored axis on the array viewed as
    (pre, k, post): a gemv if pre or post is 1, else one einsum pass.

    A larger table is averaged by runs (`_runs`): stored averaged axes with
    no kept stored axis between them, one contiguous block of K entries in
    each row, contracted in one pass against their product law (`_law`, at
    most `RUN_LAW_CAP` entries).  `_kernel` picks each pass (`_passes`)
    from the view (pre, K, post) alone:

    - pre == 1: gemv, law @ (K, post);
    - post == 1: gemv, (pre, K) @ law;
    - K * post >= `MATMUL_ROW`: batched matmul, one gemv per leading index;
    - post <= `KRON_POST`: one gemm of (pre, K * post) against the cached
      block kron(law, I_post), at most `KRON_BLOCK_CAP` entries (so a
      non-finite entry turns its row's other `post` results into NaN);
    - otherwise one einsum pass.

    Run laws and blocks are cached on the space (`_cached`) within
    `KERNEL_CACHE_BYTES`; a cached and a rebuilt one are bitwise equal.
    """
    if data.size <= SMALL_TABLE:
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
    out, v = list(data.shape), data
    for run, pre, K, post, kernel in _passes(out, axes):
        law = _law(space, run)
        if kernel == "gemv-left":
            v = law.dot(v.reshape(K, post))
        elif kernel == "gemv-right":
            v = v.reshape(pre, K).dot(law)
        elif kernel == "matmul":
            v = np.matmul(law, v.reshape(pre, K, post))
        elif kernel == "kron":
            v = v.reshape(pre, K * post).dot(_kron_block(space, run, law, post))
        else:
            v = np.einsum("j,ijk->ik", law, v.reshape(pre, K, post))
        for a in run:
            out[a] = 1
    return v.reshape(out)


def _runs(shape: Sequence[int], axes: Iterable[int], cap: int | None = None) -> list:
    """The stored axes among the ascending `axes`, grouped into runs.

    Two averaged axes share a run when every axis between them has length 1
    or is averaged too, so a run is one contiguous block of the C-ordered
    table; a run grows while it has at most `cap` entries (default
    `RUN_LAW_CAP`, the cap on its product law).  Each run is a tuple of axes.
    """
    cap = RUN_LAW_CAP if cap is None else cap
    runs, run, K = [], (), 1
    for a in axes:
        k = shape[a]
        if k == 1:
            continue
        if run and K * k <= cap and prod(shape[run[-1] + 1:a]) == 1:
            run, K = run + (a,), K * k
        else:
            if run:
                runs.append(run)
            run, K = (a,), k
    if run:
        runs.append(run)
    return runs


def _passes(shape: Sequence[int], axes: Iterable[int]):
    """(run, pre, K, post, kernel) for each run of `_runs`, in the order `_average` takes them."""
    out = list(shape)
    for run in _runs(out, axes):
        pre, post = prod(out[:run[0]]), prod(out[run[-1] + 1:])
        K = prod(out[a] for a in run)
        yield run, pre, K, post, _kernel(pre, K, post)
        for a in run:
            out[a] = 1


def _kernel(pre: int, K: int, post: int, rows: int = 1) -> str:
    """The pass that contracts a (pre, K, post) view against a (rows, K) matrix.

    `rows` is 1 for a law (`_average`) and K for a mixing matrix (`mix`),
    whose Kronecker block has K * post * rows * post entries.  numpy's inner
    loops run over the last axis, so a short `post` starves einsum; there a
    gemm against the Kronecker block is faster despite its zeros, and a long
    row of K * post amortizes one BLAS call per leading index.  With a
    mixing matrix a batched matmul beats einsum on every shape, so it takes
    einsum's place.  See `_average` for the table.
    """
    if pre == 1:
        return "gemv-left"
    if post == 1:
        return "gemv-right"
    if K * post >= MATMUL_ROW:
        return "matmul"
    if post <= KRON_POST and K * post * rows * post <= KRON_BLOCK_CAP:
        return "kron"
    return "einsum" if rows == 1 else "matmul"


def _law(space: ProductSpace, run: tuple) -> np.ndarray:
    """The product of the run's pmfs, C-ordered like the run's block of the table."""
    if len(run) == 1:
        return space.coords[run[0]].pmf
    return _cached(space, ("law", run),
                   lambda: reduce(np.multiply.outer, [space.coords[a].pmf for a in run]).ravel())


def _kron_block(space: ProductSpace, run: tuple, law: np.ndarray, post: int) -> np.ndarray:
    """kron(law, I_post): row j * post + p holds law[j] in column p.

    Its builder closes over `law` and `post` here, not in `_average`, where
    the closure would cost every small-table call a cell per variable.
    """
    return _cached(space, ("kron", run, post),
                   lambda: np.kron(law.reshape(-1, 1), np.eye(post)))


def _cached(space: ProductSpace, key: tuple, build: Callable) -> np.ndarray:
    """`build()` kept read-only on the space; the cache is emptied before it
    would pass `KERNEL_CACHE_BYTES`."""
    cache = space._kernels
    table = cache.get(key)
    if table is None:
        table = build()
        table.flags.writeable = False  # every later call shares it
        if table.nbytes + sum(t.nbytes for t in cache.values()) > KERNEL_CACHE_BYTES:
            cache.clear()
        cache[key] = table
    return table


def expectation(space: ProductSpace, F: Functional) -> float:
    return _average(space, F.data, range(space.n)).item()


def expectation_mc(
    space: ProductSpace,
    fn: Callable,
    rng: np.random.Generator,
    size: int,
) -> tuple[float, float]:
    """Sample mean and standard error of a black-box evaluator."""
    if size < 2:
        raise BadParameters(f"a standard error needs size >= 2, got {size}")
    configs = space.sample_configs(rng, size)
    vals = np.array([fn(tuple(cfg)) for cfg in configs])
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(size))


def variance(space: ProductSpace, F: Functional) -> float:
    m = expectation(space, F)
    centred = F.data - m
    centred *= centred  # one full-grid temporary, where ** 2 holds two
    return _average(space, centred, range(space.n)).item()


def integrate_out(space: ProductSpace, F: Functional, axes: Iterable[int]) -> Functional:
    """Condition on everything except `axes`: average those coordinates away."""
    axes = sorted(set(axes))
    for a in axes:
        space.check_axis(a)
    return Functional(space, _average(space, F.data, axes), F.deps - set(axes))


def conditional_drop(space: ProductSpace, F: Functional, a: int) -> Functional:
    """E[F | G_a]: integrate coordinate a out against its marginal."""
    return integrate_out(space, F, [a])


def conditional_on(space: ProductSpace, F: Functional, keep: Iterable[int]) -> Functional:
    """E[F | X_keep]."""
    keep = set(keep)
    return integrate_out(space, F, set(range(space.n)) - keep)


def resolve_order(space: ProductSpace, order: Sequence[int] | None) -> list:
    """`order` as a list (default: the coordinates in index order); it must be a permutation."""
    if order is None:
        return list(range(space.n))
    order = list(order)
    if sorted(order) != list(range(space.n)):
        raise IndexOutOfRange("order must be a permutation of the coordinates")
    return order


def conditional_prefix(
    space: ProductSpace,
    F: Functional,
    k: int,
    order: Sequence[int] | None = None,
) -> Functional:
    """E[F | F_k] for the filtration generated by the first k coordinates of `order`."""
    order = resolve_order(space, order)
    if not 0 <= k <= space.n:
        raise IndexOutOfRange(f"prefix length {k} out of range")
    return conditional_on(space, F, order[:k])


def check_declared_dependencies(
    space: ProductSpace,
    fn: Callable,
    deps: Iterable[int],
    rng: np.random.Generator,
    trials: int = 50,
) -> bool:
    """Spot-check that `fn` ignores coordinates outside `deps`.

    Resamples one out-of-set coordinate at a time and compares evaluations.
    """
    deps = frozenset(deps)
    outside = [a for a in range(space.n) if a not in deps]
    if not outside:
        return True
    configs = space.sample_configs(rng, trials)
    for cfg in configs:
        cfg = tuple(int(v) for v in cfg)
        a = outside[rng.integers(len(outside))]
        alt = list(cfg)
        alt[a] = int(rng.choice(space.coords[a].size, p=space.coords[a].pmf))
        if fn(cfg) != fn(tuple(alt)):
            return False
    return True


# -- construction helpers and file format ----------------------------------


def rademacher_coordinate(cid: str = "x", p: float = 0.5) -> Coordinate:
    return Coordinate(
        id=cid,
        labels=("-1", "+1"),
        pmf=np.array([1.0 - p, p]),
        embedding=np.array([-1.0, 1.0]),
    )


def rademacher_space(n: int) -> ProductSpace:
    """n fair +-1 coordinates."""
    return build_space([rademacher_coordinate(f"x{i + 1}") for i in range(n)])


def iid_space(coord: Coordinate, n: int) -> ProductSpace:
    return build_space(
        [
            Coordinate(id=f"{coord.id}{i + 1}", labels=coord.labels, pmf=coord.pmf,
                       embedding=coord.embedding)
            for i in range(n)
        ]
    )


def space_from_file(path) -> ProductSpace:
    """Load a space description from a YAML file.

    Format::

        coords:
          - id: x1
            outcomes:
              - {label: "-1", p: 0.5, value: -1.0}
              - {label: "+1", p: 0.5, value: 1.0}
    """
    import yaml

    with open(path) as f:
        doc = yaml.safe_load(f)
    coords = []
    for entry in doc["coords"]:
        outcomes = entry["outcomes"]
        labels = tuple(str(o["label"]) for o in outcomes)
        pmf = np.array([float(o["p"]) for o in outcomes])
        if all("value" in o for o in outcomes):
            emb = np.array([float(o["value"]) for o in outcomes])
        else:
            emb = None
        coords.append(Coordinate(id=str(entry["id"]), labels=labels, pmf=pmf, embedding=emb))
    return build_space(coords)
