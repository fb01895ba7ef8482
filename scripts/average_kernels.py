#!/usr/bin/env python3
"""Min-of-k wall time of `space._average` and `calculus.mix`, per kernel and (pre, K, post).

    PYTHONPATH=src python3 scripts/average_kernels.py [--repeats 7] [--seed 0]

BLAS runs on one thread.  Each space is tabulated in full with random
normal entries.  Every single axis is averaged, then four multi-axis calls:
all axes (an expectation), axes 1..n-1 (the first prefix conditional), the
odd axes and the last half; the last line of a space applies M_u at
u = 0.37 over every axis.  Each line gives the call's runs as
kernel(pre, K, post), or `per-axis` for a table of at most SMALL_TABLE
entries, and the best of `--repeats` timings in microseconds per call.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads BLAS

import argparse
import timeit
from math import prod

import numpy as np

from dmc import calculus, space


def _coordinate(cid, pmf):
    return space.Coordinate(id=cid, labels=tuple(range(len(pmf))), pmf=np.asarray(pmf))


MIX_U = 0.37

SPACES = {
    "fair n=12": lambda: space.rademacher_space(12),
    "fair n=20": lambda: space.rademacher_space(20),
    "3^13": lambda: space.iid_space(_coordinate("t", [0.2, 0.5, 0.3]), 13),
    "4x8x8": lambda: space.build_space([
        _coordinate("a", [0.1, 0.2, 0.3, 0.4]),
        _coordinate("b", np.arange(1, 9) / 36.0),
        _coordinate("c", np.arange(8, 0, -1) / 36.0),
    ]),
}


def _calls(n):
    calls = [(f"axis {a}", [a]) for a in range(n)]
    calls += [
        ("all", list(range(n))),
        ("1..n-1", list(range(1, n))),
        ("odd", list(range(1, n, 2))),
        ("last half", list(range(n // 2, n))),
    ]
    return calls


def _passes(shape, axes, cap=None, mixing=False):
    """kernel(pre,K,post) of each run that `space._contract` takes, or `per-axis`."""
    if prod(shape) <= space.SMALL_TABLE:
        return "per-axis"
    out, passes = list(shape), []
    for run in space._runs(shape, axes, cap):
        pre, K, post = space._view(out, run)
        passes.append(f"{space._kernel(pre, K, post, K if mixing else 1)}({pre},{K},{post})")
        if not mixing:  # M_u keeps the table's shape; E_a shrinks the run to length 1
            for a in run:
                out[a] = 1
    return " ".join(passes)


def _best_us(fn, repeats):
    once = min(timeit.repeat(fn, number=1, repeat=3))
    number = max(1, int(0.02 / max(once, 1e-7)))
    return min(timeit.repeat(fn, number=number, repeat=repeats)) / number * 1e6


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    for name, make in SPACES.items():
        sp = make()
        data = rng.normal(size=sp.shape)
        print(f"# {name}: {sp.config_count} entries")
        for label, axes in _calls(sp.n):
            us = _best_us(lambda: space._average(sp, data, axes), args.repeats)
            print(f"{name:>10} {label:>10} {us:12.1f} us  {_passes(sp.shape, axes)}")
        F = sp.from_table(data)
        us = _best_us(lambda: calculus.mix(sp, F, MIX_U), args.repeats)
        route = _passes(sp.shape, range(sp.n), calculus.MIX_RUN_CAP, mixing=True)
        print(f"{name:>10} {'mix':>10} {us:12.1f} us  {route}")


if __name__ == "__main__":
    main()
