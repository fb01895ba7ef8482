#!/usr/bin/env python3
"""Wall time of `import dmc.cli` in fresh interpreters: this checkout against another.

    python3 scripts/import_cost.py OTHER_CHECKOUT [--pairs 20]

Each pair starts one interpreter per checkout, alternating which goes
first, with PYTHONPATH set to that checkout's `src` and BLAS on one thread,
as the benchmark's set-up runs are.  Each interpreter runs under
`-X importtime` and times `import dmc.cli` with `perf_counter`.  The script
prints each side's median and quartiles in ms, then the median
`-X importtime` self time of each `dmc` module in us.  The environment is
passed on, so with PYTHONDONTWRITEBYTECODE=1 every interpreter compiles
`src/dmc` from source.
"""

import argparse
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROBE = (
    "from time import perf_counter; t = perf_counter(); import dmc.cli; "
    "print(perf_counter() - t, dmc.cli.__file__)"
)


def run(checkout: str) -> tuple:
    """(ms to import dmc.cli, {dmc module: importtime self time in us}) of one interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"), PYTHONHASHSEED="0")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", PROBE],
        cwd=checkout, env=env, capture_output=True, text=True, check=True,
    )
    seconds, path = proc.stdout.split()
    if not path.startswith(os.path.join(checkout, "src", "")):
        raise SystemExit(f"dmc imported from {path}, not from {checkout}")
    own = {}
    for line in proc.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        name = fields[-1].strip()
        if len(fields) == 3 and (name == "dmc" or name.startswith("dmc.")):
            own[name] = int(fields[0])
    return float(seconds) * 1e3, own


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", help="root of the checkout to compare against")
    parser.add_argument("--pairs", type=int, default=20)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("quartiles need --pairs >= 2")
    sides = {"this": ROOT, "other": os.path.abspath(args.other)}
    times = {side: [] for side in sides}
    own = {side: {} for side in sides}
    for i in range(args.pairs):
        for side in (sides if i % 2 == 0 else reversed(sides)):
            ms, modules = run(sides[side])
            times[side].append(ms)
            for name, us in modules.items():
                own[side].setdefault(name, []).append(us)
    for side, checkout in sides.items():
        q1, _, q3 = statistics.quantiles(times[side], n=4)
        print(f"{side:5s} import dmc.cli: median {statistics.median(times[side]):.1f} ms "
              f"[{q1:.1f}-{q3:.1f}] over {args.pairs} runs  ({checkout})")
    print(f"{'module':16s} {'this us':>8s} {'other us':>8s}  (median -X importtime self time)")
    for name in sorted(set(own["this"]) | set(own["other"])):
        this, other = (statistics.median(own[s][name]) if name in own[s] else float("nan")
                       for s in sides)
        print(f"{name:16s} {this:8.0f} {other:8.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
