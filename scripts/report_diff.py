#!/usr/bin/env python3
"""Every CLI report of this checkout against another's, field by field.

    python3 scripts/report_diff.py OTHER_CHECKOUT [--size full]

Runs each subcommand at its arguments in `perfbench/workloads.py`'s
`CLI_ARGS[size]` (read from this checkout, not imported), with seeds 1 and
2 and, for `stein-homog`, a fixed 4 x 4 kernel CSV.  Each checkout runs all
of them through `dmc.cli.main` in one fresh interpreter, with PYTHONPATH
set to its `src` and BLAS on one thread.  JSON reports are compared field
by field, ignoring `timestamp`; CSV reports cell by cell.  Each leaf is
compared by its `repr`, so 1 and 1.0 differ and NaN equals NaN.  The script
prints every difference and exits 1 if there is one; otherwise it prints
how many reports agree and exits 0.
"""

import argparse
import ast
import csv
import io
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2)
KERNEL = "0,0.5,-0.25,1\n0.5,0,0.75,-0.5\n-0.25,0.75,0,0.25\n1,-0.5,0.25,0\n"
CHILD = """
import json, sys
import dmc.cli
runs, src = json.loads(sys.argv[1]), sys.argv[2]
if not dmc.cli.__file__.startswith(src):
    raise SystemExit(f"dmc imported from {dmc.cli.__file__}, not from {src}")
for argv in runs:
    if dmc.cli.main(argv):
        raise SystemExit(f"{argv[0]} failed")
"""


def cli_args(size: str) -> dict:
    """`CLI_ARGS[size]` of this checkout's `perfbench/workloads.py`, by `ast`."""
    with open(os.path.join(ROOT, "perfbench", "workloads.py")) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "CLI_ARGS"
                                                for t in node.targets):
            return ast.literal_eval(node.value)[size]
    raise SystemExit("no CLI_ARGS in perfbench/workloads.py")


def run(checkout: str, runs: list) -> None:
    src = os.path.join(checkout, "src", "")
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(runs), src],
                          cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"{checkout}: {proc.stderr.strip()}")


def load(path: str):
    """A JSON report without its `timestamp`, or a CSV report as rows of cells."""
    with open(path, newline="") as fh:
        text = fh.read()
    try:
        report = json.loads(text)
    except ValueError:
        return list(csv.reader(io.StringIO(text)))
    report.pop("timestamp", None)
    return report


def diff(path: str, a, b, out: list) -> None:
    """Append one line to `out` per leaf or key where `a` and `b` differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            where = f"{path}.{key}"
            if key not in a or key not in b:
                out.append(f"{where}: only in {'this' if key in a else 'other'}")
            else:
                diff(where, a[key], b[key], out)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            diff(f"{path}[{i}]", x, y, out)
    elif repr(a) != repr(b):
        out.append(f"{path}: {a!r} != {b!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", help="root of the checkout to compare against")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    sides = {"this": ROOT, "other": os.path.abspath(args.other)}
    with tempfile.TemporaryDirectory() as tmp:
        kernel = os.path.join(tmp, "kernel.csv")
        with open(kernel, "w") as fh:
            fh.write(KERNEL)
        jobs = [(f"{command}-seed{seed}",
                 [command, *(kernel if v is None else v for v in extra), "--seed", str(seed)])
                for command, extra in cli_args(args.size).items() for seed in SEEDS]
        for side, checkout in sides.items():
            os.mkdir(os.path.join(tmp, side))
            run(checkout, [[*argv, "--out", os.path.join(tmp, side, name)] for name, argv in jobs])
        differences = []
        for name, _ in jobs:
            diff(name, load(os.path.join(tmp, "this", name)),
                 load(os.path.join(tmp, "other", name)), differences)
    for line in differences:
        print(line)
    if differences:
        print(f"{len(differences)} differences in {len(jobs)} reports")
        return 1
    print(f"{len(jobs)} reports agree apart from timestamp")
    return 0


if __name__ == "__main__":
    sys.exit(main())
