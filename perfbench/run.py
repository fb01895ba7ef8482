"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload dense-subsets --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Set-up is timed in several fresh
interpreters (median reported as setup_s); the workload then runs in one
more fresh interpreter, a single client in a closed loop.  With --trace 0
the result holds the end-to-end metrics named in BENCHMARK.json, with
--trace 1 the per-layer ones.  The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`failed` counts operations that raised or failed their check, except those
matching a defect recorded in perfbench/spec.json; those are reported on
the summary lines above the result, and as a per-layer count.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import monotonic

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEADLINE_S = 170.0  # every run must end within 180 s
SETUP_REPEATS = {"full": 5, "tiny": 1}


def fail(message: str, code: int = 2) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def worker(args, workdir, deadline, extra=()):
    """Run worker.py in a fresh interpreter; return its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    # one client, one operation at a time: keep BLAS to a single thread
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--size", args.size, "--workdir", workdir, *extra,
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    start = monotonic()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: smoke-test scale, not a measurement")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "dmc", "__init__.py")):
        return fail(f"no dmc sources under {ROOT}/src; run from a full checkout")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch)
    deadline = start + DEADLINE_S
    try:
        setups = [
            worker(args, workdir, deadline, ["--setup-only"])
            for _ in range(SETUP_REPEATS[args.size])
        ]
        result = worker(args, workdir, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as err:
        return fail(f"{args.workload}: {err}", 3)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    import_ms = statistics.median(s["import_s"] for s in setups) * 1e3
    inputs_ms = statistics.median(s["inputs_s"] for s in setups) * 1e3
    setup_s = statistics.median(s["import_s"] + s["inputs_s"] for s in setups)
    if args.trace:
        values = dict(result["metrics"])
        values["setup.import_ms"] = import_ms
        values["setup.inputs_ms"] = inputs_ms
        unexpected = result["unexpected_failures"]
        print(f"{args.workload} traced: untraced {values['trace.untraced_ops_per_s']:.4g} ops/s, "
              f"traced {values['trace.traced_ops_per_s']:.4g} ops/s, "
              f"{values['trace.spans']} spans")
    else:
        run = result["run"]
        values = {
            "ops_per_s": run["ops_per_s"],
            "op_p50_ms": run["op_p50_ms"],
            "op_tail_ms": run["op_tail_ms"],
            "peak_rss_mib": result["peak_rss_mib"],
            "setup_s": setup_s,
        }
        unexpected = run["failed"]
        error_rate = (run["failed"] + run["known_defect"]) / run["attempted"]
        print(f"{args.workload}: {run['attempted']} ops in {run['cycles']} cycles, "
              f"tail = p{run['tail_percentile']:.2f} ({run['beyond_tail']} ops beyond)")
        print(f"{args.workload}: error_rate = {error_rate:.6g} fraction "
              f"({run['failed']} failed, {run['known_defect']} known defect)")
        for kind, ms in run["per_kind_p50_ms"].items():
            print(f"  {kind}: p50 {ms:.4g} ms")
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        return fail(f"{args.workload}: metrics not measured: {', '.join(missing)}", 4)
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": unexpected == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
