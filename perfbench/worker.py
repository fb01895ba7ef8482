"""One benchmark process: set up, run a workload in a closed loop, report JSON.

run.py starts this in a fresh interpreter, so the peak resident memory it
reports belongs to the workload alone.  Only the standard library is
imported before the set-up clock starts; `import dmc.cli` pulls in numpy,
scipy and every dmc module.

    python3 perfbench/worker.py --workload dense-subsets --seed 1 --seconds 30 \
        --trace 0 --size full --workdir DIR [--setup-only]

The last line of standard output is one JSON object.
"""

import argparse
import contextlib
import gc
import json
import os
import resource
import sys
import traceback
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the tail reads the middle of the j-th slowest kind's cluster, j fixed: a
# j that followed the cycle count would jump clusters when the program got
# faster.  j = 2 keeps ten or more operations beyond it from seven cycles up,
# and every workload runs more than that in its stated run time
TAIL_CLUSTER = 2
PEAK_WORKLOADS = ("dense-subsets", "wide-grid")


def closed_loop(kinds, seconds, root=None):
    """Run whole round-robin cycles until `seconds` have passed (at least one).

    Returns one (kind index, latency in s, status) per operation, status
    being "ok", "failed" or "known_defect".
    """
    records = []
    start = perf_counter()
    cycle = 0
    while cycle == 0 or perf_counter() - start < seconds:
        for k, kind in enumerate(kinds):
            args = kind.prepare(cycle)
            gc.collect()
            error, result = None, None
            span = root(f"op.{kind.name}") if root else contextlib.nullcontext()
            t0 = perf_counter()
            try:
                with span:
                    result = kind.call(args)
            except Exception:  # an operation that raises is counted, not fatal
                error = traceback.format_exc(limit=3)
            latency = perf_counter() - t0
            if error is None:
                try:
                    failure = kind.check(args, result)
                except Exception:
                    failure = traceback.format_exc(limit=3)
            else:
                failure = error
            del result
            if failure is None:
                status = "ok"
            elif getattr(failure, "known_defect", False):
                status = "known_defect"
            else:
                status = "failed"
                print(f"FAILED {kind.name} (cycle {cycle}): {failure}", file=sys.stderr)
            records.append((k, latency, status))
        cycle += 1
    return records


def tail_percentile(kind_count: int) -> float:
    """Percentile 1 - (j - 1/2)/K, mid-cluster for whole round-robin cycles."""
    return 100.0 * (1.0 - (TAIL_CLUSTER - 0.5) / kind_count)


def loop_metrics(kinds, records) -> dict:
    import numpy as np

    lat_ms = np.array([r[1] for r in records]) * 1e3
    cycles = len(records) // len(kinds)
    q = tail_percentile(len(kinds))
    ok = np.array([r[2] == "ok" for r in records]).reshape(cycles, len(kinds))
    # per-cycle throughput, median over cycles: a burst of contention from
    # outside moves one cycle, not the reading
    per_cycle = ok.sum(axis=1) / (lat_ms.reshape(cycles, len(kinds)).sum(axis=1) / 1e3)
    return {
        "attempted": len(records),
        "failed": sum(1 for r in records if r[2] == "failed"),
        "known_defect": sum(1 for r in records if r[2] == "known_defect"),
        "ops_per_s": float(np.median(per_cycle)),
        "op_p50_ms": float(np.median(lat_ms)),
        "op_tail_ms": float(np.percentile(lat_ms, q)),
        "tail_percentile": q,
        "beyond_tail": int(np.sum(lat_ms > np.percentile(lat_ms, q))),
        "cycles": cycles,
        "per_kind_p50_ms": {
            kind.name: float(np.median([r[1] * 1e3 for r in records if r[0] == k]))
            for k, kind in enumerate(kinds)
        },
    }


def traced_run(workloads, args, kinds, workdir) -> dict:
    """Per-layer metrics: untraced and traced passes, probes, tracemalloc pass."""
    import tracemalloc

    import tracing

    # the untraced and traced passes share the run time with the probes and
    # the tracemalloc pass, which together take about as long again
    part = args.seconds / 3.0
    phases = {}
    last = [perf_counter()]

    def lap(name):
        now = perf_counter()
        phases[name] = now - last[0]
        last[0] = now

    untraced = loop_metrics(kinds, closed_loop(kinds, part))
    lap("untraced")

    others = {
        name: workloads.build(name, args.seed, args.size, workdir)
        for name in workloads.WORKLOADS if name != args.workload
    }
    recorder = tracing.SpanRecorder()
    with tracing.patched(recorder.wrap):
        own = closed_loop(kinds, part, root=recorder.root)
        mark = len(recorder)
        # one cycle of every other workload, so each layer is read on every run
        coverage = {name: closed_loop(ks, 0, root=recorder.root) for name, ks in others.items()}
    traced = loop_metrics(kinds, own)
    lap("traced")
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    recorder.dump(os.path.join(out_dir, f"spans-{args.workload}.npz"))

    # a layer is read from the workload's own pass; one it never calls, from
    # the coverage cycles of the other workloads
    stats_by_name = recorder.summary(mark, len(recorder))
    stats_by_name.update(recorder.summary(0, mark))
    metrics = {}
    for name, stats in stats_by_name.items():
        if name.startswith("op.cli."):
            metrics[f"{name[3:]}.ms"] = stats["p50_ms"]
        elif not name.startswith("op."):
            for key in ("calls", "busy_ms", "self_ms", "p50_ms"):
                metrics[f"{name}.{key}"] = stats[key]
    anova = recorder.counters["calculus.anova"]
    if anova["enumerated"]:
        metrics["calculus.anova.kept_ratio"] = anova["kept"] / anova["enumerated"]
    busy_s = metrics.get("space.integrate_out.busy_ms", 0.0) / 1e3
    if busy_s > 0:
        metrics["space.integrate_out.gbps_computed"] = (
            recorder.counters["space.integrate_out"]["bytes_computed"] / busy_s / 1e9)
    metrics["cli.limits-walk.failed"] = _count_failed(
        [(kinds, own)] + [(others[n], coverage[n]) for n in others], "cli.limits-walk")
    metrics["trace.untraced_ops_per_s"] = untraced["ops_per_s"]
    metrics["trace.traced_ops_per_s"] = traced["ops_per_s"]
    metrics["trace.spans"] = len(recorder)

    for stem, make, call, computed_bytes in workloads.probes(args.seed, args.size):
        inputs = make()
        best = float("inf")
        spent = 0.0
        for _ in range(3):
            gc.collect()
            t0 = perf_counter()
            call(inputs)
            elapsed = perf_counter() - t0
            best, spent = min(best, elapsed), spent + elapsed
            if spent > 1.0:
                break
        del inputs
        metrics[f"{stem}_ms"] = best * 1e3
        if computed_bytes:
            metrics[f"{stem}_gbps_computed"] = computed_bytes / best / 1e9

    lap("probes")
    # every listed peak belongs to a dense-subsets or wide-grid call, so the
    # peaks come from one cycle of those two whatever the workload; the CLI
    # batch runs seven times slower under tracemalloc and adds none
    everyone = {args.workload: kinds, **others}
    peaks = tracing.PeakTracker()
    tracemalloc.start()
    try:
        with tracing.patched(peaks.wrap):
            peak_records = [closed_loop(everyone[name], 0) for name in PEAK_WORKLOADS]
    finally:
        tracemalloc.stop()
    lap("tracemalloc")
    print("phases (s): " + ", ".join(f"{k} {v:.1f}" for k, v in phases.items()), file=sys.stderr)
    for name, peak in peaks.peaks.items():
        metrics[f"{name}.peak_mib"] = peak / 2**20

    failed = sum(r[2] == "failed" for recs in [own, *coverage.values(), *peak_records]
                 for r in recs)
    metrics["ops.failed"] = failed + untraced["failed"]
    return {
        "attempted": untraced["attempted"] + traced["attempted"],
        "failed": untraced["failed"] + traced["failed"],
        "unexpected_failures": metrics["ops.failed"],
        "metrics": metrics,
    }


def _count_failed(pairs, kind_name) -> int:
    total = 0
    for kinds, records in pairs:
        for k, _, status in records:
            if kinds[k].name == kind_name and status != "ok":
                total += 1
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    t_import = perf_counter()
    import dmc.cli  # noqa: F401  (imports every dmc module)

    import_s = perf_counter() - t_import
    if not os.path.abspath(dmc.cli.__file__).startswith(os.path.join(ROOT, "src", "")):
        print(f"dmc imported from {dmc.cli.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import workloads

    t_inputs = perf_counter()
    kinds = workloads.build(args.workload, args.seed, args.size, args.workdir)
    inputs_s = perf_counter() - t_inputs
    setup = {"import_s": import_s, "inputs_s": inputs_s}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    if args.trace:
        out = traced_run(workloads, args, kinds, args.workdir)
    else:
        run = loop_metrics(kinds, closed_loop(kinds, args.seconds))
        out = {"attempted": run["attempted"], "failed": run["failed"], "run": run}
    out["setup"] = setup
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
