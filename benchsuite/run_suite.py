#!/usr/bin/env python3
"""Runs the nvmgc benchmark suite and prints every metric with its unit.

    python3 benchsuite/run_suite.py --workload pagerank-all --seed 1 --seconds 20 --trace 0
    python3 benchsuite/run_suite.py --workload all --trace 1 --json runs.jsonl
    python3 benchsuite/run_suite.py --compare base.jsonl cand.jsonl

The first run configures and builds the suite package (this directory) into
--build-dir: $CARGO_TARGET_DIR if set, else .bench_build at the repository
root. Each workload pass runs bench_suite in a fresh process, so peak RSS is
per workload. A run makes several setup-only passes (setup_s is their
median), then full passes until --seconds is spent (at least one); the other
metrics are medians over the full passes. --trace 1 adds one traced pass,
which writes <trace-dir>/<workload>.trace.json and gives the host-time layer
split, and the host-cost micro pass (bench_micro_components).

The last stdout line is one JSON object: {"correct", "attempted", "failed",
"metrics"}, the metrics being the end_to_end ones of BENCHMARK.json with
--trace 0 and the per_layer ones with --trace 1. The exit code is non-zero
when any correctness check fails or the suite cannot run.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SUITE_DIR = Path(__file__).resolve().parent
ROOT = SUITE_DIR.parent
WORKLOADS = ["pagerank-all", "pagerank-vanilla", "pagerank-gen", "cassandra-open", "fleet-qos"]
SETUP_PASSES = 5
PASS_TIMEOUT_S = 150
# Simulated results must not depend on tracing: the traced pass has to agree
# with the untraced median within this share.
TRACE_SIM_TOLERANCE = 0.01
TRACE_SIM_METRICS = ["gc_s", "gc.count", "alloc_mb"]
# Google-benchmark case of bench_micro_components -> per-layer host metric.
MICRO_CASES = {
    "BM_DeviceRandomRead": "nvm.access_rr_host_ns",
    "BM_DeviceSequentialWrite/4096": "nvm.access_sw4k_host_ns",
    "BM_HeaderMapPut": "hm.put_host_ns",
    "BM_HeaderMapGetHit": "hm.get_host_ns",
    "BM_TaskQueuePushPop": "taskq.push_pop_host_ns",
    "BM_TaskQueueStealHalf": "taskq.steal_half_host_ns",
}
MICRO_MIN_TIME_S = "0.05"


class SuiteError(Exception):
    pass


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def default_build_dir():
    env = os.environ.get("CARGO_TARGET_DIR")
    return Path(env).resolve() if env else ROOT / ".bench_build"


def build(build_dir):
    if not (ROOT / "src" / "runtime" / "vm.h").is_file():
        raise SuiteError(f"no nvmgc sources under {ROOT}: run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(SUITE_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "bench_suite", "bench_micro_components"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise SuiteError("build failed: " + " ".join(cmd))


def run_pass(build_dir, workload, seed, scale, *extra):
    cmd = [str(build_dir / "bench_suite"), "--workload", workload, "--seed", str(seed),
           "--scale", repr(scale), *extra]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SuiteError(f"{workload}: pass exceeded {PASS_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    # Exit code 1 with a result line means a failed check, which is reported.
    if proc.returncode not in (0, 1) or not lines:
        raise SuiteError(f"{workload}: bench_suite exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-500:]}")
    try:
        record = json.loads(lines[-1])
    except json.JSONDecodeError:
        raise SuiteError(f"{workload}: unparsable pass output: {lines[-1][:200]}")
    record["log"] = lines[:-1]
    return record


def micro_pass(build_dir):
    pattern = "^(" + "|".join(MICRO_CASES) + ")$"
    cmd = [str(build_dir / "bench_micro_components"), "--benchmark_format=json",
           "--benchmark_filter=" + pattern, "--benchmark_min_time=" + MICRO_MIN_TIME_S]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise SuiteError(f"bench_micro_components exited {proc.returncode}")
    results = {b["name"]: b for b in json.loads(proc.stdout)["benchmarks"]}
    metrics = {}
    for case, metric in MICRO_CASES.items():
        bench = results.get(case)
        if bench is None or bench.get("time_unit") != "ns":
            raise SuiteError(f"micro pass: no ns result for {case}")
        metrics[metric] = bench["real_time"]
    return metrics


def measure(args, build_dir, workload):
    """One run of one workload.

    Returns (metrics, checks run, failures, the first pass's log lines, full passes).
    """
    setups = [run_pass(build_dir, workload, args.seed, args.scale, "--setup-only")
              ["metrics"]["setup_s"] for _ in range(SETUP_PASSES)]
    passes = []
    start = time.monotonic()
    while True:
        passes.append(run_pass(build_dir, workload, args.seed, args.scale))
        elapsed = time.monotonic() - start
        # Start another pass only if it should end within --seconds.
        if elapsed + elapsed / len(passes) > args.seconds:
            break
    metrics = {name: statistics.median(p["metrics"][name] for p in passes)
               for name in passes[0]["metrics"]}
    metrics["setup_s"] = statistics.median(setups + [p["metrics"]["setup_s"] for p in passes])
    checks = sum(p["checks"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]

    if args.trace:
        trace_dir = Path(args.trace_dir) if args.trace_dir else build_dir / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_file = trace_dir / f"{workload}.trace.json"
        traced = run_pass(build_dir, workload, args.seed, args.scale,
                          "--trace-out", str(trace_file))
        checks += traced["checks"]
        failures += traced["failures"]
        t = traced["metrics"]
        metrics["gc.host_s"] = t["gc.host_s"]
        metrics["mutator.host_s"] = t["mutator.host_s"]
        metrics["trace.overhead_frac"] = t["wall_s"] / metrics["wall_s"] - 1.0
        for name in TRACE_SIM_METRICS:
            checks += 1
            if abs(t[name] - metrics[name]) > TRACE_SIM_TOLERANCE * abs(metrics[name]):
                failures.append(f"traced {name} {t[name]} differs from untraced {metrics[name]}")
        metrics.update(micro_pass(build_dir))
        print(f"trace: {trace_file}")
    metrics["verify_fail_frac"] = len(failures) / checks if checks else 1.0
    return metrics, checks, failures, passes[0]["log"], len(passes)


def format_value(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(args, spec, workload, metrics, checks, failures, log, npasses):
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    checks += 1
    if missing:
        failures.append("metrics not measured: " + ", ".join(missing))
    for line in log:
        print(line)
    print(f"== {workload} (seed {args.seed}, scale {args.scale}, {npasses} full pass(es), "
          f"{'per-layer' if args.trace else 'end-to-end'} metrics)")
    for m in wanted:
        if m["name"] in metrics:
            print(f"  {m['name']:<28} {format_value(metrics[m['name']]):>14} {m['unit']}")
    for failure in failures:
        print(f"  CHECK FAILED: {failure}")
    result = {
        "correct": not failures,
        "attempted": checks,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }
    if args.json:
        record = {"workload": workload, "seed": args.seed, "scale": args.scale,
                  "trace": args.trace, "correct": result["correct"], "metrics": metrics}
        with open(args.json, "a") as f:
            f.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return result["correct"]


def load_runs(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                record = json.loads(line)
                for name, value in record["metrics"].items():
                    runs.setdefault((record["workload"], name), []).append(value)
    return runs


def compare(spec, base_path, cand_path):
    """Applies each end-to-end bound to the (workload, metric) medians."""
    base = load_runs(base_path)
    cand = load_runs(cand_path)
    regressions = 0
    print(f"{'workload':<18} {'metric':<14} {'base':>12} {'cand':>12} {'change':>8} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for m in spec["end_to_end"]:
        lower = m["better"] == "lower"
        for workload in WORKLOADS:
            b = base.get((workload, m["name"]))
            c = cand.get((workload, m["name"]))
            if not b or not c:
                continue
            b_med = statistics.median(b)
            c_med = statistics.median(c)
            quartiles = statistics.quantiles(b, n=4) if len(b) >= 2 else [b_med, b_med, b_med]
            spread = (quartiles[2] - quartiles[0]) / b_med if b_med else math.inf
            change = (c_med - b_med) / b_med if b_med else 0.0
            worse = change if lower else -change
            all_better = (max(c) < min(b)) if lower else (min(c) > max(b))
            if spread > m["bound"] and not all_better:
                verdict = "unresolved"
            elif worse > m["bound"]:
                verdict = "REGRESSION"
                regressions += 1
            else:
                verdict = "ok"
            print(f"{workload:<18} {m['name']:<14} {b_med:>12.6g} {c_med:>12.6g} "
                  f"{change:>+8.2%} {spread:>7.2%} {m['bound']:>6.0%}  {verdict}")
    return 1 if regressions else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all",
                        help="one of %s, a comma list, or all" % ", ".join(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1, help="input seed (2 is held out)")
    parser.add_argument("--seconds", type=float, default=0,
                        help="measure full passes for this long (at least one pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add the traced and micro passes, print per-layer metrics")
    parser.add_argument("--trace-dir", help="where --trace 1 writes Chrome traces")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies every workload volume (smoke test: 0.05)")
    parser.add_argument("--build-dir", help="suite build tree")
    parser.add_argument("--no-build", action="store_true", help="use --build-dir as built")
    parser.add_argument("--json", help="append one record per workload run to this file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CAND"),
                        help="compare two --json files against the BENCHMARK.json bounds")
    args = parser.parse_args()

    try:
        spec = load_spec()
        if args.compare:
            return compare(spec, *args.compare)
        workloads = WORKLOADS if args.workload == "all" else args.workload.split(",")
        unknown = [w for w in workloads if w not in WORKLOADS]
        if unknown:
            raise SuiteError("unknown workload: " + ", ".join(unknown))
        if not 0 < args.scale <= 100:
            raise SuiteError("--scale must be in (0, 100]")
        build_dir = Path(args.build_dir).resolve() if args.build_dir else default_build_dir()
        if not args.no_build:
            build(build_dir)
        ok = True
        for workload in workloads:
            ok &= report(args, spec, workload, *measure(args, build_dir, workload))
        return 0 if ok else 1
    except (SuiteError, OSError, KeyError, ValueError) as e:
        print(f"run_suite: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
