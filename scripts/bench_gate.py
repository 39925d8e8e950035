#!/usr/bin/env python3
"""Regression gate: compare a bench JSON run against a checked-in baseline.

Runs are matched by label. Every baseline label must be present in the
candidate (a missing label means the bench silently lost coverage). For each
matched run every headline result metric is compared against a per-metric,
direction-aware tolerance:

  total_ns / gc_ns / app_ns    fail only when the candidate is SLOWER than
                               baseline * (1 + tol); speedups always pass
  gc_bandwidth_mbps            fail only when it DROPS below
                               baseline * (1 - tol)
  gc_count / bytes_allocated   fail on any move beyond the tolerance in
                               either direction

Simulated results are deterministic per seed (the collector steps its GC
workers in simulated-clock order on one host thread), so the time and count
tolerances are tight. With --floor-ns NS, time metrics additionally need an
absolute move beyond NS to fail, and gc_bandwidth_mbps is not gated at all
when the baseline's gc_ns measurement window is below NS (default 0: every
run is gated).

Exit code 0 when every metric of every gated pair is within tolerance, 1
otherwise.

Usage:
  bench_gate.py BASELINE.json CANDIDATE.json        single pair (classic form)
  bench_gate.py --baseline BASELINE.json=CANDIDATE.json ...
                                              repeatable: gate several
                                              baseline/candidate pairs in one
                                              invocation; each pair is checked
                                              independently (every baseline
                                              label must be present in its own
                                              candidate) and a failure in any
                                              pair fails the run
  common flags:
                [--tolerance NAME=PCT]...   override one metric's tolerance
                                            (applies to every pair)
                [--inject-regression PCT]   self-test: inflate the candidates'
                                            time metrics by PCT before gating
"""

import argparse
import json
import sys

SCHEMAS = ("nvmgc.bench.v1", "nvmgc.bench.v2")

LOWER_IS_BETTER = {"total_ns", "gc_ns", "app_ns"}
HIGHER_IS_BETTER = {"gc_bandwidth_mbps"}
NEUTRAL = {"gc_count", "bytes_allocated"}

# Default tolerances in percent. Two runs of one build agree exactly; the
# tolerances leave room only for small intended model changes.
DEFAULT_TOLERANCE = {
    "total_ns": 2.0,
    "gc_ns": 2.0,
    "app_ns": 2.0,
    "gc_bandwidth_mbps": 50.0,
    "gc_count": 0.0,
    "bytes_allocated": 1.0,
}


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"bench_gate: {path}: cannot load: {e}")
    if doc.get("schema") not in SCHEMAS:
        sys.exit(f"bench_gate: {path}: expected schema in {SCHEMAS}, "
                 f"got {doc.get('schema')!r}")
    return doc


def parse_tolerances(overrides):
    tol = dict(DEFAULT_TOLERANCE)
    for item in overrides:
        name, _, value = item.partition("=")
        if name not in tol:
            sys.exit(f"bench_gate: unknown metric in --tolerance: {name!r} "
                     f"(known: {sorted(tol)})")
        try:
            tol[name] = float(value)
        except ValueError:
            sys.exit(f"bench_gate: bad --tolerance value: {item!r}")
    return tol


def check_metric(metric, base, cand, tol_pct, floor_ns):
    """Returns (ok, regression_pct) for one metric comparison."""
    if base == 0:
        return cand == 0, 0.0 if cand == 0 else float("inf")
    delta_pct = (cand - base) / base * 100.0
    if metric in LOWER_IS_BETTER:
        regression = max(0.0, delta_pct)
        if metric.endswith("_ns") and cand - base <= floor_ns:
            return True, regression  # Within the absolute floor.
    elif metric in HIGHER_IS_BETTER:
        regression = max(0.0, -delta_pct)
    else:
        regression = abs(delta_pct)
    return regression <= tol_pct, regression


def gate_pair(baseline_path, candidate_path, tolerances, floor_ns, inject_pct):
    """Gates one baseline/candidate pair. Returns True when it passes."""
    base_doc = load(baseline_path)
    cand_doc = load(candidate_path)
    base = {r["label"]: r["result"] for r in base_doc["runs"]}
    cand = {r["label"]: r["result"] for r in cand_doc["runs"]}

    if inject_pct is not None:
        factor = 1.0 + inject_pct / 100.0
        for result in cand.values():
            for metric in LOWER_IS_BETTER:
                result[metric] = result[metric] * factor

    missing = sorted(set(base) - set(cand))
    if missing:
        print(f"bench_gate: FAIL: {len(missing)} baseline run(s) absent from "
              f"candidate: {', '.join(missing[:5])}"
              + (" ..." if len(missing) > 5 else ""))
        return False
    extra = sorted(set(cand) - set(base))
    if extra:
        print(f"bench_gate: note: {len(extra)} candidate run(s) not in baseline "
              "(new coverage, not gated)")

    failures = []
    worst = {}  # metric -> worst regression pct seen.
    skipped_bandwidth = 0
    for label in sorted(base):
        for metric, tol_pct in tolerances.items():
            b, c = base[label].get(metric), cand[label].get(metric)
            if b is None or c is None:
                failures.append((label, metric, "metric missing from result"))
                continue
            if (metric == "gc_bandwidth_mbps"
                    and base[label].get("gc_ns", 0) < floor_ns):
                skipped_bandwidth += 1
                continue
            ok, regression = check_metric(metric, b, c, tol_pct, floor_ns)
            worst[metric] = max(worst.get(metric, 0.0), regression)
            if not ok:
                failures.append(
                    (label, metric,
                     f"baseline {b:.6g} -> candidate {c:.6g} "
                     f"(regression {regression:.1f}% > tolerance {tol_pct:.1f}%)"))

    print(f"bench_gate: {base_doc['bench']}: {len(base)} gated run(s)")
    if skipped_bandwidth:
        print(f"  gc_bandwidth_mbps ungated for {skipped_bandwidth} run(s) with "
              f"baseline gc_ns < {floor_ns:.0f} ns")
    for metric in sorted(worst):
        print(f"  {metric:<18} worst regression {worst[metric]:6.1f}% "
              f"(tolerance {tolerances[metric]:.1f}%)")
    if failures:
        print(f"\nbench_gate: FAIL: {len(failures)} metric(s) out of tolerance")
        for label, metric, detail in failures[:20]:
            print(f"  {label}: {metric}: {detail}")
        if len(failures) > 20:
            print(f"  ... {len(failures) - 20} more")
        return False
    print("\nbench_gate: OK: all metrics within tolerance")
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("baseline", nargs="?",
                    help="baseline JSON (classic two-positional form)")
    ap.add_argument("candidate", nargs="?",
                    help="candidate JSON (classic two-positional form)")
    ap.add_argument("--baseline", action="append", default=[], dest="pairs",
                    metavar="BASELINE=CANDIDATE",
                    help="repeatable baseline/candidate pair; each pair is "
                         "gated independently in one invocation")
    ap.add_argument("--tolerance", action="append", default=[], metavar="NAME=PCT",
                    help="override one metric's tolerance, e.g. gc_ns=30")
    ap.add_argument("--floor-ns", type=float, default=0.0, metavar="NS",
                    help="absolute floor: a time metric must also move "
                         "by more than NS to fail, and gc_bandwidth_mbps is "
                         "ungated when the baseline gc_ns window is below NS "
                         "(default: 0)")
    ap.add_argument("--inject-regression", type=float, default=None, metavar="PCT",
                    help="self-test: inflate candidate time metrics by PCT "
                         "before gating (the gate must then fail)")
    args = ap.parse_args()

    pairs = []
    for item in args.pairs:
        baseline, sep, candidate = item.partition("=")
        if not sep or not baseline or not candidate:
            sys.exit(f"bench_gate: bad --baseline value {item!r} "
                     "(expected BASELINE=CANDIDATE)")
        pairs.append((baseline, candidate))
    if args.baseline is not None:
        if args.candidate is None:
            sys.exit("bench_gate: positional BASELINE needs a CANDIDATE")
        pairs.append((args.baseline, args.candidate))
    if not pairs:
        sys.exit("bench_gate: nothing to gate: pass BASELINE CANDIDATE or "
                 "--baseline BASELINE=CANDIDATE")

    tolerances = parse_tolerances(args.tolerance)
    failed = 0
    for i, (baseline, candidate) in enumerate(pairs):
        if i:
            print()
        if not gate_pair(baseline, candidate, tolerances, args.floor_ns,
                         args.inject_regression):
            failed += 1
    if len(pairs) > 1:
        print(f"\nbench_gate: {len(pairs) - failed}/{len(pairs)} pair(s) passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
