#!/usr/bin/env python3
"""Diff two nvmgc bench JSON files (--json output, schema nvmgc.bench.v2).

Runs are matched by label; for each shared label the headline result metrics
are compared, with deltas reported as percentages of the baseline.
--fail-any-change fails on any deviation of any result metric, regardless of
direction; a direction-aware regression gate against the checked-in baseline
is scripts/bench_gate.py.

Histogram percentile digests (metrics.histograms) are diffed per matched
label: keys present on both sides report the p99 move, keys present on only
one side are annotated as added/removed rather than erroring — new
instrumentation (e.g. the gc.pause.minor.*/major.* split) routinely appears
in the candidate before the baseline is regenerated. --histograms shows the
shared-key moves; added/removed annotations always print.

Usage:
  bench_diff.py baseline.json candidate.json [--metric gc_ns] [--top N]
                [--fail-any-change] [--histograms]
"""

import argparse
import sys

from bench_gate import RESULT_METRICS, load


def pct(base, cand):
    if base == 0:
        return float("inf") if cand != 0 else 0.0
    return (cand - base) / base * 100.0


def histograms_of(run):
    """The run's histogram digests."""
    return run["metrics"]["histograms"]


def diff_histograms(label, base_run, cand_run, show_shared):
    """Prints the label's histogram changes; never fails on one-sided keys."""
    b, c = histograms_of(base_run), histograms_of(cand_run)
    added = sorted(set(c) - set(b))
    removed = sorted(set(b) - set(c))
    lines = []
    for name in added:
        lines.append(f"    histogram {name}: added (candidate only, "
                     f"count={c[name].get('count', 0)})")
    for name in removed:
        lines.append(f"    histogram {name}: removed (baseline only, "
                     f"count={b[name].get('count', 0)})")
    if show_shared:
        for name in sorted(set(b) & set(c)):
            bp, cp = b[name].get("p99", 0), c[name].get("p99", 0)
            if bp == cp:
                continue
            lines.append(f"    histogram {name}: p99 {bp:.6g} -> {cp:.6g} "
                         f"({pct(bp, cp):+.1f}%)")
    if lines:
        print(f"  {label}")
        for line in lines:
            print(line)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    ap.add_argument("--metric", default="gc_ns", choices=RESULT_METRICS,
                    help="metric used for ranking (default: gc_ns)")
    ap.add_argument("--top", type=int, default=20,
                    help="show only the N largest movers (default: 20; 0 = all)")
    ap.add_argument("--fail-any-change", action="store_true",
                    help="exit 1 on any deviation of any result metric")
    ap.add_argument("--histograms", action="store_true",
                    help="also show p99 moves of histogram digests shared by "
                         "both sides (added/removed keys always print)")
    args = ap.parse_args()

    base_doc = load(args.baseline)
    cand_doc = load(args.candidate)
    base = {r["label"]: r for r in base_doc["runs"]}
    cand = {r["label"]: r for r in cand_doc["runs"]}

    shared = sorted(set(base) & set(cand))
    only_base = sorted(set(base) - set(cand))
    only_cand = sorted(set(cand) - set(base))

    rows = []
    for label in shared:
        b, c = base[label]["result"], cand[label]["result"]
        rows.append((label, {m: (b[m], c[m], pct(b[m], c[m])) for m in RESULT_METRICS}))
    rows.sort(key=lambda r: abs(r[1][args.metric][2]), reverse=True)

    print(f"bench: {base_doc['bench']} -> {cand_doc['bench']}")
    print(f"runs: {len(base)} baseline, {len(cand)} candidate, {len(shared)} matched")
    if only_base:
        print(f"only in baseline : {', '.join(only_base[:8])}"
              + (" ..." if len(only_base) > 8 else ""))
    if only_cand:
        print(f"only in candidate: {', '.join(only_cand[:8])}"
              + (" ..." if len(only_cand) > 8 else ""))
    print()

    shown = rows if args.top == 0 else rows[:args.top]
    width = max((len(r[0]) for r in shown), default=5)
    print(f"{'label':<{width}}  {'metric':<18} {'baseline':>14} {'candidate':>14} {'delta':>9}")
    for label, metrics in shown:
        first = True
        for m in RESULT_METRICS:
            b, c, d = metrics[m]
            if b == c:
                continue
            name = label if first else ""
            first = False
            print(f"{name:<{width}}  {m:<18} {b:>14.6g} {c:>14.6g} {d:>+8.1f}%")
        if first:  # All metrics identical.
            print(f"{label:<{width}}  (identical)")
    if args.top and len(rows) > args.top:
        print(f"... {len(rows) - args.top} more runs (use --top 0 for all)")

    # Histogram digests: one-sided keys are annotated, never a failure.
    hist_labels = [label for label in shared
                   if set(histograms_of(base[label])) != set(histograms_of(cand[label]))
                   or (args.histograms and histograms_of(base[label]))]
    if hist_labels:
        print("\nhistogram digests:")
        for label in hist_labels:
            diff_histograms(label, base[label], cand[label], args.histograms)

    if args.fail_any_change:
        changed = [(label, m) for label, metrics in rows
                   for m in RESULT_METRICS if metrics[m][0] != metrics[m][1]]
        if changed:
            print(f"\nFAIL: {len(changed)} metric values changed "
                  f"(first: {changed[0][0]} {changed[0][1]}) and --fail-any-change is set")
            return 1
        print("\nOK: all matched runs identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
