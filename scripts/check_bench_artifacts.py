#!/usr/bin/env python3
"""Validate the artifacts a bench writes with --json / --trace.

Checks that the result JSON follows schema nvmgc.bench.v2 (required keys,
well-formed runs, per-pause snapshots keyed by the stable dotted metric
names, histogram percentile digests, extra scalars and optional per-run
bandwidth timelines) and that the trace file is a loadable
Chrome-trace JSON with nested GC phase spans. Used by CI after the smoke
bench; exits nonzero with a message on the first violation.

Usage: check_bench_artifacts.py --json PATH [--trace PATH]
       [--require-pauses] [--require-trace-spans] [--require-counter-tracks]
       [--require-timeline] [--require-policy-tracks] [--require-persist-tracks]
       [--require-gen-tracks] [--require-tenant-tracks] [--require-incident DIR]
"""

import argparse
import json
import os
import sys

from bench_gate import RESULT_METRICS, load

# The GcPauseMetricNames() entries this script reads from pause values.
# ctest nvmgc_script_metric_names checks each against the C++ table, so a
# rename there fails a test instead of silently emptying a check here.
PAUSE_METRICS = ("gc.pause_ns",)
PAUSE_NS = PAUSE_METRICS[0]
RUN_KEYS = {"label", "workload", "config", "reps", "result", "metrics", "pauses"}
HISTOGRAM_KEYS = {"count", "p50", "p95", "p99", "max", "mean"}
TIMELINE_KEYS = {"pause", "phase", "time_ns", "read_mbps", "write_mbps",
                 "interleave", "model_mbps"}
TIMELINE_PHASES = {"read", "writeback"}
# Spans every traced GC cycle must produce (see src/obs/trace.h).
PHASE_SPANS = {"gc.pause", "gc.read_phase"}
# Counter tracks the DeviceTimeline emits (see src/obs/device_timeline.h).
COUNTER_TRACKS = {"nvm.read_mbps", "nvm.write_mbps", "nvm.interleave"}
# Counter tracks the adaptive policy engine emits once per pause
# (see src/policy/policy_engine.h).
POLICY_TRACKS = {"policy.active_threads", "policy.write_cache_mb",
                 "policy.header_map_entries", "policy.async_flush",
                 "policy.prefetch_window", "policy.decisions_total"}
# Counter tracks durability mode emits once per pause
# (see src/gc/copy_collector.cc PersistEpilogue + the pause tracer block).
PERSIST_TRACKS = {"persist.flush_lines", "persist.fences", "persist.phase_ns"}
# Counter tracks the generational heap emits once per pause
# (see the generational tracer block in src/gc/copy_collector.cc).
GEN_TRACKS = {"gen.young_used_bytes", "gen.tenured_bytes", "gen.tenure_threshold",
              "gen.survivor_overflow_bytes"}


def fail(msg):
    sys.exit(f"check_bench_artifacts: FAIL: {msg}")


def check_histograms(path, i, histograms):
    if not isinstance(histograms, dict):
        fail(f"{path}: runs[{i}].metrics.histograms is not an object")
    for name, h in histograms.items():
        missing = HISTOGRAM_KEYS - h.keys()
        if missing:
            fail(f"{path}: runs[{i}] histogram {name!r} missing keys {sorted(missing)}")
        if h["count"] > 0 and not h["p50"] <= h["p95"] <= h["p99"] <= h["max"]:
            fail(f"{path}: runs[{i}] histogram {name!r} percentiles not ordered: "
                 f"p50={h['p50']} p95={h['p95']} p99={h['p99']} max={h['max']}")


def check_timeline(path, i, timeline):
    if not isinstance(timeline, list):
        fail(f"{path}: runs[{i}].timeline is not a list")
    prev_time = 0
    for j, s in enumerate(timeline):
        missing = TIMELINE_KEYS - s.keys()
        if missing:
            fail(f"{path}: runs[{i}].timeline[{j}] missing keys {sorted(missing)}")
        if s["phase"] not in TIMELINE_PHASES:
            fail(f"{path}: runs[{i}].timeline[{j}] phase {s['phase']!r} "
                 f"not in {sorted(TIMELINE_PHASES)}")
        if s["read_mbps"] < 0 or s["write_mbps"] < 0 or s["model_mbps"] < 0:
            fail(f"{path}: runs[{i}].timeline[{j}] has a negative bandwidth")
        if not 0.0 <= s["interleave"] <= 1.0:
            fail(f"{path}: runs[{i}].timeline[{j}] interleave {s['interleave']} "
                 "outside [0, 1]")
        if s["time_ns"] < prev_time:
            fail(f"{path}: runs[{i}].timeline[{j}] time_ns {s['time_ns']} "
                 f"precedes previous sample {prev_time}")
        prev_time = s["time_ns"]
    return len(timeline)


def check_json(path, require_pauses, require_timeline):
    doc = load(path)
    for key in ("bench", "config", "runs"):
        if key not in doc:
            fail(f"{path}: missing top-level key {key!r}")
    for key in ("threads", "heap_mb", "collector", "repeat", "scale"):
        if key not in doc["config"]:
            fail(f"{path}: config missing key {key!r}")
    if not doc["runs"]:
        fail(f"{path}: runs[] is empty")
    total_pauses = 0
    total_samples = 0
    for i, run in enumerate(doc["runs"]):
        missing = RUN_KEYS - run.keys()
        if missing:
            fail(f"{path}: runs[{i}] missing keys {sorted(missing)}")
        missing = set(RESULT_METRICS) - run["result"].keys()
        if missing:
            fail(f"{path}: runs[{i}].result missing keys {sorted(missing)}")
        for sub in ("counters", "gauges"):
            if sub not in run["metrics"]:
                fail(f"{path}: runs[{i}].metrics missing {sub!r}")
        if "histograms" not in run["metrics"]:
            fail(f"{path}: runs[{i}].metrics missing 'histograms'")
        check_histograms(path, i, run["metrics"]["histograms"])
        if "extra" not in run:
            fail(f"{path}: runs[{i}] missing 'extra'")
        if not isinstance(run["extra"], dict):
            fail(f"{path}: runs[{i}].extra is not an object")
        if "timeline" in run:
            total_samples += check_timeline(path, i, run["timeline"])
        for j, pause in enumerate(run["pauses"]):
            for key in ("id", "start_ns", "values"):
                if key not in pause:
                    fail(f"{path}: runs[{i}].pauses[{j}] missing {key!r}")
            if PAUSE_NS not in pause["values"]:
                fail(f"{path}: runs[{i}].pauses[{j}].values lacks {PAUSE_NS}")
            # Snapshot-vs-aggregate consistency: no pause value may exceed the
            # lifetime counter of the same name.
            for name, value in pause["values"].items():
                lifetime = run["metrics"]["counters"].get(name)
                if lifetime is not None and value > lifetime:
                    fail(f"{path}: runs[{i}].pauses[{j}] {name}={value} exceeds "
                         f"lifetime counter {lifetime}")
        total_pauses += len(run["pauses"])
    if require_pauses and total_pauses == 0:
        fail(f"{path}: no run recorded any GC pause "
             "(increase --scale or the workload volume)")
    if require_timeline and total_samples == 0:
        fail(f"{path}: no run embedded timeline samples "
             "(was the bench invoked with --timeline?)")
    print(f"check_bench_artifacts: {path}: OK ({doc['schema']}, "
          f"{len(doc['runs'])} runs, {total_pauses} pauses, "
          f"{total_samples} timeline samples)")
    return doc


def check_trace(path, require_spans, require_counter_tracks, require_policy_tracks,
                require_persist_tracks, require_gen_tracks, require_tenant_tracks):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: cannot load: {e}")
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: traceEvents missing or empty")
    names = set()
    counter_names = set()
    named_pids = {}          # pid -> process_name metadata value
    counters_by_pid = {}     # pid -> set of counter-track names
    for e in events:
        for key in ("name", "ph", "pid", "tid"):
            if key not in e:
                fail(f"{path}: event missing {key!r}: {e}")
        if e["ph"] == "X" and "dur" not in e:
            fail(f"{path}: complete event missing dur: {e}")
        if e["ph"] == "C":
            value = e.get("args", {}).get("value")
            if not isinstance(value, (int, float)):
                fail(f"{path}: counter event lacks numeric args.value: {e}")
            counter_names.add(e["name"])
            counters_by_pid.setdefault(e["pid"], set()).add(e["name"])
        if e["ph"] == "M" and e["name"] == "process_name":
            pname = e.get("args", {}).get("name")
            if not isinstance(pname, str) or not pname:
                fail(f"{path}: process_name metadata lacks args.name: {e}")
            named_pids[e["pid"]] = pname
        names.add(e["name"])
    if require_spans:
        missing = PHASE_SPANS - names
        if missing:
            fail(f"{path}: expected phase spans absent: {sorted(missing)}")
        # Worker spans must be distinct per logical GC thread.
        tids = {e["tid"] for e in events if e["name"] == "gc.read_phase"}
        if len(tids) < 1:
            fail(f"{path}: no gc.read_phase spans with worker tids")
    if require_counter_tracks:
        missing = COUNTER_TRACKS - counter_names
        if missing:
            fail(f"{path}: expected counter tracks absent: {sorted(missing)}")
    if require_policy_tracks:
        missing = POLICY_TRACKS - counter_names
        if missing:
            fail(f"{path}: expected policy counter tracks absent: {sorted(missing)} "
                 "(was an adaptive configuration traced?)")
    if require_persist_tracks:
        missing = PERSIST_TRACKS - counter_names
        if missing:
            fail(f"{path}: expected persist counter tracks absent: {sorted(missing)} "
                 "(was a durable configuration traced?)")
    if require_gen_tracks:
        missing = GEN_TRACKS - counter_names
        if missing:
            fail(f"{path}: expected generational counter tracks absent: "
                 f"{sorted(missing)} (was a generational configuration traced?)")
    if require_tenant_tracks:
        # A fleet trace renders each tenant Vm as its own Chrome-trace
        # process: multiple named pids, and the nvm.* bandwidth tracks
        # repeated per tenant pid (a GC-less tenant may legitimately have no
        # counters, so only two pids need the full track set).
        if len(named_pids) < 2:
            fail(f"{path}: expected >= 2 process_name-tagged tenant pids, "
                 f"found {len(named_pids)}: {named_pids}")
        pids_with_tracks = [pid for pid, tracks in counters_by_pid.items()
                            if pid in named_pids and not COUNTER_TRACKS - tracks]
        if len(pids_with_tracks) < 2:
            fail(f"{path}: expected >= 2 tenant pids carrying the nvm.* "
                 f"counter tracks, found {len(pids_with_tracks)} "
                 f"(named pids: {sorted(named_pids)})")
    print(f"check_bench_artifacts: {path}: OK ({len(events)} events, "
          f"{len(names)} span names, {len(counter_names)} counter tracks, "
          f"{len(named_pids)} named pids)")


def check_incident_dir(dirpath):
    """At least one flight-recorder incident dump exists under dirpath.

    Deep validation (trigger semantics, site attribution, companion trace) is
    fr_analyze.py --validate's job; this check only gates that the bench's
    --flight-record plumbing produced schema-tagged incident files at all.
    """
    found = 0
    for root, _dirs, files in os.walk(dirpath):
        for name in sorted(files):
            if not (name.startswith("incident-") and name.endswith(".json")) \
               or name.endswith(".trace.json"):
                continue
            path = os.path.join(root, name)
            try:
                with open(path) as f:
                    doc = json.load(f)
            except (OSError, json.JSONDecodeError) as e:
                fail(f"{path}: unreadable or invalid incident JSON: {e}")
            if doc.get("schema") != "nvmgc.incident.v1":
                fail(f"{path}: schema is {doc.get('schema')!r}, "
                     "want 'nvmgc.incident.v1'")
            found += 1
    if found == 0:
        fail(f"{dirpath}: no incident-*.json flight-recorder dumps found")
    print(f"check_bench_artifacts: {found} incident dump(s) under {dirpath}")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--json", required=True, help="bench --json output to validate")
    ap.add_argument("--trace", help="bench --trace output to validate")
    ap.add_argument("--require-pauses", action="store_true",
                    help="fail when no run recorded a GC pause")
    ap.add_argument("--require-trace-spans", action="store_true",
                    help="fail when the trace lacks gc.pause / gc.read_phase spans")
    ap.add_argument("--require-counter-tracks", action="store_true",
                    help="fail when the trace lacks nvm.* bandwidth counter tracks")
    ap.add_argument("--require-timeline", action="store_true",
                    help="fail when no run embedded bandwidth timeline samples")
    ap.add_argument("--require-policy-tracks", action="store_true",
                    help="fail when the trace lacks the policy.* counter tracks "
                         "of the adaptive engine")
    ap.add_argument("--require-persist-tracks", action="store_true",
                    help="fail when the trace lacks the persist.* counter tracks "
                         "of durability mode")
    ap.add_argument("--require-gen-tracks", action="store_true",
                    help="fail when the trace lacks the gen.* counter tracks of "
                         "the generational heap")
    ap.add_argument("--require-tenant-tracks", action="store_true",
                    help="fail unless the trace has >= 2 process_name-tagged "
                         "tenant pids and >= 2 of them carry the nvm.* tracks "
                         "(fleet benches)")
    ap.add_argument("--require-incident", metavar="DIR",
                    help="fail unless DIR (searched recursively) holds at least "
                         "one nvmgc.incident.v1 flight-recorder dump")
    args = ap.parse_args()
    check_json(args.json, args.require_pauses, args.require_timeline)
    if args.trace:
        check_trace(args.trace, args.require_trace_spans, args.require_counter_tracks,
                    args.require_policy_tracks, args.require_persist_tracks,
                    args.require_gen_tracks, args.require_tenant_tracks)
    if args.require_incident:
        check_incident_dir(args.require_incident)
    return 0


if __name__ == "__main__":
    sys.exit(main())
