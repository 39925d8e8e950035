#!/usr/bin/env python3
"""Decode and validate GC flight-recorder incident dumps (nvmgc.incident.v1).

An incident file is written by the in-VM FlightRecorder (src/obs/
flight_recorder.h) when an anomaly trigger fires, on Vm::DumpFlightRecord(),
or on a simulated crash. It is self-contained: the trigger, the retained
pause-by-pause flight record (per-phase spans, counters, policy decisions,
bandwidth timeline, per-allocation-site deltas), cumulative allocation-site
demographics, and a companion Chrome-trace file for Perfetto.

Default mode prints a human-readable digest: the trigger banner, the retained
pause timeline, and the top allocation sites by NVM traffic. With --validate
it instead checks the incident (and its companion trace) against the schema,
and each pause's derived kind/degraded/retreat keys against its counters and
decisions, and exits nonzero on the first violation — CI runs this over the
incidents a deliberately-seeded anomaly run produced.

Usage: fr_analyze.py PATH [--validate] [--top N]
       PATH is one incident-*.json file or a directory searched recursively.
"""

import argparse
import json
import os
import signal
import sys

# Digest output is routinely piped into head/less; die quietly on SIGPIPE.
signal.signal(signal.SIGPIPE, signal.SIG_DFL)

# The GcPauseMetricNames() entries this script reads from pause counters.
# ctest nvmgc_script_metric_names checks each against the C++ table, so a
# rename there fails a test instead of silently emptying a check here.
PAUSE_METRICS = ("gc.pause_ns", "gc.bytes_copied", "gc.major_pauses",
                 "gc.degraded_pauses")
PAUSE_NS, BYTES_COPIED, MAJOR_PAUSES, DEGRADED_PAUSES = PAUSE_METRICS
TRIGGER_KINDS = {"pause_threshold", "p99_outlier", "degraded", "retreat",
                 "survivor_overflow", "explicit", "crash"}
TRIGGER_KEYS = {"kind", "pause_id", "observed_ns", "threshold_ns", "detail"}
PAUSE_KEYS = {"pause_id", "kind", "degraded", "retreat", "start_ns", "pause_ns",
              "read_phase_ns", "writeback_phase_ns", "counters", "decisions",
              "timeline", "sites"}
PAUSE_SITE_KEYS = {"site", "name", "survived_objects", "survived_bytes",
                   "promoted_objects", "promoted_bytes", "died_objects",
                   "died_bytes", "nvm_copy_bytes", "staged_bytes"}
CUMULATIVE_SITE_KEYS = {"site", "name", "allocated_objects", "allocated_bytes",
                        "survived_bytes", "promoted_bytes", "died_bytes",
                        "nvm_copy_bytes", "tenuring_rate",
                        "nvm_write_amplification", "lifetime"}
LIFETIME_KEYS = {"count", "p50", "p95", "p99", "max", "mean"}


def fail(msg):
    sys.exit(f"fr_analyze: FAIL: {msg}")


def find_incidents(path):
    if os.path.isfile(path):
        return [path]
    found = []
    for root, _dirs, files in os.walk(path):
        for name in sorted(files):
            if name.startswith("incident-") and name.endswith(".json") \
               and not name.endswith(".trace.json"):
                found.append(os.path.join(root, name))
    return sorted(found)


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: unreadable or invalid JSON: {e}")


def validate_incident(path, doc):
    if doc.get("schema") != "nvmgc.incident.v1":
        fail(f"{path}: schema is {doc.get('schema')!r}, want 'nvmgc.incident.v1'")
    # Optional fleet tag: multi-tenant Vms stamp their tenant label into the
    # dump (and the file name) so one shared incident directory stays
    # attributable per tenant.
    if "tenant" in doc:
        if not isinstance(doc["tenant"], str) or not doc["tenant"]:
            fail(f"{path}: tenant tag present but not a non-empty string: "
                 f"{doc['tenant']!r}")
        base = os.path.basename(path)
        if not base.startswith(f"incident-{doc['tenant']}-"):
            fail(f"{path}: file name does not carry the tenant tag "
                 f"{doc['tenant']!r} (want incident-{doc['tenant']}-<seq>.json)")
    trigger = doc.get("trigger")
    if not isinstance(trigger, dict):
        fail(f"{path}: missing trigger object")
    missing = TRIGGER_KEYS - trigger.keys()
    if missing:
        fail(f"{path}: trigger missing keys {sorted(missing)}")
    if trigger["kind"] not in TRIGGER_KINDS:
        fail(f"{path}: unknown trigger kind {trigger['kind']!r}")
    pauses = doc.get("pauses")
    if not isinstance(pauses, list) or not pauses:
        fail(f"{path}: pauses[] missing or empty")
    for i, p in enumerate(pauses):
        missing = PAUSE_KEYS - p.keys()
        if missing:
            fail(f"{path}: pauses[{i}] missing keys {sorted(missing)}")
        if not isinstance(p["counters"], dict) or not p["counters"]:
            fail(f"{path}: pauses[{i}].counters missing or empty")
        for name in PAUSE_METRICS:
            if name not in p["counters"]:
                fail(f"{path}: pauses[{i}].counters lacks {name}")
        # kind, degraded and retreat are derived from the pause's counters
        # and decisions; each must agree with its single source.
        derived = {"kind": "major" if p["counters"][MAJOR_PAUSES] == 1 else "minor",
                   "degraded": p["counters"][DEGRADED_PAUSES] == 1,
                   "retreat": any(d.get("retreat") for d in p["decisions"])}
        for key, want in derived.items():
            if p[key] != want:
                fail(f"{path}: pauses[{i}].{key} is {p[key]!r}, but its counters "
                     f"and decisions give {want!r}")
        for j, s in enumerate(p["sites"]):
            missing = PAUSE_SITE_KEYS - s.keys()
            if missing:
                fail(f"{path}: pauses[{i}].sites[{j}] missing keys {sorted(missing)}")
    # The triggering pause must be part of the retained record, carrying its
    # own per-allocation-site attribution.
    trig_pause = next((p for p in pauses
                       if p["pause_id"] == trigger["pause_id"]), None)
    if trig_pause is None:
        fail(f"{path}: triggering pause {trigger['pause_id']} not retained "
             f"(have {[p['pause_id'] for p in pauses]})")
    if not trig_pause["sites"]:
        fail(f"{path}: triggering pause {trigger['pause_id']} has no "
             "allocation-site attribution")
    sites = doc.get("sites")
    if not isinstance(sites, list) or not sites:
        fail(f"{path}: cumulative sites[] missing or empty")
    for i, s in enumerate(sites):
        missing = CUMULATIVE_SITE_KEYS - s.keys()
        if missing:
            fail(f"{path}: sites[{i}] missing keys {sorted(missing)}")
        missing = LIFETIME_KEYS - s["lifetime"].keys()
        if missing:
            fail(f"{path}: sites[{i}].lifetime missing keys {sorted(missing)}")
    # Companion Chrome trace: loadable, with at least one gc.pause span.
    trace_path = os.path.join(os.path.dirname(path), doc.get("trace_file", ""))
    trace = load(trace_path)
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        fail(f"{trace_path}: missing traceEvents[]")
    span_names = {e.get("name") for e in events if e.get("ph") == "X"}
    if "gc.pause" not in span_names:
        fail(f"{trace_path}: no gc.pause span (have {sorted(span_names)})")


def mb(nbytes):
    return nbytes / (1024.0 * 1024.0)


def print_incident(path, doc, top):
    trigger = doc["trigger"]
    print(f"=== {path}")
    if doc.get("tenant"):
        print(f"  tenant: {doc['tenant']}")
    print(f"  trigger: {trigger['kind']} at pause {trigger['pause_id']} "
          f"(observed {trigger['observed_ns'] / 1e6:.3f} ms, "
          f"threshold {trigger['threshold_ns'] / 1e6:.3f} ms)")
    if trigger.get("detail"):
        print(f"    {trigger['detail']}")
    print(f"  retained {doc['retained_pauses']} of {doc['pauses_recorded']} pauses, "
          f"trailing p99 {doc['trailing_p99_ns'] / 1e6:.3f} ms")
    print("  pauses:")
    for p in doc["pauses"]:
        marks = "".join(["*" if p["pause_id"] == trigger["pause_id"] else " ",
                         "D" if p["degraded"] else " ",
                         "R" if p["retreat"] else " "])
        copied = p["counters"].get(BYTES_COPIED, 0)
        decided = len(p["decisions"])
        print(f"   {marks} GC({p['pause_id']}) {p['kind']:5s} "
              f"{p['pause_ns'] / 1e6:8.3f} ms "
              f"(read {p['read_phase_ns'] / 1e6:.3f}, "
              f"wb {p['writeback_phase_ns'] / 1e6:.3f}) "
              f"copied {mb(copied):.2f} MiB, {decided} policy decisions, "
              f"{len(p['sites'])} sites")
    sites = sorted(doc["sites"], key=lambda s: -s["nvm_copy_bytes"])
    if sites:
        print(f"  top allocation sites (of {len(sites)}, by NVM copy traffic):")
        for s in sites[:top]:
            life = s["lifetime"]
            print(f"    {s['name']:32s} alloc {mb(s['allocated_bytes']):8.2f} MiB  "
                  f"died {mb(s['died_bytes']):8.2f} MiB  "
                  f"tenured {100.0 * s['tenuring_rate']:5.1f}%  "
                  f"nvm-amp {s['nvm_write_amplification']:.2f}  "
                  f"life p50/p99 {life['p50']}/{life['p99']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("path", help="incident-*.json file, or a directory "
                    "searched recursively for incident files")
    ap.add_argument("--validate", action="store_true",
                    help="schema-check every incident (and its companion "
                    "trace) instead of printing the digest")
    ap.add_argument("--top", type=int, default=8,
                    help="allocation sites to show per incident (default 8)")
    args = ap.parse_args()

    incidents = find_incidents(args.path)
    if not incidents:
        fail(f"{args.path}: no incident-*.json files found")
    for path in incidents:
        doc = load(path)
        if args.validate:
            validate_incident(path, doc)
        else:
            print_incident(path, doc, args.top)
    if args.validate:
        print(f"fr_analyze: OK: {len(incidents)} incident(s) valid "
              f"({args.path})")


if __name__ == "__main__":
    main()
