#!/usr/bin/env bash
# Local CI: build and test three configurations, then measure line coverage.
#
#   default   RelWithDebInfo            -> build/
#   sanitize  Debug + ASan/UBSan        -> build-sanitize/
#   tsan      Debug + TSan              -> build-tsan/
#   coverage  Debug + --coverage        -> build-coverage/
#
# The coverage preset runs the full ctest suite, then
# scripts/coverage_table.py prints each src/ function's unexecuted line count
# and the total, and writes them to build-coverage/coverage.json. To see a
# change's coverage beside its parent's, keep the parent's coverage.json and
# run `scripts/coverage_table.py build-coverage --compare PARENT.json`. It
# reports; it gates nothing.
#
# The tsan preset builds only nvmgc_tests and runs the tests that start real
# threads: HeaderMapTest.* (concurrent header-map installs and lookups),
# TaskQueueThreadTest.* (one owner pushing and popping against two
# StealHalf thieves) and MemoryDeviceThreadTest.* (one thread binding tenant
# ranges while readers resolve addresses with TenantFor); the collector itself
# steps its workers on one host thread.
#
# default and sanitize run the full ctest suite, including:
#   - nvmgc_fault_stress: randomized seeded fault plans with heap verification
#     after every GC cycle;
#   - nvmgc_bench_smoke: a small bench_fig05_gc_time run writing --json/--trace
#     artifacts (with --timeline bandwidth samples) into <build>/artifacts/
#     (retained after the run);
#   - nvmgc_bench_artifacts_check: scripts/check_bench_artifacts.py validating
#     the smoke artifacts against the nvmgc.bench.v2 schema, including the
#     NVM bandwidth counter tracks in the trace;
#   - nvmgc_bench_gate (+ its WILL_FAIL selftest): scripts/bench_gate.py
#     comparing the smoke run against the checked-in BENCH_baseline.json
#     (2% on simulated times, 0% on pause counts);
#   - nvmgc_bench_determinism: the smoke bench run twice at its default
#     thread count, every result metric identical
#     (scripts/bench_diff.py --fail-any-change);
#   - nvmgc_bench_adaptive_smoke / _artifacts_check / _gate: the adaptive
#     policy engine's phase-shifting bench (which enforces its own acceptance
#     criteria), its policy.* counter tracks, and its regression baseline
#     (BENCH_baseline_adaptive.json);
#   - nvmgc_crash_recovery: the durability acceptance sweep — 200 seeded
#     power-cut points over a multi-cycle durable run, each either recovering
#     a verified heap or classifying the torn state;
#   - nvmgc_bench_durability_smoke / _artifacts_check / _gate: durable vs
#     non-durable pause cost (the bench enforces zero persist work with
#     durability off), the persist.* counter tracks, and the durability
#     regression baseline (BENCH_baseline_durability.json);
#   - nvmgc_bench_generational_smoke / _artifacts_check / _gate: the DRAM
#     young generation vs the non-generational baseline (the bench enforces
#     >= 50% NVM write reduction on the alloc-heavy phase and major pause
#     cost per evacuated byte within 10%), the gen.* counter tracks, and the
#     generational regression baseline (BENCH_baseline_generational.json);
#   - nvmgc_bench_flightrec_smoke / _artifacts_check / _gate: the GC flight
#     recorder off vs on (the bench enforces the <= 3% simulated-time bound
#     itself), with a seeded pause-threshold anomaly dumping nvmgc.incident.v1
#     files into <build>/artifacts/fr/ (retained after the run), checked by
#     --require-incident and pinned by BENCH_baseline_flightrec.json;
#   - nvmgc_flight_record_check: scripts/fr_analyze.py --validate over every
#     incident dump — trigger semantics, retained pauses, per-allocation-site
#     attribution of the triggering pause, and the companion Perfetto trace;
#   - nvmgc_bench_fleet_smoke / _artifacts_check / _gate (+
#     nvmgc_fleet_flight_record_check): the multi-tenant fleet bench —
#     three QoS-tiered tenants on one shared device, uncoordinated vs
#     coordinated (the bench enforces the serving-p99 gain and batch
#     throughput-retention bars itself), with per-tenant Chrome-trace
#     processes (--require-tenant-tracks), tenant-tagged incident dumps in
#     <build>/artifacts/fr-fleet/, and BENCH_baseline_fleet.json.
#
# The baseline gates (nvmgc_bench_*_gate) and incident validation
# (nvmgc_*flight_record_check) are ctest tests over each preset's
# <build>/artifacts/, so no second gate pass follows ctest.

set -euo pipefail
cd "$(dirname "$0")/.."

for preset in default sanitize tsan; do
  echo "=== [${preset}] configure ==="
  cmake --preset "${preset}"
  echo "=== [${preset}] build ==="
  cmake --build --preset "${preset}" -j "$(nproc)"
  echo "=== [${preset}] test ==="
  ctest --preset "${preset}" -j "$(nproc)"
done

echo "=== [coverage] configure, build, test ==="
find build-coverage -name '*.gcda' -delete 2>/dev/null || true
cmake --preset coverage
cmake --build --preset coverage -j "$(nproc)"
ctest --preset coverage -j "$(nproc)"
echo "=== [coverage] unexecuted src/ lines per function ==="
python3 scripts/coverage_table.py build-coverage --json build-coverage/coverage.json

echo "=== retained bench artifacts ==="
ls -l build*/artifacts/ 2>/dev/null || true

echo "CI OK"
