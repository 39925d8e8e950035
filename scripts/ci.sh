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
# default and sanitize run the full ctest suite (tests/CMakeLists.txt): the
# gtest binary and its fault-stress and crash-recovery filters, NaN-checked
# smoke runs of some ungated benches (nvmgc_smoke_test there), and, per
# gated bench, the smoke run, its artifact check and its gate against
# BENCH_baseline.json (nvmgc_gated_bench there). The gates and incident validation are
# ctest tests over each preset's <build>/artifacts/ (retained after the run),
# so no second gate pass follows ctest.

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
