// Crash-point sweep over durability mode: cut power at seeded simulated
// instants across multi-cycle runs and require that the RecoveryChecker
// either rebuilds a verified heap from the last sealed commit or reports a
// classified pre-commit torn state — never silent corruption.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "src/nvm/fault_injector.h"
#include "src/recovery/crash_injector.h"
#include "src/recovery/recovery_checker.h"
#include "src/runtime/mutator.h"
#include "src/runtime/vm.h"
#include "src/workloads/renaissance.h"
#include "src/workloads/synthetic_app.h"

namespace nvmgc {
namespace {

constexpr uint64_t kSweepSeed = 0xC0FFEE;

VmOptions DurableVm(uint32_t threads = 4) {
  VmOptions o;
  o.heap.region_bytes = 64 * 1024;
  o.heap.heap_regions = 320;
  o.heap.dram_cache_regions = 48;
  o.heap.eden_regions = 16;  // Small eden: ~1 MiB per cycle forces many GCs.
  o.heap.heap_device = DeviceKind::kNvm;
  o.gc = DurableOptions(CollectorKind::kG1, threads);
  return o;
}

WorkloadProfile CrashProfile() {
  WorkloadProfile p = RenaissanceProfile("dotty");
  p.total_allocation_bytes = 6 * 1024 * 1024;
  return p;
}

struct CrashRunResult {
  RecoveryReport report;
  std::vector<uint64_t> commit_instants;
  uint64_t end_ns = 0;
};

// Runs the workload with power cut at `crash_ns` (or no cut when 0), then
// recovers from the surviving image. The run's own commit instants predict
// which epoch recovery must land on.
CrashRunResult RunAndRecover(uint64_t crash_ns, const FaultPlan* faults = nullptr) {
  VmOptions o = DurableVm();
  Vm vm(o);
  FaultInjector injector(faults != nullptr ? *faults : FaultPlan{});
  if (faults != nullptr) {
    vm.heap_device().AttachFaultInjector(&injector);
  }
  CrashInjector crash(&vm.heap_device().persist(),
                      crash_ns != 0 ? crash_ns : ~uint64_t{0});
  SyntheticApp app(&vm, CrashProfile());
  app.Run();

  CrashRunResult result;
  result.commit_instants = vm.collector().commit_instants();
  result.end_ns = vm.now_ns();
  RecoveryChecker checker(vm.options().heap, vm.heap().klasses());
  result.report = checker.Check(crash.TakeImage());
  return result;
}

size_t SealedBefore(const std::vector<uint64_t>& instants, uint64_t crash_ns) {
  return static_cast<size_t>(
      std::count_if(instants.begin(), instants.end(),
                    [&](uint64_t t) { return t < crash_ns; }));
}

// The acceptance sweep: >= 200 crash points scattered over a run with >= 5
// GC cycles. Every point must recover to exactly the last sealed epoch, or
// classify the pre-first-commit window explicitly.
TEST(CrashRecovery, SeededSweepNeverSilentlyCorrupts) {
  // Reference run (no crash) fixes the horizon and confirms cycle depth.
  const CrashRunResult reference = RunAndRecover(0);
  ASSERT_GE(reference.commit_instants.size(), 5u)
      << "workload too small to exercise >= 5 GC cycles";
  ASSERT_TRUE(reference.report.recovered()) << reference.report.detail;
  EXPECT_EQ(reference.report.epoch, reference.commit_instants.size());

  const std::vector<uint64_t> instants =
      CrashInjector::SweepInstants(kSweepSeed, 1, reference.end_ns, 200);
  ASSERT_EQ(instants.size(), 200u);

  for (const uint64_t crash_ns : instants) {
    const CrashRunResult r = RunAndRecover(crash_ns);
    const size_t sealed = SealedBefore(r.commit_instants, crash_ns);
    SCOPED_TRACE("crash_ns=" + std::to_string(crash_ns) + " seed=" +
                 std::to_string(kSweepSeed) + " sealed=" + std::to_string(sealed) +
                 " detail=" + r.report.detail);
    ASSERT_NE(r.report.outcome, RecoveryReport::Outcome::kCorrupt);
    if (sealed == 0) {
      EXPECT_EQ(r.report.outcome, RecoveryReport::Outcome::kNoCommittedState);
      EXPECT_FALSE(r.report.detail.empty());  // Torn state must be classified.
    } else {
      ASSERT_EQ(r.report.outcome, RecoveryReport::Outcome::kRecovered);
      EXPECT_EQ(r.report.epoch, sealed);
      EXPECT_GT(r.report.regions_restored, 0u);
      EXPECT_GT(r.report.objects_parsed, 0u);
    }
  }
}

// Compound robustness: device faults (throttle windows, access stalls, DRAM
// pressure) during the run must not weaken the durability contract.
TEST(CrashRecovery, SurvivesCrashUnderDeviceFaults) {
  const CrashRunResult reference = RunAndRecover(0);
  const std::vector<uint64_t> instants =
      CrashInjector::SweepInstants(kSweepSeed ^ 0xFA117, 1, reference.end_ns, 10);
  FaultPlan plan;
  plan.seed = 7;
  plan.AddThrottle(0, reference.end_ns, 0.4)
      .AddStalls(0, reference.end_ns, 0.05, 2'000, 2)
      .AddDramPressure(reference.end_ns / 4, reference.end_ns / 2);
  for (const uint64_t crash_ns : instants) {
    const CrashRunResult r = RunAndRecover(crash_ns, &plan);
    const size_t sealed = SealedBefore(r.commit_instants, crash_ns);
    SCOPED_TRACE("crash_ns=" + std::to_string(crash_ns) + " detail=" + r.report.detail);
    ASSERT_NE(r.report.outcome, RecoveryReport::Outcome::kCorrupt);
    if (sealed > 0) {
      ASSERT_TRUE(r.report.recovered());
      EXPECT_EQ(r.report.epoch, sealed);
    }
  }
}

// A power cut after the final commit recovers the full final heap state:
// every committed epoch sealed, roots present, redo log replayed cleanly.
TEST(CrashRecovery, FullRunRecoversFinalEpoch) {
  const CrashRunResult r = RunAndRecover(0);
  ASSERT_TRUE(r.report.recovered()) << r.report.detail;
  EXPECT_EQ(r.report.epoch, r.commit_instants.size());
  EXPECT_GT(r.report.roots_restored, 0u);
  EXPECT_GT(r.report.regions_restored, 0u);
}

// Durability off is free: the same workload must report zero persist work.
TEST(CrashRecovery, DurabilityOffHasZeroPersistWork) {
  VmOptions o = DurableVm();
  o.gc = AllOptimizationsOptions(CollectorKind::kG1, 4);
  Vm vm(o);
  SyntheticApp app(&vm, CrashProfile());
  app.Run();
  const GcCycleStats totals = vm.gc_stats().Totals();
  EXPECT_EQ(totals.persist_flush_lines, 0u);
  EXPECT_EQ(totals.persist_fences, 0u);
  EXPECT_EQ(totals.persist_ns, 0u);
  EXPECT_EQ(totals.persist_redo_entries, 0u);
  EXPECT_EQ(totals.persist_commit_bytes, 0u);
  EXPECT_TRUE(vm.collector().commit_instants().empty());
}

// Durability on actually pays for persistence and seals one commit per pause.
TEST(CrashRecovery, DurabilityOnSealsEveryPause) {
  VmOptions o = DurableVm();
  Vm vm(o);
  SyntheticApp app(&vm, CrashProfile());
  app.Run();
  const GcCycleStats totals = vm.gc_stats().Totals();
  EXPECT_GT(totals.persist_flush_lines, 0u);
  EXPECT_GT(totals.persist_fences, 0u);
  EXPECT_GT(totals.persist_ns, 0u);
  EXPECT_GT(totals.persist_commit_bytes, 0u);
  EXPECT_EQ(vm.collector().commit_instants().size(), vm.gc_count());
}

}  // namespace
}  // namespace nvmgc
