// Property-based tests: invariants that must hold across the whole GC
// configuration space, checked with parameterized sweeps.

#include <gtest/gtest.h>

#include <tuple>

#include "src/heap/heap_verifier.h"
#include "src/workloads/renaissance.h"
#include "src/workloads/synthetic_app.h"

namespace nvmgc {
namespace {

VmOptions SweepVm(CollectorKind collector, uint32_t threads, bool write_cache, bool header_map,
                  bool async, bool adaptive = false) {
  VmOptions o;
  o.heap.region_bytes = 64 * 1024;
  o.heap.heap_regions = 512;
  o.heap.dram_cache_regions = 96;
  o.heap.eden_regions = 64;
  o.heap.heap_device = DeviceKind::kNvm;
  o.gc.collector = collector;
  o.gc.gc_threads = threads;
  o.gc.use_write_cache = write_cache;
  o.gc.use_header_map = header_map;
  o.gc.header_map_min_threads = 1;
  o.gc.use_non_temporal = write_cache;
  o.gc.async_flush = async;
  o.gc.adaptive_policy = adaptive;
  return o;
}

WorkloadProfile SweepProfile() {
  WorkloadProfile p = RenaissanceProfile("dotty");
  p.total_allocation_bytes = 12 * 1024 * 1024;
  return p;
}

// (collector, threads, write_cache, header_map, async, adaptive)
using SweepParam = std::tuple<CollectorKind, uint32_t, bool, bool, bool, bool>;

class GcSweepTest : public ::testing::TestWithParam<SweepParam> {};

// Invariant 1: the set of surviving objects is configuration-independent —
// every configuration must copy exactly the same live data.
TEST_P(GcSweepTest, LiveDataIndependentOfConfiguration) {
  const auto [collector, threads, wc, hm, async, adaptive] = GetParam();
  // Reference run: single-threaded vanilla G1.
  WorkloadProfile profile = SweepProfile();
  uint64_t reference_objects = 0;
  {
    VmOptions o = SweepVm(CollectorKind::kG1, 1, false, false, false);
    Vm vm(o);
    SyntheticApp app(&vm, profile);
    app.Run();
    reference_objects = vm.gc_stats().Totals().objects_copied;
  }
  VmOptions o = SweepVm(collector, threads, wc, hm, async, adaptive);
  Vm vm(o);
  SyntheticApp app(&vm, profile);
  app.Run();
  EXPECT_EQ(vm.gc_stats().Totals().objects_copied, reference_objects);
}

// Invariant 2: after every run the heap verifies — reachability, region
// parsability, remembered-set completeness.
TEST_P(GcSweepTest, HeapVerifiesAfterRun) {
  const auto [collector, threads, wc, hm, async, adaptive] = GetParam();
  VmOptions o = SweepVm(collector, threads, wc, hm, async, adaptive);
  Vm vm(o);
  SyntheticApp app(&vm, SweepProfile());
  app.Run();
  HeapVerifier verifier(&vm.heap());
  std::string error;
  EXPECT_TRUE(verifier.VerifyReachable(vm.RootSlots(), &error)) << error;
  EXPECT_TRUE(verifier.VerifyParsability(&error)) << error;
  EXPECT_TRUE(verifier.VerifyRemsetCompleteness(&error)) << error;
}

// Invariant 3: no write-cache staging region leaks past a pause, and no
// region is left flush-claimed but unflushed.
TEST_P(GcSweepTest, NoStagingRegionLeaks) {
  const auto [collector, threads, wc, hm, async, adaptive] = GetParam();
  VmOptions o = SweepVm(collector, threads, wc, hm, async, adaptive);
  Vm vm(o);
  SyntheticApp app(&vm, SweepProfile());
  app.Run();
  EXPECT_EQ(vm.heap().CountRegions(RegionType::kWriteCache), 0u);
  vm.heap().ForEachRegion([&](Region* region) {
    EXPECT_EQ(region->cache_twin(), nullptr);
    EXPECT_EQ(region->pending_slots(), 0);
  });
}

std::string SweepName(const ::testing::TestParamInfo<SweepParam>& info) {
  std::string name = std::get<0>(info.param) == CollectorKind::kG1 ? "g1" : "ps";
  name += "_t" + std::to_string(std::get<1>(info.param));
  if (std::get<2>(info.param)) {
    name += "_wc";
  }
  if (std::get<3>(info.param)) {
    name += "_hm";
  }
  if (std::get<4>(info.param)) {
    name += "_async";
  }
  if (std::get<5>(info.param)) {
    name += "_adaptive";
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    ConfigSpace, GcSweepTest,
    ::testing::Values(SweepParam{CollectorKind::kG1, 1, false, false, false, false},
                      SweepParam{CollectorKind::kG1, 4, false, false, false, false},
                      SweepParam{CollectorKind::kG1, 4, true, false, false, false},
                      SweepParam{CollectorKind::kG1, 4, true, true, false, false},
                      SweepParam{CollectorKind::kG1, 4, true, true, true, false},
                      SweepParam{CollectorKind::kG1, 13, true, true, true, false},
                      SweepParam{CollectorKind::kParallelScavenge, 4, false, false, false, false},
                      SweepParam{CollectorKind::kParallelScavenge, 4, true, true, false, false},
                      SweepParam{CollectorKind::kParallelScavenge, 7, true, true, true, false},
                      // Policy engine on: the same invariants must hold while
                      // the controller retunes the knobs between pauses.
                      SweepParam{CollectorKind::kG1, 1, true, true, false, true},
                      SweepParam{CollectorKind::kG1, 4, true, true, true, true},
                      SweepParam{CollectorKind::kG1, 13, true, true, true, true},
                      SweepParam{CollectorKind::kParallelScavenge, 4, true, true, true, true}),
    SweepName);

// Invariant 4: the write cache reduces the share of NVM writes that happen
// during the read-mostly sub-phase (the paper's central mechanism).
TEST(GcMechanismTest, WriteCacheSeparatesPhases) {
  WorkloadProfile profile = SweepProfile();
  auto run = [&](bool wc) {
    VmOptions o = SweepVm(CollectorKind::kG1, 4, wc, false, false);
    Vm vm(o);
    SyntheticApp app(&vm, profile);
    app.Run();
    const GcCycleStats totals = vm.gc_stats().Totals();
    return totals;
  };
  const GcCycleStats vanilla = run(false);
  const GcCycleStats cached = run(true);
  // Vanilla has no write-only sub-phase; write cache gets a substantial one.
  EXPECT_GT(cached.writeback_phase_ns, vanilla.writeback_phase_ns);
  EXPECT_GT(cached.cache_bytes_staged, 0u);
  EXPECT_GT(cached.regions_flushed_sync + cached.regions_flushed_async, 0u);
}

// Invariant 5: the header map absorbs forwarding installs (installs+overflows
// equals objects copied) and reduces NVM write operations.
TEST(GcMechanismTest, HeaderMapAbsorbsForwardingPointers) {
  WorkloadProfile profile = SweepProfile();
  VmOptions o = SweepVm(CollectorKind::kG1, 4, true, true, false);
  Vm vm(o);
  SyntheticApp app(&vm, profile);
  app.Run();
  const GcCycleStats totals = vm.gc_stats().Totals();
  EXPECT_GT(totals.header_map_installs, 0u);
  EXPECT_EQ(totals.header_map_installs + totals.header_map_overflows, totals.objects_copied);
}

// Invariant 6: the header map is bypassed below its thread threshold.
TEST(GcMechanismTest, HeaderMapThreadThreshold) {
  WorkloadProfile profile = SweepProfile();
  VmOptions o = SweepVm(CollectorKind::kG1, 2, true, true, false);
  o.gc.header_map_min_threads = 8;  // Above our 2 threads.
  Vm vm(o);
  SyntheticApp app(&vm, profile);
  app.Run();
  EXPECT_EQ(vm.gc_stats().Totals().header_map_installs, 0u);
}

// Invariant 7: asynchronous flushing flushes at least some regions during the
// read phase and never double-flushes.
TEST(GcMechanismTest, AsyncFlushWorks) {
  WorkloadProfile profile = SweepProfile();
  profile.total_allocation_bytes = 24 * 1024 * 1024;
  VmOptions o = SweepVm(CollectorKind::kG1, 4, true, true, true);
  Vm vm(o);
  SyntheticApp app(&vm, profile);
  app.Run();
  const GcCycleStats totals = vm.gc_stats().Totals();
  EXPECT_GT(totals.regions_flushed_async, 0u);
  // Every staged region flushed exactly once (async + sync covers all twins).
  EXPECT_EQ(vm.heap().CountRegions(RegionType::kWriteCache), 0u);
}

// Invariant 8: PS keeps large objects out of the write cache (LAB policy).
TEST(GcMechanismTest, PsLabPolicyBypassesCacheForLargeObjects) {
  WorkloadProfile profile = RenaissanceProfile("naive-bayes");  // Large arrays.
  profile.total_allocation_bytes = 12 * 1024 * 1024;
  // Arrays above kLabBytes/4 (16 KiB), which PS copies directly, and at most
  // region_bytes/2 (32 KiB), so they are copied at all rather than humongous.
  profile.array_bytes_min = CopyCollector::kLabBytes / 4 + 1024;
  profile.array_bytes_max = 24 * 1024;
  auto overflow_share = [&](CollectorKind kind) {
    Vm vm(SweepVm(kind, 4, true, false, false));
    SyntheticApp app(&vm, profile);
    app.Run();
    const GcCycleStats totals = vm.gc_stats().Totals();
    return static_cast<double>(totals.cache_overflow_bytes) /
           static_cast<double>(totals.cache_overflow_bytes + totals.cache_bytes_staged + 1);
  };
  EXPECT_GT(overflow_share(CollectorKind::kParallelScavenge),
            overflow_share(CollectorKind::kG1) + 0.2);
}

// Invariant 9: simulated GC time is monotone in device speed — NVM pauses
// dominate DRAM pauses for the same workload and configuration.
TEST(GcMechanismTest, NvmPausesDominateDram) {
  WorkloadProfile profile = SweepProfile();
  GcOptions gc;
  gc.gc_threads = 4;
  HeapConfig nvm_heap = SweepVm(CollectorKind::kG1, 4, false, false, false).heap;
  HeapConfig dram_heap = nvm_heap;
  dram_heap.heap_device = DeviceKind::kDram;
  const WorkloadResult nvm = RunWorkload(profile, nvm_heap, gc);
  const WorkloadResult dram = RunWorkload(profile, dram_heap, gc);
  EXPECT_GT(nvm.gc_ns, dram.gc_ns);
}

}  // namespace
}  // namespace nvmgc
