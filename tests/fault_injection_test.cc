// Fault-injection tests: the FaultInjector subsystem itself, the degradation
// paths it triggers in the collector (direct-to-NVM write-cache fallback,
// degraded sync/cache-line-store flushing), and the capstone randomized
// stress: seeded FaultPlans over multi-cycle GC runs with all three
// HeapVerifier checks asserted after every cycle — correctness under faults,
// not just survival.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "src/heap/heap_verifier.h"
#include "src/nvm/fault_injector.h"
#include "src/nvm/memory_device.h"
#include "src/runtime/gc_report.h"
#include "src/runtime/mutator.h"
#include "src/runtime/vm.h"
#include "src/util/random.h"

namespace nvmgc {
namespace {

VmOptions FaultVmOptions(uint32_t threads = 4) {
  VmOptions o;
  o.heap.region_bytes = 64 * 1024;
  o.heap.heap_regions = 512;
  o.heap.dram_cache_regions = 32;
  o.heap.eden_regions = 64;
  o.heap.heap_device = DeviceKind::kNvm;
  o.gc.gc_threads = threads;
  o.gc.use_write_cache = true;
  o.gc.use_header_map = true;
  o.gc.header_map_min_threads = 2;
  o.gc.use_non_temporal = true;
  o.gc.async_flush = true;
  o.gc.prefetch = true;
  o.gc.prefetch_header_map = true;
  return o;
}

void ExpectHeapValid(Vm* vm) {
  HeapVerifier verifier(&vm->heap());
  std::string error;
  EXPECT_TRUE(verifier.VerifyReachable(vm->RootSlots(), &error)) << error;
  EXPECT_TRUE(verifier.VerifyParsability(&error)) << error;
  EXPECT_TRUE(verifier.VerifyRemsetCompleteness(&error)) << error;
}

// Rooted linked chains with a shadow id model, safe against objects moving:
// every chain's head and tail are GC roots, and validation re-walks from the
// head after collections. Slot 0 is the chain link; slot 1 carries optional
// cross-links between chain heads.
class ChainWorkload {
 public:
  ChainWorkload(Vm* vm, uint64_t seed) : vm_(vm), mutator_(vm->CreateMutator()), rng_(seed) {
    klass_ = vm->heap().klasses().RegisterRegular("FaultNode", 2, 16);
  }

  void Grow(size_t nodes) {
    if (chains_.empty() || (chains_.size() < 8 && rng_.NextBool(0.25))) {
      NewChain();
      --nodes;
    }
    Chain& chain = chains_[rng_.NextBelow(chains_.size())];
    for (size_t i = 0; i < nodes; ++i) {
      const uint64_t id = next_id_++;
      const Address node = NewNode(id);  // May trigger GC: roots move first.
      const Address tail = vm_->GetRoot(chain.tail_root);
      mutator_->WriteRef(tail, 0, node);
      vm_->SetRoot(chain.tail_root, node);
      chain.ids.push_back(id);
    }
  }

  // Unreachable garbage for the collector to reclaim.
  void Churn(size_t nodes) {
    for (size_t i = 0; i < nodes; ++i) {
      NewNode(next_id_++);
    }
  }

  // Links one chain head to another through slot 1.
  void CrossLink() {
    if (chains_.size() < 2) {
      return;
    }
    const size_t src = rng_.NextBelow(chains_.size());
    size_t dst = rng_.NextBelow(chains_.size());
    if (dst == src) {
      dst = (dst + 1) % chains_.size();
    }
    mutator_->WriteRef(vm_->GetRoot(chains_[src].head_root), 1,
                       vm_->GetRoot(chains_[dst].head_root));
    cross_[chains_[src].ids.front()] = chains_[dst].ids.front();
  }

  // Re-walks every chain from its head root and checks ids and cross-links.
  void VerifyAll() {
    const Klass& k = vm_->heap().klasses().Get(klass_);
    for (const Chain& chain : chains_) {
      Address node = vm_->GetRoot(chain.head_root);
      for (size_t i = 0; i < chain.ids.size(); ++i) {
        ASSERT_NE(node, kNullAddress) << "chain truncated at index " << i;
        ASSERT_EQ(ReadId(node), chain.ids[i]);
        const Address cross = obj::LoadRef(obj::RefSlot(node, k, 1));
        const auto it = cross_.find(chain.ids[i]);
        if (it != cross_.end()) {
          ASSERT_NE(cross, kNullAddress);
          EXPECT_EQ(ReadId(cross), it->second);
        } else {
          EXPECT_EQ(cross, kNullAddress);
        }
        node = obj::LoadRef(obj::RefSlot(node, k, 0));
      }
      EXPECT_EQ(node, kNullAddress) << "chain longer than shadow model";
      EXPECT_EQ(ReadId(vm_->GetRoot(chain.tail_root)), chain.ids.back());
    }
  }

 private:
  struct Chain {
    RootHandle head_root = 0;
    RootHandle tail_root = 0;
    std::vector<uint64_t> ids;
  };

  void NewChain() {
    const uint64_t id = next_id_++;
    const Address node = NewNode(id);
    Chain chain;
    chain.head_root = vm_->NewRoot(node);
    chain.tail_root = vm_->NewRoot(node);
    chain.ids.push_back(id);
    chains_.push_back(chain);
  }

  Address NewNode(uint64_t id) {
    const Address node = mutator_->Allocate({klass_});
    const Klass& k = vm_->heap().klasses().Get(klass_);
    std::memcpy(reinterpret_cast<void*>(obj::PayloadOf(node, k)), &id, sizeof(id));
    return node;
  }

  uint64_t ReadId(Address node) const {
    const Klass& k = vm_->heap().klasses().Get(klass_);
    uint64_t id;
    std::memcpy(&id, reinterpret_cast<const void*>(obj::PayloadOf(node, k)), sizeof(id));
    return id;
  }

  Vm* vm_;
  Mutator* mutator_;
  Random rng_;
  KlassId klass_ = 0;
  uint64_t next_id_ = 1;
  std::vector<Chain> chains_;
  std::map<uint64_t, uint64_t> cross_;
};

// --- FaultInjector unit tests ---

TEST(FaultInjectorTest, ThrottleScalesAccessCostInsideWindowOnly) {
  MemoryDevice device(MakeOptaneProfile());
  FaultPlan plan;
  plan.AddThrottle(0, 1'000'000, 0.5);
  FaultInjector injector(plan);
  device.AttachFaultInjector(&injector);

  SimClock clock;
  const AccessDescriptor d = SequentialWrite(0x1000, 4096);
  const uint64_t nominal_inside = device.CostNs(0, d);
  EXPECT_EQ(device.Access(&clock, d), 2 * nominal_inside);

  clock.SetTime(2'000'000);  // Past the window: nominal cost again.
  const uint64_t nominal_outside = device.CostNs(clock.now_ns(), d);
  EXPECT_EQ(device.Access(&clock, d), nominal_outside);

  const FaultStats stats = injector.stats();
  EXPECT_EQ(stats.throttled_accesses, 1u);
  EXPECT_EQ(stats.perturbed_accesses, 1u);
}

TEST(FaultInjectorTest, LatencySpikeMultipliesCost) {
  MemoryDevice device(MakeOptaneProfile());
  FaultPlan plan;
  plan.AddLatencySpike(0, 1'000'000, 3.0);
  FaultInjector injector(plan);
  device.AttachFaultInjector(&injector);
  SimClock clock;
  const AccessDescriptor d = RandomRead(0x2000, 64);
  const uint64_t nominal = device.CostNs(0, d);
  EXPECT_EQ(device.Access(&clock, d), 3 * nominal);
  EXPECT_EQ(injector.stats().spiked_accesses, 1u);
}

TEST(FaultInjectorTest, StallsAreDeterministicAndBounded) {
  FaultPlan plan;
  plan.seed = 123;
  plan.AddStalls(0, 1'000'000, /*probability=*/1.0, /*stall_ns=*/500, /*max_retries=*/3);
  FaultInjector a(plan);
  FaultInjector b(plan);
  for (uint64_t addr = 0x1000; addr < 0x1000 + 64 * 16; addr += 64) {
    const AccessDescriptor d = RandomRead(addr, 64);
    EXPECT_EQ(a.PerturbCost(addr, d, 100), b.PerturbCost(addr, d, 100));
  }
  const FaultStats sa = a.stats();
  EXPECT_EQ(sa.stalls_injected, 16u);  // p == 1: every access stalls.
  EXPECT_EQ(sa.stalls_injected, b.stats().stalls_injected);
  EXPECT_EQ(sa.stall_extra_ns, b.stats().stall_extra_ns);
  // Retries bounded: worst case 3 backoff rounds of 500 << k.
  EXPECT_LE(sa.stall_retries, 3u * 16u);
  EXPECT_GE(sa.stall_retries, 16u);
  EXPECT_LE(sa.stall_extra_ns, 16u * (500u + 1000u + 2000u));
}

TEST(FaultInjectorTest, DramPressureGateCountsDenials) {
  FaultPlan plan;
  plan.AddDramPressure(1000, 2000);
  FaultInjector injector(plan);
  EXPECT_TRUE(injector.AllowRegionPairAllocation(500));
  EXPECT_FALSE(injector.AllowRegionPairAllocation(1500));
  EXPECT_FALSE(injector.AllowRegionPairAllocation(1999));
  EXPECT_TRUE(injector.AllowRegionPairAllocation(2000));  // End is exclusive.
  EXPECT_EQ(injector.stats().dram_denials, 2u);
  EXPECT_TRUE(injector.DramPressureActive(1500));
  EXPECT_FALSE(injector.DramPressureActive(2500));
}

TEST(FaultInjectorTest, OverlappingThrottlesCompound) {
  FaultPlan plan;
  plan.AddThrottle(0, 1000, 0.5).AddThrottle(500, 1500, 0.5);
  FaultInjector injector(plan);
  EXPECT_DOUBLE_EQ(injector.BandwidthFraction(100), 0.5);
  EXPECT_DOUBLE_EQ(injector.BandwidthFraction(700), 0.25);
  EXPECT_DOUBLE_EQ(injector.BandwidthFraction(1200), 0.5);
  EXPECT_DOUBLE_EQ(injector.BandwidthFraction(2000), 1.0);
  EXPECT_TRUE(injector.ThrottleActive(700));
  EXPECT_FALSE(injector.ThrottleActive(1600));
}

TEST(FaultInjectorTest, RandomizedPlansAreSeedDeterministic) {
  const FaultPlan a = FaultPlan::Randomized(42, 10'000'000);
  const FaultPlan b = FaultPlan::Randomized(42, 10'000'000);
  ASSERT_EQ(a.windows.size(), b.windows.size());
  for (size_t i = 0; i < a.windows.size(); ++i) {
    EXPECT_EQ(a.windows[i].kind, b.windows[i].kind);
    EXPECT_EQ(a.windows[i].start_ns, b.windows[i].start_ns);
    EXPECT_EQ(a.windows[i].end_ns, b.windows[i].end_ns);
    EXPECT_DOUBLE_EQ(a.windows[i].cost_multiplier, b.windows[i].cost_multiplier);
    EXPECT_DOUBLE_EQ(a.windows[i].bandwidth_fraction, b.windows[i].bandwidth_fraction);
  }
  // Every randomized plan guarantees both degradation triggers.
  bool has_throttle_at_zero = false;
  bool has_pressure_at_zero = false;
  for (const FaultWindow& w : a.windows) {
    has_throttle_at_zero |= w.kind == FaultKind::kBandwidthThrottle && w.Contains(0);
    has_pressure_at_zero |= w.kind == FaultKind::kDramPressure && w.Contains(0);
  }
  EXPECT_TRUE(has_throttle_at_zero);
  EXPECT_TRUE(has_pressure_at_zero);
  // Distinct seeds produce distinct schedules.
  const FaultPlan c = FaultPlan::Randomized(43, 10'000'000);
  bool differs = c.windows.size() != a.windows.size();
  for (size_t i = 0; !differs && i < a.windows.size(); ++i) {
    differs = a.windows[i].start_ns != c.windows[i].start_ns ||
              a.windows[i].end_ns != c.windows[i].end_ns;
  }
  EXPECT_TRUE(differs);
}

// --- Directed degradation tests ---

TEST(FaultDegradedModeTest, ThrottleDisablesAsyncAndNtStoresThenRecovers) {
  Vm vm(FaultVmOptions());
  ChainWorkload workload(&vm, 7);
  workload.Grow(300);

  FaultPlan plan;
  const uint64_t window_end = vm.now_ns() + 50'000'000;
  plan.AddThrottle(0, window_end, 0.25);
  FaultInjector injector(plan);
  vm.heap_device().AttachFaultInjector(&injector);
  vm.dram_device().AttachFaultInjector(&injector);

  DeviceCounters before = vm.heap_device().counters();
  const GcCycleStats degraded = vm.CollectNow();
  DeviceCounters delta = vm.heap_device().counters() - before;
  EXPECT_EQ(degraded.degraded_mode, 1u);
  EXPECT_EQ(degraded.regions_flushed_async, 0u);
  EXPECT_GT(degraded.regions_flushed_sync, 0u);  // Survivors still flushed.
  EXPECT_EQ(delta.nt_write_bytes, 0u);           // Cache-line stores only.
  workload.VerifyAll();
  ExpectHeapValid(&vm);
  EXPECT_NE(FormatGcCycle(0, degraded).find("DEGRADED"), std::string::npos);

  // Jump past the window: the next pause runs with the optimizations back on.
  vm.clock().SetTime(window_end + 1'000'000);
  workload.Grow(300);
  before = vm.heap_device().counters();
  const GcCycleStats nominal = vm.CollectNow();
  delta = vm.heap_device().counters() - before;
  EXPECT_EQ(nominal.degraded_mode, 0u);
  EXPECT_GT(delta.nt_write_bytes, 0u);  // Non-temporal write-back resumed.
  workload.VerifyAll();
  ExpectHeapValid(&vm);
  EXPECT_EQ(vm.gc_stats().Totals().degraded_mode, 1u);
}

TEST(FaultDegradedModeTest, ThrottleOpeningMidPauseDegradesTheWriteBack) {
  // Runs are deterministic, so an uninjected twin locates the pause: the
  // throttle window opens halfway through its read phase, after the pause
  // began outside any window.
  GcCycleStats reference;
  uint64_t reference_nt_bytes = 0;
  {
    Vm vm(FaultVmOptions());
    ChainWorkload workload(&vm, 7);
    workload.Grow(300);
    const DeviceCounters before = vm.heap_device().counters();
    reference = vm.CollectNow();
    reference_nt_bytes = (vm.heap_device().counters() - before).nt_write_bytes;
  }
  ASSERT_EQ(reference.degraded_mode, 0u);
  ASSERT_GT(reference.read_phase_ns, 1u);
  ASSERT_GT(reference_nt_bytes, 0u);

  Vm vm(FaultVmOptions());
  ChainWorkload workload(&vm, 7);
  workload.Grow(300);
  ASSERT_EQ(vm.now_ns(), reference.start_ns);
  FaultPlan plan;
  plan.AddThrottle(reference.start_ns + reference.read_phase_ns / 2,
                   reference.start_ns + 50'000'000, 0.25);
  FaultInjector injector(plan);
  vm.heap_device().AttachFaultInjector(&injector);

  const DeviceCounters before = vm.heap_device().counters();
  const GcCycleStats cycle = vm.CollectNow();
  const DeviceCounters delta = vm.heap_device().counters() - before;
  EXPECT_EQ(cycle.degraded_mode, 1u);
  EXPECT_EQ(cycle.regions_flushed_async, 0u);
  EXPECT_GT(cycle.regions_flushed_sync, 0u);
  EXPECT_EQ(delta.nt_write_bytes, 0u);  // The write-back used cache-line stores.
  workload.VerifyAll();
  ExpectHeapValid(&vm);
}

TEST(FaultWriteCacheFallbackTest, DramPressureDegradesWorkersToDirectCopy) {
  Vm vm(FaultVmOptions());
  ChainWorkload workload(&vm, 11);
  workload.Grow(400);

  FaultPlan plan;
  plan.AddDramPressure(0, UINT64_MAX);
  FaultInjector injector(plan);
  vm.heap_device().AttachFaultInjector(&injector);
  vm.dram_device().AttachFaultInjector(&injector);

  const GcCycleStats cycle = vm.CollectNow();
  EXPECT_GT(cycle.cache_fault_denials, 0u);
  EXPECT_GT(cycle.cache_fallback_workers, 0u);
  EXPECT_GT(cycle.cache_fallback_bytes, 0u);
  EXPECT_EQ(cycle.cache_bytes_staged, 0u);  // Nothing went through DRAM.
  EXPECT_EQ(cycle.regions_flushed_sync + cycle.regions_flushed_async, 0u);
  workload.VerifyAll();
  ExpectHeapValid(&vm);

  const std::string line = FormatGcCycle(0, cycle);
  EXPECT_NE(line.find("cache fallback"), std::string::npos);
  EXPECT_GT(vm.gc_stats().Totals().cache_fault_denials, 0u);

  // The workload keeps running across more faulted cycles.
  for (int i = 0; i < 3; ++i) {
    workload.Grow(50);
    workload.Churn(500);
    vm.CollectNow();
    workload.VerifyAll();
    ExpectHeapValid(&vm);
  }
}

TEST(FaultReportTest, SummarySurfacesDegradationCounters) {
  GcCycleStats cycle;
  cycle.degraded_mode = 1;
  cycle.cache_fallback_workers = 2;
  cycle.cache_fault_denials = 3;
  cycle.cache_fallback_bytes = 4096;
  cycle.header_map_installs = 10;
  cycle.header_map_fault_probes = 5;
  const std::string line = FormatGcCycle(0, cycle);
  EXPECT_NE(line.find("DEGRADED"), std::string::npos);
  EXPECT_NE(line.find("cache fallback: 2 workers"), std::string::npos);
  EXPECT_NE(line.find("3 pair denials"), std::string::npos);
  EXPECT_NE(line.find("5 probes under fault"), std::string::npos);
}

// --- Capstone: randomized fault schedules across many GC cycles ---

class SeededFaultStress : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeededFaultStress, MultiCycleGcStaysCorrectUnderRandomFaults) {
  const uint64_t seed = GetParam();
  Vm vm(FaultVmOptions());
  const FaultPlan plan = FaultPlan::Randomized(seed, /*horizon_ns=*/40'000'000);
  FaultInjector injector(plan);
  vm.heap_device().AttachFaultInjector(&injector);
  vm.dram_device().AttachFaultInjector(&injector);
  ChainWorkload workload(&vm, seed ^ 0x5eed);

  // All three heap invariants (reachability, parsability, remset
  // completeness) plus the shadow model are re-checked after every GC cycle,
  // explicit or allocation-triggered.
  size_t seen_cycles = 0;
  auto verify_new_cycles = [&] {
    if (vm.gc_count() != seen_cycles) {
      seen_cycles = vm.gc_count();
      ExpectHeapValid(&vm);
      workload.VerifyAll();
    }
  };

  workload.Grow(300);
  verify_new_cycles();
  for (int round = 0; round < 10 && !::testing::Test::HasFatalFailure(); ++round) {
    workload.Grow(60);
    if (round % 2 == 0) {
      workload.CrossLink();
    }
    for (int chunk = 0; chunk < 12; ++chunk) {
      workload.Churn(100);
      verify_new_cycles();
    }
    vm.CollectNow();
    verify_new_cycles();
  }

  EXPECT_GE(vm.gc_count(), 10u);
  const GcCycleStats totals = vm.gc_stats().Totals();
  // The guaranteed windows at t=0 force both degradation paths, and the
  // report counters must show it.
  EXPECT_GE(totals.degraded_mode, 1u);
  EXPECT_GE(totals.cache_fault_denials, 1u);
  EXPECT_GE(totals.cache_fallback_workers, 1u);
  EXPECT_GE(totals.cache_fallback_bytes, 1u);
  const FaultStats stats = injector.stats();
  EXPECT_GT(stats.perturbed_accesses, 0u);
  EXPECT_GE(stats.dram_denials, totals.cache_fault_denials);
}

// Bounded, deterministic seed matrix (also wired as a dedicated ctest entry;
// see tests/CMakeLists.txt).
INSTANTIATE_TEST_SUITE_P(BoundedSeedMatrix, SeededFaultStress,
                         ::testing::Values(0xA1u, 0xB2u, 0xC3u, 0xD4u, 0xE5u, 0xF6u));

}  // namespace
}  // namespace nvmgc
