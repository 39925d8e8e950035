// Tests for the write cache: region pairing, address mapping, capacity
// bounding, retraction, synchronous/asynchronous flushing, and the
// direct-to-NVM fallback paths (staging-arena exhaustion and injected DRAM
// pressure).

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/core/write_cache.h"
#include "src/nvm/fault_injector.h"
#include "src/nvm/memory_device.h"
#include "src/runtime/mutator.h"
#include "src/runtime/vm.h"

namespace nvmgc {
namespace {

class WriteCacheTest : public ::testing::Test {
 protected:
  WriteCacheTest() : nvm_(MakeOptaneProfile()), dram_(MakeDramProfile()) {
    HeapConfig config;
    config.region_bytes = 64 * 1024;
    config.heap_regions = 32;
    config.dram_cache_regions = 8;
    config.eden_regions = 8;
    config.heap_device = DeviceKind::kNvm;
    heap_ = std::make_unique<Heap>(config, &nvm_, &dram_);
  }

  GcOptions Options(bool async = false, bool unlimited = false, size_t cap = 0) {
    GcOptions o;
    o.use_write_cache = true;
    o.write_cache_bytes = cap;
    o.unlimited_write_cache = unlimited;
    o.use_non_temporal = true;
    o.async_flush = async;
    return o;
  }

  MemoryDevice nvm_;
  MemoryDevice dram_;
  std::unique_ptr<Heap> heap_;
  SimClock clock_;
  GcCycleStats stats_;
};

TEST_F(WriteCacheTest, AllocateMapsCacheToTwin) {
  WriteCache cache(heap_.get(), Options());
  WriteCacheWorkerState state;
  WriteCache::Allocation a;
  ASSERT_TRUE(cache.Allocate(&state, 64, &a, 1, &clock_, &stats_));
  EXPECT_TRUE(heap_->InCacheArena(a.physical));
  EXPECT_TRUE(heap_->InHeapArena(a.final));
  EXPECT_EQ(a.final - a.twin_region->bottom(), a.physical - a.cache_region->bottom());
  EXPECT_EQ(a.twin_region->type(), RegionType::kSurvivor);
  EXPECT_EQ(a.twin_region->cache_twin(), a.cache_region);
  EXPECT_EQ(a.cache_region->cache_twin(), a.twin_region);
}

TEST_F(WriteCacheTest, PhysicalTranslationWhileStagedAndAfterFlush) {
  WriteCache cache(heap_.get(), Options());
  WriteCacheWorkerState state;
  WriteCache::Allocation a;
  ASSERT_TRUE(cache.Allocate(&state, 64, &a, 1, &clock_, &stats_));
  EXPECT_EQ(WriteCache::Physical(heap_.get(), a.final), a.physical);
  // Write recognizable bytes through the staging copy.
  std::memset(reinterpret_cast<void*>(a.physical), 0xAB, 64);
  ASSERT_EQ(cache.pause_twin_count(), 1u);
  cache.FlushPauseTwin(0, &clock_, &stats_);
  // After the flush the final address holds the bytes and translation is id.
  EXPECT_EQ(WriteCache::Physical(heap_.get(), a.final), a.final);
  EXPECT_EQ(*reinterpret_cast<uint8_t*>(a.final), 0xAB);
  EXPECT_EQ(stats_.regions_flushed_sync, 1u);
  EXPECT_TRUE(a.twin_region->flushed());
  EXPECT_EQ(a.twin_region->used(), 64u);
}

TEST_F(WriteCacheTest, RetractRollsBackBump) {
  WriteCache cache(heap_.get(), Options());
  WriteCacheWorkerState state;
  WriteCache::Allocation a;
  ASSERT_TRUE(cache.Allocate(&state, 128, &a, 1, &clock_, &stats_));
  const size_t staged_before = cache.staged_bytes();
  cache.Retract(a, 128);
  EXPECT_EQ(cache.staged_bytes(), staged_before - 128);
  WriteCache::Allocation b;
  ASSERT_TRUE(cache.Allocate(&state, 128, &b, 1, &clock_, &stats_));
  EXPECT_EQ(b.physical, a.physical);  // Space was reclaimed.
}

TEST_F(WriteCacheTest, CapacityBoundStopsStaging) {
  WriteCache cache(heap_.get(), Options(false, false, 64 * 1024));  // One region.
  WriteCacheWorkerState state;
  WriteCache::Allocation a;
  size_t staged = 0;
  while (cache.Allocate(&state, 1024, &a, 1, &clock_, &stats_)) {
    staged += 1024;
    if (staged > 1024 * 1024) {
      FAIL() << "capacity bound not enforced";
    }
  }
  EXPECT_GE(staged, 64u * 1024);        // Filled the region it had started.
  EXPECT_LE(staged, 2u * 64 * 1024);    // But stopped promptly at the cap.
}

TEST_F(WriteCacheTest, UnlimitedIgnoresCap) {
  WriteCache cache(heap_.get(), Options(false, true, 1024));
  WriteCacheWorkerState state;
  WriteCache::Allocation a;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(cache.Allocate(&state, 1024, &a, 1, &clock_, &stats_));
  }
  EXPECT_GT(cache.staged_bytes(), 1024u * 64);
}

TEST_F(WriteCacheTest, AsyncFlushRequiresClosedAndNoPendingSlots) {
  WriteCache cache(heap_.get(), Options(/*async=*/true));
  WriteCacheWorkerState state;
  WriteCache::Allocation a;
  ASSERT_TRUE(cache.Allocate(&state, 64, &a, 1, &clock_, &stats_));
  Region* twin = a.twin_region;
  Region* cache_region = a.cache_region;

  cache_region->AddPendingSlots(1);
  cache.MaybeAsyncFlush(twin, &clock_, &stats_);
  EXPECT_EQ(stats_.regions_flushed_async, 0u);  // Still open + pending.

  cache_region->set_closed(true);
  cache.MaybeAsyncFlush(twin, &clock_, &stats_);
  EXPECT_EQ(stats_.regions_flushed_async, 0u);  // Pending slot outstanding.

  cache_region->AddPendingSlots(-1);
  cache.MaybeAsyncFlush(twin, &clock_, &stats_);
  EXPECT_EQ(stats_.regions_flushed_async, 1u);
  EXPECT_TRUE(twin->flushed());
}

TEST_F(WriteCacheTest, StealTaintSuppressesAsyncFlush) {
  WriteCache cache(heap_.get(), Options(/*async=*/true));
  WriteCacheWorkerState state;
  WriteCache::Allocation a;
  ASSERT_TRUE(cache.Allocate(&state, 64, &a, 1, &clock_, &stats_));
  a.cache_region->set_closed(true);
  a.cache_region->set_steal_tainted(true);
  cache.MaybeAsyncFlush(a.twin_region, &clock_, &stats_);
  EXPECT_EQ(stats_.regions_flushed_async, 0u);
  // The synchronous end-of-pause flush still handles it (and counts taint).
  cache.FlushPauseTwin(0, &clock_, &stats_);
  EXPECT_EQ(stats_.regions_flushed_sync, 1u);
  EXPECT_EQ(stats_.regions_steal_tainted, 1u);
}

TEST_F(WriteCacheTest, FlushChargesNonTemporalWrites) {
  WriteCache cache(heap_.get(), Options());
  WriteCacheWorkerState state;
  WriteCache::Allocation a;
  ASSERT_TRUE(cache.Allocate(&state, 4096, &a, 1, &clock_, &stats_));
  const DeviceCounters before = nvm_.counters();
  cache.FlushPauseTwin(0, &clock_, &stats_);
  const DeviceCounters delta = nvm_.counters() - before;
  EXPECT_EQ(delta.nt_write_bytes, 4096u);
  EXPECT_EQ(delta.write_bytes, 4096u);
}

TEST_F(WriteCacheTest, TakePauseTwinsResets) {
  WriteCache cache(heap_.get(), Options());
  WriteCacheWorkerState state;
  WriteCache::Allocation a;
  ASSERT_TRUE(cache.Allocate(&state, 64, &a, 1, &clock_, &stats_));
  cache.FlushPauseTwin(0, &clock_, &stats_);
  const auto twins = cache.TakePauseTwins();
  EXPECT_EQ(twins.size(), 1u);
  EXPECT_EQ(cache.staged_bytes(), 0u);
  EXPECT_TRUE(cache.TakePauseTwins().empty());
}

TEST_F(WriteCacheTest, ArenaExhaustionDegradesWorkerToDirectCopy) {
  WriteCache cache(heap_.get(), Options(false, /*unlimited=*/true));
  WriteCacheWorkerState state;
  WriteCache::Allocation a;
  size_t pairs = 0;
  while (cache.Allocate(&state, 64 * 1024, &a, 1, &clock_, &stats_)) {
    ++pairs;
    ASSERT_LE(pairs, 8u);
  }
  EXPECT_EQ(pairs, 8u);  // Every DRAM staging region was paired and filled.
  EXPECT_TRUE(state.direct_fallback);
  EXPECT_EQ(stats_.cache_fallback_workers, 1u);
  // The fallback is sticky for the rest of the pause: no renewed pair hunt,
  // no double-counted degradation.
  EXPECT_FALSE(cache.Allocate(&state, 64, &a, 1, &clock_, &stats_));
  EXPECT_EQ(stats_.cache_fallback_workers, 1u);
}

TEST_F(WriteCacheTest, CapacityCapDoesNotDegradeWorker) {
  WriteCache cache(heap_.get(), Options(false, false, 64 * 1024));
  WriteCacheWorkerState state;
  WriteCache::Allocation a;
  while (cache.Allocate(&state, 1024, &a, 1, &clock_, &stats_)) {
  }
  // Unlike exhaustion/faults, the cap is re-evaluated per object and must not
  // permanently degrade the worker.
  EXPECT_FALSE(state.direct_fallback);
  EXPECT_EQ(stats_.cache_fallback_workers, 0u);
}

TEST_F(WriteCacheTest, DramPressureFaultForcesStickyDirectFallback) {
  FaultPlan plan;
  plan.AddDramPressure(0, 1'000'000);
  FaultInjector injector(plan);
  dram_.AttachFaultInjector(&injector);
  WriteCache cache(heap_.get(), Options());
  WriteCacheWorkerState state;
  WriteCache::Allocation a;
  EXPECT_FALSE(cache.Allocate(&state, 64, &a, 1, &clock_, &stats_));
  EXPECT_TRUE(state.direct_fallback);
  EXPECT_EQ(stats_.cache_fault_denials, 1u);
  EXPECT_EQ(stats_.cache_fallback_workers, 1u);
  // Sticky: the degraded worker does not re-probe the injector.
  EXPECT_FALSE(cache.Allocate(&state, 64, &a, 1, &clock_, &stats_));
  EXPECT_EQ(stats_.cache_fault_denials, 1u);
  // Once the pressure window closes, a fresh worker state stages again.
  clock_.SetTime(2'000'000);
  WriteCacheWorkerState fresh;
  EXPECT_TRUE(cache.Allocate(&fresh, 64, &a, 1, &clock_, &stats_));
  dram_.AttachFaultInjector(nullptr);
}

// End-to-end equivalence: a collection whose write cache is fully denied by
// DRAM pressure must behave exactly like a collection that never had a write
// cache — same survivor placement (by arena offset), same copy totals — with
// the degradation visible only in the fault counters.
TEST(WriteCacheFallbackEquivalenceTest, DeniedCacheMatchesNoCacheRun) {
  struct RunResult {
    std::vector<uint64_t> offsets;
    GcCycleStats totals;
  };
  auto run = [](bool cache_denied) {
    VmOptions o;
    o.heap.region_bytes = 64 * 1024;
    o.heap.heap_regions = 256;
    o.heap.dram_cache_regions = 16;
    o.heap.eden_regions = 32;
    o.heap.heap_device = DeviceKind::kNvm;
    o.gc.gc_threads = 1;  // Deterministic copy order.
    o.gc.use_write_cache = cache_denied;
    // NT stores and async flushing only exist with the cache; Validate()
    // rejects them without it.
    o.gc.use_non_temporal = cache_denied;
    o.gc.async_flush = cache_denied;
    Vm vm(o);
    FaultPlan plan;
    plan.AddDramPressure(0, UINT64_MAX);
    FaultInjector injector(plan);
    if (cache_denied) {
      vm.dram_device().AttachFaultInjector(&injector);
    }
    Mutator* mutator = vm.CreateMutator();
    const KlassId klass = vm.heap().klasses().RegisterRegular("EqNode", 2, 16);
    const RootHandle head = vm.NewRoot(mutator->Allocate({klass}));
    for (int i = 0; i < 199; ++i) {
      const Address node = mutator->Allocate({klass});
      mutator->WriteRef(node, 0, vm.GetRoot(head));
      vm.SetRoot(head, node);
    }
    vm.CollectNow();
    vm.CollectNow();
    RunResult result;
    result.totals = vm.gc_stats().Totals();
    const Klass& k = vm.heap().klasses().Get(klass);
    for (Address node = vm.GetRoot(head); node != kNullAddress;
         node = obj::LoadRef(obj::RefSlot(node, k, 0))) {
      result.offsets.push_back(node - vm.heap().heap_base());
    }
    return result;
  };

  const RunResult plain = run(false);
  const RunResult denied = run(true);
  ASSERT_EQ(plain.offsets.size(), 200u);
  EXPECT_EQ(plain.offsets, denied.offsets);
  EXPECT_EQ(plain.totals.bytes_copied, denied.totals.bytes_copied);
  EXPECT_EQ(plain.totals.objects_copied, denied.totals.objects_copied);
  EXPECT_EQ(denied.totals.cache_bytes_staged, 0u);
  EXPECT_GT(denied.totals.cache_fault_denials, 0u);
  EXPECT_GT(denied.totals.cache_fallback_bytes, 0u);
  EXPECT_EQ(plain.totals.cache_fault_denials, 0u);
}

TEST_F(WriteCacheTest, DefaultCapacityIsHeapOver32) {
  GcOptions o;
  o.use_write_cache = true;
  WriteCache cache(heap_.get(), o);
  EXPECT_EQ(cache.capacity_bytes(), heap_->heap_arena_bytes() / 32);
}

}  // namespace
}  // namespace nvmgc
