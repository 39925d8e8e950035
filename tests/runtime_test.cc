// Tests for the runtime layer: VM roots, mutator allocation paths, write
// barrier, humongous objects, and GC reporting.

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/runtime/gc_report.h"
#include "src/runtime/global_root.h"
#include "src/runtime/mutator.h"
#include "src/runtime/vm.h"

namespace nvmgc {
namespace {

VmOptions SmallVm(DeviceKind device = DeviceKind::kNvm) {
  VmOptions o;
  o.heap.region_bytes = 64 * 1024;
  o.heap.heap_regions = 256;
  o.heap.dram_cache_regions = 32;
  o.heap.eden_regions = 32;
  o.heap.heap_device = device;
  o.gc.gc_threads = 4;
  o.gc.use_write_cache = true;
  o.gc.use_header_map = true;
  o.gc.header_map_min_threads = 2;
  return o;
}

TEST(VmTest, RootLifecycleAndReuse) {
  Vm vm(SmallVm());
  const RootHandle a = vm.NewRoot(0x10);
  const RootHandle b = vm.NewRoot(0x20);
  EXPECT_EQ(vm.GetRoot(a), 0x10u);
  EXPECT_EQ(vm.GetRoot(b), 0x20u);
  vm.SetRoot(a, 0x30);
  EXPECT_EQ(vm.GetRoot(a), 0x30u);
  EXPECT_EQ(vm.RootSlots().size(), 2u);
  vm.ReleaseRoot(a);
  EXPECT_EQ(vm.RootSlots().size(), 1u);
  const RootHandle c = vm.NewRoot(0x40);
  EXPECT_EQ(c, a);  // Slot reused.
  EXPECT_DEATH(vm.GetRoot(999), "NVMGC_CHECK");
}

TEST(VmTest, ClockAdvancesWithWork) {
  Vm vm(SmallVm());
  Mutator* m = vm.CreateMutator();
  const KlassId node = vm.heap().klasses().RegisterRegular("N", 0, 64);
  const uint64_t before = vm.now_ns();
  for (int i = 0; i < 100; ++i) {
    m->Allocate({node});
  }
  EXPECT_GT(vm.now_ns(), before);
  EXPECT_EQ(vm.app_time_ns() + vm.gc_time_ns(), vm.now_ns());
}

TEST(MutatorTest, AllocationInitializesObjects) {
  Vm vm(SmallVm());
  Mutator* m = vm.CreateMutator();
  const KlassId node = vm.heap().klasses().RegisterRegular("N", 3, 8);
  const Address a = m->Allocate({node});
  EXPECT_EQ(obj::KlassIdOf(a), node);
  EXPECT_FALSE(obj::IsForwarded(obj::LoadMark(a)));
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(m->ReadRef(a, i), kNullAddress);  // Ref slots zeroed.
  }
}

TEST(MutatorTest, ArraysRememberTheirLength) {
  Vm vm(SmallVm());
  Mutator* m = vm.CreateMutator();
  const KlassId refs = vm.heap().klasses().RegisterRefArray("Object[]");
  const KlassId bytes = vm.heap().klasses().RegisterByteArray("byte[]");
  const Address ra = m->Allocate({refs, 17});
  const Address ba = m->Allocate({bytes, 100});
  EXPECT_EQ(obj::ArrayLength(ra), 17u);
  EXPECT_EQ(obj::ArrayLength(ba), 100u);
  m->WriteRef(ra, 16, ba);
  EXPECT_EQ(m->ReadRef(ra, 16), ba);
}

TEST(MutatorTest, HumongousObjectsGetDedicatedRegions) {
  Vm vm(SmallVm());
  Mutator* m = vm.CreateMutator();
  const KlassId bytes = vm.heap().klasses().RegisterByteArray("byte[]");
  // Larger than half a region -> humongous path.
  const Address big = m->Allocate({bytes, 48 * 1024});
  Region* region = vm.heap().RegionFor(big);
  EXPECT_EQ(region->type(), RegionType::kHumongous);
  // Humongous objects are never evacuated.
  const RootHandle root = vm.NewRoot(big);
  vm.CollectNow();
  EXPECT_EQ(vm.GetRoot(root), big);
}

TEST(MutatorTest, HumongousReferencesYoungViaRemset) {
  Vm vm(SmallVm());
  Mutator* m = vm.CreateMutator();
  const KlassId refs = vm.heap().klasses().RegisterRefArray("Object[]");
  const KlassId node = vm.heap().klasses().RegisterRegular("N", 0, 8);
  const Address big = m->Allocate({refs, 5000});  // Humongous ref array.
  ASSERT_EQ(vm.heap().RegionFor(big)->type(), RegionType::kHumongous);
  const RootHandle root = vm.NewRoot(big);
  const Address young = m->Allocate({node});
  m->WriteRef(big, 123, young);  // old-like -> young: must hit the barrier.
  vm.CollectNow();               // young must survive through the remset.
  const Address moved = m->ReadRef(big, 123);
  ASSERT_NE(moved, kNullAddress);
  EXPECT_EQ(obj::KlassIdOf(moved), node);
  static_cast<void>(root);
}

TEST(MutatorTest, AllocationTriggersGcWhenEdenExhausted) {
  Vm vm(SmallVm());
  Mutator* m = vm.CreateMutator();
  const KlassId node = vm.heap().klasses().RegisterRegular("N", 0, 240);
  for (int i = 0; i < 20000; ++i) {
    m->Allocate({node});
  }
  EXPECT_GT(vm.gc_count(), 0u);
}

TEST(GcReportTest, FormatsCycleAndSummary) {
  Vm vm(SmallVm());
  Mutator* m = vm.CreateMutator();
  const KlassId node = vm.heap().klasses().RegisterRegular("N", 1, 16);
  const RootHandle root = vm.NewRoot(m->Allocate({node}));
  vm.CollectNow();
  ASSERT_EQ(vm.gc_count(), 1u);
  const std::string line = FormatGcCycle(0, vm.gc_stats().cycles()[0]);
  EXPECT_NE(line.find("GC(0)"), std::string::npos);
  EXPECT_NE(line.find("pause minor"), std::string::npos);
  EXPECT_NE(line.find("objects"), std::string::npos);

  char buf[8192] = {0};
  std::FILE* mem = fmemopen(buf, sizeof(buf), "w");
  PrintGcLog(&vm, mem);
  PrintGcSummary(&vm, mem);
  std::fclose(mem);
  EXPECT_NE(std::strstr(buf, "GC summary"), nullptr);
  EXPECT_NE(std::strstr(buf, "collections:     1"), nullptr);
  static_cast<void>(root);
}

TEST(GcReportTest, SummaryIncludesOptimizationEffectiveness) {
  Vm vm(SmallVm());
  Mutator* m = vm.CreateMutator();
  const KlassId node = vm.heap().klasses().RegisterRegular("N", 1, 16);
  std::vector<RootHandle> roots;
  for (int i = 0; i < 3000; ++i) {
    roots.push_back(vm.NewRoot(m->Allocate({node})));
  }
  vm.CollectNow();
  char buf[8192] = {0};
  std::FILE* mem = fmemopen(buf, sizeof(buf), "w");
  PrintGcSummary(&vm, mem);
  std::fclose(mem);
  EXPECT_NE(std::strstr(buf, "write cache"), nullptr);
  EXPECT_NE(std::strstr(buf, "header map"), nullptr);
}

TEST(GcReportTest, SummaryPrintsMajorCyclesWithTenureThreshold) {
  VmOptions o = SmallVm();
  o.gc = GenerationalGcOptions(CollectorKind::kG1, 4);
  Vm vm(o);
  Mutator* m = vm.CreateMutator();
  const KlassId node = vm.heap().klasses().RegisterRegular("N", 1, 16);
  const RootHandle root = vm.NewRoot(m->Allocate({node}));
  vm.CollectNow(GcKind::kMajor);
  char buf[8192] = {0};
  std::FILE* mem = fmemopen(buf, sizeof(buf), "w");
  PrintGcSummary(&vm, mem);
  std::fclose(mem);
  EXPECT_NE(std::strstr(buf, "  major cycles:    1 (tenure threshold 3)\n"), nullptr) << buf;
  static_cast<void>(root);
}

// Every per-pause fact is counted once, in GcCycleStats: each pause snapshot
// is keyed by exactly GcPauseMetricNames(), and the DRAM traffic the
// collector measured per pause sums to the lifetime counters.
TEST(VmTest, PauseSnapshotsCarryExactlyThePauseMetricNames) {
  Vm vm(SmallVm());
  Mutator* m = vm.CreateMutator();
  const KlassId node = vm.heap().klasses().RegisterRegular("N", 1, 16);
  std::vector<RootHandle> roots;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 1000; ++i) {
      roots.push_back(vm.NewRoot(m->Allocate({node})));
    }
    vm.CollectNow();
  }
  const std::vector<std::string>& names = GcPauseMetricNames();
  const std::set<std::string> want(names.begin(), names.end());
  ASSERT_EQ(vm.metrics().pauses().size(), 3u);
  for (const PauseSnapshot& pause : vm.metrics().pauses()) {
    std::set<std::string> keys;
    for (const auto& [name, value] : pause.values) {
      keys.insert(name);
    }
    EXPECT_EQ(keys, want) << "pause " << pause.id;
  }
  uint64_t dram_read = 0;
  uint64_t dram_write = 0;
  for (const GcCycleStats& cycle : vm.gc_stats().cycles()) {
    dram_read += cycle.dram_read_bytes;
    dram_write += cycle.dram_write_bytes;
  }
  EXPECT_GT(dram_read, 0u);  // Header-map probes.
  EXPECT_GT(dram_write, 0u);  // Staging copies and header-map installs.
  EXPECT_EQ(vm.metrics().counter("device.dram.read_bytes"), dram_read);
  EXPECT_EQ(vm.metrics().counter("device.dram.write_bytes"), dram_write);
}

TEST(GlobalRootTest, ReleasesItsSlotOnDestruction) {
  Vm vm(SmallVm());
  Mutator* m = vm.CreateMutator();
  const KlassId node = vm.heap().klasses().RegisterRegular("N", 0, 32);
  {
    GlobalRoot root(vm, m->Allocate({node}));
    EXPECT_TRUE(root.attached());
    EXPECT_EQ(vm.RootSlots().size(), 1u);
    EXPECT_EQ(obj::KlassIdOf(root.Get()), node);
    root.Set(kNullAddress);
    EXPECT_EQ(root.Get(), kNullAddress);
  }
  EXPECT_EQ(vm.RootSlots().size(), 0u);  // RAII released the slot.
}

TEST(GlobalRootTest, MoveTransfersOwnership) {
  Vm vm(SmallVm());
  GlobalRoot a(vm, 0x40);
  GlobalRoot b(std::move(a));
  EXPECT_FALSE(a.attached());
  EXPECT_TRUE(b.attached());
  EXPECT_EQ(b.Get(), 0x40u);
  EXPECT_EQ(vm.RootSlots().size(), 1u);  // Still one slot, not two.

  GlobalRoot c(vm, 0x50);
  c = std::move(b);  // Move-assign releases c's old slot first.
  EXPECT_FALSE(b.attached());
  EXPECT_EQ(c.Get(), 0x40u);
  EXPECT_EQ(vm.RootSlots().size(), 1u);
}

TEST(GlobalRootTest, ResetDetachesAndIsIdempotent) {
  Vm vm(SmallVm());
  GlobalRoot root(vm, 0x10);
  root.Reset();
  EXPECT_FALSE(root.attached());
  EXPECT_EQ(vm.RootSlots().size(), 0u);
  root.Reset();  // Second Reset is a no-op.
  EXPECT_FALSE(root.attached());
}

TEST(GlobalRootDeathTest, DetachedAccessDies) {
  Vm vm(SmallVm());
  GlobalRoot detached;
  EXPECT_DEATH(detached.Get(), "NVMGC_CHECK");
  EXPECT_DEATH(detached.Set(0x10), "NVMGC_CHECK");
  EXPECT_DEATH(detached.handle(), "NVMGC_CHECK");
}

TEST(VmTest, DramHeapConfigWorksEndToEnd) {
  Vm vm(SmallVm(DeviceKind::kDram));
  Mutator* m = vm.CreateMutator();
  const KlassId node = vm.heap().klasses().RegisterRegular("N", 0, 32);
  const RootHandle root = vm.NewRoot(m->Allocate({node}));
  for (int i = 0; i < 50000; ++i) {
    m->Allocate({node});
  }
  EXPECT_GT(vm.gc_count(), 0u);
  EXPECT_EQ(obj::KlassIdOf(vm.GetRoot(root)), node);
}

}  // namespace
}  // namespace nvmgc
