// Host-footprint tests: the heap arenas and the header-map table are mapped
// from zero pages, so a Vm costs host memory only for what a run touches,
// reads as zero before first use, and faults on a write past any buffer's
// end (a guard page follows each one).

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstddef>
#include <string>
#include <vector>

#include "src/core/header_map.h"
#include "src/heap/heap_verifier.h"
#include "src/nvm/device_profile.h"
#include "src/runtime/global_root.h"
#include "src/runtime/mutator.h"
#include "src/runtime/vm.h"

namespace nvmgc {
namespace {

// Counts the pages of [begin, begin + bytes) resident in this process, asking
// the kernel about our own mapping with mincore(2).
size_t ResidentPages(const void* begin, size_t bytes) {
  const uintptr_t page = static_cast<uintptr_t>(sysconf(_SC_PAGESIZE));
  const uintptr_t first = reinterpret_cast<uintptr_t>(begin) / page * page;
  const uintptr_t end = reinterpret_cast<uintptr_t>(begin) + bytes;
  std::vector<unsigned char> residency((end - first + page - 1) / page);
  EXPECT_EQ(mincore(reinterpret_cast<void*>(first), end - first, residency.data()), 0);
  size_t resident = 0;
  for (const unsigned char r : residency) {
    resident += r & 1;
  }
  return resident;
}

VmOptions FootprintVm() {
  VmOptions o;
  o.heap.region_bytes = 64 * 1024;
  o.heap.heap_regions = 512;
  o.heap.dram_cache_regions = 64;
  o.heap.eden_regions = 64;
  o.gc.gc_threads = 4;
  o.gc.use_write_cache = true;
  o.gc.use_header_map = true;
  o.gc.header_map_min_threads = 2;
  return o;
}

// Both arenas as one host range: heap arena (plus commit area), the page gap,
// then the DRAM arena, ending where the guard page begins.
size_t ArenaBufferBytes(const Heap& heap) {
  return heap.cache_base() + heap.cache_arena_bytes() - heap.heap_base();
}

TEST(HostFootprintTest, FreshVmHasNoResidentArenaPages) {
  Vm vm(FootprintVm());
  const Heap& heap = vm.heap();
  EXPECT_EQ(ResidentPages(reinterpret_cast<const void*>(heap.heap_base()),
                          ArenaBufferBytes(heap)),
            0u);
}

TEST(HostFootprintTest, ArenaReadsAsZero) {
  Vm vm(FootprintVm());
  const Heap& heap = vm.heap();
  const auto* bytes = reinterpret_cast<const unsigned char*>(heap.heap_base());
  const size_t size = ArenaBufferBytes(heap);
  size_t nonzero = 0;
  for (size_t i = 0; i < size; ++i) {
    nonzero += bytes[i] != 0;
  }
  EXPECT_EQ(nonzero, 0u);
}

TEST(HostFootprintTest, ResizedHeaderMapReadsAsZero) {
  MemoryDevice dram(MakeDramProfile());
  SimClock clock;
  HeaderMap map(4096, 16, &dram);
  std::vector<uint32_t> journal;
  for (Address key = 0x1000; key < 0x1000 + 64 * 8; key += 8) {
    ASSERT_NE(map.Put(key, key + 0x100000, &clock, nullptr, &journal), kNullAddress);
  }
  map.ClearJournal(&journal, &clock);
  map.ResizeEntries(map.capacity() * 512);
  ASSERT_EQ(map.capacity(), 256u * 512u);
  EXPECT_EQ(ResidentPages(map.table_bytes().data(), map.table_bytes().size()), 0u);
  size_t nonzero = 0;
  for (const std::byte b : map.table_bytes()) {
    nonzero += b != std::byte{0};
  }
  EXPECT_EQ(nonzero, 0u);
  EXPECT_EQ(map.OccupiedEntries(), 0u);
  EXPECT_EQ(map.Get(0x1000, &clock, nullptr), kNullAddress);
  EXPECT_EQ(map.Put(0x1000, 0x2000, &clock, nullptr), 0x2000u);
  EXPECT_EQ(map.Get(0x1000, &clock, nullptr), 0x2000u);
}

// A 4 GiB heap (plus its 1 GiB DRAM young generation) costs nothing until
// used: build it, collect a few thousand objects through a minor and a
// generational major collection, and verify the heap.
TEST(HostFootprintTest, FourGibHeapCollectsAndVerifies) {
  VmOptions o;
  o.heap.region_bytes = 1024 * 1024;
  o.heap.heap_regions = 4096;
  o.heap.dram_cache_regions = 64;
  o.gc = GenerationalGcOptions(CollectorKind::kG1, 4);
  Vm vm(o);
  ASSERT_EQ(vm.heap().heap_arena_bytes(), size_t{4} << 30);

  Mutator* m = vm.CreateMutator();
  const KlassId node = vm.heap().klasses().RegisterRegular("Node", 2, 32);
  std::vector<GlobalRoot> roots;
  GlobalRoot list(vm);
  for (int i = 0; i < 4000; ++i) {
    const Address a = m->Allocate({node});
    if (i % 4 == 0) {
      roots.emplace_back(vm, a);  // Every fourth object survives as a root...
    } else if (i % 4 == 1) {
      m->WriteRef(a, 0, list.Get());  // ...and every fourth joins a list.
      list.Set(a);
    }
  }
  EXPECT_EQ(vm.CollectNow(GcKind::kMinor).is_major, 0u);
  EXPECT_EQ(vm.CollectNow(GcKind::kMajor).is_major, 1u);

  HeapVerifier verifier(&vm.heap());
  std::string error;
  EXPECT_TRUE(verifier.VerifyReachable(vm.RootSlots(), &error)) << error;
  EXPECT_TRUE(verifier.VerifyParsability(&error)) << error;
  EXPECT_TRUE(verifier.VerifyRemsetCompleteness(&error)) << error;
  size_t listed = 0;
  for (Address a = list.Get(); a != kNullAddress; a = m->ReadRef(a, 0)) {
    ++listed;
  }
  EXPECT_EQ(listed, 1000u);
  // Only the touched regions became resident: far below the reservation.
  EXPECT_LT(ResidentPages(reinterpret_cast<const void*>(vm.heap().heap_base()),
                          ArenaBufferBytes(vm.heap())) *
                static_cast<size_t>(sysconf(_SC_PAGESIZE)),
            size_t{64} << 20);
}

// One byte past the end of each mapped buffer is its guard page.
TEST(GuardPageDeathTest, WritePastArenaEndFaults) {
  Vm vm(FootprintVm());
  auto* end = reinterpret_cast<volatile unsigned char*>(vm.heap().cache_base() +
                                                        vm.heap().cache_arena_bytes());
  end[-1] = 1;  // The arena's last byte is writable...
  EXPECT_DEATH(end[0] = 1, "");  // ...the next one is not.
}

TEST(GuardPageDeathTest, WritePastHeaderMapTableEndFaults) {
  MemoryDevice dram(MakeDramProfile());
  HeaderMap map(4096, 16, &dram);
  const std::span<const std::byte> table = map.table_bytes();
  auto* end = reinterpret_cast<volatile unsigned char*>(
      const_cast<std::byte*>(table.data() + table.size()));
  end[-1] = 0;
  EXPECT_DEATH(end[0] = 1, "");
}

}  // namespace
}  // namespace nvmgc
