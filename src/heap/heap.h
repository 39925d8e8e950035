// The managed heap: region arenas on simulated devices.
//
// The heap owns two arenas:
//   * the Java heap arena, placed on the device selected by HeapConfig
//     (the analog of -XX:AllocateHeapAt pointing at an Optane DAX mount), and
//   * a DRAM staging arena used for write-cache regions.
// Bytes physically live in host RAM either way; timing comes from the
// MemoryDevice each arena is bound to.

#ifndef NVMGC_SRC_HEAP_HEAP_H_
#define NVMGC_SRC_HEAP_HEAP_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "src/heap/klass.h"
#include "src/heap/object.h"
#include "src/heap/region.h"
#include "src/nvm/memory_device.h"
#include "src/util/mapped_array.h"

namespace nvmgc {

struct HeapConfig {
  // A power of two of at least 4 KiB: RegionFor shifts instead of dividing.
  size_t region_bytes = 256 * 1024;
  uint32_t heap_regions = 1024;      // G1 default is 2048 regions; scaled down.
  uint32_t dram_cache_regions = 96;  // Staging arena for the write cache.
  uint32_t eden_regions = 192;       // Eden quota; exhaustion triggers young GC.
  uint32_t tenure_age = 3;           // Copies survived before promotion to old.
  DeviceKind heap_device = DeviceKind::kNvm;
  // Serve eden regions from the DRAM arena ("young-gen-dram" comparison
  // configuration in Figure 5: extra DRAM used for allocation, GC copies
  // DRAM eden -> NVM survivors). Requires dram_cache_regions >= eden_regions.
  bool eden_on_dram = false;
  // Generational NVM-tiered mode: the whole young generation (eden AND
  // survivor regions) is served from the DRAM arena; only tenured old,
  // humongous and large-object regions live on the heap device. The Vm
  // derives these fields from GcOptions::generational and grows
  // dram_cache_regions by the young-generation budget.
  bool generational = false;
  uint32_t survivor_regions = 0;  // DRAM survivor quota (generational only).
  // Extra bytes appended to the heap arena past the regions, reserved for the
  // durability mode's commit records and redo logs (the Vm sizes it from
  // ComputeCommitLayout; 0 outside durability mode). RegionFor() returns
  // nullptr inside this area.
  size_t commit_area_bytes = 0;
};

class Heap {
 public:
  Heap(const HeapConfig& config, MemoryDevice* heap_device, MemoryDevice* dram_device);

  Heap(const Heap&) = delete;
  Heap& operator=(const Heap&) = delete;

  // Region allocation from the heap arena. Returns nullptr when the arena (or,
  // for eden, the eden quota) is exhausted.
  Region* AllocateRegion(RegionType type);
  void FreeRegion(Region* region);

  // --- Durability support ---
  // When the quarantine is armed, FreeRegion() of a durable-committed heap
  // region parks it instead of returning it to the free list: its content is
  // still live in the latest sealed commit, so reusing (and re-fencing) it
  // before the next commit seals would corrupt rollback. The collector calls
  // ReleaseQuarantinedRegions() right after sealing each commit.
  void set_durable_quarantine(bool on) { durable_quarantine_ = on; }
  void ReleaseQuarantinedRegions();
  size_t quarantined_region_count() const;

  // Recovery-time restore: re-materializes heap region `index` as `type` with
  // `used_bytes` of content and the given survivor age, pulling it off the
  // free list. Only valid on a freshly constructed heap.
  Region* RestoreRegion(uint32_t index, RegionType type, size_t used_bytes, uint64_t gc_epoch);

  // Allocates a whole region for one over-sized object; returns the object
  // address (header initialized by the caller).
  Region* AllocateHumongousRegion();

  // Large-object space (generational mode): bump-allocates `bytes` into the
  // current kLarge region on the heap device, opening a new one when needed.
  // Large objects are tenured in place and never copied. Returns kNullAddress
  // when the heap arena is exhausted.
  Address AllocateLarge(size_t bytes);

  // Generational mode: retune the eden quota between pauses (the adaptive
  // policy's kEdenQuota knob). Clamped to [1, regions the DRAM arena can
  // actually serve]; never shrinks below the eden regions currently in use.
  void set_eden_quota(uint32_t regions);
  uint32_t eden_quota() const;

  // DRAM staging arena (write-cache regions). Returns nullptr when exhausted.
  Region* AllocateCacheRegion();
  void FreeCacheRegion(Region* region);

  // Region lookup for any address in either arena; nullptr if foreign.
  Region* RegionFor(Address a);
  const Region* RegionFor(Address a) const;

  bool InHeapArena(Address a) const {
    return a >= heap_base_ && a < heap_base_ + heap_bytes_;
  }
  bool InCacheArena(Address a) const {
    return a >= cache_base_ && a < cache_base_ + cache_bytes_;
  }

  MemoryDevice* DeviceFor(const Region* region) {
    return region->device() == heap_device_->kind() ? heap_device_ : dram_device_;
  }
  MemoryDevice* heap_device() { return heap_device_; }
  MemoryDevice* dram_device() { return dram_device_; }

  KlassTable& klasses() { return klasses_; }
  const KlassTable& klasses() const { return klasses_; }

  const HeapConfig& config() const { return config_; }
  size_t region_bytes() const { return config_.region_bytes; }

  // Iteration and statistics.
  void ForEachRegion(const std::function<void(Region*)>& fn);
  std::vector<Region*> RegionsOfType(RegionType type);
  uint32_t CountRegions(RegionType type) const;
  uint32_t free_region_count() const;
  uint32_t free_cache_region_count() const;
  uint32_t eden_region_count() const { return eden_count_; }
  uint32_t survivor_region_count() const { return survivor_count_; }

  // Walks all (parsable) objects in a region bottom..top.
  void ForEachObjectInRegion(Region* region, const std::function<void(Address)>& fn) const;

  // Total bytes of DRAM currently lent to staging (for cost accounting).
  size_t cache_arena_bytes() const { return cache_bytes_; }
  size_t heap_arena_bytes() const { return heap_bytes_; }
  // Arena origin (of both arenas): lets tests compare object placement
  // across Vm instances by offset rather than host address.
  Address heap_base() const { return heap_base_; }
  // The DRAM arena's origin. The one host buffer holding both arenas ends at
  // cache_base() + cache_arena_bytes(), where a guard page begins.
  Address cache_base() const { return cache_base_; }
  // The durability commit area appended past the regions (empty when
  // commit_area_bytes is 0).
  Address commit_area_base() const { return heap_base_ + heap_bytes_; }
  size_t commit_area_bytes() const { return config_.commit_area_bytes; }

 private:
  Region* AllocateFromFreeList(std::vector<uint32_t>* free_list, Region* regions,
                               RegionType type);

  HeapConfig config_;
  MemoryDevice* heap_device_;
  MemoryDevice* dram_device_;
  KlassTable klasses_;

  MappedArray<uint8_t> arena_;  // Heap arena, then the DRAM arena.
  Address heap_base_ = 0;
  Address cache_base_ = 0;
  size_t heap_bytes_ = 0;
  size_t cache_bytes_ = 0;
  uint32_t region_shift_ = 0;  // log2(config_.region_bytes).

  mutable std::mutex mu_;
  std::unique_ptr<Region[]> heap_regions_;
  std::unique_ptr<Region[]> cache_regions_;
  uint32_t heap_region_count_ = 0;
  uint32_t cache_region_count_ = 0;
  std::vector<uint32_t> free_heap_regions_;
  std::vector<uint32_t> free_cache_regions_;
  uint32_t eden_count_ = 0;
  uint32_t eden_quota_ = 0;      // Runtime-tunable copy of config.eden_regions.
  uint32_t survivor_count_ = 0;  // DRAM survivor regions in use (generational).
  Region* los_current_ = nullptr;  // Open large-object region (generational).
  bool durable_quarantine_ = false;
  std::vector<uint32_t> quarantined_heap_regions_;
};

}  // namespace nvmgc

#endif  // NVMGC_SRC_HEAP_HEAP_H_
