#include "src/heap/heap.h"

#include <algorithm>
#include <bit>

#include "src/util/check.h"

namespace nvmgc {

Heap::Heap(const HeapConfig& config, MemoryDevice* heap_device, MemoryDevice* dram_device)
    : config_(config), heap_device_(heap_device), dram_device_(dram_device) {
  NVMGC_CHECK(heap_device_ != nullptr && dram_device_ != nullptr);
  NVMGC_CHECK(heap_device_->kind() == config.heap_device);
  NVMGC_CHECK(dram_device_->kind() == DeviceKind::kDram);
  NVMGC_CHECK_MSG(config.region_bytes >= 4096 && std::has_single_bit(config.region_bytes),
                  "HeapConfig::region_bytes must be a power of two of at least 4096 "
                  "(e.g. 64 * 1024 or 256 * 1024): region lookup shifts, not divides");
  region_shift_ = static_cast<uint32_t>(std::countr_zero(config.region_bytes));
  NVMGC_CHECK(config.eden_regions <= config.heap_regions);
  if (config.generational) {
    // The whole young generation is DRAM-resident; the arena must hold it.
    NVMGC_CHECK(config.dram_cache_regions >= config.eden_regions + config.survivor_regions);
  }

  heap_bytes_ = config.region_bytes * config.heap_regions;
  cache_bytes_ = config.region_bytes * config.dram_cache_regions;
  // The commit area (durability mode) lives past the regions in the same
  // arena so its writes are charged to the same device and tracked by the
  // same persistence ledger; InHeapArena()/RegionFor() exclude it.
  //
  // Both arenas share one page-aligned buffer, so every object's offset from
  // heap_base() — and with it every line-granular cost and header-map
  // collision — is independent of host placement. The DRAM arena starts on
  // the first page boundary strictly past the heap arena's end, so the
  // heap arena's one-past-the-end address is in neither arena. The buffer is
  // a page multiple mapped from zero pages: untouched regions cost no host
  // memory, and the guard page after the DRAM arena catches overruns.
  constexpr size_t kPageBytes = 4096;
  const size_t cache_offset =
      (heap_bytes_ + config.commit_area_bytes) / kPageBytes * kPageBytes + kPageBytes;
  arena_ = MapZeroedArray<uint8_t>(cache_offset + cache_bytes_, kPageBytes);
  heap_base_ = reinterpret_cast<Address>(arena_.get());
  cache_base_ = heap_base_ + cache_offset;

  heap_region_count_ = config.heap_regions;
  cache_region_count_ = config.dram_cache_regions;
  heap_regions_ = std::make_unique<Region[]>(heap_region_count_);
  for (uint32_t i = 0; i < heap_region_count_; ++i) {
    heap_regions_[i].Initialize(i, heap_base_ + i * config.region_bytes, config.region_bytes,
                                config.heap_device);
    free_heap_regions_.push_back(heap_region_count_ - 1 - i);
  }
  cache_regions_ = std::make_unique<Region[]>(cache_region_count_ == 0 ? 1 : cache_region_count_);
  for (uint32_t i = 0; i < cache_region_count_; ++i) {
    cache_regions_[i].Initialize(i, cache_base_ + i * config.region_bytes, config.region_bytes,
                                 DeviceKind::kDram);
    free_cache_regions_.push_back(cache_region_count_ - 1 - i);
  }
}

Region* Heap::AllocateFromFreeList(std::vector<uint32_t>* free_list, Region* regions,
                                   RegionType type) {
  if (free_list->empty()) {
    return nullptr;
  }
  const uint32_t idx = free_list->back();
  free_list->pop_back();
  Region* region = &regions[idx];
  region->ResetForType(type);
  return region;
}

Region* Heap::AllocateRegion(RegionType type) {
  NVMGC_CHECK(type != RegionType::kFree && type != RegionType::kWriteCache);
  std::lock_guard<std::mutex> lock(mu_);
  if (type == RegionType::kEden && eden_count_ >= config_.eden_regions) {
    return nullptr;  // Eden quota exhausted: caller should trigger a young GC.
  }
  if (config_.generational && type == RegionType::kSurvivor &&
      survivor_count_ >= config_.survivor_regions) {
    return nullptr;  // Survivor quota exhausted: the collector promotes early.
  }
  // In generational mode the whole young generation lives in the DRAM arena;
  // eden_on_dram covers the non-generational "young-gen-dram" configuration.
  const bool from_dram_arena =
      config_.generational ? type == RegionType::kEden || type == RegionType::kSurvivor
                           : type == RegionType::kEden && config_.eden_on_dram;
  Region* region =
      from_dram_arena ? AllocateFromFreeList(&free_cache_regions_, cache_regions_.get(), type)
                      : AllocateFromFreeList(&free_heap_regions_, heap_regions_.get(), type);
  if (region != nullptr && type == RegionType::kEden) {
    ++eden_count_;
  }
  if (region != nullptr && config_.generational && type == RegionType::kSurvivor) {
    ++survivor_count_;
  }
  return region;
}

Address Heap::AllocateLarge(size_t bytes) {
  NVMGC_CHECK(bytes <= config_.region_bytes);
  std::lock_guard<std::mutex> lock(mu_);
  if (los_current_ != nullptr) {
    const Address a = los_current_->Allocate(bytes);
    if (a != kNullAddress) {
      return a;
    }
  }
  Region* region =
      AllocateFromFreeList(&free_heap_regions_, heap_regions_.get(), RegionType::kLarge);
  if (region == nullptr) {
    return kNullAddress;
  }
  los_current_ = region;
  return region->Allocate(bytes);
}

Region* Heap::AllocateHumongousRegion() {
  std::lock_guard<std::mutex> lock(mu_);
  return AllocateFromFreeList(&free_heap_regions_, heap_regions_.get(), RegionType::kHumongous);
}

void Heap::FreeRegion(Region* region) {
  std::lock_guard<std::mutex> lock(mu_);
  const bool in_heap_pool =
      region >= heap_regions_.get() && region < heap_regions_.get() + heap_region_count_;
  const bool in_cache_pool = cache_region_count_ > 0 && region >= cache_regions_.get() &&
                             region < cache_regions_.get() + cache_region_count_;
  NVMGC_CHECK(in_heap_pool || in_cache_pool);
  if (region->type() == RegionType::kEden) {
    NVMGC_CHECK(eden_count_ > 0);
    --eden_count_;
  }
  if (config_.generational && region->type() == RegionType::kSurvivor && in_cache_pool) {
    NVMGC_CHECK(survivor_count_ > 0);
    --survivor_count_;
  }
  if (region == los_current_) {
    los_current_ = nullptr;  // Reclaimed large-object region: reopen lazily.
  }
  const bool quarantine = durable_quarantine_ && in_heap_pool && region->durable_committed();
  region->ResetForType(RegionType::kFree);
  if (quarantine) {
    // Still live in the latest sealed commit: park it until the next commit
    // seals (ReleaseQuarantinedRegions).
    quarantined_heap_regions_.push_back(region->index());
  } else if (in_heap_pool) {
    free_heap_regions_.push_back(region->index());
  } else {
    free_cache_regions_.push_back(region->index());
  }
}

void Heap::ReleaseQuarantinedRegions() {
  std::lock_guard<std::mutex> lock(mu_);
  for (uint32_t idx : quarantined_heap_regions_) {
    free_heap_regions_.push_back(idx);
  }
  quarantined_heap_regions_.clear();
}

Region* Heap::RestoreRegion(uint32_t index, RegionType type, size_t used_bytes,
                            uint64_t gc_epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  NVMGC_CHECK(index < heap_region_count_);
  NVMGC_CHECK(used_bytes <= config_.region_bytes);
  auto it = std::find(free_heap_regions_.begin(), free_heap_regions_.end(), index);
  NVMGC_CHECK_MSG(it != free_heap_regions_.end(),
                  "RestoreRegion: region is not free (restored twice?)");
  free_heap_regions_.erase(it);
  Region* region = &heap_regions_[index];
  region->ResetForType(type);
  region->set_top(region->bottom() + used_bytes);
  region->set_gc_epoch(gc_epoch);
  return region;
}

Region* Heap::AllocateCacheRegion() {
  std::lock_guard<std::mutex> lock(mu_);
  return AllocateFromFreeList(&free_cache_regions_, cache_regions_.get(), RegionType::kWriteCache);
}

void Heap::FreeCacheRegion(Region* region) {
  std::lock_guard<std::mutex> lock(mu_);
  NVMGC_CHECK(region >= cache_regions_.get() &&
              region < cache_regions_.get() + cache_region_count_);
  region->ResetForType(RegionType::kFree);
  free_cache_regions_.push_back(region->index());
}

Region* Heap::RegionFor(Address a) {
  if (InHeapArena(a)) {
    return &heap_regions_[(a - heap_base_) >> region_shift_];
  }
  if (InCacheArena(a)) {
    return &cache_regions_[(a - cache_base_) >> region_shift_];
  }
  return nullptr;
}

const Region* Heap::RegionFor(Address a) const {
  return const_cast<Heap*>(this)->RegionFor(a);
}

void Heap::ForEachRegion(const std::function<void(Region*)>& fn) {
  for (uint32_t i = 0; i < heap_region_count_; ++i) {
    fn(&heap_regions_[i]);
  }
  for (uint32_t i = 0; i < cache_region_count_; ++i) {
    fn(&cache_regions_[i]);
  }
}

uint32_t Heap::CountRegions(RegionType type) const {
  uint32_t count = 0;
  for (uint32_t i = 0; i < heap_region_count_; ++i) {
    if (heap_regions_[i].type() == type) {
      ++count;
    }
  }
  for (uint32_t i = 0; i < cache_region_count_; ++i) {
    if (cache_regions_[i].type() == type) {
      ++count;
    }
  }
  return count;
}

uint32_t Heap::free_region_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<uint32_t>(free_heap_regions_.size());
}

void Heap::ForEachObjectInRegion(Region* region,
                                 const std::function<void(Address)>& fn) const {
  Address cursor = region->bottom();
  const Address top = region->top();
  while (cursor < top) {
    fn(cursor);
    const size_t size = obj::SizeOfAt(cursor, klasses_);
    NVMGC_CHECK(size >= obj::kHeaderBytes);
    cursor += size;
  }
  NVMGC_CHECK(cursor == top);
}

}  // namespace nvmgc
