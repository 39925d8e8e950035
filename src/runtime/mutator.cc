#include "src/runtime/mutator.h"

#include "src/runtime/vm.h"
#include "src/util/check.h"

namespace nvmgc {

namespace {
constexpr uint64_t kAllocCpuNs = 9;    // Bump-pointer + size computation.
constexpr uint64_t kBarrierCpuNs = 3;  // Write-barrier filter.
}  // namespace

Address Mutator::Allocate(const AllocRequest& request) {
  const Klass& klass = vm_->heap_->klasses().Get(request.klass);
  const size_t size = obj::SizeOf(klass, request.array_length);
  if (vm_->options().gc.generational.enabled && size <= vm_->heap_->region_bytes() &&
      (request.large_object || size >= vm_->heap_->region_bytes() / 8)) {
    // Large objects skip the young generation for the never-copied NVM space.
    return AllocateLargeObject(klass, request.array_length, size, request.site);
  }
  if (size > vm_->heap_->region_bytes() / 2) {
    return AllocateHumongous(klass, request.array_length, size, request.site);
  }
  return AllocateSmall(klass, request.array_length, size, request.site);
}

Address Mutator::Initialize(Address addr, const Klass& klass, uint64_t array_length,
                            size_t size, uint32_t site) {
  obj::InitializeObject(addr, klass, array_length, site);
  MemoryDevice* dev = vm_->heap_->DeviceFor(vm_->heap_->RegionFor(addr));
  dev->Access(&vm_->clock_, SequentialWrite(addr, static_cast<uint32_t>(size)));
  vm_->clock_.Advance(kAllocCpuNs);
  return addr;
}

Address Mutator::AllocateSmall(const Klass& klass, uint64_t array_length, size_t size,
                               uint32_t site) {
  for (int attempt = 0; attempt < 3; ++attempt) {
    if (tlab_ != nullptr) {
      const Address addr = tlab_->Allocate(size);
      if (addr != kNullAddress) {
        vm_->site_profiler_->OnBirth(site, size);
        return Initialize(addr, klass, array_length, size, site);
      }
    }
    tlab_ = vm_->heap_->AllocateRegion(RegionType::kEden);
    if (tlab_ == nullptr) {
      // Eden quota exhausted: young GC, then retry with a fresh TLAB.
      vm_->CollectNow();
    }
  }
  CheckFailed(__FILE__, __LINE__, "false", "heap exhausted: allocation failed even after GC");
}

Address Mutator::AllocateHumongous(const Klass& klass, uint64_t array_length, size_t size,
                                   uint32_t site) {
  NVMGC_CHECK(size <= vm_->heap_->region_bytes());
  for (int attempt = 0; attempt < 2; ++attempt) {
    Region* region = vm_->heap_->AllocateHumongousRegion();
    if (region != nullptr) {
      const Address addr = region->Allocate(size);
      NVMGC_CHECK(addr != kNullAddress);
      vm_->site_profiler_->OnLargeAlloc(site, size);
      return Initialize(addr, klass, array_length, size, site);
    }
    vm_->CollectNow();
  }
  CheckFailed(__FILE__, __LINE__, "false", "no region available for a humongous allocation");
}

Address Mutator::AllocateLargeObject(const Klass& klass, uint64_t array_length, size_t size,
                                     uint32_t site) {
  // Large objects are tenured in place: never copied, reclaimed whole-region
  // by the old-region sweep once every object in the region is dead.
  for (int attempt = 0; attempt < 2; ++attempt) {
    const Address addr = vm_->heap_->AllocateLarge(size);
    if (addr != kNullAddress) {
      vm_->site_profiler_->OnLargeAlloc(site, size);
      return Initialize(addr, klass, array_length, size, site);
    }
    // Free-list exhausted: CollectNow escalates to a major cycle when the
    // heap is this full, which is what frees old regions.
    vm_->CollectNow();
  }
  CheckFailed(__FILE__, __LINE__, "false", "no region available for a large-object allocation");
}

void Mutator::WriteRef(Address object, size_t slot_index, Address value) {
  const Klass& klass = vm_->heap_->klasses().Get(obj::KlassIdOf(object));
  const Address slot = obj::RefSlot(object, klass, slot_index);
  obj::StoreRef(slot, value);
  Region* region = vm_->heap_->RegionFor(object);
  vm_->heap_->DeviceFor(region)->Access(&vm_->clock_, RandomWrite(slot, 8));
  vm_->clock_.Advance(kBarrierCpuNs);
  // Old->young write barrier: record the slot in the target's remembered set.
  if (value != kNullAddress && region->is_old_like()) {
    Region* target = vm_->heap_->RegionFor(value);
    if (target != nullptr && target->is_young()) {
      target->remset().Add(slot);
    }
  }
}

Address Mutator::ReadRef(Address object, size_t slot_index) {
  const Klass& klass = vm_->heap_->klasses().Get(obj::KlassIdOf(object));
  const Address slot = obj::RefSlot(object, klass, slot_index);
  Region* region = vm_->heap_->RegionFor(object);
  vm_->heap_->DeviceFor(region)->Access(&vm_->clock_, RandomRead(slot, 8));
  return obj::LoadRef(slot);
}

void Mutator::ReadPayload(Address object, uint32_t bytes) {
  Region* region = vm_->heap_->RegionFor(object);
  MemoryDevice* dev = vm_->heap_->DeviceFor(region);
  if (bytes <= 64) {
    dev->Access(&vm_->clock_, RandomRead(object, bytes));
  } else {
    dev->Access(&vm_->clock_, SequentialRead(object, bytes));
  }
}

void Mutator::WritePayload(Address object, uint32_t bytes) {
  Region* region = vm_->heap_->RegionFor(object);
  MemoryDevice* dev = vm_->heap_->DeviceFor(region);
  if (bytes <= 64) {
    dev->Access(&vm_->clock_, RandomWrite(object, bytes));
  } else {
    dev->Access(&vm_->clock_, SequentialWrite(object, bytes));
  }
}

}  // namespace nvmgc
